import math

import numpy as np
import pytest

from fock_oracle import Mixture, Oracle
from wignersim import gaussian as ga
from wignersim import symplectic as sym
from wignersim import wigner as wg

RNG = np.random.default_rng(77)


class TestStateConstruction:
    def test_vacuum(self):
        v = ga.vacuum_state(1)
        np.testing.assert_allclose(v.mean, [0.0, 0.0])
        np.testing.assert_allclose(v.cov, np.eye(2))

    def test_coherent(self):
        c = ga.coherent_state(1.0, 0.0)
        np.testing.assert_allclose(c.mean, [math.sqrt(2.0), 0.0])
        np.testing.assert_allclose(c.cov, np.eye(2))

    def test_thermal_cov_and_fock_oracle(self):
        t = ga.thermal_state(2.0)
        np.testing.assert_allclose(t.cov, 5.0 * np.eye(2))
        np.testing.assert_allclose(t.mean, [0.0, 0.0])
        # independent check: truncated Fock thermal state has <x^2> = nbar + 1/2
        mix = Mixture.from_product(Oracle([120]), [("thermal", 2.0)])
        _, x2 = mix.quadrature_moments(1, 0.0)
        assert abs(t.cov[0, 0] / 2.0 - x2) < 1e-9

    def test_squeezed_vacuum_cov(self):
        s = ga.squeezed_vacuum(0.8, 0.0)
        np.testing.assert_allclose(s.cov, np.diag([math.exp(1.6), math.exp(-1.6)]), rtol=1e-14)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            ga.coherent_state(-1.0)
        with pytest.raises(ValueError):
            ga.thermal_state(-0.2)
        with pytest.raises(ValueError):
            ga.squeezed_vacuum(-0.5)

    @pytest.mark.parametrize("cov", [[[math.inf, 0.0], [0.0, 1.0]], [[1.0, math.nan], [math.nan, 1.0]]])
    def test_non_finite_covariance_rejected(self, cov):
        with pytest.raises(ValueError, match="non-finite"):
            ga.GaussianState(np.zeros(2), np.array(cov))


class TestTensor:
    def test_vacuum_pair(self):
        t = ga.tensor([ga.vacuum_state(1), ga.vacuum_state(1)])
        v2 = ga.vacuum_state(2)
        np.testing.assert_allclose(t.mean, v2.mean)
        np.testing.assert_allclose(t.cov, v2.cov)

    def test_two_mode_wigner_exponent_closed_form(self):
        # W = (1/pi^2) exp(-2|a|^2 - p1^2 + 2 sqrt2 |a| x1 - x1^2 - e^{2r} p2^2 - e^{-2r} x2^2)
        alpha, r = 1.1, 0.6
        state = ga.tensor([ga.coherent_state(alpha, 0.0), ga.squeezed_vacuum(r, 0.0)])
        w = wg.from_gaussian(state)
        for pt in RNG.normal(0.0, 1.0, size=(20, 4)):
            x1, p1, x2, p2 = pt
            expo = (
                -2.0 * alpha**2
                - p1**2
                + 2.0 * math.sqrt(2.0) * alpha * x1
                - x1**2
                - math.exp(2.0 * r) * p2**2
                - math.exp(-2.0 * r) * x2**2
            )
            assert abs(w.evaluate(pt) - math.exp(expo) / math.pi**2) < 1e-12

    def test_mean_photon_additive(self):
        t = ga.tensor([ga.thermal_state(1.5), ga.coherent_state(2.0, 0.3)])
        assert abs(ga.total_mean_photon(t) - (1.5 + 4.0)) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ga.tensor([])


class TestPropagate:
    def test_identity(self):
        s = ga.thermal_state(0.7)
        out = ga.propagate(s, sym.identity_transform(1))
        np.testing.assert_allclose(out.cov, s.cov)

    def test_mzi_output_closed_form(self):
        alpha, r, phi = 1.7, 0.9, 0.8
        state = ga.tensor([ga.coherent_state(alpha, 0.0), ga.squeezed_vacuum(r, 0.0)])
        out = ga.propagate(state, sym.make_mzi(phi))
        mean = [math.sqrt(2) * alpha * math.cos(phi / 2), 0.0, 0.0, math.sqrt(2) * alpha * math.sin(phi / 2)]
        np.testing.assert_allclose(out.mean, mean, atol=1e-12)
        gam = math.cosh(r) + math.cos(phi) * math.sinh(r)
        lam = math.cosh(r) - math.cos(phi) * math.sinh(r)
        er, emr, ssh = math.exp(r), math.exp(-r), math.sin(phi) * math.sinh(r)
        cov = np.array(
            [
                [gam * emr, 0, 0, emr * ssh],
                [0, lam * er, er * ssh, 0],
                [0, er * ssh, gam * er, 0],
                [emr * ssh, 0, 0, lam * emr],
            ]
        )
        np.testing.assert_allclose(out.cov, cov, atol=1e-12)

    def test_two_step_equals_composed(self):
        bs = sym.make_beam_splitter(0.5)
        s = ga.tensor([ga.coherent_state(0.9, 0.2), ga.thermal_state(0.4)])
        once = ga.propagate(ga.propagate(s, bs), bs)
        both = ga.propagate(s, sym.compose(bs, bs))
        np.testing.assert_allclose(once.cov, both.cov, atol=1e-13)
        np.testing.assert_allclose(once.mean, both.mean, atol=1e-13)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ga.propagate(ga.vacuum_state(1), sym.make_beam_splitter(0.5))


class TestLossChannels:
    def test_no_loss_identity(self):
        s = ga.coherent_state(1.3, 0.1)
        out = ga.apply_loss(s, ga.LossSpec(L=0.0, D=1.0))
        np.testing.assert_allclose(out.cov, s.cov)
        np.testing.assert_allclose(out.mean, s.mean)

    def test_vacuum_fixed_point(self):
        for lt in (0.1, 0.5, 0.9):
            out = ga.apply_loss(ga.vacuum_state(2), ga.LossSpec(L=lt, D=0.8))
            np.testing.assert_allclose(out.cov, np.eye(4), atol=1e-14)

    def test_variable_replacement(self):
        # D(1-L) = 0.81 maps |alpha| -> 0.9 |alpha|
        out = ga.apply_loss(ga.coherent_state(1.0, 0.0), ga.LossSpec(L=0.1, D=0.9))
        assert abs(ga.mean_photon(out, 1) - 0.81) < 1e-12
        np.testing.assert_allclose(out.mean, ga.coherent_state(0.9, 0.0).mean, atol=1e-12)

    def test_mean_photon_replacement_rule(self):
        # nbar -> D(1-L) nbar for every input species
        spec = ga.LossSpec(L=0.25, D=0.8)
        factor = 0.8 * 0.75
        cases = [
            (ga.coherent_state(1.5, 0.3), 2.25),
            (ga.thermal_state(2.0), 2.0),
            (ga.squeezed_vacuum(0.9, 0.0), math.sinh(0.9) ** 2),
        ]
        for state, nbar in cases:
            assert abs(ga.mean_photon(ga.apply_loss(state, spec), 1) - factor * nbar) < 1e-12

    def test_explicit_matches_uniform(self):
        state = ga.tensor([ga.coherent_state(1.2, 0.0), ga.squeezed_vacuum(0.8, 0.0)])
        eta = 0.8
        via_bs = ga.apply_loss_explicit(ga.apply_loss_explicit(state, 1, eta), 2, eta)
        uniform = ga.apply_loss(state, ga.LossSpec(L=1.0 - eta, D=1.0))
        np.testing.assert_allclose(via_bs.cov, uniform.cov, atol=1e-12)
        np.testing.assert_allclose(via_bs.mean, uniform.mean, atol=1e-12)

    def test_explicit_edges(self):
        t = ga.thermal_state(3.0)
        out = ga.apply_loss_explicit(t, 1, 1.0)
        np.testing.assert_allclose(out.cov, t.cov, atol=1e-14)
        dead = ga.apply_loss_explicit(t, 1, 0.0)
        np.testing.assert_allclose(dead.cov, np.eye(2), atol=1e-14)

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            ga.apply_loss_explicit(ga.vacuum_state(1), 2, 0.5)


class TestInjectThermal:
    def test_vacuum_ancilla_reduces_to_loss(self):
        s = ga.squeezed_vacuum(0.6, 0.4)
        lhs = ga.inject_thermal(s, 1, 0.0, 0.7)
        rhs = ga.apply_loss_explicit(s, 1, 0.7)
        np.testing.assert_allclose(lhs.cov, rhs.cov, atol=1e-14)

    def test_full_transmission_identity(self):
        s = ga.thermal_state(1.1)
        out = ga.inject_thermal(s, 1, 2.0, 1.0)
        np.testing.assert_allclose(out.cov, s.cov, atol=1e-13)

    def test_half_mixing_covariance(self):
        out = ga.inject_thermal(ga.vacuum_state(1), 1, 1.0, 0.5)
        np.testing.assert_allclose(np.diag(out.cov), [2.0, 2.0], atol=1e-13)

    def test_against_fock_oracle(self):
        # vacuum mixed with nbar_env = 1 on a 50/50 splitter
        orc = Oracle([35, 35])
        mix = Mixture.from_product(orc, [("vacuum",), ("thermal", 1.0)]).apply(orc.bs(1, 2, 0.5))
        want = mix.number_mean(1)
        got = ga.mean_photon(ga.inject_thermal(ga.vacuum_state(1), 1, 1.0, 0.5), 1)
        assert abs(got - want) < 1e-8


class TestWilliamson:
    @pytest.mark.parametrize("nu", [(1.0, 1.0), (1.0, 3.5), (2.0, 2.0), (1.2, 40.0)])
    def test_recovers_the_normal_form(self, nu):
        for _ in range(5):
            s = sym.chain(
                sym.embed(sym.make_squeezer(RNG.uniform(0, 2), RNG.uniform(0, 6)), [1], 2),
                sym.embed(sym.make_squeezer(RNG.uniform(0, 2), RNG.uniform(0, 6)), [2], 2),
                sym.make_beam_splitter(RNG.uniform(0, 1)),
                sym.make_two_mode_squeezer(RNG.uniform(0, 1), RNG.uniform(0, 6)),
            ).matrix
            cov = s @ np.diag(np.repeat(nu, 2)) @ s.T
            got, s_inv = ga.williamson(cov)
            np.testing.assert_allclose(got, sorted(nu), rtol=1e-10)
            np.testing.assert_allclose(s_inv @ cov @ s_inv.T, np.diag(np.repeat(got, 2)), atol=1e-9 * max(nu))
            np.testing.assert_allclose(s_inv @ sym.omega(2) @ s_inv.T, sym.omega(2), atol=1e-10)


class TestMeanPhoton:
    def test_vacuum_zero(self):
        assert ga.mean_photon(ga.vacuum_state(1), 1) == 0.0

    def test_coherent(self):
        assert abs(ga.mean_photon(ga.coherent_state(2.0, 0.9), 1) - 4.0) < 1e-12

    def test_squeezed(self):
        assert abs(ga.mean_photon(ga.squeezed_vacuum(1.0, 0.0), 1) - math.sinh(1.0) ** 2) < 1e-12


class TestInvariantProperties:
    def test_bona_fide_preserved_and_conservation(self):
        for _ in range(200):
            alpha2 = RNG.uniform(0.0, 4.0)
            r = RNG.uniform(0.0, 1.2)
            nbar = RNG.uniform(0.0, 3.0)
            phi = RNG.uniform(0.0, 2 * math.pi)
            t = RNG.uniform(0.0, 1.0)
            state = ga.tensor([ga.coherent_state(math.sqrt(alpha2), RNG.uniform(0, 6.28)), ga.thermal_state(nbar)])
            f = sym.chain(
                sym.direct_sum([sym.make_squeezer(r, 0.1), sym.identity_transform(1)]),
                sym.make_beam_splitter(t),
                sym.make_symmetric_phase_shifter(phi),
            )
            out = ga.propagate(state, f)  # constructor re-checks bona fide
            # passive elements conserve total photon number
            passive = sym.chain(sym.make_beam_splitter(t), sym.make_symmetric_phase_shifter(phi))
            out2 = ga.propagate(state, passive)
            assert abs(ga.total_mean_photon(out2) - ga.total_mean_photon(state)) < 1e-10

    def test_loss_total_yields_vacuum(self):
        for _ in range(50):
            state = ga.tensor([ga.thermal_state(RNG.uniform(0, 3)), ga.coherent_state(RNG.uniform(0, 2), 0.0)])
            out = ga.apply_loss(state, ga.LossSpec(L=1.0, D=1.0))
            np.testing.assert_allclose(out.cov, np.eye(4), atol=1e-12)
            np.testing.assert_allclose(out.mean, np.zeros(4), atol=1e-12)

    def test_purity_never_increases_under_channels(self):
        for _ in range(30):
            s = ga.squeezed_vacuum(RNG.uniform(0, 1.0), 0.0)
            before = wg.purity(wg.from_gaussian(s))
            lossy = ga.apply_loss(s, ga.LossSpec(L=RNG.uniform(0.05, 0.6), D=1.0))
            noisy = ga.inject_thermal(s, 1, RNG.uniform(0.1, 1.0), RNG.uniform(0.2, 0.95))
            assert wg.purity(wg.from_gaussian(lossy)) <= before + 1e-10
            assert wg.purity(wg.from_gaussian(noisy)) <= before + 1e-10
