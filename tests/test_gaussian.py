import math
import re

import numpy as np
import pytest

import reference as ref
from fock_oracle import Mixture, Oracle
from wignersim import gaussian as ga
from wignersim import scenario as sc
from wignersim import symplectic as sym
from wignersim import wigner as wg
from wignersim.errors import NumericalBreakdown

RNG = np.random.default_rng(77)


def lossy(state: ga.GaussianState, spec: ga.LossSpec) -> ga.GaussianState:
    return ref.lossy(state, spec.total)


def thermal_noise(state: ga.GaussianState, mode: int, nbar_env: float, eta: float) -> ga.GaussianState:
    """Thermal injection on one mode, as the channel after the MZI applies it."""
    return ref.attenuated(state, slice(2 * mode - 2, 2 * mode), math.sqrt(eta),
                          (1.0 - eta) * (2.0 * nbar_env + 1.0) / 2.0)


def photons(state: ga.GaussianState) -> float:
    """Mean photon number of mode 1."""
    return ga.mean_photon(state.mean, state.cov, 1)


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
        s = ga.propagate(ga.vacuum_state(), sym.make_squeezer(0.8, 0.0))
        np.testing.assert_allclose(s.cov, np.diag([math.exp(1.6), math.exp(-1.6)]), rtol=1e-14)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            ga.coherent_state(-1.0)
        with pytest.raises(ValueError):
            ga.thermal_state(-0.2)
        with pytest.raises(ValueError):
            ga.propagate(ga.vacuum_state(), sym.make_squeezer(-0.5))

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
        state = ga.tensor([ga.coherent_state(alpha, 0.0), ga.propagate(ga.vacuum_state(), sym.make_squeezer(r, 0.0))])
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
            assert abs(ref.evaluate(w, pt) - math.exp(expo) / math.pi**2) < 1e-12

    def test_mean_photon_additive(self):
        t = ga.tensor([ga.thermal_state(1.5), ga.coherent_state(2.0, 0.3)])
        assert abs(ga.total_mean_photon(t) - (1.5 + 4.0)) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ga.tensor([])


class TestPropagate:
    def test_identity(self):
        s = ga.thermal_state(0.7)
        out = ga.propagate(s, sym.SymplecticTransform(np.eye(2)))
        np.testing.assert_allclose(out.cov, s.cov)

    def test_mzi_output_closed_form(self):
        alpha, r, phi = 1.7, 0.9, 0.8
        state = ga.tensor([ga.coherent_state(alpha, 0.0), ga.propagate(ga.vacuum_state(), sym.make_squeezer(r, 0.0))])
        out = ga.propagate(state, sym.SymplecticTransform(sym.mzi_matrix(phi)))
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
        bs = sym.SymplecticTransform(sym.beam_splitter_matrix(0.5))
        s = ga.tensor([ga.coherent_state(0.9, 0.2), ga.thermal_state(0.4)])
        once = ga.propagate(ga.propagate(s, bs), bs)
        both = ga.propagate(s, sym.SymplecticTransform(bs.matrix @ bs.matrix))
        np.testing.assert_allclose(once.cov, both.cov, atol=1e-13)
        np.testing.assert_allclose(once.mean, both.mean, atol=1e-13)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ga.propagate(ga.vacuum_state(1), sym.SymplecticTransform(sym.beam_splitter_matrix(0.5)))


class TestLossChannels:
    def test_no_loss_identity(self):
        s = ga.coherent_state(1.3, 0.1)
        out = lossy(s, ga.LossSpec(L=0.0, D=1.0))
        np.testing.assert_allclose(out.cov, s.cov)
        np.testing.assert_allclose(out.mean, s.mean)

    def test_vacuum_fixed_point(self):
        for lt in (0.1, 0.5, 0.9):
            out = lossy(ga.vacuum_state(2), ga.LossSpec(L=lt, D=0.8))
            np.testing.assert_allclose(out.cov, np.eye(4), atol=1e-14)

    def test_variable_replacement(self):
        # D(1-L) = 0.81 maps |alpha| -> 0.9 |alpha|
        out = lossy(ga.coherent_state(1.0, 0.0), ga.LossSpec(L=0.1, D=0.9))
        assert abs(photons(out) - 0.81) < 1e-12
        np.testing.assert_allclose(out.mean, ga.coherent_state(0.9, 0.0).mean, atol=1e-12)

    def test_mean_photon_replacement_rule(self):
        # nbar -> D(1-L) nbar for every input species
        spec = ga.LossSpec(L=0.25, D=0.8)
        factor = 0.8 * 0.75
        cases = [
            (ga.coherent_state(1.5, 0.3), 2.25),
            (ga.thermal_state(2.0), 2.0),
            (ga.propagate(ga.vacuum_state(), sym.make_squeezer(0.9, 0.0)), math.sinh(0.9) ** 2),
        ]
        for state, nbar in cases:
            assert abs(photons(lossy(state, spec)) - factor * nbar) < 1e-12

    def test_explicit_matches_uniform(self):
        state = ga.tensor([ga.coherent_state(1.2, 0.0), ga.propagate(ga.vacuum_state(), sym.make_squeezer(0.8, 0.0))])
        eta = 0.8
        via_bs = ref.inject_thermal(ref.inject_thermal(state, 1, 0.0, eta), 2, 0.0, eta)
        uniform = lossy(state, ga.LossSpec(L=1.0 - eta, D=1.0))
        np.testing.assert_allclose(via_bs.cov, uniform.cov, atol=1e-12)
        np.testing.assert_allclose(via_bs.mean, uniform.mean, atol=1e-12)

    def test_explicit_edges(self):
        t = ga.thermal_state(3.0)
        out = thermal_noise(t, 1, 0.0, 1.0)
        np.testing.assert_allclose(out.cov, t.cov, atol=1e-14)
        dead = thermal_noise(t, 1, 0.0, 0.0)
        np.testing.assert_allclose(dead.cov, np.eye(2), atol=1e-14)

    def test_invalid_mode(self):
        # the noisy modes are validated where a config gives them
        with pytest.raises(ValueError):
            sc.NoiseSpec.from_dict({"thermal": {"nbar_env": 0.0, "eta": 0.5, "modes": [3]}}, "noise")


class TestInjectThermal:
    def test_vacuum_ancilla_reduces_to_loss(self):
        s = ga.propagate(ga.vacuum_state(), sym.make_squeezer(0.6, 0.4))
        lhs = thermal_noise(s, 1, 0.0, 0.7)
        rhs = ref.inject_thermal(s, 1, 0.0, 0.7)
        np.testing.assert_allclose(lhs.cov, rhs.cov, atol=1e-14)

    def test_full_transmission_identity(self):
        s = ga.thermal_state(1.1)
        out = thermal_noise(s, 1, 2.0, 1.0)
        np.testing.assert_allclose(out.cov, s.cov, atol=1e-13)

    def test_half_mixing_covariance(self):
        out = thermal_noise(ga.vacuum_state(1), 1, 1.0, 0.5)
        np.testing.assert_allclose(np.diag(out.cov), [2.0, 2.0], atol=1e-13)

    def test_against_fock_oracle(self):
        # vacuum mixed with nbar_env = 1 on a 50/50 splitter
        orc = Oracle([35, 35])
        mix = Mixture.from_product(orc, [("vacuum",), ("thermal", 1.0)]).apply(orc.bs(1, 2, 0.5))
        want = mix.number_mean(1)
        got = photons(thermal_noise(ga.vacuum_state(1), 1, 1.0, 0.5))
        assert abs(got - want) < 1e-8


class TestChannelCheck:
    @pytest.mark.parametrize("eta", [1.0, 0.8, 0.5, 0.0])
    def test_attenuator_is_completely_positive_with_its_vacuum_noise_alone(self, eta):
        # X -> sqrt(eta) X + xi with xi of variance (1 - eta)/2 per variable, the route's attenuation, is a beam
        # splitter against vacuum: 2C + i(Omega - K Omega K^T) = (1 - eta)(I + i Omega), of least eigenvalue 0;
        # half that noise leaves -(1 - eta)/2
        k, _, c = sc._attenuated((np.eye(2), np.zeros(2), np.zeros((2, 2))), slice(0, 2), math.sqrt(eta),
                                 (1.0 - eta) / 2.0)
        ga.check_channel(k, c)
        if eta < 1.0:
            with pytest.raises(NumericalBreakdown, match=re.escape(f"is {-(1.0 - eta) / 2.0:.3e}")):
                ga.check_channel(k, c / 2.0)

    def test_amplifier_needs_its_added_noise(self):
        # X -> g X + xi with g > 1 is completely positive only with 2C >= (g^2 - 1) I
        g = 1.5
        ga.check_channel(g * np.eye(2), (g * g - 1.0) / 2.0 * np.eye(2))
        with pytest.raises(NumericalBreakdown):
            ga.check_channel(g * np.eye(2), 0.9 * (g * g - 1.0) / 2.0 * np.eye(2))


class TestWilliamson:
    @pytest.mark.parametrize("nu", [(1.0, 1.0), (1.0, 3.5), (2.0, 2.0), (1.2, 40.0)])
    def test_recovers_the_normal_form(self, nu):
        for _ in range(5):
            s = (sym.make_two_mode_squeezer(RNG.uniform(0, 1), RNG.uniform(0, 6)).matrix
                 @ sym.beam_splitter_matrix(RNG.uniform(0, 1))
                 @ sym.embed(sym.make_squeezer(RNG.uniform(0, 2), RNG.uniform(0, 6)), [2], 2).matrix
                 @ sym.embed(sym.make_squeezer(RNG.uniform(0, 2), RNG.uniform(0, 6)), [1], 2).matrix)
            cov = s @ np.diag(np.repeat(nu, 2)) @ s.T
            got, s_inv = ga.williamson(cov)
            np.testing.assert_allclose(got, sorted(nu), rtol=1e-10)
            np.testing.assert_allclose(s_inv @ cov @ s_inv.T, np.diag(np.repeat(got, 2)), atol=1e-9 * max(nu))
            np.testing.assert_allclose(s_inv @ sym.omega(2) @ s_inv.T, sym.omega(2), atol=1e-10)


class TestMeanPhoton:
    def test_vacuum_zero(self):
        assert photons(ga.vacuum_state(1)) == 0.0

    def test_coherent(self):
        assert abs(photons(ga.coherent_state(2.0, 0.9)) - 4.0) < 1e-12

    def test_squeezed(self):
        squeezed = ga.propagate(ga.vacuum_state(), sym.make_squeezer(1.0, 0.0))
        assert abs(photons(squeezed) - math.sinh(1.0) ** 2) < 1e-12


class TestInvariantProperties:
    def test_bona_fide_preserved_and_conservation(self):
        for _ in range(200):
            alpha2 = RNG.uniform(0.0, 4.0)
            r = RNG.uniform(0.0, 1.2)
            nbar = RNG.uniform(0.0, 3.0)
            phi = RNG.uniform(0.0, 2 * math.pi)
            t = RNG.uniform(0.0, 1.0)
            state = ga.tensor([ga.coherent_state(math.sqrt(alpha2), RNG.uniform(0, 6.28)), ga.thermal_state(nbar)])
            passive = ref.symmetric_phase_matrix(phi) @ sym.beam_splitter_matrix(t)
            f = sym.SymplecticTransform(passive @ sym.embed(sym.make_squeezer(r, 0.1), [1], 2).matrix)
            out = ga.propagate(state, f)  # constructor re-checks bona fide
            # passive elements conserve total photon number
            out2 = ga.propagate(state, sym.SymplecticTransform(passive))
            assert abs(ga.total_mean_photon(out2) - ga.total_mean_photon(state)) < 1e-10

    def test_loss_total_yields_vacuum(self):
        for _ in range(50):
            state = ga.tensor([ga.thermal_state(RNG.uniform(0, 3)), ga.coherent_state(RNG.uniform(0, 2), 0.0)])
            out = lossy(state, ga.LossSpec(L=1.0, D=1.0))
            np.testing.assert_allclose(out.cov, np.eye(4), atol=1e-12)
            np.testing.assert_allclose(out.mean, np.zeros(4), atol=1e-12)

    def test_purity_never_increases_under_channels(self):
        for _ in range(30):
            s = ga.propagate(ga.vacuum_state(), sym.make_squeezer(RNG.uniform(0, 1.0), 0.0))
            before = wg.purity(wg.from_gaussian(s))
            attenuated = lossy(s, ga.LossSpec(L=RNG.uniform(0.05, 0.6), D=1.0))
            noisy = thermal_noise(s, 1, RNG.uniform(0.1, 1.0), RNG.uniform(0.2, 0.95))
            assert wg.purity(wg.from_gaussian(attenuated)) <= before + 1e-10
            assert wg.purity(wg.from_gaussian(noisy)) <= before + 1e-10
