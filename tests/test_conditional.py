import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fock_oracle import Mixture, Oracle
from wignersim import conditional as cond
from wignersim import gaussian as ga
from wignersim import measurements as meas
from wignersim import symplectic as sym
from wignersim import wigner as wg
from wignersim.errors import ImprobableBranch

RNG = np.random.default_rng(99)


def coherent_expr(alpha2: float) -> wg.WignerExpr:
    return wg.from_gaussian(ga.coherent_state(math.sqrt(alpha2), 0.0))


def thermal_expr(nbar: float) -> wg.WignerExpr:
    return wg.from_gaussian(ga.thermal_state(nbar))


class TestAddition:
    def test_probability_matches_closed_form(self):
        h = cond.add_photons_bs(coherent_expr(1.0), 1, 1, 0.9)
        assert abs(h.probability - 0.1 * math.exp(-0.1) * 1.9) < 1e-12
        assert abs(h.probability - cond.spacs_prob(1.0, 1, 0.9)) < 1e-12

    def test_limit_mean_photon(self):
        # T -> 1: <n> -> |alpha|^2 + 2 - 1/(|alpha|^2 + 1) = 2.5 at |alpha|^2 = 1
        h = cond.add_photons_bs(coherent_expr(1.0), 1, 1, 1.0 - 1e-9)
        assert abs(meas.intensity(h.state).mean - 2.5) < 1e-6
        assert h.probability < 1e-8
        assert abs(cond.spacs_mean_n(1.0, 1, 1.0) - 2.5) < 1e-12

    def test_t_equal_one_improbable(self):
        with pytest.raises(ImprobableBranch):
            cond.add_photons_bs(coherent_expr(1.0), 1, 1, 1.0)
        assert cond.spacs_prob(1.0, 1, 1.0) == 0.0

    def test_against_fock_oracle(self):
        orc = Oracle([30, 10])
        mix = Mixture.from_product(orc, [("coherent", 1.0), ("fock", 1)]).apply(orc.bs(2, 1, 0.85))
        red, prob = mix.herald_fock(2, 0)
        h = cond.add_photons_bs(coherent_expr(1.0), 1, 1, 0.85)
        assert abs(h.probability - prob) < 1e-9
        assert abs(meas.intensity(h.state).mean - red.number_mean(1)) < 1e-8
        dist = wg.photon_number_distribution(h.state, 1, 25)
        np.testing.assert_allclose(dist.probs, red.number_distribution(1)[:26], atol=1e-7)


class TestSpdc:
    def test_zero_interaction_improbable(self):
        with pytest.raises(ImprobableBranch):
            cond.add_photon_spdc(coherent_expr(1.0), 1, 0.0)

    def test_small_r_matches_bs_limit(self):
        # deviation from the creation-operator limit shrinks as r^2
        h = cond.add_photon_spdc(coherent_expr(1.0), 1, 0.02)
        dev = abs(meas.intensity(h.state).mean - 2.5)
        assert dev < 1e-3
        dev5 = abs(meas.intensity(cond.add_photon_spdc(coherent_expr(1.0), 1, 0.05).state).mean - 2.5)
        assert dev < dev5

    def test_vacuum_heralds_single_photon(self):
        h = cond.add_photon_spdc(wg.from_gaussian(ga.vacuum_state(1)), 1, 0.3)
        assert abs(meas.parity(h.state).mean + 1.0) < 1e-10

    def test_against_fock_oracle(self):
        orc = Oracle([25, 10])
        r = 0.4
        mix = Mixture.from_product(orc, [("coherent", 0.8), ("vacuum",)]).apply(orc.tms(2, 1, r))
        red, prob = mix.herald_fock(2, 1)
        h = cond.add_photon_spdc(coherent_expr(0.64), 1, r)
        assert abs(h.probability - prob) < 1e-8
        assert abs(meas.intensity(h.state).mean - red.number_mean(1)) < 1e-7


class TestSubtraction:
    def test_thermal_closed_forms(self):
        s = cond.subtract_photons(thermal_expr(1.0), 1, 1, 0.9)
        assert abs(s.probability - 0.1 / 1.21) < 1e-12
        assert abs(meas.intensity(s.state).mean - cond.spsts_mean_n(1.0, 1, 0.9)) < 1e-10

    def test_limit_doubles_thermal(self):
        s = cond.subtract_photons(thermal_expr(1.0), 1, 1, 1.0 - 1e-9)
        assert abs(meas.intensity(s.state).mean - 2.0) < 1e-6
        assert s.probability < 1e-8

    def test_coherent_invariance(self):
        for t in (0.5, 0.8, 0.95):
            s = cond.subtract_photons(coherent_expr(1.0), 1, 1, t)
            ref = wg.photon_number_distribution(coherent_expr(t), 1, 25).probs
            got = wg.photon_number_distribution(s.state, 1, 25).probs
            assert np.max(np.abs(got - ref)) < 1e-8

    def test_grid_against_closed_forms(self):
        for t in (0.5, 0.7, 0.9, 0.99):
            for m in (1, 2, 3):
                s = cond.subtract_photons(thermal_expr(1.0), 1, m, t)
                assert abs(s.probability - cond.spsts_prob(1.0, m, t)) < 1e-9
                assert abs(meas.intensity(s.state).mean - cond.spsts_mean_n(1.0, m, t)) < 1e-9
                h = cond.add_photons_bs(coherent_expr(1.0), 1, m, t)
                assert abs(h.probability - cond.spacs_prob(1.0, m, t)) < 1e-9
                assert abs(meas.intensity(h.state).mean - cond.spacs_mean_n(1.0, m, t)) < 1e-9

    def test_high_order_herald(self):
        # m = 5 exercises degree-10 projector polynomials through the substitution
        t = 0.8
        h = cond.add_photons_bs(coherent_expr(1.0), 1, 5, t)
        assert abs(h.probability - cond.spacs_prob(1.0, 5, t)) < 1e-10
        assert abs(meas.intensity(h.state).mean - cond.spacs_mean_n(1.0, 5, t)) < 1e-8
        s = cond.subtract_photons(thermal_expr(1.0), 1, 5, t)
        assert abs(s.probability - cond.spsts_prob(1.0, 5, t)) < 1e-10
        assert abs(meas.intensity(s.state).mean - cond.spsts_mean_n(1.0, 5, t)) < 1e-8

    def test_mean_monotone_in_transmissivity(self):
        means = [
            meas.intensity(cond.add_photons_bs(coherent_expr(1.0), 1, 1, t).state).mean
            for t in (0.5, 0.6, 0.7, 0.8, 0.9, 0.99)
        ]
        assert all(a < b for a, b in zip(means, means[1:]))

    def test_spec_domain(self):
        with pytest.raises(ValueError):
            cond.subtract_photons(thermal_expr(1.0), 1, 0, 0.9)
        with pytest.raises(ValueError):
            cond.subtract_photons(thermal_expr(1.0), 1, cond.M_CUTOFF + 1, 0.9)
        with pytest.raises(ValueError):
            cond.subtract_photons(thermal_expr(1.0), 1, 1, 1.2)


class TestClickHerald:
    def test_click_probability_matches_closed_form(self):
        nbar, t, phi = 2.0, 0.85, 0.7
        state = ga.propagate(ga.tensor([ga.thermal_state(nbar), ga.vacuum_state(1)]), sym.make_mzi(phi))
        s = cond.subtract_click(wg.from_gaussian(state), 1, t)
        assert abs(s.probability - cond.mzi_sub_prob_click(nbar, t, phi)) < 1e-10
        assert abs(meas.intensity(s.state, 1).mean - cond.mzi_sub_mean_click(nbar, t, phi)) < 1e-9

    def test_t_one_improbable(self):
        with pytest.raises(ImprobableBranch):
            cond.subtract_click(thermal_expr(2.0), 1, 1.0)

    def test_vacuum_improbable(self):
        with pytest.raises(ImprobableBranch):
            cond.subtract_click(wg.from_gaussian(ga.vacuum_state(1)), 1, 0.5)

    def test_branches_sum(self):
        s, f = cond.subtract_click_branches(thermal_expr(1.5), 1, 0.8)
        assert abs(s.probability + f.probability - 1.0) < 1e-10
        assert s.branch == "success" and f.branch == "failure"

    def test_snr_with_phase_matches_model(self):
        nbar, t, phi, m = 4.0, 0.9, 0.7, 2
        state = ga.propagate(ga.tensor([ga.thermal_state(nbar), ga.vacuum_state(1)]), sym.make_mzi(phi))
        s = cond.subtract_photons(wg.from_gaussian(state), 1, m, t)
        mom = meas.intensity(s.state, 1)
        got = mom.mean / math.sqrt(mom.variance)
        assert abs(got - cond.mzi_sub_snr(nbar, m, t, phi)) < 1e-9

    def test_equal_accuracy_trial_factor(self):
        # keeping only the m = 3 heralds costs ~sixty times the trials of an
        # unconditioned run at nbar = 4, T = 0.9
        factor = 1.0 / cond.spsts_prob(4.0, 3, 0.9)
        assert 30.0 < factor < 120.0
        assert abs(factor - 60.0) < 1.0
        s = cond.subtract_photons(thermal_expr(4.0), 1, 3, 0.9)
        assert abs(1.0 / s.probability - factor) < 1e-6


class TestFailureBranch:
    def test_pair_sums_to_one(self):
        s, f = cond.subtract_branches(thermal_expr(1.0), 1, 1, 0.9)
        assert abs(s.probability + f.probability - 1.0) < 1e-9

    def test_vacuum_failure_is_vacuum(self):
        f = cond.failure_branch(wg.from_gaussian(ga.vacuum_state(1)), 1, 1, 0.7)
        assert abs(f.probability - 1.0) < 1e-12
        assert abs(meas.intensity(f.state).mean) < 1e-10

    def test_failure_has_fewer_photons(self):
        s, f = cond.subtract_branches(thermal_expr(2.0), 1, 1, 0.95)
        assert meas.intensity(f.state).mean < meas.intensity(s.state).mean

    def test_against_fock_oracle(self):
        orc = Oracle([60, 12])
        mix = Mixture.from_product(orc, [("thermal", 2.0), ("vacuum",)]).apply(orc.bs(2, 1, 0.95))
        red1, p1 = mix.herald_fock(2, 1)
        f = cond.failure_branch(thermal_expr(2.0), 1, 1, 0.95)
        assert abs(f.probability - (1.0 - p1)) < 1e-8
        # failure-branch mean = (total - p1 * success) / (1 - p1)
        total = mix.number_mean(1)
        succ = red1.number_mean(1)
        want = (total - p1 * succ) / (1.0 - p1)
        assert abs(meas.intensity(f.state).mean - want) < 1e-7


class TestAdditionFailureBranch:
    def test_pair_sums_to_one(self):
        s, f = cond.add_photons_bs_branches(coherent_expr(1.0), 1, 1, 0.9)
        assert abs(s.probability + f.probability - 1.0) < 1e-9
        assert f.branch == "failure"

    def test_spdc_pair(self):
        s, f = cond.add_photon_spdc_branches(coherent_expr(1.0), 1, 0.3)
        assert abs(s.probability + f.probability - 1.0) < 1e-9

    def test_probabilistic_click_pipeline_against_oracle(self):
        # input-stage SPACS herald + squeezed vacuum through the MZI: every
        # probability entering the herald-weighted CFI, both branches
        T, r, phi = 0.9, 0.5, 0.8
        joint = wg.tensor_exprs(
            wg.from_gaussian(ga.coherent_state(1.0, 0.0)), wg.from_gaussian(ga.squeezed_vacuum(r, 0.0))
        )
        s, f = cond.add_photons_bs_branches(joint, 1, 1, T)
        mzi = sym.make_mzi(phi)
        s_out = wg.apply_symplectic(s.state, mzi)
        f_out = wg.apply_symplectic(f.state, mzi)

        orc = Oracle([25, 20, 8])
        mix = Mixture.from_product(orc, [("coherent", 1.0), ("squeezed", r), ("fock", 1)])
        mix = mix.apply(orc.bs(3, 1, T))
        succ, p_plus = mix.herald_fock(3, 0)
        fail, _ = mix.herald_click(3)  # any herald photon = failed addition
        succ = succ.apply(Oracle(succ.oracle.dims).mzi(phi))
        fail = fail.apply(Oracle(fail.oracle.dims).mzi(phi))

        assert abs(s.probability - p_plus) < 1e-10
        for mode in (1, 2):
            assert abs(meas.click_probability(s_out, mode) - succ.click_probability(mode)) < 1e-8
            assert abs(meas.click_probability(f_out, mode) - fail.click_probability(mode)) < 1e-8


class TestNonGaussianSignatures:
    def test_spacs_wigner_negative(self):
        h = cond.add_photons_bs(coherent_expr(0.1225), 1, 1, 0.95)
        xs = np.linspace(-2.0, 2.0, 41)
        vals = [h.state.evaluate((x, p)) for x in xs for p in xs]
        assert min(vals) < 0.0

    def test_spsts_origin_dip(self):
        s = cond.subtract_photons(thermal_expr(2.0), 1, 1, 0.95)
        w0 = s.state.evaluate((0.0, 0.0))
        for d in (0.35, 0.7):
            assert s.state.evaluate((d, 0.0)) > w0
            assert s.state.evaluate((-d, 0.0)) > w0
            assert s.state.evaluate((0.0, d)) > w0
            assert s.state.evaluate((0.0, -d)) > w0


class TestReferenceStats:
    def test_snr_factorization_value(self):
        assert abs(cond.spsts_snr(4.0, 2, 0.9) / cond.thermal_snr(4.0) - math.sqrt(2.7)) < 1e-12

    def test_mzi_mean_reductions(self):
        assert abs(cond.mzi_sub_mean_n(4.0, 0, 1.0, 0.0) - 4.0) < 1e-12
        # phi rescales the arm occupation
        assert abs(cond.mzi_sub_mean_n(4.0, 1, 0.9, 1.1) - cond.spsts_mean_n(4.0 * math.cos(0.55) ** 2, 1, 0.9)) < 1e-12

    def test_spacs_reduced_value(self):
        assert abs(cond.spacs_mean_n(1.0, 1, 1.0) - 2.5) < 1e-12

    def test_second_moment_matches_model(self):
        for t in (0.6, 0.9):
            for m in (1, 2):
                h = cond.add_photons_bs(coherent_expr(1.0), 1, m, t)
                assert abs(meas.intensity(h.state).second_moment - cond.spacs_second_moment(1.0, m, t)) < 1e-9

    def test_model_snr_factorization(self):
        for t in (0.5, 0.75, 0.9):
            for m in (1, 2, 3):
                s = cond.subtract_photons(thermal_expr(4.0), 1, m, t)
                mom = meas.intensity(s.state)
                got = mom.mean / math.sqrt(mom.variance)
                assert abs(got - math.sqrt(t * (m + 1)) * cond.thermal_snr(4.0)) < 1e-8


class TestLaguerre:
    def test_same_bits_as_scipy(self):
        # the closed forms feed golden outputs, so the local recurrence must match scipy exactly
        from scipy.special import eval_laguerre

        rng = np.random.default_rng(7)
        for _ in range(4000):
            n, x = int(rng.integers(0, 11)), float(rng.uniform(-600.0, 50.0))
            assert cond._laguerre(n, x) == eval_laguerre(n, x)
        for n in range(4):
            assert cond._laguerre(n, 0.0) == eval_laguerre(n, 0.0) == 1.0

    def test_cli_import_leaves_scipy_unloaded(self):
        code = "import sys, wignersim.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"
