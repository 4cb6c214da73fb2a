import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reference as ref
from fock_oracle import Mixture, Oracle
from wignersim import conditional as cond
from wignersim import gaussian as ga
from wignersim import measurements as meas
from wignersim import scenario as sc
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
        h = ref.herald(coherent_expr(1.0), 1, ("BS", 0.9), 1, 0)[0]
        assert abs(h[1] - 0.1 * math.exp(-0.1) * 1.9) < 1e-12
        assert abs(h[1] - cond.spacs_prob(1.0, 1, 0.9)) < 1e-12

    def test_limit_mean_photon(self):
        # T -> 1: <n> -> |alpha|^2 + 2 - 1/(|alpha|^2 + 1) = 2.5 at |alpha|^2 = 1
        h = ref.herald(coherent_expr(1.0), 1, ("BS", 1.0 - 1e-9), 1, 0)[0]
        assert abs(meas.intensity(h[0]).mean - 2.5) < 1e-6
        assert h[1] < 1e-8
        assert abs(cond.spacs_mean_n(1.0, 1, 1.0) - 2.5) < 1e-12

    def test_t_equal_one_improbable(self):
        with pytest.raises(ImprobableBranch):
            ref.herald(coherent_expr(1.0), 1, ("BS", 1.0), 1, 0)[0]
        assert cond.spacs_prob(1.0, 1, 1.0) == 0.0

    def test_against_fock_oracle(self):
        orc = Oracle([30, 10])
        mix = Mixture.from_product(orc, [("coherent", 1.0), ("fock", 1)]).apply(orc.bs(2, 1, 0.85))
        red, prob = mix.herald_fock(2, 0)
        h = ref.herald(coherent_expr(1.0), 1, ("BS", 0.85), 1, 0)[0]
        assert abs(h[1] - prob) < 1e-9
        assert abs(meas.intensity(h[0]).mean - red.number_mean(1)) < 1e-8
        dist = wg.photon_number_distribution(h[0], 1, 25)
        np.testing.assert_allclose(dist.probs, red.number_distribution(1)[:26], atol=1e-7)


class TestSpdc:
    def test_zero_interaction_improbable(self):
        with pytest.raises(ImprobableBranch):
            ref.herald(coherent_expr(1.0), 1, ("SPDC", 0.0, 0.0), 0, 1)[0]

    def test_small_r_matches_bs_limit(self):
        # deviation from the creation-operator limit shrinks as r^2
        h = ref.herald(coherent_expr(1.0), 1, ("SPDC", 0.02, 0.0), 0, 1)[0]
        dev = abs(meas.intensity(h[0]).mean - 2.5)
        assert dev < 1e-3
        dev5 = abs(meas.intensity(ref.herald(coherent_expr(1.0), 1, ("SPDC", 0.05, 0.0), 0, 1)[0][0]).mean - 2.5)
        assert dev < dev5

    def test_vacuum_heralds_single_photon(self):
        h = ref.herald(wg.from_gaussian(ga.vacuum_state(1)), 1, ("SPDC", 0.3, 0.0), 0, 1)[0]
        assert abs(ref.parity(h[0]).mean + 1.0) < 1e-10

    def test_against_fock_oracle(self):
        orc = Oracle([25, 10])
        r = 0.4
        mix = Mixture.from_product(orc, [("coherent", 0.8), ("vacuum",)]).apply(orc.tms(2, 1, r))
        red, prob = mix.herald_fock(2, 1)
        h = ref.herald(coherent_expr(0.64), 1, ("SPDC", r, 0.0), 0, 1)[0]
        assert abs(h[1] - prob) < 1e-8
        assert abs(meas.intensity(h[0]).mean - red.number_mean(1)) < 1e-7


class TestSubtraction:
    def test_thermal_closed_forms(self):
        s = ref.herald(thermal_expr(1.0), 1, ("BS", 0.9), 0, 1)[0]
        assert abs(s[1] - 0.1 / 1.21) < 1e-12
        assert abs(meas.intensity(s[0]).mean - cond.spsts_mean_n(1.0, 1, 0.9)) < 1e-10

    def test_limit_doubles_thermal(self):
        s = ref.herald(thermal_expr(1.0), 1, ("BS", 1.0 - 1e-9), 0, 1)[0]
        assert abs(meas.intensity(s[0]).mean - 2.0) < 1e-6
        assert s[1] < 1e-8

    def test_coherent_invariance(self):
        for t in (0.5, 0.8, 0.95):
            s = ref.herald(coherent_expr(1.0), 1, ("BS", t), 0, 1)[0]
            want = wg.photon_number_distribution(coherent_expr(t), 1, 25).probs
            got = wg.photon_number_distribution(s[0], 1, 25).probs
            assert np.max(np.abs(got - want)) < 1e-8

    def test_grid_against_closed_forms(self):
        for t in (0.5, 0.7, 0.9, 0.99):
            for m in (1, 2, 3):
                s = ref.herald(thermal_expr(1.0), 1, ("BS", t), 0, m)[0]
                assert abs(s[1] - cond.spsts_prob(1.0, m, t)) < 1e-9
                assert abs(meas.intensity(s[0]).mean - cond.spsts_mean_n(1.0, m, t)) < 1e-9
                h = ref.herald(coherent_expr(1.0), 1, ("BS", t), m, 0)[0]
                assert abs(h[1] - cond.spacs_prob(1.0, m, t)) < 1e-9
                assert abs(meas.intensity(h[0]).mean - cond.spacs_mean_n(1.0, m, t)) < 1e-9

    def test_high_order_herald(self):
        # m = 5 exercises degree-10 projector polynomials through the substitution
        t = 0.8
        h = ref.herald(coherent_expr(1.0), 1, ("BS", t), 5, 0)[0]
        assert abs(h[1] - cond.spacs_prob(1.0, 5, t)) < 1e-10
        assert abs(meas.intensity(h[0]).mean - cond.spacs_mean_n(1.0, 5, t)) < 1e-8
        s = ref.herald(thermal_expr(1.0), 1, ("BS", t), 0, 5)[0]
        assert abs(s[1] - cond.spsts_prob(1.0, 5, t)) < 1e-10
        assert abs(meas.intensity(s[0]).mean - cond.spsts_mean_n(1.0, 5, t)) < 1e-8

    def test_mean_monotone_in_transmissivity(self):
        means = [
            meas.intensity(ref.herald(coherent_expr(1.0), 1, ("BS", t), 1, 0)[0][0]).mean
            for t in (0.5, 0.6, 0.7, 0.8, 0.9, 0.99)
        ]
        assert all(a < b for a, b in zip(means, means[1:]))

    def test_spec_domain(self):
        # a subtraction's photon number and transmissivity are validated where a config gives them
        for m, t in ((-1, 0.9), (cond.M_CUTOFF + 1, 0.9), (1, 1.2)):
            with pytest.raises(ValueError):
                sc.ModificationSpec.from_dict({"op": "subtract", "mode": 1, "m": m, "T": t}, "modifications.0")


class TestClickHerald:
    def test_click_probability_matches_closed_form(self):
        nbar, t, phi = 2.0, 0.85, 0.7
        state = ga.propagate(ga.tensor([ga.thermal_state(nbar), ga.vacuum_state(1)]),
                             sym.SymplecticTransform(sym.mzi_matrix(phi)))
        s = ref.herald(wg.from_gaussian(state), 1, ("BS", t), 0, 0, click=True)[0]
        assert abs(s[1] - cond.mzi_sub_prob_click(nbar, t, phi)) < 1e-10
        assert abs(meas.intensity(s[0], 1).mean - cond.mzi_sub_mean_click(nbar, t, phi)) < 1e-9

    def test_t_one_improbable(self):
        with pytest.raises(ImprobableBranch):
            ref.herald(thermal_expr(2.0), 1, ("BS", 1.0), 0, 0, click=True)[0]

    def test_vacuum_improbable(self):
        with pytest.raises(ImprobableBranch):
            ref.herald(wg.from_gaussian(ga.vacuum_state(1)), 1, ("BS", 0.5), 0, 0, click=True)[0]

    def test_branches_sum(self):
        s, f = (ref.herald(thermal_expr(1.5), 1, ("BS", 0.8), 0, 0, click=c)[0] for c in (True, False))
        assert abs(s[1] + f[1] - 1.0) < 1e-10

    def test_snr_with_phase_matches_model(self):
        nbar, t, phi, m = 4.0, 0.9, 0.7, 2
        state = ga.propagate(ga.tensor([ga.thermal_state(nbar), ga.vacuum_state(1)]),
                             sym.SymplecticTransform(sym.mzi_matrix(phi)))
        s = ref.herald(wg.from_gaussian(state), 1, ("BS", t), 0, m)[0]
        mom = meas.intensity(s[0], 1)
        got = mom.mean / math.sqrt(mom.variance)
        assert abs(got - cond.mzi_sub_snr(nbar, m, t, phi)) < 1e-9

    def test_equal_accuracy_trial_factor(self):
        # keeping only the m = 3 heralds costs ~sixty times the trials of an
        # unconditioned run at nbar = 4, T = 0.9
        factor = 1.0 / cond.spsts_prob(4.0, 3, 0.9)
        assert 30.0 < factor < 120.0
        assert abs(factor - 60.0) < 1.0
        s = ref.herald(thermal_expr(4.0), 1, ("BS", 0.9), 0, 3)[0]
        assert abs(1.0 / s[1] - factor) < 1e-6


class TestFailureBranch:
    def test_pair_sums_to_one(self):
        s, f = (ref.herald(thermal_expr(1.0), 1, ("BS", 0.9), 0, 1, click=c)[0] for c in (False, True))
        assert abs(s[1] + f[1] - 1.0) < 1e-9

    def test_vacuum_failure_is_vacuum(self):
        f = ref.herald(wg.from_gaussian(ga.vacuum_state(1)), 1, ("BS", 0.7), 0, 1, click=True)[0]
        assert abs(f[1] - 1.0) < 1e-12
        assert abs(meas.intensity(f[0]).mean) < 1e-10

    def test_failure_has_fewer_photons(self):
        s, f = (ref.herald(thermal_expr(2.0), 1, ("BS", 0.95), 0, 1, click=c)[0] for c in (False, True))
        assert meas.intensity(f[0]).mean < meas.intensity(s[0]).mean

    def test_against_fock_oracle(self):
        orc = Oracle([60, 12])
        mix = Mixture.from_product(orc, [("thermal", 2.0), ("vacuum",)]).apply(orc.bs(2, 1, 0.95))
        red1, p1 = mix.herald_fock(2, 1)
        f = ref.herald(thermal_expr(2.0), 1, ("BS", 0.95), 0, 1, click=True)[0]
        assert abs(f[1] - (1.0 - p1)) < 1e-8
        # failure-branch mean = (total - p1 * success) / (1 - p1)
        total = mix.number_mean(1)
        succ = red1.number_mean(1)
        want = (total - p1 * succ) / (1.0 - p1)
        assert abs(meas.intensity(f[0]).mean - want) < 1e-7


class TestAdditionFailureBranch:
    def test_pair_sums_to_one(self):
        s, f = (ref.herald(coherent_expr(1.0), 1, ("BS", 0.9), 1, 0, click=c)[0] for c in (False, True))
        assert abs(s[1] + f[1] - 1.0) < 1e-9

    def test_spdc_pair(self):
        s, f = (ref.herald(coherent_expr(1.0), 1, ("SPDC", 0.3, 0.0), 0, 1, click=c)[0] for c in (False, True))
        assert abs(s[1] + f[1] - 1.0) < 1e-9

    def test_probabilistic_click_pipeline_against_oracle(self):
        # input-stage SPACS herald + squeezed vacuum through the MZI: every
        # probability entering the herald-weighted CFI, both branches
        T, r, phi = 0.9, 0.5, 0.8
        squeezed = ga.propagate(ga.vacuum_state(), sym.make_squeezer(r, 0.0))
        joint = wg.tensor_exprs(wg.from_gaussian(ga.coherent_state(1.0, 0.0)), wg.from_gaussian(squeezed))
        s, f = (ref.herald(joint, 1, ("BS", T), 1, 0, click=c)[0] for c in (False, True))
        mzi = sym.SymplecticTransform(sym.mzi_matrix(phi))
        s_out = ref.apply_symplectic(s[0], mzi)
        f_out = ref.apply_symplectic(f[0], mzi)

        orc = Oracle([25, 20, 8])
        mix = Mixture.from_product(orc, [("coherent", 1.0), ("squeezed", r), ("fock", 1)])
        mix = mix.apply(orc.bs(3, 1, T))
        succ, p_plus = mix.herald_fock(3, 0)
        fail, _ = mix.herald_click(3)  # any herald photon = failed addition
        succ = succ.apply(Oracle(succ.oracle.dims).mzi(phi))
        fail = fail.apply(Oracle(fail.oracle.dims).mzi(phi))

        assert abs(s[1] - p_plus) < 1e-10
        for mode in (1, 2):
            assert abs(ref.click_probability(s_out, mode) - succ.click_probability(mode)) < 1e-8
            assert abs(ref.click_probability(f_out, mode) - fail.click_probability(mode)) < 1e-8


class TestNonGaussianSignatures:
    def test_spacs_wigner_negative(self):
        h = ref.herald(coherent_expr(0.1225), 1, ("BS", 0.95), 1, 0)[0]
        xs = np.linspace(-2.0, 2.0, 41)
        vals = [ref.evaluate(h[0], (x, p)) for x in xs for p in xs]
        assert min(vals) < 0.0

    def test_spsts_origin_dip(self):
        s = ref.herald(thermal_expr(2.0), 1, ("BS", 0.95), 0, 1)[0]
        w0 = ref.evaluate(s[0], (0.0, 0.0))
        for d in (0.35, 0.7):
            assert ref.evaluate(s[0], (d, 0.0)) > w0
            assert ref.evaluate(s[0], (-d, 0.0)) > w0
            assert ref.evaluate(s[0], (0.0, d)) > w0
            assert ref.evaluate(s[0], (0.0, -d)) > w0


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
                h = ref.herald(coherent_expr(1.0), 1, ("BS", t), m, 0)[0]
                assert abs(meas.intensity(h[0]).second_moment - cond.spacs_second_moment(1.0, m, t)) < 1e-9

    def test_model_snr_factorization(self):
        for t in (0.5, 0.75, 0.9):
            for m in (1, 2, 3):
                s = ref.herald(thermal_expr(4.0), 1, ("BS", t), 0, m)[0]
                mom = meas.intensity(s[0])
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
