import math

import numpy as np
import pytest

from fock_oracle import Mixture, Oracle, qfi_sld
import reference as ref
from wignersim import conditional as cond
from wignersim import estimation as est
from wignersim import gaussian as ga
from wignersim import measurements as meas
from wignersim import symplectic as sym
from wignersim import wigner as wg
from wignersim.errors import DegenerateBranch, PurityViolation, SignalStationary

RNG = np.random.default_rng(2026)


class TestBenchmarks:
    def test_unit_photon(self):
        assert est.snl(1.0) == 1.0
        assert est.hl(1.0) == 1.0

    def test_coh_sqz_total(self):
        n = 100.0 + math.sinh(1.0) ** 2
        assert abs(est.snl(n) - 9.8638e-3) < 1e-7

    def test_ordering(self):
        for n in (1.0, 2.5, 50.0):
            assert est.hl(n) <= est.snl(n)

    def test_domain(self):
        with pytest.raises(ValueError):
            est.snl(0.0)
        with pytest.raises(ValueError):
            est.hl(-1.0)


class TestErrorPropagation:
    def test_linear_signal(self):
        assert abs(ref.phase_variance_error_prop(lambda p: p, lambda p: 1.0, 0.4) - 1.0) < 1e-9

    def test_parity_at_optimum(self, mzi_coh_sqz):
        fam = mzi_coh_sqz(100.0, 1.0)
        v = ref.phase_variance_error_prop(
            lambda p: ref.parity(fam(p), 1).mean, lambda p: ref.parity(fam(p), 1).variance, math.pi
        )
        assert abs(v - 1.0 / (100.0 * math.e**2 + math.sinh(1.0) ** 2)) < 1e-8 * v

    @pytest.mark.parametrize("alpha2", [100.0, 500.0])
    def test_bright_parity_limit_resolves_the_narrow_fringe(self, mzi_coh_sqz, alpha2):
        # a stability tolerance of 5e-3 on the second difference left 5e-10 of truncation at alpha2 = 500
        fam = mzi_coh_sqz(alpha2, 1.0)
        v = ref.phase_variance_error_prop(
            lambda p: ref.parity(fam(p), 1).mean, lambda p: ref.parity(fam(p), 1).variance, math.pi
        )
        assert v == pytest.approx(est.parity_min_variance(alpha2, 1.0), rel=1e-10)

    def test_homodyne_at_optimum(self, mzi_coh_sqz):
        fam = mzi_coh_sqz(100.0, 1.0)
        v = ref.phase_variance_error_prop(
            lambda p: ref.homodyne(fam(p), 1, 0.0).mean, lambda p: ref.homodyne(fam(p), 1, 0.0).variance, math.pi
        )
        assert abs(v - 1.0 / (100.0 * math.e**2)) < 1e-9 * v

    def test_clamped_zero_variance_takes_the_limit(self):
        # Var/slope^2 = 1 everywhere; near the symmetry point the variance clamps to 0
        # while the slope (~1e-8) is still resolved, and 0/slope^2 would report 0
        v = ref.phase_variance_error_prop(math.cos, lambda p: max(0.0, math.sin(p) ** 2 - 1e-15), 1e-8)
        assert abs(v - 1.0) < 1e-6

    @pytest.mark.parametrize("phi", [1.0, math.pi])
    def test_flat_zero_variance_signal_raises(self, phi):
        # two vacuum inputs: parity 1 at every phi, whose second differences are rounding noise (they gave
        # 193,273 at phi = 1 and -23.57 at phi = pi)
        vacuum = ga.tensor([ga.vacuum_state(1), ga.vacuum_state(1)])
        parity = lambda p: ref.parity(ga.propagate(vacuum, sym.SymplecticTransform(sym.mzi_matrix(p))), 1)
        with pytest.raises(SignalStationary, match="second order"):
            ref.phase_variance_error_prop(lambda p: parity(p).mean, lambda p: parity(p).variance, phi)

    def test_zero_variance_without_curvature_raises(self):
        # a variance that stays 0 around the point has no positive limit; 0 would pass for an exact phase
        with pytest.raises(SignalStationary, match="not curved up"):
            ref.phase_variance_error_prop(math.cos, lambda p: 0.0, 0.5)

    def test_stationary_with_real_variance_raises(self):
        with pytest.raises(SignalStationary):
            ref.phase_variance_error_prop(lambda p: 1.0, lambda p: 0.5, 0.3)

    def test_lossy_homodyne_analytic(self, mzi_coh_sqz):
        # sigma_L = (1-L) sigma + L I at phi = pi gives
        # dphi^2 = ((1-L) e^{-2r} + L) / ((1-L) |alpha|^2)
        a2, r, L = 500.0, 1.0, 0.2
        fam = mzi_coh_sqz(a2, r, L)
        got = ref.phase_variance_error_prop(
            lambda p: ref.homodyne(fam(p), 1, 0.0).mean,
            lambda p: ref.homodyne(fam(p), 1, 0.0).variance,
            math.pi,
        )
        want = ((1 - L) * math.exp(-2 * r) + L) / ((1 - L) * a2)
        assert abs(got - want) < 1e-10 * want


class TestCfi:
    def test_two_branch_reduction(self):
        p = lambda phi: 0.5 + 0.3 * math.sin(phi)
        branches = ref.two_outcome(p)
        phi = 0.8
        dp = 0.3 * math.cos(phi)
        want = dp**2 / (p(phi) * (1 - p(phi)))
        assert abs(ref.cfi(branches, phi) - want) < 1e-8

    def test_flat_branches_zero(self):
        branches = ref.BranchSet((lambda p: 0.25, lambda p: 0.75))
        assert ref.cfi(branches, 1.0) == 0.0

    def test_degenerate(self):
        with pytest.raises(DegenerateBranch):
            ref.cfi(ref.two_outcome(lambda p: 0.0), 0.5)

    def test_incomplete_rejected(self):
        with pytest.raises(ValueError):
            ref.cfi(ref.BranchSet((lambda p: 0.2, lambda p: 0.2)), 0.5)


class TestProbabilisticCfi:
    def test_certain_success_reduces_to_plain(self):
        branches = ref.two_outcome(lambda p: 0.5 + 0.3 * math.sin(p))
        plain = ref.cfi(branches, 0.7)
        assert abs(ref.probabilistic_cfi(1.0, branches, None, 0.7) - plain) < 1e-12

    def test_constant_herald_no_extra_term(self):
        branches = ref.two_outcome(lambda p: 0.5 + 0.3 * math.sin(p))
        with_h = ref.probabilistic_cfi(lambda p: 0.4, branches, branches, 0.7)
        without = ref.probabilistic_cfi(0.4, branches, branches, 0.7)
        assert abs(with_h - without) < 1e-9

    def test_discarding_failure_never_gains(self):
        succ = ref.two_outcome(lambda p: 0.5 + 0.2 * math.sin(p))
        fail = ref.two_outcome(lambda p: 0.5 + 0.4 * math.cos(p))
        herald = lambda p: 0.6 + 0.1 * math.sin(2 * p)
        for phi in (0.3, 0.9, 2.0):
            total = ref.probabilistic_cfi(herald, succ, fail, phi)
            kept_only = herald(phi) * ref.cfi(succ, phi)
            assert total >= kept_only - 1e-12

    def test_linear_in_weights_and_nonnegative(self):
        succ = ref.two_outcome(lambda p: 0.5 + 0.2 * math.sin(p))
        fail = ref.two_outcome(lambda p: 0.5 + 0.4 * math.cos(p))
        phi = 1.1
        cs, cf = ref.cfi(succ, phi), ref.cfi(fail, phi)
        for w in (0.0, 0.25, 0.7, 1.0):
            got = ref.probabilistic_cfi(w, succ, fail, phi)
            assert abs(got - (w * cs + (1 - w) * cf)) < 1e-10
            assert got >= 0.0


class TestQfi:
    def test_closed_form_grid(self, mzi_coh_sqz, gaussian_qfi):
        for a2 in (1.0, 100.0):
            for r in (0.5, 1.0):
                fam = mzi_coh_sqz(a2, r)
                target = a2 * math.exp(2 * r) + math.sinh(r) ** 2
                assert abs(gaussian_qfi(fam, 0.7) - target) < 1e-8 * target

    def test_exact_mzi_tangent(self):
        # dR = M' R0, dsigma = M' sigma0 M^T + M sigma0 M'^T: the closed form without any step
        r0 = ga.tensor([ga.coherent_state(10.0, 0.0), ga.propagate(ga.vacuum_state(), sym.make_squeezer(1.0, 0.0))])
        for phi in (0.3, math.pi, 4.4):
            m, dm = sym.mzi_matrix(phi), sym.mzi_phase_derivative(phi)
            half = dm @ r0.cov @ m.T
            got = est.qfi_mixed_gaussian(ga.propagate(r0, sym.SymplecticTransform(sym.mzi_matrix(phi))), dm @ r0.mean,
                                         half + half.T)[0]
            assert got == pytest.approx(1.0 / est.lossless_qcrb(100.0, 1.0), rel=1e-13)

    def test_dual_route_agreement(self, mzi_coh_sqz, gaussian_qfi):
        fam = mzi_coh_sqz(2.0, 0.8)
        fg = gaussian_qfi(fam, 1.0)
        fw = ref.qfi_pure_wigner(lambda p: wg.from_gaussian(fam(p)), 1.0)
        assert abs(fg - fw) < 1e-8 * fg

    def test_classical_input_snl(self, mzi_coh_sqz, gaussian_qfi):
        fam = mzi_coh_sqz(9.0, 0.0)
        assert abs(gaussian_qfi(fam, 0.5) - 9.0) < 1e-7

    def test_vacuum_family_zero(self, gaussian_qfi):
        fam = lambda p: ga.propagate(ga.vacuum_state(2), sym.SymplecticTransform(sym.mzi_matrix(p)))
        assert abs(gaussian_qfi(fam, 0.9)) < 1e-10

    def test_thermal_family_zero(self, gaussian_qfi):
        fam = lambda p: ga.propagate(ga.tensor([ga.thermal_state(1.0), ga.thermal_state(1.0)]),
                                     sym.SymplecticTransform(sym.mzi_matrix(p)))
        assert abs(gaussian_qfi(fam, 0.9)) < 1e-10

    def test_wigner_route_on_nongaussian_family(self):
        # coherent + single photon through the MZI: pure but non-Gaussian
        def family(phi):
            joint = wg.tensor_exprs(wg.from_gaussian(ga.coherent_state(1.0, 0.0)), wg.fock_wigner(1))
            return ref.apply_symplectic(joint, sym.SymplecticTransform(sym.mzi_matrix(phi)))

        got = ref.qfi_pure_wigner(family, 0.7)
        orc = Oracle([22, 22])

        def rho(p):
            return Mixture.from_product(orc, [("coherent", 1.0), ("fock", 1)]).apply(orc.mzi(p)).dm()

        h = 1e-4
        want = qfi_sld(rho(0.7), (rho(0.7 + h) - rho(0.7 - h)) / (2 * h))
        assert abs(got - want) < 1e-6 * want

    def test_single_photon_family_heisenberg(self):
        # lone photon: definite photon number, QFI = 1 (Heisenberg-limited)
        def family(phi):
            joint = wg.tensor_exprs(wg.fock_wigner(1), wg.from_gaussian(ga.vacuum_state(1)))
            return ref.apply_symplectic(joint, sym.SymplecticTransform(sym.mzi_matrix(phi)))

        assert abs(ref.qfi_pure_wigner(family, 0.9) - 1.0) < 1e-8

    def test_impure_rejected_by_wigner_route(self):
        fam = lambda p: wg.from_gaussian(ga.propagate(ga.tensor([ga.thermal_state(1.0), ga.vacuum_state(1)]),
                                                      sym.SymplecticTransform(sym.mzi_matrix(p))))
        with pytest.raises(PurityViolation):
            ref.qfi_pure_wigner(fam, 0.7)

    def test_mixed_pinned_by_fock_sld_oracle(self, mzi_coh_sqz, gaussian_qfi):
        # independent check of the Gaussian formula on a mixed state against a brute-force
        # symmetric-logarithmic-derivative QFI on the truncated Fock lattice
        a2, r, L, phi = 1.0, 0.3, 0.2, 0.9
        fam = mzi_coh_sqz(a2, r, L)
        got = gaussian_qfi(fam, phi)

        orc = Oracle([18, 18])

        def rho(p):
            mix = Mixture.from_product(orc, [("coherent", 1.0), ("squeezed", r)]).apply(orc.mzi(p))
            mix = mix.loss(1, 1.0 - L, kmax=10).loss(2, 1.0 - L, kmax=10)
            return mix.dm()

        h = 1e-4
        want = qfi_sld(rho(phi), (rho(phi + h) - rho(phi - h)) / (2 * h))
        assert abs(got - want) < 2e-5 * want

    def test_mixed_reduces_to_pure(self, mzi_coh_sqz, gaussian_qfi):
        fam0 = mzi_coh_sqz(4.0, 0.6)
        fam = mzi_coh_sqz(4.0, 0.6, 1e-7)
        pure = gaussian_qfi(fam0, 1.2)
        mixed = gaussian_qfi(fam, 1.2)
        assert abs(mixed - pure) < 1e-3 * pure

    def test_loss_monotone(self, mzi_coh_sqz, gaussian_qfi):
        q0 = gaussian_qfi(mzi_coh_sqz(100.0, 1.0), 0.8)
        q1 = gaussian_qfi(mzi_coh_sqz(100.0, 1.0, 0.2), 0.8)
        assert q1 < q0


class TestClosedForms:
    def test_ranking_at_reference_point(self):
        a2, r = 500.0, 1.0
        vp = est.parity_min_variance(a2, r)
        vx = est.homodyne_min_variance(a2, r)
        vd = est.intensity_difference_min_variance(a2, r)
        vi = est.intensity_min_variance(a2, r)
        assert vp < vx < vd < vi

    def test_high_power_asymptote(self):
        a2, r = 1e5, 1.0
        bound = 1.0 / (a2 * math.exp(2 * r))
        for fn in (
            est.parity_min_variance,
            est.homodyne_min_variance,
            est.intensity_difference_min_variance,
            est.intensity_min_variance,
        ):
            assert fn(a2, r) < 3.0 * bound

    def test_dispatcher(self):
        assert est.qcrb_closed_forms("lossless", 10.0, 1.0) == est.lossless_qcrb(100.0, 1.0)
        with pytest.raises(ValueError):
            est.qcrb_closed_forms("nope", 1.0, 1.0)

    def test_optimal_phases(self):
        assert est.optimal_phase("parity") == math.pi
        assert est.optimal_phase("homodyne") == math.pi
        assert est.optimal_phase("intensity_difference") == math.pi / 2
        v = est.optimal_phase("intensity", 500.0, 1.0)
        assert abs(v - 2.0 * math.atan(2**0.25 * math.sqrt(math.sqrt(500.0) / math.sinh(2.0)))) < 1e-12


class TestSnr:
    def test_thermal(self):
        assert abs(est.snr(meas.intensity(ga.thermal_state(4.0))) - math.sqrt(0.8)) < 1e-9

    def test_coherent(self):
        assert abs(est.snr(meas.intensity(ga.coherent_state(2.0, 0.0))) - 2.0) < 1e-9

    def test_subtracted_thermal_factorization(self):
        s = ref.herald(wg.from_gaussian(ga.thermal_state(4.0)), 1, ("BS", 0.9), 0, 1)[0]
        got = est.snr(meas.intensity(s[0]))
        assert abs(got / cond.thermal_snr(4.0) - math.sqrt(1.8)) < 1e-8

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            est.snr(meas.MeasurementMoments(1.0, 1.0))

    def test_faint_coherent_state_keeps_its_snr(self):
        # <n> = Var = 1e-6 is far above the rounding of the ordering constants, which is absolute
        assert est.snr(meas.intensity(ga.coherent_state(1e-3, 0.0))) == pytest.approx(1e-3, rel=1e-9)


def _parity_info_families(nbar, gain, T):
    """Success/failure (probability, parity-mean) families for input-stage subtraction."""
    r = math.acosh(math.sqrt(gain))

    def branch_pair(phi):
        squeezed = ga.propagate(ga.vacuum_state(), sym.make_squeezer(r, 0.0))
        joint = wg.tensor_exprs(wg.from_gaussian(ga.thermal_state(nbar)), wg.from_gaussian(squeezed))
        s, f = (ref.herald(joint, 1, ("BS", T), 0, 1, click=c)[0] for c in (False, True))
        mzi = sym.SymplecticTransform(sym.mzi_matrix(phi))
        return (
            (s[1], ref.apply_symplectic(s[0], mzi)),
            (f[1], ref.apply_symplectic(f[0], mzi)),
        )

    def make(which, what):
        def fn(phi):
            s, f = branch_pair(phi)
            p, state = s if which == "s" else f
            return p if what == "p" else ref.parity(state, 2).mean

        return fn

    return [(make("s", "p"), make("s", "pi")), (make("f", "p"), make("f", "pi"))]


class TestTotalParityInformation:
    def test_certain_branch_reduces_to_error_prop(self, mzi_coh_sqz):
        fam = mzi_coh_sqz(4.0, 0.5)
        phi = 2.6
        pi_fn = lambda p: ref.parity(fam(p), 1).mean
        info = ref.total_parity_information([(lambda p: 1.0, pi_fn)], phi)
        var = ref.phase_variance_error_prop(pi_fn, lambda p: ref.parity(fam(p), 1).variance, phi)
        assert abs(info * var - 1.0) < 1e-8

    def test_subtraction_never_beats_plain_mzi(self):
        nbar, gain, T = 1.0, 1.1, 0.95
        r = math.acosh(math.sqrt(gain))
        branches = _parity_info_families(nbar, gain, T)

        def plain(phi):
            state = ga.propagate(
                ga.tensor([ga.thermal_state(nbar), ga.propagate(ga.vacuum_state(), sym.make_squeezer(r, 0.0))]),
                sym.SymplecticTransform(sym.mzi_matrix(phi))
            )
            return ref.parity(state, 2).mean

        def plain_var(phi):
            return 1.0 - plain(phi) ** 2

        for phi in np.linspace(0.05, 0.6, 8):
            i_tot = ref.total_parity_information(branches, phi)
            i_plain = 1.0 / ref.phase_variance_error_prop(plain, plain_var, phi)
            assert i_tot <= i_plain * (1.0 + 1e-9)

    def test_limit_t_to_one_matches_plain(self):
        nbar, gain = 1.0, 1.1
        r = math.acosh(math.sqrt(gain))
        branches = _parity_info_families(nbar, gain, 1.0 - 1e-9)
        phi = 0.35

        def plain(p):
            state = ga.propagate(
                ga.tensor([ga.thermal_state(nbar), ga.propagate(ga.vacuum_state(), sym.make_squeezer(r, 0.0))]),
                sym.SymplecticTransform(sym.mzi_matrix(p))
            )
            return ref.parity(state, 2).mean

        i_tot = ref.total_parity_information(branches, phi)
        i_plain = 1.0 / ref.phase_variance_error_prop(plain, lambda p: 1.0 - plain(p) ** 2, phi)
        assert abs(i_tot - i_plain) < 1e-6 * i_plain

    def test_stationary_everywhere_raises(self):
        with pytest.raises(SignalStationary):
            ref.total_parity_information([(lambda p: 1.0, lambda p: 0.3)], 0.5)


class TestGoldenSection:
    def test_quadratic_minimum(self):
        x, v = ref.golden_minimize(lambda t: (t - 1.234) ** 2 + 0.5, 0.0, 3.0, tol=1e-10)
        assert abs(x - 1.234) < 1e-7
        assert abs(v - 0.5) < 1e-12

    def test_seeded_search(self):
        x, _ = ref.golden_minimize(lambda t: math.cos(t), math.pi + 0.2 - 0.6, math.pi + 0.2 + 0.6)
        assert abs(x - math.pi) < 1e-6


class TestCramerRaoOrdering:
    def test_schemes_dominate_qcrb(self, mzi_coh_sqz, gaussian_qfi):
        fam = mzi_coh_sqz(4.0, 0.6)
        qfi = gaussian_qfi(fam, 1.0)
        schemes = [
            meas.DetectionScheme("homodyne", 1, angle=0.0),
            meas.DetectionScheme("intensity", 1),
            meas.DetectionScheme("intensity_difference", 1, mode_b=2),
            meas.DetectionScheme("parity", 1),
        ]
        count = 0
        while count < 200:
            phi = RNG.uniform(0.3, 2 * math.pi - 0.3)
            scheme = schemes[RNG.integers(0, len(schemes))]
            mom = lambda p: ref.measure(fam(p), scheme)
            try:
                v = ref.phase_variance_error_prop(lambda p: mom(p).mean, lambda p: mom(p).variance, phi)
            except SignalStationary:
                continue
            assert v >= 1.0 / qfi - 1e-9
            count += 1

    def test_cfi_bounded_by_qfi(self, mzi_coh_sqz, gaussian_qfi):
        fam = mzi_coh_sqz(1.0, 0.4)
        qfi = gaussian_qfi(fam, 1.1)
        click1 = ref.two_outcome(lambda p: ref.click_probability(fam(p), 1))
        click2 = ref.two_outcome(lambda p: ref.click_probability(fam(p), 2))
        total = ref.cfi(click1, 1.1) + ref.cfi(click2, 1.1)
        assert total <= qfi * (1.0 + 1e-7)


class TestBinaryCfiDarkOutcome:
    # P = x^2 / 2 near a quadratic zero x = 0 of P'' = 1: P'^2 / P = 2 P'' however small x is
    def test_dark_outcome_adds_its_limit(self):
        assert est.binary_cfi(1.0 - 1e-16, 0.0, math.pi, -1.0) == 2.0
        assert est.binary_cfi(1e-16, 0.0, math.pi, 1.0) == 2.0

    def test_without_curvature_a_dark_click_raises(self):
        with pytest.raises(DegenerateBranch):
            est.binary_cfi(1.0 - 1e-16, 0.0, math.pi)

    def test_slope_too_steep_for_a_quadratic_zero_raises(self):
        # a probability at rounding level with slope 1e-3 is no quadratic zero of curvature 1
        with pytest.raises(DegenerateBranch):
            est.binary_cfi(1.0 - 1e-16, 1e-3, math.pi, -1.0)
