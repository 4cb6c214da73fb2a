import json
import math
from pathlib import Path

import numpy as np
import pytest

import reference
import workloads
from fock_oracle import Mixture, Oracle
from wignersim import gaussian as ga
from wignersim import measurements as meas
from wignersim import scenario as sc
from wignersim import symplectic as sym
from wignersim import wigner as wg
from wignersim.errors import ContourTooLong, ImprobableBranch

RNG = np.random.default_rng(4242)


def thermal_expr(nbar: float) -> wg.WignerExpr:
    return wg.from_gaussian(ga.thermal_state(nbar))


class TestFromGaussian:
    def test_vacuum_value(self):
        v = wg.from_gaussian(ga.vacuum_state(1))
        assert abs(reference.evaluate(v, (0.0, 0.0)) - 1.0 / math.pi) < 1e-14
        assert abs(v.norm - 1.0) < 1e-12

    def test_coherent_displaced_gaussian(self):
        alpha, theta = 1.4, 0.7
        c = wg.from_gaussian(ga.coherent_state(alpha, theta))
        for x, p in RNG.normal(0, 1.5, size=(10, 2)):
            expo = -((x - math.sqrt(2) * alpha * math.cos(theta)) ** 2) - (
                (p - math.sqrt(2) * alpha * math.sin(theta)) ** 2
            )
            assert abs(reference.evaluate(c, (x, p)) - math.exp(expo) / math.pi) < 1e-12

    def test_thermal_origin(self):
        assert abs(reference.evaluate(thermal_expr(2.0), (0.0, 0.0)) - 1.0 / (5.0 * math.pi)) < 1e-14


class TestFockWigner:
    def test_zero_is_vacuum(self):
        f0 = wg.fock_wigner(0)
        v = wg.from_gaussian(ga.vacuum_state(1))
        for pt in RNG.normal(0, 1, size=(8, 2)):
            assert abs(reference.evaluate(f0, pt) - reference.evaluate(v, pt)) < 1e-13

    def test_single_photon_origin(self):
        assert abs(reference.evaluate(wg.fock_wigner(1), (0.0, 0.0)) + 1.0 / math.pi) < 1e-14

    def test_normalized(self):
        assert abs(wg.fock_wigner(3).norm - 1.0) < 1e-10

    def test_cutoff(self):
        with pytest.raises(ValueError):
            wg.fock_wigner(wg.FOCK_CUTOFF + 1)


class TestApplySymplectic:
    """The referee's substitution of a map into the terms (`reference.apply_symplectic`)."""

    def test_identity(self):
        f1 = wg.fock_wigner(1)
        out = reference.apply_symplectic(f1, sym.SymplecticTransform(np.eye(2)))
        for pt in RNG.normal(0, 1, size=(6, 2)):
            assert abs(reference.evaluate(out, pt) - reference.evaluate(f1, pt)) < 1e-13

    def test_gaussian_path_equivalence(self):
        alpha, r, phi = 1.2, 0.7, 1.3
        state = ga.tensor([ga.coherent_state(alpha, 0.0), ga.propagate(ga.vacuum_state(), sym.make_squeezer(r, 0.0))])
        via_gauss = wg.from_gaussian(ga.propagate(state, sym.SymplecticTransform(sym.mzi_matrix(phi))))
        via_wigner = reference.apply_symplectic(wg.from_gaussian(state), sym.SymplecticTransform(sym.mzi_matrix(phi)))
        t1, t2 = via_gauss.terms[0], via_wigner.terms[0]
        np.testing.assert_allclose(t1.mean, t2.mean, atol=1e-12)
        np.testing.assert_allclose(t1.quad, t2.quad, atol=1e-12)
        assert abs(t1.weight - t2.weight) < 1e-12

    def test_fock_rotation_invariance(self):
        f1 = wg.fock_wigner(1)
        c, s = math.cos(0.9), math.sin(0.9)
        rotated = reference.apply_symplectic(f1, sym.SymplecticTransform(np.array([[c, -s], [s, c]])))
        for pt in RNG.normal(0, 1, size=(10, 2)):
            assert abs(reference.evaluate(rotated, pt) - reference.evaluate(f1, pt)) < 1e-12


class TestMoments:
    def test_vacuum_x2(self):
        assert abs(wg.moments(wg.from_gaussian(ga.vacuum_state(1)), [(2, 0)])[0] - 0.5) < 1e-13

    def test_coherent_x(self):
        c = wg.from_gaussian(ga.coherent_state(1.0, 0.0))
        assert abs(wg.moments(c, [(1, 0)])[0] - math.sqrt(2.0)) < 1e-13

    def test_fock1_symmetric_intensity(self):
        f1 = wg.fock_wigner(1)
        total = wg.moments(f1, [(2, 0)])[0] + wg.moments(f1, [(0, 2)])[0]
        assert abs(total - 3.0) < 1e-12  # <n> = total/2 - 1/2 = 1

    def test_moments_are_bit_identical_to_moment(self):
        # one read of many monomials keeps the bits of a read per monomial, on a two-term expression with
        # polynomial terms: Fock(1) x thermal, click-subtracted on mode 1
        expr = wg.tensor_exprs(wg.fock_wigner(1), thermal_expr(0.4))
        expr = reference.herald(expr, 1, ("BS", 0.7), 0, 0, click=True)[0][0]
        assert len(expr.terms) == 2
        monomials = [(2, 0, 0, 0), {1: 1, 2: 3}, (0, 0, 0, 0), {0: 2, 3: 2}, (1, 1, 1, 1)]
        assert wg.moments(expr, monomials) == [wg.moments(expr, [e])[0] for e in monomials]

    def test_moment_tensor_holds_every_moment_up_to_degree_4(self):
        expr = wg.tensor_exprs(wg.fock_wigner(1), wg.from_gaussian(ga.coherent_state(0.7, 0.3)))
        expr = reference.apply_symplectic(expr, sym.SymplecticTransform(sym.mzi_matrix(0.9)))
        t = reference.moment_tensor(expr)
        assert t.shape == (5, 5, 5, 5)
        np.testing.assert_array_equal(t, t.transpose(2, 0, 3, 1))
        assert t[0, 0, 0, 0] == pytest.approx(1.0, rel=1e-14)
        assert t[1, 3, 3, 0] == wg.moments(expr, [(1, 0, 2, 0)])[0]
        assert t[4, 2, 2, 4] == wg.moments(expr, [(0, 2, 0, 2)])[0]


class TestAffineImage:
    def test_gaussian_image_matches_the_propagated_state(self):
        # the image of a Gaussian under X = A Y + b + xi is Gaussian with mean A R + b and covariance
        # A sigma A^T + 2 noise; the detector closed forms of that state are the reference
        rng = np.random.default_rng(77)
        for _ in range(5):
            y = ga.tensor([ga.coherent_state(rng.uniform(0, 1.2), rng.uniform(0, 6)),
                           ga.propagate(ga.vacuum_state(), sym.make_squeezer(0.4, 0.3))])
            f = sym.embed(sym.make_squeezer(0.3, rng.uniform(0, 6)), [1], 2).matrix @ sym.mzi_matrix(rng.uniform(0, 6))
            root = rng.normal(size=(4, 4)) * 0.3
            noise = root @ root.T
            shift = rng.normal(size=4) * 0.5
            expr = wg.from_gaussian(y)
            image = wg.AffineImage(expr, f, shift, noise)
            x = ga.GaussianState(f @ y.mean + shift, f @ y.cov @ f.T + 2.0 * noise)
            for kind, args in [("intensity", (1,)), ("intensity", (2,)), ("homodyne", (2, None, 0.8)),
                               ("intensity_difference", (1, 2)), ("parity", (1,)), ("click", (2,))]:
                scheme = meas.DetectionScheme(kind, *args)
                got, want = reference.measure(image, scheme), reference.measure(x, scheme)
                assert got.mean == pytest.approx(want.mean, rel=1e-11, abs=1e-14), scheme.label
                assert got.second_moment == pytest.approx(want.second_moment, rel=1e-11, abs=1e-14), scheme.label

    def test_moment_slopes_match_central_differences(self, trig_slope):
        # the phase signal of each polynomial detector reads the image's moments at equispaced phases; the slope
        # it implies, sqrt(Var / V), matches a central difference of the moments through the noisy, shifted channel
        expr = wg.tensor_exprs(wg.fock_wigner(1), wg.from_gaussian(ga.coherent_state(0.8, 0.2)))
        k = sym.embed(sym.make_squeezer(0.4, 0.5), [2], 2).matrix
        noise, shift = np.diag([0.1, 0.1, 0.3, 0.3]), np.array([0.2, -0.1, 0.4, 0.0])
        image = lambda p: wg.AffineImage(expr, k @ sym.mzi_matrix(p), shift, noise)
        h = 1e-3
        for scheme in [meas.DetectionScheme("intensity", 1), meas.DetectionScheme("intensity", 2),
                       meas.DetectionScheme("homodyne", 2, angle=0.8),
                       meas.DetectionScheme("intensity_difference", 1, mode_b=2)]:
            moments = lambda p: reference.measure(image(p), scheme)
            d = [(moments(1.1 + s).mean - moments(1.1 - s).mean) / (2 * s) for s in (h, h / 2, h / 4)]
            r = [(4 * d[i + 1] - d[i]) / 3 for i in range(2)]
            # the shift breaks the 2 pi period of the even detectors: nine samples over phi / 2
            got = trig_slope(moments, 1.1, 2, 5 if scheme.kind == "homodyne" else 9)
            assert got == pytest.approx(abs((16 * r[1] - r[0]) / 15), rel=1e-9, abs=1e-12), scheme.label


class TestMarginalize:
    def test_product_state(self):
        a = ga.coherent_state(0.9, 0.3)
        b = ga.thermal_state(1.2)
        joint = wg.from_gaussian(ga.tensor([a, b]))
        marg = wg.marginal_mode(joint, 1)
        ref = wg.from_gaussian(a)
        for pt in RNG.normal(0, 1, size=(8, 2)):
            assert abs(reference.evaluate(marg, pt) - reference.evaluate(ref, pt)) < 1e-12

    def test_tmsv_marginal_is_thermal(self):
        r = 0.85
        tms = reference.apply_symplectic(wg.from_gaussian(ga.vacuum_state(2)), sym.make_two_mode_squeezer(r, 0.0))
        marg = wg.marginal_mode(tms, 1)
        ref = thermal_expr(math.sinh(r) ** 2)
        for pt in RNG.normal(0, 1, size=(8, 2)):
            assert abs(reference.evaluate(marg, pt) - reference.evaluate(ref, pt)) < 1e-12

    def test_norm_preserved(self):
        for _ in range(10):
            r = RNG.uniform(0, 1)
            expr = reference.apply_symplectic(
                wg.tensor_exprs(wg.fock_wigner(1), thermal_expr(RNG.uniform(0, 2))),
                sym.SymplecticTransform(sym.beam_splitter_matrix(RNG.uniform(0.2, 0.8))),
            )
            marg = wg.marginal_mode(expr, 2)
            assert abs(marg.norm - expr.norm) < 1e-10


def project(expr: wg.WignerExpr, mode: int, n: int) -> tuple:
    """(the other modes, probability) of Fock n detected on `mode`: its projector's partial integration."""
    reduced = wg._integrate_out(expr, [2 * mode - 2, 2 * mode - 1], projectors=((2 * mode - 2, n),))
    return reduced, reduced.norm / expr.norm


class TestProjections:
    def test_vacuum_fock0(self):
        reduced, p = project(wg.from_gaussian(ga.vacuum_state(1)), 1, 0)
        assert abs(p - 1.0) < 1e-12
        assert reduced.modes == 0

    def test_thermal_geometric(self):
        nbar = 1.7
        for n in (0, 1, 3, 5):
            _, p = project(thermal_expr(nbar), 1, n)
            assert abs(p - nbar**n / (nbar + 1.0) ** (n + 1)) < 1e-12

    def test_fock1_projects_to_itself(self):
        _, p = project(wg.fock_wigner(1), 1, 1)
        assert abs(p - 1.0) < 1e-10

    def test_click_complement(self):
        ex = wg.tensor_exprs(thermal_expr(1.2), wg.from_gaussian(ga.vacuum_state(1)))
        ex = reference.apply_symplectic(ex, sym.SymplecticTransform(sym.beam_splitter_matrix(0.6)))
        click, no_click = (reference.herald(ex, 1, ("BS", 0.7), 0, 0, click=c)[0] for c in (True, False))
        assert abs(click[1] + no_click[1] - 1.0) < 1e-10

    def test_click_probabilities(self):
        p = reference.click_probability(wg.tensor_exprs(thermal_expr(4.0), thermal_expr(0.5)), 1)
        assert abs(p - 0.8) < 1e-11
        coherent = wg.from_gaussian(ga.coherent_state(1.0, 0.0))
        p = reference.click_probability(wg.tensor_exprs(coherent, thermal_expr(0.5)), 1)
        assert abs(p - (1.0 - math.exp(-1.0))) < 1e-11

    def test_vacuum_click_improbable(self):
        with pytest.raises(ImprobableBranch):
            reference.herald(wg.from_gaussian(ga.vacuum_state(1)), 1, ("BS", 0.5), 0, 0, click=True)[0]

    def test_middle_mode_bookkeeping(self):
        # projecting out mode 2 of (A, B, C) must leave (A, C) in order
        a = ga.thermal_state(0.6)
        b = ga.thermal_state(2.0)
        c = ga.coherent_state(1.2, 0.4)
        joint = wg.from_gaussian(ga.tensor([a, b, c]))
        reduced, p = project(joint, 2, 0)
        assert abs(p - 1.0 / 3.0) < 1e-10  # thermal P(0) = 1/(nbar+1)
        ref = wg.from_gaussian(ga.tensor([a, c]))
        for pt in RNG.normal(0, 1, size=(6, 4)):
            assert abs(reference.evaluate(reduced.normalize(), pt) - reference.evaluate(ref, pt)) < 1e-10


def generating_function(expr: wg.WignerExpr, l: float) -> float:
    """G(l) = sum_n P(n) l^n of mode 1, from the batched contour kernel that photon_number_distribution inverts."""
    s = np.array([(1.0 - l) / (1.0 + l)])
    return float(np.real(2.0 / (1.0 + l) * wg._single_mode_g(wg.marginal_mode(expr.normalize(), 1), s)[0]))


class TestGeneratingFunction:
    def test_vacuum_flat(self):
        v = wg.from_gaussian(ga.vacuum_state(1))
        for l in (0.0, 0.3, 0.7, 1.0):
            assert abs(generating_function(v, l) - 1.0) < 1e-12

    def test_fock1_linear(self):
        f1 = wg.fock_wigner(1)
        for l in (0.0, 0.4, 1.0):
            assert abs(generating_function(f1, l) - l) < 1e-10

    def test_matches_distribution_sum(self):
        expr = reference.apply_symplectic(
            wg.tensor_exprs(thermal_expr(1.0), wg.fock_wigner(1)),
            sym.SymplecticTransform(sym.beam_splitter_matrix(0.7))
        )
        reduced = wg.marginal_mode(expr, 1)
        dist = wg.photon_number_distribution(reduced, 1, 60)
        assert dist.tail < 1e-9
        for l in (0.0, 0.3, 0.7):
            ref = sum(p * l**n for n, p in enumerate(dist.probs))
            assert abs(generating_function(reduced, l) - ref) < 1e-7


class TestDistribution:
    def test_thermal_geometric_law(self):
        nbar = 4.0
        dist = wg.photon_number_distribution(thermal_expr(nbar), 1, 40)
        ref = np.array([nbar**n / (nbar + 1.0) ** (n + 1) for n in range(41)])
        assert np.max(np.abs(dist.probs - ref)) < 1e-12
        assert dist.tail < 1e-3

    def test_distribution_matches_projection(self):
        expr = reference.apply_symplectic(
            wg.tensor_exprs(thermal_expr(0.8), wg.fock_wigner(1)),
            sym.SymplecticTransform(sym.beam_splitter_matrix(0.8))
        )
        reduced = wg.marginal_mode(expr, 2).normalize()
        dist = wg.photon_number_distribution(reduced, 1, 12)
        for n in range(13):
            _, p = project(reduced, 1, n)
            assert abs(dist.probs[n] - p) < 1e-9

    def test_parity_identity(self):
        # pi W(0,0) = sum (-1)^n P(n); the truncated alternating sum carries a
        # remainder bounded by P(n_max + 1), estimated from the geometric ratio
        for nbar in (0.5, 2.0, 4.0):
            expr = thermal_expr(nbar)
            dist = wg.photon_number_distribution(expr, 1, 60)
            alt = sum((-1.0) ** n * p for n, p in enumerate(dist.probs))
            ratio = dist.probs[-1] / max(dist.probs[-2], 1e-300)
            remainder = dist.probs[-1] * ratio
            assert abs(math.pi * reference.evaluate(expr, (0.0, 0.0)) - alt) < 1e-7 + remainder


class TestPurity:
    def test_vacuum(self):
        assert abs(wg.purity(wg.from_gaussian(ga.vacuum_state(1))) - 1.0) < 1e-12

    def test_thermal(self):
        assert abs(wg.purity(thermal_expr(2.0)) - 0.2) < 1e-12

    def test_fock_states_pure(self):
        for n in (1, 2, 4):
            assert abs(wg.purity(wg.fock_wigner(n)) - 1.0) < 1e-9

    def test_thermal_injection_strictly_decreases(self):
        for _ in range(10):
            s = ga.propagate(ga.vacuum_state(), sym.make_squeezer(RNG.uniform(0.1, 0.9), 0.0))
            before = wg.purity(wg.from_gaussian(s))
            noisy = reference.inject_thermal(s, 1, RNG.uniform(0.2, 1.5), RNG.uniform(0.3, 0.9))
            after = wg.purity(wg.from_gaussian(noisy))
            assert after < before


@pytest.mark.parametrize("eta", [0.7, 0.0])
def test_noisy_channel_matches_the_fock_oracle(eta):
    # Fock(1) x coherent mixed on BS(0.6), then loss eta with thermal noise nbar = 0.3 on mode 1: a noisy channel
    # that mixes the modes (singular at eta = 0); each mode's state integrates the other out of the image at once
    nbar = 0.3
    expr = wg.tensor_exprs(wg.fock_wigner(1), wg.from_gaussian(ga.coherent_state(0.8)))
    a = np.diag([math.sqrt(eta)] * 2 + [1.0] * 2) @ sym.beam_splitter_matrix(0.6)
    noise = np.diag([(1.0 - eta) * (2.0 * nbar + 1.0) / 2.0] * 2 + [0.0] * 2)
    orc = Oracle([24, 16, 24])
    mix = Mixture.from_product(orc, [("fock", 1), ("coherent", 0.8), ("thermal", nbar)])
    mix = mix.apply(orc.bs(1, 2, 0.6) + orc.bs(1, 3, eta))
    for mode, others in ((1, [2, 3]), (2, [0, 1])):
        state = wg._integrate_out(expr, others, (a, np.zeros(4), noise))
        assert state.modes == 1 and state.norm == pytest.approx(1.0, rel=1e-13)
        dist = wg.photon_number_distribution(state, 1, 12)
        assert np.max(np.abs(dist.probs - mix.number_distribution(mode)[:13])) < 1e-10
        n = meas.intensity(state, 1)
        assert [n.mean, n.second_moment] == pytest.approx(list(mix.number_moments(mode)), rel=1e-9)
        x = wg.moments(state, [{0: 1}, {0: 2}])
        assert x == pytest.approx(list(mix.quadrature_moments(mode)), rel=1e-9, abs=1e-12)


class TestAttenuate:
    """The referee's loss, a beam splitter against a thermal ancilla (`reference.attenuate`)."""

    def test_matches_gaussian_channel(self):
        state = ga.tensor([ga.coherent_state(1.1, 0.2), ga.propagate(ga.vacuum_state(), sym.make_squeezer(0.6, 0.0))])
        eta, nenv = 0.75, 0.4
        via_gauss = wg.from_gaussian(reference.inject_thermal(state, 1, nenv, eta))
        via_expr = reference.attenuate(wg.from_gaussian(state), 1, eta, nenv)
        for pt in RNG.normal(0, 1, size=(10, 4)):
            assert abs(reference.evaluate(via_gauss, pt) - reference.evaluate(via_expr, pt)) < 1e-12

    def test_on_nongaussian_state_against_oracle(self):
        # lossy single-photon state: P(1) = eta, P(0) = 1 - eta
        eta = 0.65
        lossy = reference.attenuate(wg.fock_wigner(1), 1, eta)
        dist = wg.photon_number_distribution(lossy, 1, 5)
        assert abs(dist.probs[0] - (1.0 - eta)) < 1e-10
        assert abs(dist.probs[1] - eta) < 1e-10

    def test_thermal_environment_on_fock_state(self):
        # single photon in a warm lossy channel, against the Fock oracle
        eta, nenv = 0.7, 0.5
        noisy = reference.attenuate(wg.fock_wigner(1), 1, eta, nenv)
        orc = Oracle([25, 25])
        mix = Mixture.from_product(orc, [("fock", 1), ("thermal", nenv)]).apply(orc.bs(1, 2, eta))
        ref = mix.number_distribution(1)
        dist = wg.photon_number_distribution(noisy, 1, 20)
        assert np.max(np.abs(dist.probs - ref[:21])) < 1e-8


class TestOracleEquivalence:
    def test_distribution_against_fock_simulator(self):
        # heralded (non-Gaussian) state: one photon subtracted from thermal light
        orc = Oracle([70, 12])
        mix = Mixture.from_product(orc, [("thermal", 1.6), ("vacuum",)])
        mix = mix.apply(orc.bs(2, 1, 0.85))
        red, prob = mix.herald_fock(2, 1)
        ref = red.number_distribution(1)

        expr = wg.tensor_exprs(thermal_expr(1.6), wg.from_gaussian(ga.vacuum_state(1)))
        mix = sym.embed(sym.SymplecticTransform(sym.beam_splitter_matrix(0.85)), [2, 1], 2)
        expr = reference.apply_symplectic(expr, mix)
        state, p = project(expr, 2, 1)
        assert abs(p - prob) < 1e-9
        dist = wg.photon_number_distribution(state, 1, 40)
        assert np.max(np.abs(dist.probs - ref[:41])) < 1e-6


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def pacs_m3_state() -> wg.WignerExpr:
    """Output of configs/pacs_counts.json with m=3: coherent |alpha|=1 through the MZI, 3 photons added."""
    return reference.build_pipeline(sc.load_config(str(CONFIGS / "pacs_counts.json")).with_values(m=3)).state


def click_subtracted_state() -> wg.WignerExpr:
    """Output of configs/subtracted_thermal.json with a click herald: two terms on the measured mode."""
    raw = json.loads((CONFIGS / "subtracted_thermal.json").read_text())
    raw["modifications"][0]["m"] = "click"
    return reference.build_pipeline(sc.ScenarioConfig.from_dict(raw)).state


def scalar_single_mode_g(expr1: wg.WignerExpr, s: complex) -> complex:
    """The per-point contour kernel that the batched _single_mode_g replaced, kept as its reference."""
    total = 0.0 + 0.0j
    for t in expr1.terms:
        a = np.linalg.inv(t.quad)
        evals = np.linalg.eigh(a)[0]
        det_sqrt = np.sqrt(evals[0] + s) * np.sqrt(evals[1] + s)
        quad_s, m_s, gamma = wg._gaussian_product(a, t.mean, s * np.eye(2), np.zeros(2))
        epoly = wg._gaussian_expectation(t.poly, m_s, quad_s / 2.0)
        total += t.weight * np.exp(-gamma) * math.pi / det_sqrt * epoly
    return total


def same_bits(got, want) -> bool:
    if isinstance(want, list):  # one expectation per shift
        return isinstance(got, list) and len(got) == len(want) and all(map(same_bits, got, want))
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


class TestWickSchedule:
    """The cached Wick schedule (`wg._wick_plan`) against the recursion it replaced, bit for bit."""

    POLY = {(2, 0, 1, 0): 0.3, (0, 0, 0, 0): -1.2, (1, 1, 1, 1): 0.7, (0, 3, 0, 0): 2.1, (0, 0, 0, 4): -0.4}
    SHIFTS = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 2, 0, 1)]

    @staticmethod
    def gaussian(batch: tuple) -> tuple:
        """A mean (4, *batch) and a covariance (4, 4, *batch), positive definite at each point."""
        rng = np.random.default_rng(11)
        root = rng.normal(size=(4, 4) + batch)
        return rng.normal(size=(4,) + batch), np.einsum("ik...,jk...->ij...", root, root)

    @staticmethod
    def assert_matches(poly, mean, cov, shifts=None):
        got = wg._gaussian_expectation(poly, mean, cov, shifts)
        assert same_bits(got, reference.gaussian_expectation(poly, mean, cov, shifts))

    @pytest.mark.parametrize("shifts", [None, SHIFTS], ids=["plain", "shifts"])
    @pytest.mark.parametrize("batch", [(), (1,), (7,), (3, 5)], ids=["single", "column", "batch", "grid_batch"])
    def test_matches_the_recursion(self, batch, shifts):
        # a batch of one runs on Python scalars, a larger one level by level
        self.assert_matches(self.POLY, *self.gaussian(batch), shifts)

    @pytest.mark.parametrize("shifts", [None, SHIFTS], ids=["plain", "shifts"])
    @pytest.mark.parametrize("poly", [{}, {(0, 0, 0, 0): 1.5}], ids=["empty", "constant"])
    def test_empty_and_constant_polys(self, poly, shifts):
        # an empty poly sums to the int 0 and a constant one to a float, at any batch, as the recursion gives them
        for batch in ((), (1,), (7,)):
            mean, cov = self.gaussian(batch)
            got = wg._gaussian_expectation(poly, mean, cov, shifts)
            want = reference.gaussian_expectation(poly, mean, cov, shifts)
            assert same_bits(got, want)
            assert type(got if shifts is None else got[0]) is (float if poly else int)

    def test_key_order_keeps_each_sum_order(self):
        # the same monomials in another order take a schedule of their own, and each sums in its poly's order
        flipped = dict(reversed(self.POLY.items()))
        plans = [wg._wick_plan(tuple(poly), None) for poly in (flipped, self.POLY)]
        assert plans[0] is not plans[1]
        assert (plans[0][0], plans[0][3]) != (plans[1][0], plans[1][3])  # the rows and each key's row
        for poly in (self.POLY, flipped):
            for batch in ((), (1,), (7,)):
                self.assert_matches(poly, *self.gaussian(batch))

    def test_a_level_mixes_rows_with_and_without_a_pair(self):
        # at degree 3, x1^3 reads one pair (C_11) and x1 x2 x3 two (C_12, C_13): the second pair slot covers one
        # row of the level, which leads it; x1^2 and x2 x3 fill degree 2, one pair each, and degree 1 has none
        poly = {(3, 0, 0, 0): 0.4, (1, 1, 1, 0): -1.3, (0, 0, 0, 1): 0.2}
        rows, _, levels, _ = wg._wick_plan(tuple(poly), None)
        levels = levels()
        assert [len(level[0]) for level in levels] == [4, 2, 2]
        assert [[len(f) for f, _ in level[3]] for level in levels] == [[], [2], [2, 1]]
        assert len(rows[levels[2][0][0] - 1][2]) == 2
        for batch in ((), (1,), (7,), (3, 5)):
            for shifts in (None, self.SHIFTS):
                self.assert_matches(poly, *self.gaussian(batch), shifts)

    @pytest.mark.parametrize("grid", [False, True], ids=["contour", "grid_contour"])
    def test_contour_widths(self, grid, monkeypatch):
        # the complex means and covariances `_single_mode_g` passes for the contour points, of a grid expression
        # (a counts grid of three T) with a grid axis too
        if grid:
            config = sc.load_config(str(CONFIGS / "pacs_counts.json"))
            state = sc._counted(config, config.modifications[0], (0.3, 0.6, 0.9))[0]
        else:
            state = wg.marginal_mode(pacs_m3_state().normalize(), 1)
        calls, orig = [], wg._gaussian_expectation
        monkeypatch.setattr(wg, "_gaussian_expectation", lambda *args: calls.append(args) or orig(*args))
        wg._single_mode_g(state, TestBatchedContourKernel.contour_s())
        monkeypatch.undo()
        assert calls and all(np.iscomplexobj(args[1]) and args[1].ndim == 2 + grid for args in calls)
        for args in calls:
            self.assert_matches(*args)
            self.assert_matches(*args, [(0, 0), (1, 0), (0, 2)])

    def test_single_contour_points(self, monkeypatch):
        # the complex (n, 1) batches `_single_mode_g` passes for one width at a time stay on arrays, as Python's
        # complex product can differ from numpy's in the last bit
        states = [wg.marginal_mode(make().normalize(), 1) for make in CONTOUR_STATES.values()]
        calls, orig = [], wg._gaussian_expectation
        monkeypatch.setattr(wg, "_gaussian_expectation", lambda *args: calls.append(args) or orig(*args))
        for reduced in states:
            for s in TestBatchedContourKernel.contour_s()[::97]:
                wg._single_mode_g(reduced, np.array([s]))
        monkeypatch.undo()
        assert len(calls) >= 6 * len(states)
        assert all(np.iscomplexobj(args[1]) and args[1].shape[1:] == (1,) for args in calls)
        for args in calls:
            self.assert_matches(*args)
            self.assert_matches(*args, [(0, 0), (1, 0), (0, 2)])

    def test_heralded_point_reads(self, monkeypatch):
        # every expectation of heralded reference (a): the norms and moment tensors of its prefix, and its kernel
        # reads, (n, k) batches with shifts
        sc._prefix.cache_clear()
        sc._route.cache_clear()
        calls, orig = [], wg._gaussian_expectation
        monkeypatch.setattr(wg, "_gaussian_expectation", lambda *args: calls.append(args) or orig(*args))
        sc.evaluate_point(sc.ScenarioConfig.from_dict(workloads.point_a(1.0)))
        monkeypatch.undo()
        assert any(len(args) == 4 and args[3] is not None for args in calls)
        for args in calls:
            self.assert_matches(*args)


CONTOUR_STATES = {
    **{f"fock{n}": lambda n=n: wg.fock_wigner(n) for n in range(4)},
    "thermal4": lambda: thermal_expr(4.0),
    "displaced_squeezed": lambda: wg.from_gaussian(
        ga.propagate(ga.propagate(ga.vacuum_state(), sym.make_squeezer(0.6, 0.5)), sym.make_displacement(0.8, 1.1))),
    "pacs_m3": pacs_m3_state,
    "click_subtracted": click_subtracted_state,
}


class TestBatchedContourKernel:
    # the batched kernel reorders no sums; numpy's array and scalar complex
    # arithmetic may still differ in the last bit, so the tolerance is set at 1e-13
    REL_TOL = 1e-13

    @staticmethod
    def contour_s() -> np.ndarray:
        m = 512
        tks = np.exp(1j * math.pi * (2 * np.arange(m) + 1) / m)
        return (1.0 - tks) / (1.0 + tks)

    @pytest.mark.parametrize("name", sorted(CONTOUR_STATES))
    def test_matches_per_point_reference(self, name):
        reduced = wg.marginal_mode(CONTOUR_STATES[name]().normalize(), 1)
        ss = self.contour_s()
        got = wg._single_mode_g(reduced, ss)
        ref = np.array([scalar_single_mode_g(reduced, s) for s in ss])
        assert got.shape == ss.shape
        assert np.all(np.abs(got - ref) <= self.REL_TOL * np.abs(ref))

    def test_generating_function_on_the_batched_kernel(self):
        # photon_number_distribution inverts G on the contour; here G comes from the per-point reference
        reduced = wg.marginal_mode(pacs_m3_state().normalize(), 1)
        m, ns = 512, np.arange(wg.DEFAULT_NMAX + 1)
        tks = np.exp(1j * math.pi * (2 * np.arange(m) + 1) / m)
        gs = np.array([2.0 / (1.0 + t) * scalar_single_mode_g(reduced, s) for t, s in zip(tks, self.contour_s())])
        ref = np.real(gs @ np.exp(-1j * math.pi * np.outer(2 * np.arange(m) + 1, ns) / m)) / m
        got = wg.photon_number_distribution(reduced, 1).probs
        np.testing.assert_allclose(got, np.clip(ref, 0.0, 1.0), rtol=0, atol=self.REL_TOL)

    @pytest.mark.parametrize("n_max, m", [(40, 64), (70, 128)])
    def test_cached_inverse_dft_keeps_the_bits(self, n_max, m):
        # the cached, read-only matrix of half the circle is the inline inversion's own expression, so every
        # probability keeps its bits; the state's tail bound asks for 32 points, so m is n_max + 1 rounded up
        reduced = wg.marginal_mode(pacs_m3_state().normalize(), 1)
        assert wg._contour_length(reduced, n_max) == m
        ks, ns = np.arange(m // 2), np.arange(n_max + 1)
        tks = np.exp(1j * math.pi * (2 * ks + 1) / m)
        engine_input = wg.marginal_mode(reduced.normalize(), 1)  # normalized once more, as the engine reads it
        gs = 2.0 / (1.0 + tks) * wg._single_mode_g(engine_input, (1.0 - tks) / (1.0 + tks))
        inline = np.clip(np.real(gs @ np.exp(-1j * math.pi * np.outer(2 * ks + 1, ns) / m)) * (2.0 / m), 0.0, 1.0)
        assert np.array_equal(wg.photon_number_distribution(reduced, 1, n_max).probs, inline)
        matrix = wg._inverse_dft(m, n_max)
        assert matrix.shape == (m // 2, n_max + 1) and matrix is wg._inverse_dft(m, n_max)
        with pytest.raises(ValueError):
            matrix[0, 0] = 0.0

    def test_pacs_m3_distribution_against_fock_oracle(self):
        # mode 1 after the MZI is a coherent state; BS addition with a Fock(3)
        # ancilla depends on its amplitude only through |alpha|^2
        raw = json.loads((CONFIGS / "pacs_counts.json").read_text())
        (coherent, vacuum), (add,) = raw["inputs"], raw["modifications"]
        assert (coherent["kind"], vacuum["kind"], add["op"], add["mode"]) == ("coherent", "vacuum", "add", 1)
        orc = Oracle([20, 20])
        mzi_out = Mixture.from_product(orc, [("coherent", coherent["alpha"]), ("vacuum",)])
        alpha = math.sqrt(mzi_out.apply(orc.mzi(raw["interferometer"]["phi"])).number_mean(1))
        orc = Oracle([30, 20])
        mix = Mixture.from_product(orc, [("coherent", alpha), ("fock", 3)]).apply(orc.bs(2, 1, add["T"]))
        red, _ = mix.herald_fock(2, 0)
        ref = red.number_distribution(1)
        dist = wg.photon_number_distribution(pacs_m3_state(), 1, 25)
        assert np.max(np.abs(dist.probs - ref[:26])) < 1e-10


def subtracted_thermal_mode(mode: int) -> wg.WignerExpr:
    """Mode `mode` of configs/subtracted_thermal.json after the MZI, read off the route's channel."""
    config = sc.load_config(str(CONFIGS / "subtracted_thermal.json"))
    return sc._route(config).observe(config.phi)[1][0].state((mode,))


def pacs_m3_grid() -> wg.WignerExpr:
    """The counted mode of configs/pacs_counts.json with m = 3 on the 19-point T grid of `counts`."""
    config = sc.load_config(str(CONFIGS / "pacs_counts.json")).with_values(m=3)
    return sc._counted(config, config.modifications[0], tuple(np.arange(0.05, 1.0, 0.05)))[0]


TAIL_BOUND_STATES = {
    "subtracted_thermal_mode1": (lambda: subtracted_thermal_mode(1), 256),
    "subtracted_thermal_mode2": (lambda: subtracted_thermal_mode(2), 64),
    "pacs_m3_grid": (pacs_m3_grid, 64),
    "coherent7": (lambda: wg.from_gaussian(ga.coherent_state(7.0)), 128),
    "thermal4": (lambda: thermal_expr(4.0), 256),
}


class TestContourTailBound:
    """The contour's length from its own aliasing bound, against a whole circle of 8192 points."""

    @pytest.mark.parametrize("name", sorted(TAIL_BOUND_STATES))
    def test_matches_the_long_contour(self, name):
        build, m = TAIL_BOUND_STATES[name]
        state = build()
        assert wg._contour_length(wg.marginal_mode(state.normalize(), 1), wg.DEFAULT_NMAX) == m
        got = wg.photon_number_distribution(state, 1).probs
        assert np.max(np.abs(got - reference.photon_number_distribution(state, 1))) <= 2e-15

    def test_bound_holds_where_the_tail_is_known(self):
        # thermal P(N >= m) = (nbar / (nbar + 1))^m: the chosen m keeps it below the aliasing bound, and a quarter
        # of m would not
        for nbar in (0.5, 4.0, 20.0):
            log_tail = wg._contour_length(thermal_expr(nbar), 0) * math.log(nbar / (nbar + 1.0))
            assert log_tail <= math.log(wg.CONTOUR_ALIAS) < log_tail / 4

    def test_bright_coherent_state_takes_a_longer_contour(self):
        # the paper's LIGO amplitude, |alpha|^2 = 500: its bound asks for 1024 points, and n <= 40 carries no mass
        state = wg.from_gaussian(ga.coherent_state(math.sqrt(500.0)))
        assert wg._contour_length(state, wg.DEFAULT_NMAX) == 1024
        dist = wg.photon_number_distribution(state, 1)
        assert np.max(dist.probs) <= 1e-15 and dist.tail >= 1.0 - (wg.DEFAULT_NMAX + 1) * 1e-15

    def test_contour_above_the_cap_raises(self):
        # thermal nbar = 1000 needs some 4e4 points; the widths whose E[r^N] overflows are dropped, not raised
        with pytest.raises(ContourTooLong, match="above the cap"):
            wg.photon_number_distribution(thermal_expr(1000.0), 1)
