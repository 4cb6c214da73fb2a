import math

import numpy as np
import pytest

import reference as ref
from fock_oracle import Mixture, Oracle
from wignersim import conditional as cond
from wignersim import gaussian as ga
from wignersim import measurements as meas
from wignersim import symplectic as sym
from wignersim import wigner as wg

RNG = np.random.default_rng(555)


class TestIntensity:
    def test_vacuum(self):
        m = meas.intensity(ga.vacuum_state(1))
        assert m.mean == 0.0 and m.variance == 0.0

    def test_coherent_poissonian(self):
        m = meas.intensity(ga.coherent_state(2.0, 0.0))
        assert abs(m.mean - 4.0) < 1e-12
        assert abs(m.variance - 4.0) < 1e-11

    def test_thermal(self):
        m = meas.intensity(ga.thermal_state(4.0))
        assert abs(m.mean - 4.0) < 1e-12
        assert abs(m.variance - 20.0) < 1e-11

    def test_gaussian_and_wigner_paths_agree(self):
        for _ in range(15):
            s = ga.propagate(
                ga.tensor([ga.coherent_state(RNG.uniform(0, 1.5), RNG.uniform(0, 6)), ga.thermal_state(RNG.uniform(0, 2))]),
                sym.make_mzi(RNG.uniform(0, 6)),
            )
            g = meas.intensity(s, 1)
            w = meas.intensity(wg.from_gaussian(s), 1)
            assert abs(g.mean - w.mean) < 1e-10
            assert abs(g.second_moment - w.second_moment) < 1e-10

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            meas.intensity(ga.vacuum_state(1), 2)


class TestHomodyne:
    def test_vacuum_any_angle(self):
        for theta in (0.0, 0.7, math.pi / 2):
            m = meas.homodyne(ga.vacuum_state(1), 1, theta)
            assert abs(m.mean) < 1e-14
            assert abs(m.variance - 0.5) < 1e-13

    def test_coherent_mean(self):
        m = meas.homodyne(ga.coherent_state(1.0, 0.0), 1, 0.0)
        assert abs(m.mean - math.sqrt(2.0)) < 1e-13

    def test_squeezed_quadratures(self):
        s = ga.squeezed_vacuum(1.0, 0.0)
        assert abs(meas.homodyne(s, 1, math.pi / 2).variance - math.exp(-2.0) / 2.0) < 1e-13
        assert abs(meas.homodyne(s, 1, 0.0).variance - math.exp(2.0) / 2.0) < 1e-12

    def test_wigner_path_matches(self):
        s = ga.propagate(ga.tensor([ga.coherent_state(1.0, 0.4), ga.squeezed_vacuum(0.5, 0.0)]), sym.make_mzi(0.9))
        for theta in (0.0, 1.1):
            g = meas.homodyne(s, 1, theta)
            w = meas.homodyne(wg.from_gaussian(s), 1, theta)
            assert abs(g.mean - w.mean) < 1e-12
            assert abs(g.variance - w.variance) < 1e-12


class TestParity:
    def test_vacuum(self):
        m = meas.parity(ga.vacuum_state(1))
        assert abs(m.mean - 1.0) < 1e-13
        assert m.variance == 0.0

    def test_fock1(self):
        assert abs(meas.parity(wg.fock_wigner(1)).mean + 1.0) < 1e-13

    def test_thermal(self):
        m = meas.parity(ga.thermal_state(2.0))
        assert abs(m.mean - 0.2) < 1e-13
        # oracle: alternating sum of the photon distribution
        mix = Mixture.from_product(Oracle([150]), [("thermal", 2.0)])
        assert abs(m.mean - mix.parity_mean(1)) < 1e-9

    def test_multimode_marginal(self):
        s = ga.propagate(ga.tensor([ga.thermal_state(1.0), ga.vacuum_state(1)]), sym.make_mzi(0.7))
        m = meas.parity(s, 2)
        assert -1.0 <= m.mean <= 1.0
        assert m.second_moment == 1.0


class TestIntensityDifference:
    def test_vacuum_pair(self):
        m = meas.intensity_difference(ga.vacuum_state(2), 1, 2)
        assert m.mean == 0.0
        assert m.variance == 0.0

    def test_balanced_split_zero_mean(self):
        s = ga.propagate(ga.tensor([ga.coherent_state(1.5, 0.0), ga.vacuum_state(1)]), sym.make_mzi(math.pi / 2))
        assert abs(meas.intensity_difference(s, 1, 2).mean) < 1e-12

    def test_identity_point_sign(self):
        # at phi = 0 the MZI is the identity, so the coherent input stays in mode 1
        s = ga.propagate(ga.tensor([ga.coherent_state(1.5, 0.0), ga.vacuum_state(1)]), sym.make_mzi(0.0))
        assert abs(meas.intensity_difference(s, 1, 2).mean - 2.25) < 1e-12

    def test_same_mode_rejected(self):
        with pytest.raises(ValueError):
            meas.intensity_difference(ga.vacuum_state(2), 1, 1)

    def test_variance_against_oracle(self):
        # correlated two-mode state: thermal + fock through a beam splitter;
        # both oracle modes need headroom for the redistributed thermal tail
        orc = Oracle([40, 40])
        mix = Mixture.from_product(orc, [("thermal", 1.2), ("fock", 1)]).apply(orc.bs(1, 2, 0.7))
        m1, m2 = mix.number_diff_moments(1, 2)
        want_var = m2 - m1**2

        expr = ref.apply_symplectic(
            wg.tensor_exprs(wg.from_gaussian(ga.thermal_state(1.2)), wg.fock_wigner(1)),
            sym.make_beam_splitter(0.7),
        )
        got = meas.intensity_difference(expr, 1, 2)
        assert abs(got.mean - m1) < 1e-6
        assert abs(got.variance - want_var) < 1e-6

    def test_coherent_thermal_mzi_against_oracle(self):
        orc = Oracle([25, 25])
        mix = Mixture.from_product(orc, [("coherent", 0.9), ("thermal", 0.8)]).apply(orc.mzi(1.1))
        m1, m2 = mix.number_diff_moments(1, 2)
        s = ga.propagate(ga.tensor([ga.coherent_state(0.9, 0.0), ga.thermal_state(0.8)]), sym.make_mzi(1.1))
        got = meas.intensity_difference(s, 1, 2)
        assert abs(got.mean - m1) < 1e-7
        assert abs(got.second_moment - m2) < 1e-6


class TestClick:
    def test_vacuum(self):
        assert meas.click_probability(ga.vacuum_state(1)) == 0.0

    def test_thermal(self):
        assert abs(meas.click_probability(ga.thermal_state(4.0)) - 0.8) < 1e-11

    def test_coherent(self):
        assert abs(meas.click_probability(ga.coherent_state(1.0, 0.0)) - (1.0 - math.exp(-1.0))) < 1e-11


class TestSchemesAgainstOracle:
    def test_small_states_all_schemes(self):
        # second moments weight the truncated thermal tail by n^2, so the
        # oracle lattice needs generous headroom
        cases = [
            ([("coherent", 1.0), ("vacuum",)], ga.tensor([ga.coherent_state(1.0, 0.0), ga.vacuum_state(1)])),
            ([("thermal", 1.0), ("squeezed", 0.5)], ga.tensor([ga.thermal_state(1.0), ga.squeezed_vacuum(0.5, 0.0)])),
        ]
        orc = Oracle([45, 45])
        for spec, state in cases:
            phi = 0.9
            mix = Mixture.from_product(orc, spec).apply(orc.mzi(phi))
            out = ga.propagate(state, sym.make_mzi(phi))
            for mode in (1, 2):
                nm, n2 = mix.number_moments(mode)
                got = meas.intensity(out, mode)
                assert abs(got.mean - nm) < 1e-6
                assert abs(got.second_moment - n2) < 1e-6
                xm, x2 = mix.quadrature_moments(mode, 0.3)
                hod = meas.homodyne(out, mode, 0.3)
                assert abs(hod.mean - xm) < 1e-7
                assert abs(hod.second_moment - x2) < 1e-7
                assert abs(meas.parity(out, mode).mean - mix.parity_mean(mode)) < 1e-7
                assert abs(meas.click_probability(out, mode) - mix.click_probability(mode)) < 1e-7

    def test_variance_nonnegative_property(self):
        for _ in range(200):
            s = ga.propagate(
                ga.tensor([ga.coherent_state(RNG.uniform(0, 2), RNG.uniform(0, 6)), ga.squeezed_vacuum(RNG.uniform(0, 1), RNG.uniform(0, 6))]),
                sym.make_mzi(RNG.uniform(0, 2 * math.pi)),
            )
            scheme = meas.DetectionScheme(
                ["intensity", "homodyne", "parity", "intensity_difference", "click"][RNG.integers(0, 5)],
                mode=1,
                mode_b=2,
                angle=RNG.uniform(0, 2 * math.pi),
            )
            m = meas.measure(s, scheme)
            assert m.variance >= 0.0
            assert math.isfinite(m.variance)
            if scheme.kind == "parity":
                assert -1.0 <= m.mean <= 1.0


class TestMeasureDispatch:
    def test_click_moments_bernoulli(self):
        p = meas.click_probability(ga.thermal_state(1.0))
        m = meas.measure(ga.thermal_state(1.0), meas.DetectionScheme("click", mode=1))
        assert abs(m.mean - p) < 1e-12
        assert abs(m.variance - p * (1 - p)) < 1e-12

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            meas.DetectionScheme("heterodyne")

    def test_heralded_state_intensity_matches_reference(self):
        h = cond.herald(wg.from_gaussian(ga.thermal_state(1.0)), 1, ("BS", 0.9), 0, 1)
        assert abs(meas.intensity(h[0]).mean - cond.spsts_mean_n(1.0, 1, 0.9)) < 1e-10


def random_two_mode_state(rng) -> ga.GaussianState:
    """Coherent + thermal through a random symplectic and displacement, then uniform loss and thermal noise."""
    state = ga.tensor([ga.coherent_state(rng.uniform(0, 1.5), rng.uniform(0, 2 * math.pi)),
                       ga.thermal_state(rng.uniform(0, 0.5))])
    f = sym.chain(
        sym.direct_sum([sym.make_squeezer(rng.uniform(0, 0.6), rng.uniform(0, 2 * math.pi)),
                        sym.make_phase_shifter(rng.uniform(0, 2 * math.pi))]),
        sym.make_two_mode_squeezer(rng.uniform(0, 0.4), rng.uniform(0, 2 * math.pi)),
        sym.make_beam_splitter(rng.uniform(0, 1)),
        sym.embed(sym.make_displacement(rng.uniform(0, 1), rng.uniform(0, 2 * math.pi)), [2], 2),
    )
    state = ga.apply_loss(ga.propagate(state, f), ga.LossSpec(L=rng.uniform(0, 0.3)))
    return ga.inject_thermal(state, int(rng.integers(1, 3)), rng.uniform(0, 0.5), rng.uniform(0.7, 1.0))


SCHEMES = [
    meas.DetectionScheme("intensity", 1),
    meas.DetectionScheme("intensity", 2),
    meas.DetectionScheme("homodyne", 2, angle=0.8),
    meas.DetectionScheme("parity", 1),
    meas.DetectionScheme("parity", 2),
    meas.DetectionScheme("intensity_difference", 1, mode_b=2),
    meas.DetectionScheme("intensity_difference", 2, mode_b=1),
    meas.DetectionScheme("click", 1),
    meas.DetectionScheme("click", 2),
]


class TestGaussianClosedForms:
    def test_match_the_wick_path(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            state = random_two_mode_state(rng)
            expr = wg.from_gaussian(state)
            for scheme in SCHEMES:
                got, want = meas.measure(state, scheme), meas.measure(expr, scheme)
                assert got.mean == pytest.approx(want.mean, rel=1e-12, abs=1e-15), scheme.label
                assert got.second_moment == pytest.approx(want.second_moment, rel=1e-12, abs=1e-15), scheme.label

    def test_no_gaussian_state_goes_through_the_wick_recursion(self, monkeypatch):
        calls = []
        monkeypatch.setattr(wg, "_gaussian_expectation", lambda *a, **k: calls.append(1))
        monkeypatch.setattr(meas, "moments", lambda *a, **k: calls.append(1))
        state = random_two_mode_state(np.random.default_rng(32))
        for scheme in SCHEMES:
            meas.measure(state, scheme)
        assert calls == []


def richardson_slope(f, phi: float, h: float) -> float:
    """Central differences at h, h/2, h/4 with two Richardson levels (error O(h^6))."""
    d = [(f(phi + s) - f(phi - s)) / (2 * s) for s in (h, h / 2, h / 4)]
    r = [(4 * d[i + 1] - d[i]) / 3 for i in range(2)]
    return (16 * r[1] - r[0]) / 15


def kernel_slope(before: ga.GaussianState, scheme: meas.DetectionScheme, phi: float) -> float:
    """d<O>/dphi of parity or click through the MZI, from `meas.kernel_jet` on the detected block and its exact tangent."""
    dm = sym.mzi_phase_derivative(phi)
    half = dm @ before.cov @ sym.make_mzi(phi).matrix.T
    dmean, dcov = dm @ before.mean, half + half.T
    state = ga.propagate(before, sym.make_mzi(phi))
    i = slice(2 * scheme.mode - 2, 2 * scheme.mode)
    k = state.cov[i, i] + (np.eye(2) if scheme.kind == "click" else 0.0)
    slope = float(meas.kernel_jet(state.mean[i], k, dmean[i], dcov[i, i], np.zeros(2), np.zeros((2, 2)))[1])
    return slope if scheme.kind == "parity" else -2.0 * slope  # the click probability is 1 - 2 kernel


class TestMeanSlope:
    """The exact slopes behind the phase signals: the kernel jet of parity and click, and the trigonometric
    signal of the polynomial detectors, whose slope magnitude is sqrt(Var / V)."""

    @pytest.mark.parametrize("phi", [0.5, 1.7, 2.9, 4.4])
    def test_matches_central_differences_through_the_mzi(self, phi, trig_slope):
        rng = np.random.default_rng(33)
        for _ in range(5):
            before = random_two_mode_state(rng)
            for scheme in SCHEMES:
                moments = lambda p: meas.measure(ga.propagate(before, sym.make_mzi(p)), scheme)
                want = richardson_slope(lambda p: moments(p).mean, phi, 1e-2)
                if scheme.kind in meas.POLYNOMIAL_KINDS:
                    # homodyne is a trigonometric polynomial of degree 1 in phi / 2, the even detectors in phi
                    got, want = trig_slope(moments, phi, 2 if scheme.kind == "homodyne" else 1, 5), abs(want)
                else:
                    got = kernel_slope(before, scheme, phi)
                assert got == pytest.approx(want, rel=1e-8, abs=1e-11), scheme.label
