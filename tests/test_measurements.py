import math

import numpy as np
import pytest
from scipy.linalg import block_diag

import reference as ref
from fock_oracle import Mixture, Oracle
from wignersim import conditional as cond
from wignersim import gaussian as ga
from wignersim import measurements as meas
from wignersim import scenario as sc
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
                sym.SymplecticTransform(sym.mzi_matrix(RNG.uniform(0, 6))),
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
            m = ref.homodyne(ga.vacuum_state(1), 1, theta)
            assert abs(m.mean) < 1e-14
            assert abs(m.variance - 0.5) < 1e-13

    def test_coherent_mean(self):
        m = ref.homodyne(ga.coherent_state(1.0, 0.0), 1, 0.0)
        assert abs(m.mean - math.sqrt(2.0)) < 1e-13

    def test_squeezed_quadratures(self):
        s = ga.propagate(ga.vacuum_state(), sym.make_squeezer(1.0, 0.0))
        assert abs(ref.homodyne(s, 1, math.pi / 2).variance - math.exp(-2.0) / 2.0) < 1e-13
        assert abs(ref.homodyne(s, 1, 0.0).variance - math.exp(2.0) / 2.0) < 1e-12

    def test_wigner_path_matches(self):
        squeezed = ga.propagate(ga.vacuum_state(), sym.make_squeezer(0.5, 0.0))
        s = ga.propagate(ga.tensor([ga.coherent_state(1.0, 0.4), squeezed]),
                         sym.SymplecticTransform(sym.mzi_matrix(0.9)))
        for theta in (0.0, 1.1):
            g = ref.homodyne(s, 1, theta)
            w = ref.homodyne(wg.from_gaussian(s), 1, theta)
            assert abs(g.mean - w.mean) < 1e-12
            assert abs(g.variance - w.variance) < 1e-12


class TestParity:
    def test_vacuum(self):
        m = ref.parity(ga.vacuum_state(1))
        assert abs(m.mean - 1.0) < 1e-13
        assert m.variance == 0.0

    def test_fock1(self):
        assert abs(ref.parity(wg.fock_wigner(1)).mean + 1.0) < 1e-13

    def test_thermal(self):
        m = ref.parity(ga.thermal_state(2.0))
        assert abs(m.mean - 0.2) < 1e-13
        # oracle: alternating sum of the photon distribution
        mix = Mixture.from_product(Oracle([150]), [("thermal", 2.0)])
        assert abs(m.mean - mix.parity_mean(1)) < 1e-9

    def test_multimode_marginal(self):
        s = ga.propagate(ga.tensor([ga.thermal_state(1.0), ga.vacuum_state(1)]),
                         sym.SymplecticTransform(sym.mzi_matrix(0.7)))
        m = ref.parity(s, 2)
        assert -1.0 <= m.mean <= 1.0
        assert m.second_moment == 1.0


class TestIntensityDifference:
    def test_vacuum_pair(self):
        m = ref.intensity_difference(ga.vacuum_state(2), 1, 2)
        assert m.mean == 0.0
        assert m.variance == 0.0

    def test_balanced_split_zero_mean(self):
        s = ga.propagate(ga.tensor([ga.coherent_state(1.5, 0.0), ga.vacuum_state(1)]),
                         sym.SymplecticTransform(sym.mzi_matrix(math.pi / 2)))
        assert abs(ref.intensity_difference(s, 1, 2).mean) < 1e-12

    def test_identity_point_sign(self):
        # at phi = 0 the MZI is the identity, so the coherent input stays in mode 1
        s = ga.propagate(ga.tensor([ga.coherent_state(1.5, 0.0), ga.vacuum_state(1)]),
                         sym.SymplecticTransform(sym.mzi_matrix(0.0)))
        assert abs(ref.intensity_difference(s, 1, 2).mean - 2.25) < 1e-12

    def test_same_mode_rejected(self):
        with pytest.raises(ValueError):
            ref.intensity_difference(ga.vacuum_state(2), 1, 1)

    def test_variance_against_oracle(self):
        # correlated two-mode state: thermal + fock through a beam splitter;
        # both oracle modes need headroom for the redistributed thermal tail
        orc = Oracle([40, 40])
        mix = Mixture.from_product(orc, [("thermal", 1.2), ("fock", 1)]).apply(orc.bs(1, 2, 0.7))
        m1, m2 = mix.number_diff_moments(1, 2)
        want_var = m2 - m1**2

        expr = ref.apply_symplectic(
            wg.tensor_exprs(wg.from_gaussian(ga.thermal_state(1.2)), wg.fock_wigner(1)),
            sym.SymplecticTransform(sym.beam_splitter_matrix(0.7)),
        )
        got = ref.intensity_difference(expr, 1, 2)
        assert abs(got.mean - m1) < 1e-6
        assert abs(got.variance - want_var) < 1e-6

    def test_coherent_thermal_mzi_against_oracle(self):
        orc = Oracle([25, 25])
        mix = Mixture.from_product(orc, [("coherent", 0.9), ("thermal", 0.8)]).apply(orc.mzi(1.1))
        m1, m2 = mix.number_diff_moments(1, 2)
        s = ga.propagate(ga.tensor([ga.coherent_state(0.9, 0.0), ga.thermal_state(0.8)]),
                         sym.SymplecticTransform(sym.mzi_matrix(1.1)))
        got = ref.intensity_difference(s, 1, 2)
        assert abs(got.mean - m1) < 1e-7
        assert abs(got.second_moment - m2) < 1e-6


class TestClick:
    def test_vacuum(self):
        assert ref.click_probability(ga.vacuum_state(1)) == 0.0

    def test_thermal(self):
        assert abs(ref.click_probability(ga.thermal_state(4.0)) - 0.8) < 1e-11

    def test_coherent(self):
        assert abs(ref.click_probability(ga.coherent_state(1.0, 0.0)) - (1.0 - math.exp(-1.0))) < 1e-11


class TestSchemesAgainstOracle:
    def test_small_states_all_schemes(self):
        # second moments weight the truncated thermal tail by n^2, so the
        # oracle lattice needs generous headroom
        cases = [
            ([("coherent", 1.0), ("vacuum",)], ga.tensor([ga.coherent_state(1.0, 0.0), ga.vacuum_state(1)])),
            ([("thermal", 1.0), ("squeezed", 0.5)],
             ga.tensor([ga.thermal_state(1.0), ga.propagate(ga.vacuum_state(), sym.make_squeezer(0.5, 0.0))])),
        ]
        orc = Oracle([45, 45])
        for spec, state in cases:
            phi = 0.9
            mix = Mixture.from_product(orc, spec).apply(orc.mzi(phi))
            out = ga.propagate(state, sym.SymplecticTransform(sym.mzi_matrix(phi)))
            for mode in (1, 2):
                nm, n2 = mix.number_moments(mode)
                got = meas.intensity(out, mode)
                assert abs(got.mean - nm) < 1e-6
                assert abs(got.second_moment - n2) < 1e-6
                xm, x2 = mix.quadrature_moments(mode, 0.3)
                hod = ref.homodyne(out, mode, 0.3)
                assert abs(hod.mean - xm) < 1e-7
                assert abs(hod.second_moment - x2) < 1e-7
                assert abs(ref.parity(out, mode).mean - mix.parity_mean(mode)) < 1e-7
                assert abs(ref.click_probability(out, mode) - mix.click_probability(mode)) < 1e-7

    def test_variance_nonnegative_property(self):
        for _ in range(200):
            squeezed = ga.propagate(ga.vacuum_state(), sym.make_squeezer(RNG.uniform(0, 1), RNG.uniform(0, 6)))
            s = ga.propagate(
                ga.tensor([ga.coherent_state(RNG.uniform(0, 2), RNG.uniform(0, 6)), squeezed]),
                sym.SymplecticTransform(sym.mzi_matrix(RNG.uniform(0, 2 * math.pi))),
            )
            scheme = meas.DetectionScheme(
                ["intensity", "homodyne", "parity", "intensity_difference", "click"][RNG.integers(0, 5)],
                mode=1,
                mode_b=2,
                angle=RNG.uniform(0, 2 * math.pi),
            )
            m = ref.measure(s, scheme)
            assert m.variance >= 0.0
            assert math.isfinite(m.variance)
            if scheme.kind == "parity":
                assert -1.0 <= m.mean <= 1.0


class TestMeasureDispatch:
    def test_click_moments_bernoulli(self):
        # a click detector's signal takes the no-click indicator's Bernoulli moments, <O^2> = <O>; the Gaussian
        # closed forms serve the polynomial detectors alone
        scheme = meas.DetectionScheme("click", mode=1)
        with pytest.raises(ValueError):
            meas.gaussian_moments(scheme, *stack([ga.thermal_state(1.0)]))
        config = sc.ScenarioConfig.from_dict({"inputs": [{"kind": "thermal", "nbar": 1.0}, {"kind": "vacuum"}],
                                              "interferometer": {"phi": 0.7}, "detection": [{"scheme": "click"}]})
        jet = sc._signal_jet((sc._route(config),), scheme)
        m, _, _, var, _, _, _ = (float(v[0]) for v in jet(np.array([0.7]), 0))
        assert 1.0 - m == pytest.approx(ref.click_probability(ref.observed(config, 0.7)[1][0], 1), rel=1e-12)
        assert var == pytest.approx(m * (1.0 - m), rel=1e-12)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            meas.DetectionScheme("heterodyne")

    def test_heralded_state_intensity_matches_reference(self):
        h = ref.herald(wg.from_gaussian(ga.thermal_state(1.0)), 1, ("BS", 0.9), 0, 1)[0]
        assert abs(meas.intensity(h[0]).mean - cond.spsts_mean_n(1.0, 1, 0.9)) < 1e-10


def random_two_mode_state(rng) -> ga.GaussianState:
    """Coherent + thermal through a random symplectic and displacement, then uniform loss and thermal noise."""
    state = ga.tensor([ga.coherent_state(rng.uniform(0, 1.5), rng.uniform(0, 2 * math.pi)),
                       ga.thermal_state(rng.uniform(0, 0.5))])
    rotation = rng.uniform(0, 2 * math.pi)
    c, s = math.cos(rotation), math.sin(rotation)
    local = block_diag(sym.make_squeezer(rng.uniform(0, 0.6), rng.uniform(0, 2 * math.pi)).matrix, [[c, -s], [s, c]])
    mix = sym.make_two_mode_squeezer(rng.uniform(0, 0.4), rng.uniform(0, 2 * math.pi)).matrix
    mix = sym.beam_splitter_matrix(rng.uniform(0, 1)) @ mix @ local
    shift = sym.embed(sym.make_displacement(rng.uniform(0, 1), rng.uniform(0, 2 * math.pi)), [2], 2).shift
    state = ga.propagate(state, sym.SymplecticTransform(mix, shift))
    eta = 1.0 - rng.uniform(0, 0.3)
    state = ref.inject_thermal(ref.inject_thermal(state, 1, 0.0, eta), 2, 0.0, eta)
    return ref.inject_thermal(state, int(rng.integers(1, 3)), rng.uniform(0, 0.5), rng.uniform(0.7, 1.0))


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


def kernel(state: ga.GaussianState, scheme: meas.DetectionScheme, dmean=None, dcov=None) -> tuple:
    """(<O>, d<O>) of parity, or of the click probability, from `meas.kernel_jet` on the detected block of a
    Gaussian state whose mean and covariance move by (dmean, dcov) (0 if None)."""
    i = slice(2 * scheme.mode - 2, 2 * scheme.mode)
    dmean, dcov = (np.zeros(len(state.mean)) if dmean is None else dmean), (0.0 * state.cov if dcov is None else dcov)
    k = state.cov[i, i] + (np.eye(2) if scheme.kind == "click" else 0.0)
    value, slope, _ = meas.kernel_jet(state.mean[i], k, dmean[i], dcov[i, i], np.zeros(2), np.zeros((2, 2)))
    return (float(value), float(slope)) if scheme.kind == "parity" else (1.0 - 2.0 * value, -2.0 * slope)


def stack(states: list) -> tuple:
    """The means and covariances of `states`, stacked."""
    return np.array([s.mean for s in states]), np.array([s.cov for s in states])


class TestGaussianClosedForms:
    def test_match_the_wick_path(self):
        # the stacked closed forms, and the per-state referee, against the Wick path of each state
        rng = np.random.default_rng(31)
        states = [random_two_mode_state(rng) for _ in range(25)]
        exprs = [wg.from_gaussian(state) for state in states]
        for scheme in SCHEMES:
            if scheme.kind in meas.POLYNOMIAL_KINDS:
                stacked = meas.gaussian_moments(scheme, *stack(states))
            for j, (state, expr) in enumerate(zip(states, exprs)):
                want = ref.measure(expr, scheme)
                if scheme.kind not in meas.POLYNOMIAL_KINDS:  # the kernel against pi W(0), or the vacuum projector
                    assert kernel(state, scheme)[0] == pytest.approx(want.mean, rel=1e-12, abs=1e-15), scheme.label
                    continue
                for got in (ref.measure(state, scheme), meas.MeasurementMoments(stacked.mean[j],
                                                                                stacked.second_moment[j])):
                    assert got.mean == pytest.approx(want.mean, rel=1e-12, abs=1e-15), scheme.label
                    assert got.second_moment == pytest.approx(want.second_moment, rel=1e-12, abs=1e-15), scheme.label

    def test_no_gaussian_state_goes_through_the_wick_recursion(self, monkeypatch):
        calls = []
        monkeypatch.setattr(wg, "_gaussian_expectation", lambda *a, **k: calls.append(1))
        monkeypatch.setattr(meas, "moments", lambda *a, **k: calls.append(1))
        state = random_two_mode_state(np.random.default_rng(32))
        for scheme in SCHEMES:
            if scheme.kind in meas.POLYNOMIAL_KINDS:
                meas.gaussian_moments(scheme, *stack([state]))
            else:
                kernel(state, scheme)
        assert calls == []


def richardson_slope(f, phi: float, h: float) -> float:
    """Central differences at h, h/2, h/4 with two Richardson levels (error O(h^6))."""
    d = [(f(phi + s) - f(phi - s)) / (2 * s) for s in (h, h / 2, h / 4)]
    r = [(4 * d[i + 1] - d[i]) / 3 for i in range(2)]
    return (16 * r[1] - r[0]) / 15


def kernel_slope(before: ga.GaussianState, scheme: meas.DetectionScheme, phi: float) -> float:
    """d<O>/dphi of parity or click through the MZI, from `meas.kernel_jet` on the detected block and its exact tangent."""
    dm = sym.mzi_phase_derivative(phi)
    half = dm @ before.cov @ sym.mzi_matrix(phi).T
    state = ga.propagate(before, sym.SymplecticTransform(sym.mzi_matrix(phi)))
    return kernel(state, scheme, dm @ before.mean, half + half.T)[1]


class TestMeanSlope:
    """The exact slopes behind the phase signals: the kernel jet of parity and click, and the trigonometric
    signal of the polynomial detectors, whose slope magnitude is sqrt(Var / V)."""

    @pytest.mark.parametrize("phi", [0.5, 1.7, 2.9, 4.4])
    def test_matches_central_differences_through_the_mzi(self, phi, trig_slope):
        rng = np.random.default_rng(33)
        for _ in range(5):
            before = random_two_mode_state(rng)
            for scheme in SCHEMES:
                moments = lambda p: ref.measure(ga.propagate(before, sym.SymplecticTransform(sym.mzi_matrix(p))),
                                                scheme)
                want = richardson_slope(lambda p: moments(p).mean, phi, 1e-2)
                if scheme.kind in meas.POLYNOMIAL_KINDS:
                    # homodyne is a trigonometric polynomial of degree 1 in phi / 2, the even detectors in phi
                    got, want = trig_slope(moments, phi, 2 if scheme.kind == "homodyne" else 1, 5), abs(want)
                else:
                    got = kernel_slope(before, scheme, phi)
                assert got == pytest.approx(want, rel=1e-8, abs=1e-11), scheme.label
