"""The exact phase optimum on the prefix channel.

`scenario._optimal_phi` reads intensity, homodyne and intensity difference as
trigonometric polynomials in phi from equispaced samples
(`estimation.trig_signal`), and parity and click on a Gaussian state from one
batched grid of the kernel jet (`estimation.kernel_minima`).  These tests hold
both against closed forms and against a dense phi grid of the same phase
signal, polished by golden section; `tests/test_pipeline.py` holds that signal
against central differences at fixed phases.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import workloads
import reference as ref
from conftest import forget_routes
from wignersim import cli
from wignersim import estimation as est
from wignersim import measurements as meas
from wignersim import scenario as sc
from wignersim import wigner as wg
from wignersim.errors import SignalStationary

ROOT = Path(__file__).resolve().parent.parent


def samples(mean, var, n: int) -> list:
    """Moments of a signal at theta_j = 2 pi j / n."""
    thetas = 2.0 * math.pi * np.arange(n) / n
    return [meas.MeasurementMoments(mean(t), var(t) + mean(t) ** 2) for t in thetas]


class TestTrigStationaryPoints:
    def test_dark_fringe_takes_the_exact_limit(self):
        # coherent light of N photons: <n> = N (1 - cos phi) / 2 with Poisson variance, so
        # V = 2 / (N (1 + cos phi)) is least at the dark fringe phi = 0, where Var and the slope vanish
        n_photons = 7.0
        mean = lambda t: n_photons * (1.0 - math.cos(t)) / 2.0
        points = est.trig_signal([samples(mean, mean, 5)], rate=1)[0][2]
        phi, v = min(points, key=lambda p: p[1])
        assert phi == pytest.approx(0.0, rel=0.0, abs=1e-15)
        assert v == pytest.approx(1.0 / n_photons, rel=1e-14, abs=0.0)
        assert all(v >= 1.0 / n_photons * (1.0 - 1e-14) for _, v in points)

    def test_half_angle_signal_maps_back_to_phi(self):
        # homodyne-like: <O> = a cos(phi/2) with constant variance s, so V = 4 s / (a^2 sin^2(phi/2)), least at pi
        a, s = 3.0, 0.7
        points = est.trig_signal([samples(lambda t: a * math.cos(t), lambda t: s, 5)], rate=2)[0][2]
        # one period in theta = phi/2: phi spans [0, 4 pi), with the mirror minimum at 3 pi
        assert all(0.0 <= phi < 4.0 * math.pi for phi, _ in points)
        phi, v = min(points, key=lambda p: p[1])
        assert phi == pytest.approx(math.pi, rel=0.0, abs=1e-12)
        assert v == pytest.approx(4.0 * s / a**2, rel=1e-13, abs=0.0)

    def test_flat_signal_raises(self):
        # the search of a flat signal raises SignalStationary, which the stack returns in the signal's place
        (found,) = est.trig_signal([samples(lambda t: 1e-17 * math.cos(t), lambda t: 0.0, 5)], rate=1)
        assert isinstance(found, SignalStationary) and "flat" in str(found)

    @pytest.mark.parametrize("name", ["ligo_lossy", "point_a", "point_b", "output_displaced"])
    def test_batched_newton_steps_keep_the_bits(self, name, monkeypatch):
        # every polynomial whose circle roots the optimum takes, the slope's and the stationary condition's, as its
        # call gave them, against the per-root Newton steps; on a fresh route, which has searched no optimum yet
        calls, orig = [], est._circle_roots
        monkeypatch.setattr(est, "_circle_roots", lambda polys: calls.append((polys, orig(polys))) or calls[-1][1])
        config = sc.ScenarioConfig.from_dict(CONFIGS[name])
        forget_routes()
        for scheme in config.detection:
            if scheme.kind in meas.POLYNOMIAL_KINDS:
                sc._optimal_phi(sc._route(config), scheme)
        assert calls
        for polys, found in calls:
            for p, thetas in zip(polys, found, strict=True):
                assert np.array(thetas).tobytes() == np.array(ref.circle_roots(p)).tobytes()

    def test_newton_steps_stop_where_the_derivative_vanishes(self):
        # (z - 1)^2, whose double root np.roots gives as exactly 1, where p and p' are both 0: that root takes no
        # step (a step would be 0 / 0); with (z^2 + 1) the other roots still take theirs
        polys = [np.array([1.0, -2.0, 1.0]), np.convolve([1.0, -2.0, 1.0], [1.0, 0.0, 1.0])]
        found = est._circle_roots(polys)
        for p, got in zip(polys, found, strict=True):
            assert np.array(got).tobytes() == np.array(ref.circle_roots(p)).tobytes()
        assert found[0] == [0.0, 0.0]
        assert len(found[1]) == 4 and all(math.isfinite(t) for t in found[1])

    def test_stack_gives_each_signal_its_own_result(self):
        # a stack of sample sets reads every signal's circle roots in one call per stage: a flat signal is its own
        # SignalStationary, and every other signal's points are those it gives alone, bit for bit
        n_photons = 7.0
        mean = lambda t: n_photons * (1.0 - math.cos(t)) / 2.0
        dark = samples(mean, mean, 5)
        shifted = samples(lambda t: 3.0 * math.cos(t) + math.sin(t), lambda t: 0.7 + 0.1 * math.cos(2.0 * t), 5)
        flat = samples(lambda t: 1e-17 * math.cos(t), lambda t: 0.0, 5)
        found = est.trig_signal([dark, flat, shifted], rate=1)
        assert isinstance(found[1], SignalStationary)
        for got, alone in ((found[0], dark), (found[2], shifted)):
            assert got[1:] == est.trig_signal([alone], rate=1)[0][1:]


def ligo_lossy(L: float) -> dict:
    raw = json.loads((ROOT / "configs" / "ligo_lossy.json").read_text())
    raw["noise"]["loss"]["L"] = L
    return raw


# a displaced squeezed input read by homodyne on both modes; with an output displacement the even
# detectors lose their 2 pi period in phi, take nine samples over phi/2 and are searched over [0, 4 pi)
DISPLACED_SQUEEZED = {
    "inputs": [{"kind": "coherent", "alpha": 1.5, "theta": 0.2}, {"kind": "vacuum"}],
    "modifications": [{"op": "squeeze", "stage": "input", "mode": 2, "r": 0.6, "theta": 0.4},
                      {"op": "displace", "stage": "input", "mode": 2, "alpha": 0.7, "theta": 1.0}],
    "interferometer": {"phi": 1.0},
    "noise": {"loss": {"L": 0.1}},
    "detection": [{"scheme": "homodyne", "mode": 1, "angle": 0.3}, {"scheme": "homodyne", "mode": 2, "angle": 1.1},
                  {"scheme": "intensity", "mode": 2}],
    "metrics": ["phase_variance", "qfi"],
}
OUTPUT_DISPLACED = dict(
    DISPLACED_SQUEEZED,
    modifications=DISPLACED_SQUEEZED["modifications"]
    + [{"op": "displace", "stage": "output", "mode": 1, "alpha": 0.8, "theta": 0.5}],
    detection=DISPLACED_SQUEEZED["detection"]
    + [{"scheme": "intensity", "mode": 1}, {"scheme": "intensity_difference", "mode": 1, "mode_b": 2},
       {"scheme": "parity", "mode": 1}],
)
CONFIGS = {
    "ligo_lossless": ligo_lossy(0.0),
    "ligo_lossy": ligo_lossy(0.2),
    "point_a": workloads.point_a(1.0),
    "point_b": workloads.point_b(1.0),
    "displaced_squeezed": DISPLACED_SQUEEZED,
    "output_displaced": OUTPUT_DISPLACED,
}


def gaussian_sweep(seed: int) -> list:
    """The points of the benchmark's gaussian_sweep workload at one seed: ligo_lossy at each loss of its grid."""
    plan = workloads.plan(str(ROOT), "gaussian_sweep", seed, "unwritten")
    (raw,), argv = plan["configs"].values(), plan["commands"][0]["argv"]
    parameter, grid = cli._parse_grid(argv[argv.index("--grid") + 1])
    return [sc.ScenarioConfig.from_dict(raw).with_values(**{parameter: float(v)}) for v in grid]


STACKED_CONFIGS = {
    "ligo_lossy": sc.ScenarioConfig.from_dict(ligo_lossy(0.2)),
    **{f"gaussian_sweep_{seed}_{i}": point for seed in (1, 2) for i, point in enumerate(gaussian_sweep(seed))},
    "thermal_on_mode_2": sc.ScenarioConfig.from_dict(dict(ligo_lossy(0.2), noise={
        "loss": {"L": 0.2}, "thermal": {"nbar_env": 0.1, "eta": 0.9, "modes": [2]}})),
    "output_displaced": sc.ScenarioConfig.from_dict(OUTPUT_DISPLACED),
}
# every sample set of a polynomial detector: five phases over [0, 2 pi) or [0, 4 pi), nine over [0, 4 pi)
SAMPLE_SETS = [tuple(2.0 * math.pi * rate * j / n for j in range(n)) for rate, n in ((1, 5), (2, 5), (2, 9))]
POLYNOMIAL_SCHEMES = [meas.DetectionScheme("intensity", 1), meas.DetectionScheme("intensity", 2),
                      meas.DetectionScheme("homodyne", 1), meas.DetectionScheme("homodyne", 1, angle=0.4),
                      meas.DetectionScheme("homodyne", 2, angle=0.4),
                      meas.DetectionScheme("intensity_difference", 1, mode_b=2),
                      meas.DetectionScheme("intensity_difference", 2, mode_b=1)]


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@pytest.mark.parametrize("name", sorted(STACKED_CONFIGS))
def test_stacked_samples_keep_every_bit_of_the_per_phase_referee(name):
    # the route's image at a sample set, and the closed forms over it, against each phase alone: the state formed
    # for that phase (`ref.gaussian_at`), the one `observe` gives, and its moments from the per-state closed forms
    config = STACKED_CONFIGS[name]
    route = sc._Route(config.inputs, config.modifications, config.noise)
    for phis in SAMPLE_SETS:
        stack, states = route.samples(phis), [ref.gaussian_at(route, phi) for phi in phis]
        assert bits(stack[0]) == bits([s.mean for s in states])
        assert bits(stack[1]) == bits([s.cov for s in states])
        for phi, state in zip(phis, states):
            (observed,) = route.observe(phi)[1]
            assert bits(observed.mean) + bits(observed.cov) == bits(state.mean) + bits(state.cov)
        for scheme in POLYNOMIAL_SCHEMES:
            got, want = meas.gaussian_moments(scheme, *stack), [ref.measure(s, scheme) for s in states]
            assert bits(got.mean) == bits([w.mean for w in want]), (scheme.label, phis)
            assert bits(got.second_moment) == bits([w.second_moment for w in want]), (scheme.label, phis)


def period(config: sc.ScenarioConfig) -> float:
    """The period of V in phi searched by `_optimal_phi`: 4 pi behind an output displacement, else 2 pi."""
    return sc._route(config).period


def variance_fn(config: sc.ScenarioConfig, scheme: meas.DetectionScheme, floor: float):
    """phi -> V of the detector's phase signal, the one its fixed-phase values read; values below `floor`
    (the QCRB, or 0) are rounding noise by the Cramer-Rao bound and read as the floor."""
    signal = sc._optimal_phi(sc._route(config), scheme)[2]
    return lambda phi: max(floor, float(signal.variance(np.array([phi]))[0]))


def reference_minimum(config: sc.ScenarioConfig, scheme: meas.DetectionScheme, floor: float,
                      points: int = 360) -> float:
    """Least V of the phase signal on a phi grid of `points` per 2 pi over the period, its three best cells
    polished by golden section."""
    variance_at = variance_fn(config, scheme, floor)

    cells = round(points * period(config) / (2.0 * math.pi))
    grid = period(config) * np.arange(cells) / cells
    values = np.array([variance_at(p) for p in grid])
    step = grid[1]
    polished = [ref.golden_minimize(variance_at, grid[i] - step, grid[i] + step, 1e-10)[1]
                for i in np.argsort(values)[:3]]
    return min(values.min(), *polished)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_fourier_minimum_is_no_worse_than_the_dense_grid_and_respects_the_qcrb(name):
    config = sc.ScenarioConfig.from_dict(CONFIGS[name])
    report, _, _ = sc.evaluate_point(config)
    polynomial = [s for s in config.detection if s.kind in meas.POLYNOMIAL_KINDS]
    assert polynomial
    for scheme in polynomial:
        got = report.extras[f"min_phase_variance.{scheme.label}"]
        want = reference_minimum(config, scheme, report.qcrb or 0.0)
        assert got <= want * (1.0 + 1e-10), scheme.label
        assert 0.0 <= report.optimal_phi[scheme.label] < period(config)
    for scheme in config.detection if report.qcrb is not None else ():
        assert report.extras[f"min_phase_variance.{scheme.label}"] >= report.qcrb * (1.0 - 1e-12), scheme.label


def test_point_a_intensity_optimum_is_the_dark_fringe_limit():
    report, _, _ = sc.evaluate_point(sc.ScenarioConfig.from_dict(workloads.point_a(1.0)))
    assert report.optimal_phi["intensity[1]"] == pytest.approx(math.pi, rel=0.0, abs=1e-12)
    assert report.extras["min_phase_variance.intensity[1]"] == pytest.approx(report.qcrb, rel=1e-12, abs=0.0)


def test_point_a_parity_optimum_is_the_dark_fringe_limit():
    # the exact limit -Pi / Pi'' from the prefix's phase tangents; a golden-section search over Richardson
    # limits reported 0.421286020425159 at 3.14150716, 2.5e-8 below the QCRB
    report, _, _ = sc.evaluate_point(sc.ScenarioConfig.from_dict(workloads.point_a(1.0)))
    assert report.optimal_phi["parity[1]"] == pytest.approx(math.pi, rel=0.0, abs=1e-12)
    assert report.extras["min_phase_variance.parity[1]"] == pytest.approx(report.qcrb, rel=1e-12, abs=0.0)


QCRB_DETECTORS = [{"scheme": "parity", "mode": 1}, {"scheme": "intensity", "mode": 1},
                  {"scheme": "homodyne", "mode": 1, "angle": 0.4},
                  {"scheme": "intensity_difference", "mode": 1, "mode_b": 2}, {"scheme": "click", "mode": 2}]
# pure families whose QFI is the same at every phi, so the QCRB bounds every phase variance
QCRB_CONFIGS = {
    "point_a": workloads.point_a(1.0),
    "fock_coherent": {"inputs": [{"kind": "fock", "n": 1}, {"kind": "coherent", "alpha": 1.0}],
                      "interferometer": {"phi": 1.0}},
    "ligo_noiseless": {k: v for k, v in ligo_lossy(0.0).items() if k != "noise"},
}


@pytest.mark.parametrize("name", sorted(QCRB_CONFIGS))
def test_no_phase_variance_is_below_the_qcrb(name):
    # a golden-section search over Richardson limits put Wigner parity and click optima up to 3.6e-7 below the QCRB
    config = sc.ScenarioConfig.from_dict(dict(QCRB_CONFIGS[name], detection=QCRB_DETECTORS,
                                              metrics=["phase_variance", "qfi"]))
    for phi in (0.2, 0.9, 1.7, 2.6, math.pi, 4.0, 5.5):
        report, _, _ = sc.evaluate_point(config, phi)
        row = report.as_dict()
        values = {k: v for k, v in row.items() if k.startswith(("phase_variance.", "min_phase_variance."))}
        assert len(values) >= 3  # intensity and intensity difference are flat for Fock(1) + coherent
        for key, v in values.items():
            assert v >= row["qcrb"] * (1.0 - 1e-9), (phi, key)


def test_mirror_minima_report_the_smaller_phase():
    # the intensity difference of ligo_lossy is least at pi/2 and 3 pi/2 alike
    report, _, _ = sc.evaluate_point(sc.ScenarioConfig.from_dict(ligo_lossy(0.2)))
    assert report.optimal_phi["diff[1,2]"] == pytest.approx(math.pi / 2.0, rel=0.0, abs=1e-12)


def with_detectors(raw: dict, *detectors) -> dict:
    return dict(raw, detection=[dict(zip(("scheme", "mode"), d)) for d in detectors])


KERNEL_DETECTORS = (("parity", 1), ("parity", 2), ("click", 1), ("click", 2))
BRIGHT = ligo_lossy(0.05)
BRIGHT["inputs"][0]["alpha"] = math.sqrt(50000.0)
BRIGHT["modifications"][0]["r"] = 2.0
# (raw config, reference grid points per 2 pi): the bright fringe is about 0.009 rad wide, the ligo_lossy one 0.05
KERNEL_CONFIGS = {
    "ligo_lossless": (with_detectors(ligo_lossy(0.0), *KERNEL_DETECTORS), 20_000),
    "ligo_lossy": (with_detectors(ligo_lossy(0.2), *KERNEL_DETECTORS), 20_000),
    "displaced_squeezed": (with_detectors(DISPLACED_SQUEEZED, *KERNEL_DETECTORS), 20_000),
    "output_displaced": (with_detectors(OUTPUT_DISPLACED, *KERNEL_DETECTORS), 20_000),
    "thermal_after_mzi": (with_detectors(dict(DISPLACED_SQUEEZED, noise={
        "thermal": {"nbar_env": 0.4, "eta": 0.7, "modes": [2]}}), *KERNEL_DETECTORS), 20_000),
    "bright": (with_detectors(BRIGHT, *KERNEL_DETECTORS), 100_000),
}


def kernel_reference(config: sc.ScenarioConfig, scheme: meas.DetectionScheme, floor: float, points: int) -> float:
    """Least variance of parity or click on a phi grid of `points` per 2 pi over the period, read from the jet,
    its three best cells polished by golden section through the phase signal.

    Values below `floor` (the QCRB) are rounding noise next to a dark fringe and read as the floor.
    """
    jet = sc._kernel_jet((sc._route(config),), scheme)
    cells = round(points * period(config) / (2.0 * math.pi))
    grid = period(config) * np.arange(cells) / cells
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        m, m1, _, _ = jet(grid, 0)
        var = m - m * m if scheme.kind == "click" else 1.0 - m * m
        values = np.maximum(floor, np.nan_to_num(var / (m1 * m1), nan=math.inf))
    variance_at = variance_fn(config, scheme, floor)
    step = grid[1]
    polished = [ref.golden_minimize(variance_at, grid[i] - step, grid[i] + step, 1e-10)[1]
                for i in np.argsort(values)[:3]]
    return min(values.min(), *polished)


@pytest.mark.parametrize("name", sorted(KERNEL_CONFIGS))
def test_kernel_minimum_is_no_worse_than_the_dense_grid_and_respects_the_qcrb(name):
    raw, points = KERNEL_CONFIGS[name]
    config = sc.ScenarioConfig.from_dict(dict(raw, metrics=["phase_variance", "qfi"]))
    report, _, _ = sc.evaluate_point(config)
    # the family's QFI is the same at every phi here, so the QCRB bounds every phi's variance
    assert report.extras["qfi_route"] in ("pure_gaussian", "mixed_gaussian") and report.qcrb > 0.0
    for scheme in config.detection:
        got = report.extras[f"min_phase_variance.{scheme.label}"]
        assert got <= kernel_reference(config, scheme, report.qcrb, points) * (1.0 + 1e-10), scheme.label
        assert got >= report.qcrb * (1.0 - 1e-12), scheme.label
        assert 0.0 <= report.optimal_phi[scheme.label] < period(config)


def test_bright_fringe_needs_the_grid_that_resolves_it():
    # cells of 1 / sqrt(F) rad: a 64-cell grid lands no point on the 0.009 rad fringe and sees no signal
    config = sc.ScenarioConfig.from_dict(KERNEL_CONFIGS["bright"][0])
    jet = sc._signal_jet((sc._route(config),), config.detection[0])
    assert est.kernel_minima(jet, 2.0 * math.pi, 64, 1) == [[]]
    assert math.ceil(2.0 * math.pi * math.sqrt(sc._route(config).prefix.qfi)) > 10_000
    assert sc._optimal_phi(sc._route(config), config.detection[0])[1] < 1.2e-5


@pytest.mark.parametrize("L", [0.0, 0.1, 0.2, 0.3])
def test_parity_reports_the_mirror_minimum_below_pi(L):
    # the parity minima of ligo_lossy tie in mirror pairs about pi; the one at the smaller phi is reported
    report, _, _ = sc.evaluate_point(sc.ScenarioConfig.from_dict(ligo_lossy(L)))
    assert math.pi - 0.05 < report.optimal_phi["parity[1]"] <= math.pi + 1e-12


def test_lossless_parity_optimum_is_the_closed_form_dark_fringe_limit():
    # -Pi / Pi'' at the dark fringe phi = pi; a Richardson limit there sat 9e-12 off
    raw = ligo_lossy(0.0)
    report, _, _ = sc.evaluate_point(sc.ScenarioConfig.from_dict(raw))
    want = est.parity_min_variance(raw["inputs"][0]["alpha"] ** 2, raw["modifications"][0]["r"])
    assert report.extras["min_phase_variance.parity[1]"] == pytest.approx(want, rel=1e-13, abs=0.0)
    assert report.optimal_phi["parity[1]"] == pytest.approx(math.pi, rel=0.0, abs=1e-12)


@pytest.mark.parametrize("label, want", [("intensity[1]", 0.5348), ("diff[1,2]", 0.3283), ("parity[1]", 0.6225)])
def test_output_displacement_searches_the_4_pi_period(label, want):
    # a fixed shift b after the MZI flips sign against the signal under phi -> phi + 2 pi; a search over
    # [0, 2 pi) reported 0.9764, 0.4365 and 0.8751, against these minima over [0, 4 pi)
    report, _, _ = sc.evaluate_point(sc.ScenarioConfig.from_dict(OUTPUT_DISPLACED))
    assert report.extras[f"min_phase_variance.{label}"] == pytest.approx(want, abs=1e-4)
    assert report.optimal_phi[label] > 2.0 * math.pi


@pytest.mark.parametrize("label", ["intensity[1]", "parity[1]", "click[1]"])
def test_dark_fringe_at_zero_phase_is_reported_at_zero(label):
    # coherent light of N = 4 photons in mode 2 leaves mode 1 dark at phi = 0, where V = 1 / N; its slope roots
    # come out a rounding step below 2 pi, where a search over phi < 2 pi lost the intensity optimum
    raw = {"inputs": [{"kind": "vacuum"}, {"kind": "coherent", "alpha": 2.0, "theta": 0.7}], "interferometer": {"phi": 1.0},
           "detection": [{"scheme": kind, "mode": 1} for kind in ("intensity", "parity", "click")]}
    report, warnings, _ = sc.evaluate_point(sc.ScenarioConfig.from_dict(raw))
    assert not warnings
    assert report.optimal_phi[label] == 0.0
    assert report.extras[f"min_phase_variance.{label}"] == pytest.approx(0.25, rel=1e-14, abs=0.0)


def test_wigner_dark_fringe_at_zero_phase_is_reported_at_zero():
    # Fock(1) + coherent |alpha| = 1: parity on mode 1 is least at phi = 0, a dark fringe of V = 1 / 4 = QCRB, whose
    # slope zero the refinement of a 12-cell grid finds a rounding step above 0 (it was reported at 8.9e-16)
    config = sc.ScenarioConfig.from_dict({"inputs": [{"kind": "fock", "n": 1}, {"kind": "coherent", "alpha": 1.0}],
                                          "interferometer": {"phi": 1.0}})
    jet = sc._signal_jet((sc._route(config),), meas.DetectionScheme("parity", 1))
    phi, v = min(est.kernel_minima(jet, 2.0 * math.pi, 12, 1)[0], key=lambda p: p[1])
    assert phi == 0.0
    assert v == pytest.approx(0.25, rel=1e-14, abs=0.0)


def observed_variance(config: sc.ScenarioConfig, scheme: meas.DetectionScheme, phi: float, h: float) -> tuple:
    """(Var, d<O>/dphi) at phi, observed and measured at phi and phi +- s, the slope with two Richardson levels."""
    moments = lambda p: ref.measure(ref.observed(config, p)[1][0], scheme)
    d = [(moments(phi + s).mean - moments(phi - s).mean) / (2 * s) for s in (h, h / 2, h / 4)]
    r = [(4 * d[i + 1] - d[i]) / 3 for i in range(2)]
    return moments(phi).variance, (16 * r[1] - r[0]) / 15


# (config, Richardson step): the bright ligo_lossy fringes are narrow and take a short step
FIXED_PHASE_CONFIGS = {
    "ligo_lossy": (ligo_lossy(0.2), 1e-3),
    "point_a": (workloads.point_a(1.0), 1e-2),
    "point_b": (workloads.point_b(1.0), 1e-2),
    "point_b_m2": (workloads.point_b(1.0, m=2), 1e-2),
    "output_displaced": (OUTPUT_DISPLACED, 1e-2),
}


@pytest.mark.parametrize("phi", [0.4, 1.2, 2.6, 3.1])
@pytest.mark.parametrize("name", sorted(FIXED_PHASE_CONFIGS))
def test_fixed_phase_variance_matches_observed_differences(name, phi):
    # the fixed-phase value reads the same exact signal as the optimum; observing and measuring the state
    # around phi gives it independently
    raw, h = FIXED_PHASE_CONFIGS[name]
    config = sc.ScenarioConfig.from_dict(dict(raw, metrics=["phase_variance"]))
    report, warnings, _ = sc.evaluate_point(config, phi)
    for scheme in config.detection:
        var, slope = observed_variance(config, scheme, phi, h)
        if scheme.label not in report.phase_variance:
            # the bright parity fringe of ligo_lossy is narrow: away from pi its slope is far below rounding
            assert abs(slope) <= est.SLOPE_FLOOR, scheme.label
            assert f"phase_variance[{scheme.label}] at phi={phi:.6g}: signal slope below 1e-12 at phi={phi:.6g}" in warnings
            continue
        assert report.phase_variance[scheme.label] == pytest.approx(var / slope**2, rel=1e-8, abs=0.0), scheme.label


def test_point_a_dark_fringe_variance_is_the_qcrb():
    # at phi = pi the intensity signal and its variance vanish together; the signal takes the exact limit
    # there, where a Richardson limit of differences read 8.9e-10 above the QCRB
    report, _, _ = sc.evaluate_point(sc.ScenarioConfig.from_dict(workloads.point_a(math.pi)))
    assert report.phase_variance["intensity[1]"] == pytest.approx(report.qcrb, rel=1e-12, abs=0.0)


# Synthetic parity signals with roots in closed form, theta = phi - PHI0.  POLES: <O> = A cos theta, so
# Var = 1 - A^2 cos^2 theta never vanishes, <O>' = 0 at theta = 0, pi are poles of V, and
# V = 1 + (1 - A^2) / (A^2 sin^2 theta) is least, 1 / A^2, at the mirror pair theta = pi / 2, 3 pi / 2.
# FRINGES: <O> = cos psi with psi = theta + B sin theta, so Var = sin^2 psi and V = 1 / (1 + B cos theta)^2; its
# stationary points are the dark fringes theta = 0, pi, where V takes its limits 1 / (1 +- B)^2.
PHI0, A, B = 0.3, 0.8, 0.5


def poles_jet(phi: np.ndarray) -> tuple:
    t = phi - PHI0
    return A * np.cos(t), -A * np.sin(t), -A * np.cos(t), np.full(np.shape(phi), 1e-16)


def fringes_jet(phi: np.ndarray) -> tuple:
    t = phi - PHI0
    psi, dpsi = t + B * np.sin(t), 1.0 + B * np.cos(t)
    return np.cos(psi), -np.sin(psi) * dpsi, -np.cos(psi) * dpsi**2 + np.sin(psi) * B * np.sin(t), \
        np.full(np.shape(phi), 1e-16)


def pm_signal(jet):
    """The jet of <O> and Var of a +-1 signal from that of <O> (value, slope, curvature, rounding of Var), as a
    stack of one signal."""

    def signal(phi, which):
        m, m1, m2, noise = jet(phi)
        return m, m1, m2, 1.0 - m * m, -2.0 * m * m1, -2.0 * (m1 * m1 + m * m2), noise

    return signal


def counted(jet, calls: list):
    def read(phi, which):
        calls.append(len(phi))
        return jet(phi, which)

    return read


@pytest.mark.parametrize("jet, want", [
    (poles_jet, [(PHI0 + math.pi / 2.0, 1.0 / A**2), (PHI0 + 1.5 * math.pi, 1.0 / A**2)]),
    (fringes_jet, [(PHI0, 1.0 / (1.0 + B) ** 2), (PHI0 + math.pi, 1.0 / (1.0 - B) ** 2)]),
], ids=["poles", "fringes"])
def test_refined_roots_are_read_phases_within_4_ulp(jet, want):
    (points,) = est.kernel_minima(pm_signal(jet), 2.0 * math.pi, 12, 1)
    points.sort()
    assert len(points) == len(want)
    for (phi, v), (phi_want, v_want) in zip(points, want):
        assert abs(phi - phi_want) <= 4.0 * np.spacing(phi_want)
        # V is the one read from the jet at the reported phase, bit for bit
        assert v == float(est.jet_phase_variance(*pm_signal(jet)(np.array([phi]), 0))[0])
        assert v == pytest.approx(v_want, rel=1e-14, abs=0.0)


def test_mirror_minima_tie():
    [[(_, v1), (_, v2)]] = est.kernel_minima(pm_signal(poles_jet), 2.0 * math.pi, 12, 1)
    assert abs(v1 - v2) <= sc.OPTIMUM_TIE * abs(v1)


@pytest.mark.parametrize("jet, brackets", [(poles_jet, 4), (fringes_jet, 2)], ids=["poles", "fringes"])
def test_each_root_family_takes_at_most_4_jet_calls(jet, brackets, monkeypatch):
    # one `_refine` takes the slope zeros and N's zeros together, a second the halves of the cells that poles split
    families = []
    refine = est._refine

    def per_family(read, f, x, g, which):
        families.append([])
        return refine(counted(read, families[-1]), f, x, g, which)

    monkeypatch.setattr(est, "_refine", per_family)
    est.kernel_minima(pm_signal(jet), 2.0 * math.pi, 12, 1)
    assert families[0] and all(len(calls) <= 4 for calls in families)
    # the first call reads all the brackets at once: two slope zeros, and for POLES two cells of N
    assert families[0][0] == est.REFINE_WINDOW * brackets


def test_last_round_ends_every_live_bracket(monkeypatch):
    # with one round allowed, neither bracket narrows to 4 ulp: the last-round stop returns each at the end of its
    # final bracket where |f| is least, a finite phase inside it, with the jet read there
    monkeypatch.setattr(est, "REFINE_ROUNDS", 1)
    x = np.array([[2.0, 3.0, 3.3, 4.0], [-0.5, -0.2, 0.3, 0.5]])
    jet = lambda phi, which: poles_jet(phi + PHI0)  # <O>' = -A sin phi, zero at pi and 0
    roots, jets, walls = est._refine(jet, lambda g, rows: g[1], x, np.asarray(jet(x, 0)), np.zeros(2, int))
    assert np.all((x[:, 1] <= roots) & (roots <= x[:, 2])) and not walls.any()
    assert np.all(np.abs(roots - np.array([math.pi, 0.0])) > 1e-6)
    assert np.array_equal(jets, np.asarray(jet(roots, 0)))


def test_bracket_whose_guess_falls_outside_it_still_converges():
    # <O>' = -sin phi changes sign at pi inside [3.0, 3.3]; the inverse cubic through it and two far neighbours,
    # where <O>' is not monotone, guesses a phase outside the bracket, so the first window spreads over it evenly
    x = np.array([[0.2, 3.0, 3.3, 6.1]])
    g = np.asarray(poles_jet(x[0] + PHI0))[:, None, :]
    y = g[1, 0]
    guess = sum(x[0, i] * math.prod(y[m] / (y[m] - y[i]) for m in range(4) if m != i) for i in range(4))
    assert not 3.0 < guess < 3.3
    calls = []
    roots, jets, _ = est._refine(counted(lambda phi, which: poles_jet(phi + PHI0), calls), lambda g, rows: g[1], x, g,
                                 np.zeros(1, int))
    assert abs(roots[0] - math.pi) <= 4.0 * np.spacing(math.pi)
    assert np.array_equal(jets[:, 0], np.asarray(poles_jet(roots + PHI0))[:, 0])
    assert len(calls) <= 4


def subtracted_thermal(metrics: list) -> sc.ScenarioConfig:
    raw = json.loads((ROOT / "configs" / "subtracted_thermal.json").read_text())
    return sc.ScenarioConfig.from_dict(dict(raw, metrics=metrics))


def test_output_herald_dark_fringe_at_zero_phase_is_reported_at_zero():
    # mode 2 of thermal + vacuum is dark at phi = 0 whatever the herald on mode 1 sees: its click is a dark
    # fringe of V = 7/40 (the golden-section search stopped at phi = -1.4e-4, 1.1e-8 above it)
    report, _, _ = sc.evaluate_point(subtracted_thermal(["phase_variance"]))
    assert report.optimal_phi["click[2]"] == 0.0
    assert report.extras["min_phase_variance.click[2]"] == pytest.approx(7.0 / 40.0, rel=1e-9, abs=0.0)


def test_output_herald_optimum_approaches_the_herald_zero():
    # at phi = pi mode 1 carries no light and the subtraction never succeeds; towards it, the click on mode 1
    # falls monotonically to V = 5/36, and the optimum is read where the herald still succeeds (the golden-section
    # search stopped 1.9e-7 above)
    config = subtracted_thermal(["phase_variance"])
    report, _, _ = sc.evaluate_point(config)
    phi = report.optimal_phi["click[1]"]
    assert report.extras["min_phase_variance.click[1]"] == pytest.approx(5.0 / 36.0, rel=1e-7, abs=0.0)
    assert abs(phi - math.pi) < 1e-3
    assert sc._route(config).observe(phi)[0] >= wg.IMPROBABLE_FLOOR
    signal = sc._optimal_phi(sc._route(config), meas.DetectionScheme("click", 1))[2]
    v = signal.variance(math.pi - np.array([0.3, 0.1, 3e-2, 1e-2, 3e-3, 1e-3, 3e-4]))
    assert np.all(np.diff(v) < 0.0) and v[-1] > 5.0 / 36.0
