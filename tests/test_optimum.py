"""The exact phase optimum of a polynomial detector on the prefix channel.

`scenario._optimal_phi` reads intensity, homodyne and intensity difference as
trigonometric polynomials in phi from equispaced samples
(`estimation.trig_stationary_points`).  These tests hold it against closed
forms and against a dense phi grid through the error propagation of the
fixed-phase route, polished by golden section.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import workloads
from wignersim import estimation as est
from wignersim import measurements as meas
from wignersim import scenario as sc
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
        points = est.trig_stationary_points(samples(mean, mean, 5), rate=1)
        phi, v = min(points, key=lambda p: p[1])
        assert phi == pytest.approx(0.0, rel=0.0, abs=1e-15)
        assert v == pytest.approx(1.0 / n_photons, rel=1e-14, abs=0.0)
        assert all(v >= 1.0 / n_photons * (1.0 - 1e-14) for _, v in points)

    def test_half_angle_signal_maps_back_to_phi(self):
        # homodyne-like: <O> = a cos(phi/2) with constant variance s, so V = 4 s / (a^2 sin^2(phi/2)), least at pi
        a, s = 3.0, 0.7
        points = est.trig_stationary_points(samples(lambda t: a * math.cos(t), lambda t: s, 5), rate=2)
        assert all(0.0 <= phi < 2.0 * math.pi for phi, _ in points)
        phi, v = min(points, key=lambda p: p[1])
        assert phi == pytest.approx(math.pi, rel=0.0, abs=1e-12)
        assert v == pytest.approx(4.0 * s / a**2, rel=1e-13, abs=0.0)

    def test_flat_signal_raises(self):
        with pytest.raises(SignalStationary, match="flat"):
            est.trig_stationary_points(samples(lambda t: 1e-17 * math.cos(t), lambda t: 0.0, 5), rate=1)


def ligo_lossy(L: float) -> dict:
    raw = json.loads((ROOT / "configs" / "ligo_lossy.json").read_text())
    raw["noise"]["loss"]["L"] = L
    return raw


# a displaced squeezed input read by homodyne on both modes; with an output displacement the even
# detectors lose their phi-periodicity and take nine samples over phi/2
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
    + [{"scheme": "intensity", "mode": 1}, {"scheme": "intensity_difference", "mode": 1, "mode_b": 2}],
)
CONFIGS = {
    "ligo_lossless": ligo_lossy(0.0),
    "ligo_lossy": ligo_lossy(0.2),
    "point_a": workloads.point_a(1.0),
    "point_b": workloads.point_b(1.0),
    "displaced_squeezed": DISPLACED_SQUEEZED,
    "output_displaced": OUTPUT_DISPLACED,
}


def reference_minimum(config: sc.ScenarioConfig, scheme: meas.DetectionScheme, floor: float) -> float:
    """Least error-propagated variance on a 360-point phi grid, its three best cells polished by golden section.

    Values below `floor` (the QCRB, or 0) are rounding noise by the Cramer-Rao bound and read as the floor:
    near point (a)'s dark fringe the fixed-phase route dips 3e-9 below its QCRB.
    """
    mean, var, slope = sc._signal_fns(config, scheme)

    def variance_at(phi: float) -> float:
        try:
            return max(floor, est.phase_variance_error_prop(mean, var, phi, slope_fn=slope))
        except (SignalStationary, ValueError):
            return math.inf

    grid = 2.0 * math.pi * np.arange(360) / 360
    values = np.array([variance_at(p) for p in grid])
    step = grid[1]
    polished = [est.golden_minimize(variance_at, grid[i] - step, grid[i] + step, 1e-10)[1]
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
        assert 0.0 <= report.optimal_phi[scheme.label] < 2.0 * math.pi
    for scheme in config.detection if report.qcrb is not None else ():
        # parity keeps the golden-section search over Richardson limits, which sits 2.5e-8 below point (a)'s QCRB
        tol = 1e-12 if scheme.kind in meas.POLYNOMIAL_KINDS else 1e-6
        assert report.extras[f"min_phase_variance.{scheme.label}"] >= report.qcrb * (1.0 - tol), scheme.label


def test_point_a_intensity_optimum_is_the_dark_fringe_limit():
    report, _, _ = sc.evaluate_point(sc.ScenarioConfig.from_dict(workloads.point_a(1.0)))
    assert report.optimal_phi["intensity[1]"] == pytest.approx(math.pi, rel=0.0, abs=1e-12)
    assert report.extras["min_phase_variance.intensity[1]"] == pytest.approx(report.qcrb, rel=1e-12, abs=0.0)


def test_mirror_minima_report_the_smaller_phase():
    # the intensity difference of ligo_lossy is least at pi/2 and 3 pi/2 alike
    report, _, _ = sc.evaluate_point(sc.ScenarioConfig.from_dict(ligo_lossy(0.2)))
    assert report.optimal_phi["diff[1,2]"] == pytest.approx(math.pi / 2.0, rel=0.0, abs=1e-12)
