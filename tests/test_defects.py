"""The defect ledger: one test per live defect of ROADMAP.md, on the config given there.

Each test asserts what its item says "done" means and is marked `xfail(strict=True)` with the defect's letter, so
a fix shows here as an unexpected pass (whose change removes the marker) and a mended defect that comes back fails
outright.  None of these configs has a uniform loss.
"""

import math

import numpy as np
import pytest

import reference as ref
import workloads
from fock_oracle import Mixture, Oracle, qfi_sld
from wignersim import measurements as meas
from wignersim import scenario as sc

COHERENT = {"kind": "coherent", "alpha": 1.0}
FOCK = {"kind": "fock"}
CLICKS = [{"scheme": "click", "mode": 1}, {"scheme": "click", "mode": 2}]


def config(inputs, modifications=(), detection=(), metrics=("phase_variance",), phi=0.0, **extra):
    return sc.ScenarioConfig.from_dict({"inputs": list(inputs), "modifications": list(modifications),
                                        "interferometer": {"phi": phi}, "detection": list(detection),
                                        "metrics": list(metrics), **extra})


def row(cfg: sc.ScenarioConfig, phi: float | None = None) -> tuple[dict, list]:
    report, warnings, _ = sc.evaluate_point(cfg, phi)
    return report.as_dict(), warnings


def flagged_qfi(phi: float, h: float = 1e-4) -> float:
    """The Fock oracle's SLD QFI of defect A's flagged state, sum_n p_n F(psi_n) over the subtraction's outcomes
    n: Fock(1) on mode 1 mixed with a vacuum ancilla at T = 0.5, the ancilla read, then the MZI."""
    total = 0.0
    for n in (0, 1):
        def rho(p):
            orc = Oracle([14, 14, 2])
            mix = Mixture.from_product(orc, [("fock", 1), ("coherent", 1.0), ("vacuum",)]).apply(orc.bs(3, 1, 0.5))
            mix, prob = mix.herald_fock(3, n)
            return mix.apply(mix.oracle.mzi(p)).dm(), prob

        (r0, prob), (rp, _), (rm, _) = rho(phi), rho(phi + h), rho(phi - h)
        total += prob * qfi_sld(r0, (rp - rm) / (2.0 * h))
    return total


@pytest.mark.xfail(strict=True, reason="defect A")
def test_defect_a_an_input_herald_bounds_the_cfi_by_its_outcomes_qfi():
    # an input-stage subtraction on Fock(1) + coherent: the reported qfi is the success arm's alone (1), below
    # the cfi of the whole record; sum_n p_n F(psi_n) = (1 + 4) / 2 bounds it
    subtract = {"op": "subtract", "stage": "input", "mode": 1, "m": 1, "T": 0.5}
    got, _ = row(config([FOCK, COHERENT], [subtract], CLICKS, ["cfi", "qfi"], phi=0.4))
    bound = got.get("herald_weighted_qfi", -math.inf)
    assert got["cfi"] <= bound
    assert bound == pytest.approx(flagged_qfi(0.4), rel=1e-6, abs=0.0)


@pytest.mark.xfail(strict=True, reason="defect B")
def test_defect_b_the_click_cfi_is_that_of_the_joint_outcome():
    # vacuum + Fock(1): the two click detectors see one photon, so their outcomes are not independent and the
    # joint CFI is the QFI, 1; the sum of their binary CFIs reads 2
    got, _ = row(config([{"kind": "vacuum"}, FOCK], (), CLICKS, ["cfi", "qfi"], phi=1.3))
    assert got["cfi"] == pytest.approx(1.0, rel=0.0, abs=1e-12)
    assert got["qfi"] == pytest.approx(1.0, rel=0.0, abs=1e-12)


DEFECT_C = dict(inputs=[{"kind": "coherent", "alpha": 4.0}, {"kind": "vacuum"}],
                modifications=[{"op": "squeeze", "stage": "input", "mode": 2, "r": 0.3}],
                detection=[{"scheme": "parity", "mode": 1}], metrics=["phase_variance", "qfi"],
                noise={"thermal": {"nbar_env": 0.1, "eta": 0.9, "modes": [2]}})


@pytest.mark.xfail(strict=True, reason="defect C")
def test_defect_c_the_gaussian_qfi_is_continuous_where_a_mode_turns_pure():
    # a pair term of qfi_mixed_gaussian dropped at nu_j nu_k - 1 <= 1e-9 makes the QFI jump down near phi = pi
    cfg = config(**dict(DEFECT_C, metrics=["qfi"]))
    for phi in (math.pi, *(math.pi + s * h for h in (1e-6, 1e-5, 1e-4) for s in (-1.0, 1.0))):
        assert row(cfg, phi)[0]["qfi"] == pytest.approx(29.246632, rel=1e-7, abs=0.0), phi
    got, _ = row(config(**DEFECT_C), math.pi)
    assert got["min_phase_variance.parity[1]"] >= (1.0 - 1e-9) * got["qcrb"]


@pytest.mark.xfail(strict=True, reason="defect D")
def test_defect_d_the_optimum_has_its_own_bound():
    # min_phase_variance is taken at the detector's optimum, qcrb at the configured phase: the row needs the
    # QCRB at the optimum to be checked against
    got, _ = row(config(**DEFECT_C))
    assert got["min_phase_variance.parity[1]"] >= (1.0 - 1e-9) * got.get("optimal_qcrb.parity[1]", math.inf)


@pytest.mark.xfail(strict=True, reason="defect E")
def test_defect_e_the_click_cfi_is_continuous_at_a_dark_port():
    # point (a) with clicks on both modes: the click probability formed as 1 - p0 cancels near pi
    cfg = sc.ScenarioConfig.from_dict(dict(workloads.point_a(math.pi), detection=CLICKS, metrics=["cfi"]))

    def cfi(phi: float) -> float:
        return row(cfg, phi)[0]["cfi"]

    at = cfi(math.pi)
    for s in (-1.0, 1.0):
        assert cfi(math.pi + s * 1e-5) == pytest.approx(at, rel=1e-9, abs=0.0), s
    # even in phi - pi: the symmetric values at 1e-3 ... 4e-3 fix a polynomial in h^2, read at h = 1e-4
    hs = np.array([1e-3, 2e-3, 3e-3, 4e-3])
    values = [(cfi(math.pi + h) + cfi(math.pi - h)) / 2.0 for h in hs]
    coefficients = np.linalg.solve(np.vander(hs**2, increasing=True), values)
    want = float(np.polynomial.polynomial.polyval(1e-8, coefficients))
    for s in (-1.0, 1.0):
        assert cfi(math.pi + s * 1e-4) == pytest.approx(want, rel=1e-9, abs=0.0), s


def forward_variance(cfg: sc.ScenarioConfig, scheme: meas.DetectionScheme, phi: float) -> float:
    """The error-propagated phase variance of the state built at phi (`reference.build_pipeline`)."""

    def moments(p: float) -> meas.MeasurementMoments:
        return ref.measure(ref.build_pipeline(cfg, p).state, scheme)

    return ref.phase_variance_error_prop(lambda p: moments(p).mean, lambda p: moments(p).variance, phi)


@pytest.mark.xfail(strict=True, reason="defect F")
def test_defect_f_two_output_heralds_read_past_the_herald_wall():
    # a click subtraction and a Fock-2 addition after the phase on mode 1: the click optimum finds no finite
    # variance, and the intensity optimum stops at the HERALD_CANCELLATION wall.  The forward build's click herald
    # cancels as the engine's does, so it resolves the variance only where the herald probability is above about
    # 1e-6, 0.015 rad or more from pi: a dense scan there bounds the reported minimum from above
    heralds = [{"op": "subtract", "stage": "output", "mode": 1, "m": "click", "T": 0.8},
               {"op": "add", "stage": "output", "mode": 1, "m": 2, "mechanism": "bs", "T": 0.7}]
    detection = [{"scheme": "intensity", "mode": 1}, {"scheme": "click", "mode": 1}]
    cfg = config([dict(COHERENT, alpha=1.1), {"kind": "vacuum"}], heralds, detection, phi=0.7)
    got, _ = row(cfg)
    assert math.isfinite(got.get("min_phase_variance.click[1]", math.nan))
    scan = min(forward_variance(cfg, cfg.detection[0], phi) for phi in math.pi - np.linspace(0.015, 0.05, 8))
    assert got["min_phase_variance.intensity[1]"] <= (1.0 + 1e-6) * scan


@pytest.mark.xfail(strict=True, reason="defect H")
def test_defect_h_a_dark_no_click_read_is_within_its_rounding_level():
    # point (a) at pi: mode 2 holds the photon-added state, so its no-click probability is 0; the read's rounding
    # (about 1e-16) is far above the level the kernel jet reports for it
    cfg = sc.ScenarioConfig.from_dict(workloads.point_a(math.pi))
    value, _, _, level = sc._kernel_jet((sc._route(cfg),), meas.DetectionScheme("click", 2))(np.array([math.pi]), 0)
    assert abs(float(value[0])) <= float(level[0])


def test_defect_j_uniform_drift_draws_spread_about_an_optimum_at_zero():
    # uniform20 draws phi* + 0.2 pi U(-1, 1); its old opt_phi * U(0.8, 1.2) put every draw on an optimum of 0
    cfg = config([FOCK, COHERENT], (), [{"scheme": "parity", "mode": 1}])
    (got,) = sc.phase_drift_study(cfg, trials=20, seed=1, distribution="uniform20").rows
    assert got["final_running_mean"] > (1.0 + 1e-9) * got["optimal_variance"]


# the nine phases of the 127-point phi sweep 0:6.3:0.05 that lose their cfi, as that sweep forms them
DEFECT_K_PHASES = [0.05 * k for k in (53, 57, 58, 59, 60, 65, 66, 69, 70)]


@pytest.mark.xfail(strict=True, reason="defect K")
def test_defect_k_an_improbable_herald_arm_keeps_its_cfi():
    # Fock(1) + vacuum behind a click subtraction at T = 0.9: near pi the success arm, of probability about 5e-4,
    # is renormalized by it, and its no-click read's rounding passes the absolute floor of est.binary_cfi
    subtract = {"op": "subtract", "stage": "output", "mode": 1, "m": "click", "T": 0.9}
    cfg = config([FOCK, {"kind": "vacuum"}], [subtract], CLICKS, ["cfi"])
    rows = [row(cfg, phi) for phi in DEFECT_K_PHASES]
    assert all("cfi" in got and not warnings for got, warnings in rows)
    for phi, (got, _) in zip(DEFECT_K_PHASES, rows):
        assert got["cfi"] == pytest.approx(ref.forward_click_cfi(cfg, phi), rel=1e-6, abs=0.0), phi
