"""Output checker: compares each command's report.json with closed-form references.

Two kinds of check run on every row:

* reference checks compare a reported number with an in-repo closed form
  (`estimation` bounds, `conditional` herald statistics).  A deviation beyond
  the tolerance fails the row and marks the run incorrect.
* invariant checks enforce the physical bounds of ROADMAP aim 3: probabilities
  in [0, 1], every phase variance finite and > 0, phase variance >=
  (1 - tol) * QCRB and CFI <= QFI wherever a QFI is reported, and no
  unexplained flag.  A breach fails the row; it is counted, not raised.
"""

from __future__ import annotations

import math

from wignersim import conditional as cond
from wignersim import estimation as est

# Closed forms reached through exact Gaussian algebra and the herald models.
ANALYTIC_TOL = 1e-9
# Values that pass through 1e-5 central differences and a golden-section search.
DERIVATIVE_TOL = 1e-6
BOUND_TOL = 1e-6
ERR_FLOOR = 1e-10
# A row with no kept counts is an expected outcome while (1 - P)^trials stays above this.
EMPTY_SAMPLE_PLAUSIBLE = 1e-6


class RowCheck:
    """Collects the failures and the largest reference deviation of one row."""

    def __init__(self, command: str, index: int):
        self.where = f"{command}[{index}]"
        self.failures: list[str] = []
        self.reference_failures: list[str] = []
        self.max_rel_err = 0.0

    def reference(self, name: str, got, want: float, tol: float) -> None:
        if not isinstance(got, (int, float)) or not math.isfinite(got):
            self.reference_failures.append(f"{name}: got {got!r}, want {want:.17g}")
            return
        err = abs(got - want) / max(abs(want), 1e-300)
        self.max_rel_err = max(self.max_rel_err, err)
        if err > tol:
            self.reference_failures.append(f"{name}: got {got:.17g}, want {want:.17g} (rel err {err:.2e})")

    def invariant(self, ok: bool, text: str) -> None:
        if not ok:
            self.failures.append(text)

    @property
    def failed(self) -> bool:
        return bool(self.failures or self.reference_failures)


def _finite(v) -> bool:
    return isinstance(v, (int, float)) and math.isfinite(v)


def _invariants(row: dict, c: RowCheck, check: dict) -> None:
    qcrb = row.get("qcrb") if _finite(row.get("qfi")) else None
    for key, v in row.items():
        if key.startswith(("phase_variance.", "min_phase_variance.")):
            c.invariant(_finite(v) and v > 0.0, f"{key} = {v!r} is not finite and > 0")
            if qcrb is not None and _finite(v):
                c.invariant(v >= (1.0 - BOUND_TOL) * qcrb, f"{key} = {v!r} below QCRB {qcrb!r}")
        elif key == "herald_probability":
            c.invariant(_finite(v) and 0.0 <= v <= 1.0, f"{key} = {v!r} outside [0, 1]")
    if _finite(row.get("cfi")) and _finite(row.get("qfi")):
        c.invariant(row["cfi"] <= (1.0 + BOUND_TOL) * row["qfi"], f"cfi {row['cfi']!r} > qfi {row['qfi']!r}")
    if "flag" in row:
        explained = (
            row["flag"] == "no kept measurements"
            and row.get("kept") == 0
            and (1.0 - row["herald_probability"]) ** check["trials"] >= EMPTY_SAMPLE_PLAUSIBLE
        )
        c.invariant(explained, f"flag {row['flag']!r}")


def _references(row: dict, c: RowCheck, check: dict, config: dict) -> None:
    kind = check["kind"]
    if kind == "ligo_sweep":
        if row["L"] != 0.0:
            return
        alpha = config["inputs"][0]["alpha"]
        r = config["modifications"][0]["r"]
        c.reference("qcrb", row.get("qcrb"), est.lossless_qcrb(alpha**2, r), DERIVATIVE_TOL)
        for det in config["detection"]:
            scheme = det["scheme"]
            label = {"parity": f"parity[{det['mode']}]",
                     "homodyne": f"homodyne[{det['mode']},{det.get('angle', 0.0):g}]",
                     "intensity": f"intensity[{det['mode']}]",
                     "intensity_difference": f"diff[{det['mode']},{det.get('mode_b')}]"}[scheme]
            key = f"min_phase_variance.{label}"
            c.reference(key, row.get(key), est.qcrb_closed_forms(scheme, alpha, r), DERIVATIVE_TOL)
    elif kind == "heralded_point":
        a2, m, T, r = check["alpha2"], check["m"], check["T"], check["r"]
        c.reference("herald_probability", row.get("herald_probability"), cond.spacs_prob(a2, m, T), ANALYTIC_TOL)
        snl = row.get("snl")
        ntot = 1.0 / snl if _finite(snl) and snl > 0.0 else None
        c.reference("snl photon number", ntot, cond.spacs_mean_n(a2, m, T) + math.sinh(r) ** 2, ANALYTIC_TOL)
    elif kind == "spacs_counts":
        a2, m, T = check["alpha2"], check["m"], row["T"]
        c.reference("herald_probability", row.get("herald_probability"), cond.spacs_prob(a2, m, T), ANALYTIC_TOL)
        c.reference("theory_mean", row.get("theory_mean"), cond.spacs_mean_n(a2, m, T), ANALYTIC_TOL)
        c.invariant(0 <= row.get("kept", -1) <= check["trials"], f"kept {row.get('kept')!r} outside 0..trials")
    elif kind == "mzi_subtraction":
        want = cond.mzi_sub_prob_m(check["nbar"], check["m"], check["T"], check["phi"])
        c.reference("herald_probability", row.get("herald_probability"), want, ANALYTIC_TOL)
    else:
        raise ValueError(f"unknown check kind {kind!r}")


def check_report(command: str, report: dict, check: dict) -> list[RowCheck]:
    """Check every row of one command's report.json; returns one RowCheck per row."""
    out = []
    for row in report["rows"]:
        c = RowCheck(command, row["index"])
        _references(row, c, check, report["config"])
        _invariants(row, c, check)
        out.append(c)
    for d in report.get("distributions", []):
        if not 0.0 <= d["p"] <= 1.0:
            out[d["grid_index"]].invariant(False, f"P(n={d['n']}) on mode {d['mode']} = {d['p']!r}")
    return out


def floored(err: float) -> float:
    """Relative errors below rounding level all read as ERR_FLOOR."""
    return max(err, ERR_FLOOR)
