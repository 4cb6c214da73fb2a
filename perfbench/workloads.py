"""Workload plans: the generated configs and the CLI invocations of each workload.

A plan is a pure function of (workload, seed, work directory), so the
orchestrator and every child interpreter derive the same plan independently.
The seed jitters the operating phase and the grid values only inside ranges
where the closed-form references of `checks.py` still apply, and it seeds the
`counts` RNG.
"""

from __future__ import annotations

import json
import os
import random

# Gated workloads, in the order BENCHMARK.json lists them.  `stress` is an
# opt-in one-shot entry and is not part of the gated set.
WORKLOADS = ("gaussian_sweep", "heralded_phase", "heralded_counts")
ENTRIES = WORKLOADS + ("stress",)

COUNTS_TRIALS = 3600


def _load_shipped(root: str, name: str) -> dict:
    with open(os.path.join(root, "configs", name), encoding="utf-8") as fh:
        return json.load(fh)


def _heralded_point(squeeze_r: float, m: int, phi: float, detection: list, metrics: list,
                    loss: dict | None) -> dict:
    """Coherent |alpha| = 1 + vacuum with input-stage BS addition (T = 0.9) on mode 1."""
    mods = [{"op": "add", "stage": "input", "mode": 1, "m": m, "mechanism": "bs", "T": 0.9}]
    if squeeze_r:
        mods.append({"op": "squeeze", "stage": "input", "mode": 2, "r": squeeze_r})
    cfg = {
        "inputs": [{"kind": "coherent", "alpha": 1.0, "theta": 0.0}, {"kind": "vacuum"}],
        "modifications": mods,
        "interferometer": {"phi": phi},
        "detection": detection,
        "metrics": metrics,
    }
    if loss:
        cfg["noise"] = {"loss": loss}
    return cfg


PARITY1 = {"scheme": "parity", "mode": 1}
INTENSITY1 = {"scheme": "intensity", "mode": 1}
DIFF12 = {"scheme": "intensity_difference", "mode": 1, "mode_b": 2}


def point_a(phi: float) -> dict:
    """ROADMAP heralded reference (a): lossless, parity + intensity."""
    return _heralded_point(0.0, 1, phi, [PARITY1, INTENSITY1], ["phase_variance", "cfi", "qfi", "snr"], None)


def point_b(phi: float, m: int = 1) -> dict:
    """ROADMAP heralded reference (b): squeezed vacuum r = 0.5 on mode 2, L = 0.1, D = 0.9."""
    return _heralded_point(0.5, m, phi, [PARITY1, DIFF12], ["phase_variance", "cfi", "snr"],
                           {"L": 0.1, "D": 0.9})


def plan(root: str, workload: str, seed: int, work: str) -> dict:
    """Return {"configs": {path: dict}, "commands": [{"name", "argv", "out", "check"}]}.

    `check` names the reference family `checks.py` compares the outputs with,
    plus the parameters that family needs.
    """
    rng = random.Random(seed)
    configs: dict[str, dict] = {}
    commands: list[dict] = []

    def add(name: str, cfg: dict | None, argv: list, check: dict, config_path: str | None = None) -> None:
        path = config_path or os.path.join(work, f"{name}.json")
        if cfg is not None:
            configs[path] = cfg
        out = os.path.join(work, "out", name)
        argv = [argv[0], "--config", path, "--out", out, "--seed", str(seed)] + argv[1:]
        commands.append({"name": name, "argv": argv, "out": out, "check": check})

    if workload == "gaussian_sweep":
        cfg = _load_shipped(root, "ligo_lossy.json")
        cfg["interferometer"]["phi"] = 2.6 + rng.uniform(-0.05, 0.05)
        # four loss points starting at exactly L = 0, where the lossless closed forms apply
        step = 0.1 * (1.0 + rng.uniform(-0.02, 0.02))
        add("ligo_sweep", cfg, ["sweep", "--grid", f"L=0:{3.0 * step!r}:{step!r}"],
            {"kind": "ligo_sweep"})
    elif workload == "heralded_phase":
        add("point_a", point_a(1.0 + rng.uniform(-0.05, 0.05)), ["run"],
            {"kind": "heralded_point", "alpha2": 1.0, "m": 1, "T": 0.9, "r": 0.0})
        add("point_b", point_b(1.0 + rng.uniform(-0.05, 0.05)), ["run"],
            {"kind": "heralded_point", "alpha2": 1.0, "m": 1, "T": 0.9, "r": 0.5})
    elif workload == "heralded_counts":
        # 19-point T grid shifted by at most 0.005, so it stays inside (0, 1)
        start = 0.05 + rng.uniform(-0.005, 0.005)
        grid = f"T={start!r}:{start + 18 * 0.05!r}:0.05"
        counts = ["counts", "--trials", str(COUNTS_TRIALS), "--grid", grid]
        shipped = os.path.join(root, "configs", "pacs_counts.json")
        pacs = _load_shipped(root, "pacs_counts.json")
        pacs3 = json.loads(json.dumps(pacs))
        pacs3["modifications"][0]["m"] = 3
        # the closed forms below assume phi = 0, where mode 1 carries the whole coherent input
        alpha2 = pacs["inputs"][0]["alpha"] ** 2
        if pacs["interferometer"]["phi"] != 0.0:
            raise ValueError("configs/pacs_counts.json: the spacs references need phi = 0")
        add("pacs_m1", None, counts, {"kind": "spacs_counts", "alpha2": alpha2, "m": 1,
                                      "trials": COUNTS_TRIALS}, config_path=shipped)
        add("pacs_m3", pacs3, counts, {"kind": "spacs_counts", "alpha2": alpha2, "m": 3,
                                       "trials": COUNTS_TRIALS})
        thermal = _load_shipped(root, "subtracted_thermal.json")
        phi = 0.4 + rng.uniform(-0.05, 0.05)
        thermal["interferometer"]["phi"] = phi
        sub = thermal["modifications"][0]
        add("subtracted_thermal", thermal, ["run"],
            {"kind": "mzi_subtraction", "nbar": thermal["inputs"][0]["nbar"], "m": sub["m"], "T": sub["T"],
             "phi": phi})
    elif workload == "stress":
        add("point_b_m2", point_b(1.0 + rng.uniform(-0.05, 0.05), m=2), ["run"],
            {"kind": "heralded_point", "alpha2": 1.0, "m": 2, "T": 0.9, "r": 0.5})
    else:
        raise ValueError(f"unknown workload {workload!r} (choose from {ENTRIES})")
    return {"configs": configs, "commands": commands}


def write_configs(p: dict) -> None:
    for path, cfg in p["configs"].items():
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh, indent=2, sort_keys=True)
            fh.write("\n")


def config_paths(p: dict) -> list[str]:
    return [c["argv"][2] for c in p["commands"]]
