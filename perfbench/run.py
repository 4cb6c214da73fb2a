"""wignersim benchmark: one workload per call, each pass in a fresh single-threaded interpreter.

    python3 perfbench/run.py --workload gaussian_sweep --seed 1 --seconds 30 --trace 0

Workloads: gaussian_sweep, heralded_phase, heralded_counts (gated, see
BENCHMARK.json) and stress (opt-in one-shot m = 2 lossy point).  Every pass
drives `wignersim.cli.main` with configs generated from --seed, then checks
the outputs against closed-form references (checks.py).

--trace 0 measures end to end: closed-loop passes for about --seconds,
reporting the median pass wall_s, points_per_s and peak_rss_mb, and setup_s,
the median time a fresh interpreter takes to import wignersim and validate
the configs (one sample per pass, at least five).  wall_s and setup_s are
paced: a fixed probe timed every 25 ms (pace.py) rescales them to a nominal
host speed, because other tenants of a shared host change its speed by up to
1.7 times from one minute to the next.  --trace 1 runs one
untraced pass and two traced passes (tracer.py), reports the per-layer
metrics and the tracing overhead, and flags count metrics that differ between
the two traced passes.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_PROBES = 5
# Pace probe duration (pace.py) that the paced times are rescaled to: about
# its duration on an uncontended core of the host that set the bounds.
NOMINAL_PROBE_S = 4.0e-4
END_TO_END_UNITS = {"wall_s": "s", "points_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "WIGNERSIM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class ChildFailed(RuntimeError):
    pass


def _child(args: list[str]) -> dict:
    """Run child.py to completion; returns its JSON result plus `setup_s`.

    `setup_s` runs from just before the interpreter is spawned to the moment
    the child has imported wignersim and validated the configs, at nominal pace.
    """
    env = dict(os.environ, **SINGLE_THREAD_ENV)
    env.pop("PYTHONPATH", None)
    spawned = time.time()
    proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), *args], env=env, cwd=ROOT,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise ChildFailed(f"child {args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["probes"] = np.asarray(result["probes"], dtype=float).reshape(-1, 2)
    boot = max(result["started"] - spawned, 0.0)
    result["setup_s"] = _paced(result["probes"], 0.0, result["setup_done"], lead=boot)[0]
    return result


def _paced(probes: np.ndarray, a: float, b: float, lead: float = 0.0) -> tuple[float, float]:
    """Program time in [a, b], probes left out: (at nominal pace, as measured).

    The probes inside [a, b] cut it into stretches.  Each stretch is rescaled
    by NOMINAL_PROBE_S over the mean duration of the probes on either side of
    it.  `lead` is time just before `a` (the interpreter's own start-up); it
    is rescaled like the first stretch.
    """
    durations = probes[:, 1] - probes[:, 0]
    inside = (probes[:, 0] >= a) & (probes[:, 1] <= b)
    if not inside.any():
        measured = b - a + lead
        return (measured * NOMINAL_PROBE_S / float(np.median(durations)) if len(durations) else measured), measured
    p, d = probes[inside], durations[inside]
    stretches = np.concatenate([p[:, 0], [b]]) - np.concatenate([[a], p[:, 1]])
    stretches[0] += lead
    pace = np.concatenate([[d[0]], 0.5 * (d[:-1] + d[1:]), [d[-1]]])
    return float((stretches * NOMINAL_PROBE_S / pace).sum()), float(stretches.sum())


def _pass(workload: str, seed: int, work: str, traced: bool) -> dict:
    return _child(["pass", workload, str(seed), work, "1" if traced else "0"])


def _tail(values: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"tail percentile needs >= 11 passes (have {n}); max {max(values):.4f}"
    pct = int(100 * (1 - 10 / n))
    q = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
    return f"p{pct} {q:.4f}"


def _summarise_checks(passes: list[dict]) -> tuple[bool, int, int]:
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    err = max(p["ref_max_rel_err"] for p in passes)
    print(f"fail_ratio {failed / attempted:.6g} ratio (failed {failed} of {attempted} points)")
    print(f"ref_max_rel_err {err:.6g} ratio (max over {len(passes)} passes, floored at 1e-10)")
    seen = set()
    for p in passes:
        for f in p["reference_failures"] + p["failures"]:
            if f not in seen:
                seen.add(f)
                print(f"  FAILED {f}")
    correct = not any(p["reference_failures"] for p in passes)
    return correct, attempted, failed


def end_to_end(workload: str, seed: int, seconds: int, work: str) -> dict:
    def probe() -> float:
        return _child(["setup", workload, str(seed), work])["setup_s"]

    probe()  # fills the bytecode cache; not counted
    passes = []
    start = time.perf_counter()
    # a further pass starts only if it should end less than half a pass after --seconds
    while not passes or time.perf_counter() - start + passes[-1]["wall_s"] / 2 < seconds:
        passes.append(_pass(workload, seed, work, traced=False))
    # every pass is a fresh interpreter, so each one is also a set-up sample
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_PROBES:
        setups.append(probe())
    paced, walls = zip(*(_paced(p["probes"], p["t0"], p["t0"] + p["wall_s"]) for p in passes))
    wall = statistics.median(paced)
    metrics = {
        "wall_s": wall,
        "points_per_s": passes[0]["points"] / wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }
    how = {
        "wall_s": f"median of n={len(walls)} passes at nominal pace; {_tail(list(paced))}",
        "points_per_s": f"{passes[0]['points']} points / wall_s",
        "setup_s": f"median of n={len(setups)}",
        "peak_rss_mb": f"median of n={len(walls)}",
    }
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {END_TO_END_UNITS[name]} ({how[name]})")
    durations = np.concatenate([p["probes"][:, 1] - p["probes"][:, 0] for p in passes])
    print(f"wall_s as measured, probes left out: median {statistics.median(walls):.4f} s, {_tail(list(walls))}")
    print(f"pace probe: median {np.median(durations) * 1e3:.4f} ms, nominal {NOMINAL_PROBE_S * 1e3:g} ms "
          f"(n={len(durations)})")
    correct, attempted, failed = _summarise_checks(passes)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}}


def per_layer(workload: str, seed: int, work: str) -> dict:
    import tracer

    untraced = [] if workload == "stress" else [_pass(workload, seed, work, traced=False)]
    traced = [_pass(workload, seed, work, traced=True) for _ in range(1 if workload == "stress" else 2)]
    layers = traced[0]["layers"]
    deterministic = True
    for other in traced[1:]:
        for name, value in layers.items():
            if tracer.is_count(name) and other["layers"][name] != value:
                deterministic = False
                print(f"  NONDETERMINISTIC {name}: {value!r} then {other['layers'][name]!r}")
    metrics = dict(layers)
    for name in layers:
        if not tracer.is_count(name):
            metrics[name] = statistics.median(t["layers"][name] for t in traced)
    if untraced:
        u = untraced[0]
        plain = _paced(u["probes"], u["t0"], u["t0"] + u["wall_s"])[1]  # as measured, pace probes left out
        overhead = statistics.median(t["wall_s"] for t in traced) - plain
        metrics["trace.overhead_s"] = overhead
        print(f"tracing overhead {overhead:.4f} s (traced {traced[0]['wall_s']:.4f} s, untraced {plain:.4f} s)")
    units = {m["name"]: m["unit"] for m in _benchmark()["per_layer"]}
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units.get(name, 's' if not tracer.is_count(name) else 'count')}"
              f" (n={1 if tracer.is_count(name) else len(traced)})")
    correct, attempted, failed = _summarise_checks(untraced + traced)
    if not deterministic:
        print("FLAG: count metrics differ between traced passes of one seed")
    return {"correct": correct and deterministic, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items() if name in metrics}}


def _benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.ENTRIES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # subprocess.run kills its child on exit

    if not os.path.isfile(os.path.join(ROOT, "src", "wignersim", "__init__.py")):
        print(f"error: no wignersim sources under {ROOT}/src", file=sys.stderr)
        return 2
    work = os.path.join(HERE, ".work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    try:
        workloads.write_configs(workloads.plan(ROOT, args.workload, args.seed, work))
        if args.trace:
            result = per_layer(args.workload, args.seed, work)
        else:
            result = end_to_end(args.workload, args.seed, args.seconds, work)
    except (ChildFailed, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
