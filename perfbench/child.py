"""One workload pass in a fresh interpreter; started by run.py, not by hand.

    child.py setup <workload> <seed> <work>           import + load/validate configs, then exit
    child.py pass <workload> <seed> <work> <0|1>      setup, run the CLI commands, check outputs

Both print one JSON line.  Its times are perf_counter seconds since the child
started (`started` gives that moment as epoch time, so that the parent can add
the interpreter's own start-up): `setup_done`, the start `t0` and length
`wall_s` of the CLI commands, and the [start, end] of every pace probe
(pace.py).  The probes run from the child's start to the end of the commands,
or only through set-up in a traced pass.  A pass adds its points, peak RSS,
the check results and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import time

STARTED_EPOCH = time.time()
STARTED = time.perf_counter()

import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import pace  # noqa: E402

PACE = pace.Pace()
PACE.install()

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def setup(workload: str, seed: int, work: str):
    """Import wignersim from this checkout's src/ and load every config of the workload."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "wignersim", "__init__.py")):
        sys.exit(f"no wignersim sources under {src}")
    sys.path.insert(0, src)
    import workloads
    from wignersim import cli, scenario

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        sys.exit(f"imported wignersim from {cli.__file__}, not from {src}")
    plan = workloads.plan(ROOT, workload, seed, work)
    for path in workloads.config_paths(plan):
        scenario.load_config(path)
    return plan, cli, time.perf_counter() - STARTED


def run_pass(workload: str, seed: int, work: str, traced: bool) -> dict:
    plan, cli, setup_done = setup(workload, seed, work)
    import checks

    tracer = None
    if traced:
        import tracer as tracing

        PACE.uninstall()
        tracer = tracing.Tracer()
        tracer.install()
    exit_codes = []
    t0 = time.perf_counter()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for cmd in plan["commands"]:
            try:
                exit_codes.append(cli.main(cmd["argv"]))
            except Exception as exc:  # a raising command fails its points; the pass goes on
                exit_codes.append(f"{type(exc).__name__}: {exc}")
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
    else:
        PACE.uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    points = attempted = failed = 0
    failures: list[str] = []
    reference_failures: list[str] = []
    max_err = 0.0
    for cmd, code in zip(plan["commands"], exit_codes):
        report_path = os.path.join(cmd["out"], "report.json")
        if code != 0 or not os.path.isfile(report_path):
            reference_failures.append(f"{cmd['name']}: exit code {code}")
            attempted += 1
            failed += 1
            continue
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        rows = checks.check_report(cmd["name"], report, cmd["check"])
        points += len(rows)
        attempted += len(rows)
        for row in rows:
            failed += row.failed
            failures += [f"{row.where}: {f}" for f in row.failures]
            reference_failures += [f"{row.where}: {f}" for f in row.reference_failures]
            max_err = max(max_err, row.max_rel_err)
    result = {
        "started": STARTED_EPOCH,
        "setup_done": setup_done,
        "probes": PACE.since(STARTED),
        "t0": t0 - STARTED,
        "wall_s": wall,
        "points": points,
        "attempted": attempted,
        "failed": failed,
        "rss_mb": rss_mb,
        "ref_max_rel_err": checks.floored(max_err),
        "failures": failures,
        "reference_failures": reference_failures,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(max(points, 1))
        tracer.write_spans(os.path.join(work, "spans.npz"))
    return result


def main(argv: list[str]) -> int:
    mode, workload, seed, work = argv[0], argv[1], int(argv[2]), argv[3]
    if mode == "setup":
        setup_done = setup(workload, seed, work)[2]
        PACE.uninstall()
        result = {"started": STARTED_EPOCH, "setup_done": setup_done, "probes": PACE.since(STARTED)}
    else:
        result = run_pass(workload, seed, work, traced=argv[4] == "1")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
