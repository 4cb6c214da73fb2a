"""Command-line front end: run, sweep, drift, counts, validate.

Exit codes: 0 success, 2 a typed error (`errors.Error`): a config that fails validation (ConfigError, a
non-finite number included), a photon-number distribution whose contour would pass its cap (ContourTooLong),
or a variance, norm or probability out of range beyond rounding or a channel's noise that is not completely
positive (NumericalBreakdown).  A metric that a point cannot give (ImprobableBranch, SignalStationary,
DegenerateBranch) is left out of its row, with a flag or a warning.  Grid points are evaluated in order; each
draws its random substream from (seed, index).
"""

from __future__ import annotations

import argparse
import math
import sys
from functools import lru_cache

import numpy as np

from .errors import ConfigError, Error
from .measurements import DetectionScheme
from .scenario import emit, grid_points, load_config, phase_drift_study, run, simulate_counts, sweep


def _parse_grid(spec: str) -> tuple[str, np.ndarray]:
    """Parse `param=start:stop:step` into (param, inclusive grid)."""
    if "=" not in spec:
        raise ConfigError("--grid", f"expected param=start:stop:step, got {spec!r}")
    param, _, rng = spec.partition("=")
    parts = rng.split(":")
    if len(parts) != 3:
        raise ConfigError("--grid", f"expected start:stop:step, got {rng!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError("--grid", f"non-numeric grid bound in {rng!r}") from exc
    if not all(map(math.isfinite, (start, stop, step))):
        raise ConfigError("--grid", f"non-finite grid bound in {rng!r}")
    if step <= 0.0:
        raise ConfigError("--grid", "step must be positive")
    n = grid_points((stop - start) / step, "--grid")
    if n < 1:
        raise ConfigError("--grid", "empty grid")
    return param.strip(), start + step * np.arange(n)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="path to a JSON or key-tree scenario file")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("--out", default="out", help="output directory (default ./out)")
    p.add_argument("--format", choices=("csv", "json", "both"), default="both")


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parses share it, as argparse copies an appended default before its first item."""
    ap = argparse.ArgumentParser(prog="wignersim", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="evaluate the configured metrics at the configured phase")
    _add_common(p_run)

    p_sweep = sub.add_parser("sweep", help="evaluate metrics across a parameter grid")
    _add_common(p_sweep)
    p_sweep.add_argument("--grid", required=True, help="param=start:stop:step")

    p_drift = sub.add_parser("drift", help="running-average phase variance under phase drift")
    _add_common(p_drift)
    p_drift.add_argument("--trials", type=int, default=1000)
    p_drift.add_argument("--sigma", action="append", default=[], metavar="KIND=VALUE",
                         help="per-scheme drift sigma, e.g. parity=0.001 (repeatable)")
    p_drift.add_argument("--distribution", choices=("gaussian", "uniform20"), default="gaussian")

    p_counts = sub.add_parser("counts", help="post-selected photon-counting simulation over T")
    _add_common(p_counts)
    p_counts.add_argument("--trials", type=int, default=3600)
    p_counts.add_argument("--grid", default="T=0.05:0.95:0.05", help="T=start:stop:step")

    p_val = sub.add_parser("validate", help="validate a config file and exit")
    p_val.add_argument("--config", required=True)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.command == "validate":
            print(f"{args.config}: OK")
            return 0
        if args.command == "run":
            report = run(config, seed=args.seed)
        elif args.command == "sweep":
            param, grid = _parse_grid(args.grid)
            report = sweep(config, param, grid, seed=args.seed)
        elif args.command == "drift":
            sigma = {}
            for item in args.sigma:
                kind, _, value = item.partition("=")
                try:
                    sig = float(value)
                except ValueError:
                    sig = math.nan
                if kind.strip() not in DetectionScheme.KINDS + ("default",) or not 0.0 <= sig < math.inf:
                    raise ConfigError("--sigma", f"bad sigma spec {item!r}: need KIND=VALUE, KIND a detection "
                                      "kind or default, VALUE finite and >= 0")
                sigma[kind.strip()] = sig
            report = phase_drift_study(config, args.trials, args.seed, sigma=sigma,
                                       distribution=args.distribution)
        else:
            param, grid = _parse_grid(args.grid)
            if param != "T":
                raise ConfigError("--grid", "counts sweeps transmissivity; use T=start:stop:step")
            report = simulate_counts(config, args.trials, args.seed, t_grid=grid)
        for w in report.warnings:
            print(f"warning: {w}", file=sys.stderr)
        for path in emit(report, args.out, args.format):
            print(path)
        return 0
    except Error as exc:
        print(f"{'config error' if isinstance(exc, ConfigError) else 'error'}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
