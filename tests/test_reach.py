"""Every function-body line of `src/wignersim` runs under a CLI call or a library case.

One child interpreter runs, under `sys.settrace`:
- the reach commands: `wignersim.cli.main` running the benchmark's heralded points (a), (b) and (b) at m = 2, the
  QFI and distributions of (a) at uniform loss L = 0.5 and 1, the QFI of a mixed Wigner input behind a noise-free
  channel and two configs that take the remaining modifications, noise and detectors, sweeping (over phi, and
  over eleven L up to 1: ten points are one search block, and the stationary last one is searched alone),
  drifting (both distributions) and counting the shipped configs and an input-stage herald, and validating a
  key-tree file;
- every CLI call of `tests/test_cli.py`, its exit-2 configs and the configs whose rows it checks against a
  referee, as pytest runs that file, traced inside `cli.main` alone;
- the library cases: README's library example, the functions README presents as API at their own argument
  checks and at the numerical breakdowns no config reaches, and `kernel_minima` at its last refinement round.
The test compiles each source file and fails on any line of a function body (a method, nested function or lambda
included; not a `def` line or a docstring) that none of them runs, except in the closed forms, which the tests and
the benchmark check against, and in the error constructors.  A line nothing reaches is dead code, a re-check of a
value the boundary (`ScenarioConfig.from_dict`, `cli._parse_grid`, argparse) has validated, or a referee that
belongs in `tests/reference.py`.

The same run lists the raise sites whose exception reaches `cli.main`: each must raise a typed `errors.Error`,
which `cli.main` reports with exit 2, so that no traceback leaves it.
"""

import ast
import contextlib
import fnmatch
import inspect
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import workloads
from wignersim import cli, errors
from wignersim import estimation as est
from wignersim import gaussian as ga
from wignersim import measurements as meas
from wignersim import symplectic as sym
from wignersim import wigner as wg

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "wignersim"
SRC_FILE = str(SRC) + os.sep  # the start of a source file's name

ALLOWED = (
    # closed forms
    "conditional.spacs_*", "conditional.spsts_*", "conditional.thermal_snr", "conditional.mzi_sub_*",
    "conditional._mzi_arm_mean", "conditional._laguerre", "estimation.*_min_variance",
    "estimation.lossless_qcrb", "estimation.optimal_phase", "estimation.qcrb_closed_forms",
    # error constructors
    "errors.*.__init__",
)

FOCK_CLICK = {  # a Fock input behind an input click herald, output squeeze and displacement, every noise
    "inputs": [{"kind": "fock"}, {"kind": "coherent", "alpha": 1.0, "theta": 0.3}],
    "modifications": [
        {"op": "subtract", "stage": "input", "mode": 2, "m": "click", "T": 0.8},
        {"op": "squeeze", "stage": "output", "mode": 1, "r": 0.2, "theta": 0.1},
        {"op": "displace", "stage": "output", "mode": 2, "alpha": 0.3},
    ],
    "interferometer": {"phi": 0.7},
    "noise": {"loss": {"L": 0.1, "D": 0.9}, "thermal": {"nbar_env": 0.1, "eta": 0.9, "modes": [2]}},
    "detection": [{"scheme": "click", "mode": 1}, {"scheme": "click", "mode": 2},
                  {"scheme": "homodyne", "mode": 1, "angle": 0.4}],
    "metrics": ["phase_variance", "cfi", "qfi", "snr", "distributions"],
}
SPDC_OUTPUT = {  # an SPDC addition after the phase on coherent + thermal inputs, with an input gain squeeze
    "inputs": [{"kind": "coherent", "alpha": 0.8}, {"kind": "thermal", "nbar": 0.2}],
    "modifications": [
        {"op": "squeeze", "stage": "input", "mode": 2, "gain": 1.2},
        {"op": "add", "stage": "output", "mode": 1, "m": 1, "mechanism": "spdc", "r": 0.3},
    ],
    "interferometer": {"phi": 1.1},
    "detection": [{"scheme": "intensity", "mode": 1}, {"scheme": "parity", "mode": 2}],
    "metrics": ["phase_variance", "cfi", "qfi", "snr"],
}
PACS_INPUT = {  # a photon addition ahead of the phase, whose counts read the prefix record's p
    "inputs": [{"kind": "coherent", "alpha": 1.0}, {"kind": "vacuum"}],
    "modifications": [{"op": "add", "stage": "input", "mode": 1, "m": 1, "mechanism": "bs", "T": 0.9}],
    "interferometer": {"phi": 0.7},
    "noise": {"loss": {"L": 0.1}},
    "metrics": ["snr"],
}
THERMAL_FOCK = {  # a mixed Wigner prefix seen through no noise
    "inputs": [{"kind": "fock"}, {"kind": "thermal", "nbar": 0.3}],
    "interferometer": {"phi": 0.7},
    "metrics": ["qfi"],
}
KEY_TREE = """# coherent + vacuum, parity on mode 1, given as a bare string; a list entry set by its index
interferometer.phi = 1.0
detection.0.scheme = parity
metrics.0 = "phase_variance"
inputs.1.kind = "vacuum"
[inputs.0]
kind = "coherent"
alpha = 1.0
"""


def _commands(work: Path) -> list:
    configs = {"fock_click": FOCK_CLICK, "spdc_output": SPDC_OUTPUT, "thermal_fock": THERMAL_FOCK,
               "pacs_input": PACS_INPUT, "point_a": workloads.point_a(1.0), "point_b": workloads.point_b(1.0),
               "point_b_m2": workloads.point_b(1.0, m=2),
               **{f"point_a_L{loss}": dict(workloads.point_a(1.0), noise={"loss": {"L": loss}},
                                           metrics=["qfi", "distributions"]) for loss in (0.5, 1.0)}}
    for name, cfg in configs.items():
        (work / f"{name}.json").write_text(json.dumps(cfg))
    (work / "key_tree.cfg").write_text(KEY_TREE)
    shipped = {name: str(ROOT / "configs" / f"{name}.json")
               for name in ("ligo_lossy", "pacs_counts", "subtracted_thermal")}
    paths = {**shipped, **{name: str(work / f"{name}.json") for name in configs}}
    runs = [["run", "--config", paths[name]] for name in configs]  # tests/test_cli.py runs the shipped ones
    return [argv + ["--out", str(work / f"out{i}")] for i, argv in enumerate(runs + [
        ["sweep", "--config", shipped["ligo_lossy"], "--grid", "L=0:1:0.1"],
        ["sweep", "--config", paths["point_a"], "--grid", "phi=0.5:1:0.5"],
        ["drift", "--config", shipped["ligo_lossy"], "--trials", "20", "--sigma", "parity=0.001"],
        ["drift", "--config", shipped["ligo_lossy"], "--trials", "20", "--distribution", "uniform20"],
        ["counts", "--config", shipped["pacs_counts"], "--trials", "50", "--grid", "T=0.5:1:0.5"],
        ["counts", "--config", paths["pacs_input"], "--trials", "50", "--grid", "T=0.5:1:0.5"],
    ])] + [["validate", "--config", str(work / "key_tree.cfg")]]


def _signed_fock_mixture() -> wg.WignerExpr:
    """2 |1><1| - |0><0|: unit norm, but P(0) = -1 and P(1) = 2."""
    one, zero = wg.fock_wigner(1).terms[0], wg.fock_wigner(0).terms[0]
    return wg.WignerExpr(1, [wg.Term(2.0 * one.weight, one.poly, one.mean, one.quad),
                             wg.Term(-zero.weight, zero.poly, zero.mean, zero.quad)])


# README's API at its own argument checks and at the numerical breakdowns no config reaches: each call raises
# ValueError or a typed error
LIBRARY = (
    lambda: sym.SymplecticTransform(np.eye(3)),
    lambda: sym.SymplecticTransform(np.eye(2), np.zeros(3)),
    lambda: sym.SymplecticTransform(np.full((2, 2), np.nan)),
    lambda: sym.SymplecticTransform(2.0 * np.eye(2)),
    lambda: sym.make_squeezer(-1.0),
    lambda: sym.make_two_mode_squeezer(-1.0),
    lambda: sym.make_displacement(-1.0),
    lambda: sym.embed(sym.make_squeezer(1.0), [1, 2], 2),
    lambda: sym.embed(sym.make_two_mode_squeezer(1.0), [1, 1], 2),
    lambda: sym.embed(sym.make_squeezer(1.0), [3], 2),
    lambda: ga.check_covariance(np.eye(3)),
    lambda: ga.check_covariance(np.full((2, 2), np.nan)),
    lambda: ga.check_covariance(np.array([[1.0, 0.5], [0.0, 1.0]])),
    lambda: ga.check_covariance(-np.eye(2)),
    lambda: ga.check_covariance(0.5 * np.eye(2)),
    lambda: ga.check_channel(np.sqrt(0.5) * np.eye(2), np.zeros((2, 2))),  # a loss with no noise
    lambda: ga.GaussianState(np.zeros(3), np.eye(3)),
    lambda: ga.GaussianState(np.array([np.nan, 0.0]), np.eye(2)),
    lambda: ga.GaussianState(np.zeros(2), np.eye(4)),
    lambda: ga.vacuum_state(0),
    lambda: ga.coherent_state(-1.0),
    lambda: ga.thermal_state(-1.0),
    lambda: ga.tensor([]),
    lambda: ga.propagate(ga.vacuum_state(1), sym.make_two_mode_squeezer(1.0)),
    lambda: ga.LossSpec(L=2.0),
    lambda: ga.LossSpec(D=-1.0),
    lambda: ga.mean_photon(np.zeros(2), np.eye(2), 2),
    lambda: wg.fock_wigner(-1),
    lambda: wg.fock_wigner(wg.FOCK_CUTOFF + 1),
    lambda: wg.WignerExpr(1, []).normalize(),
    lambda: wg.moments(wg.fock_wigner(1), [(2,)]),
    lambda: wg.AffineImage(wg.fock_wigner(1), np.eye(4), np.zeros(4), np.zeros((4, 4))).state((1,)),
    lambda: wg.AffineImage(wg.fock_wigner(1), np.eye(2), np.zeros(2), np.zeros((2, 2))).state((1,), wg.projector(0, 1)),
    lambda: wg.AffineImage(wg.tensor_exprs(wg.fock_wigner(1), wg.fock_wigner(0)), np.eye(4), np.zeros(4),
                           np.zeros((4, 4))).state((1,), wg.projector(2, wg.FOCK_CUTOFF + 1)),
    lambda: wg.photon_number_distribution(_signed_fock_mixture()),
    lambda: wg.photon_number_distribution(wg.tensor_exprs(wg.fock_wigner(1), wg.fock_wigner(0))),
    lambda: meas.MeasurementMoments(0.0, -1.0).variance,
    lambda: meas.polynomial_moments(meas.DetectionScheme("parity"), lambda monomials: [0.0] * len(monomials)),
    lambda: meas.gaussian_moments(meas.DetectionScheme("parity"), np.zeros((1, 2)), np.eye(2)[None]),
    lambda: meas.intensity(ga.vacuum_state(1), 2),
    lambda: est.snl(0.0),
    lambda: est.hl(0.0),
    lambda: est.snr(meas.MeasurementMoments(1.0, 2.0), subtract_injected=-1),
    lambda: est.binary_cfi(1.0, 0.0, 0.0),
)


def _library_runs() -> None:
    """README's library example, a variance at rounding below 0, and `kernel_minima` with one refinement round."""
    example = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), flags=re.S)[0]
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(example, "README.md", "exec"), {})
    assert meas.MeasurementMoments(1.0, 1.0 - 1e-16).variance == 0.0
    rounds, est.REFINE_ROUNDS = est.REFINE_ROUNDS, 1
    try:  # the last-round stop ends every live bracket
        est.kernel_minima(lambda phi, which: (np.cos(phi), -np.sin(phi), -np.cos(phi), np.sin(phi) ** 2,
                                              np.sin(2.0 * phi), 2.0 * np.cos(2.0 * phi),
                                              np.full(np.shape(phi), 1e-16)), 2.0 * np.pi, 12, 1)
    finally:
        est.REFINE_ROUNDS = rounds


def child(commands: list, out: str) -> None:
    """In a child interpreter: run the reach commands, tests/test_cli.py and the library cases under
    `sys.settrace`, and write the lines of `src/` they ran and the exceptions that reached `cli.main` to `out`.
    pytest runs test_cli.py in a directory beside `out`, without the hypothesis and benchmark plugins, which it
    does not use and which take some 1.3 s to load."""
    ran, reached, escaped = set(), [], []
    main = cli.main

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        elif event == "exception" and frame.f_code is main.__code__:
            tb, site = arg[2], None
            while tb is not None:  # the innermost frame in src/
                site = tb if tb.tb_frame.f_code.co_filename.startswith(SRC_FILE) else site
                tb = tb.tb_next
            reached.append([site.tb_frame.f_code.co_filename, site.tb_frame.f_code.co_qualname, site.tb_lineno,
                            arg[0].__name__, issubclass(arg[0], errors.Error)])
        return local

    def hook(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(SRC_FILE) else None

    def traced(argv=None):
        sys.settrace(hook)
        try:
            return main(argv)
        except BaseException as exc:
            escaped.append(f"{argv}: {type(exc).__name__}: {exc}")
            raise
        finally:
            sys.settrace(None)

    cli.main = traced
    codes = [cli.main(argv) for argv in commands]
    with contextlib.redirect_stdout(io.StringIO()) as pytest_out:
        status = pytest.main([str(ROOT / "tests" / "test_cli.py"), "-q", f"--basetemp={Path(out).parent / 'test_cli'}",
                              "-p", "no:cacheprovider", "-p", "no:benchmark", "-p", "no:hypothesispytest"])
    failed = []
    sys.settrace(hook)
    for case in LIBRARY:
        try:
            case()
            failed.append(inspect.getsource(case).strip())
        except (ValueError, errors.Error):
            pass
    _library_runs()
    sys.settrace(None)
    with open(out, "w") as fh:
        json.dump({"codes": codes, "test_cli": [int(status), pytest_out.getvalue()], "library": failed,
                   "escaped": escaped, "reached": reached, "ran": sorted(ran)}, fh)


@pytest.fixture(scope="module")
def reach(tmp_path_factory) -> dict:
    work = tmp_path_factory.mktemp("reach")
    commands, out = _commands(work), work / "reach.json"
    path = [str(SRC.parent), str(ROOT / "tests"), str(ROOT / "perfbench"), os.environ.get("PYTHONPATH", "")]
    code = f"import json, sys, test_reach; test_reach.child(json.loads(sys.argv[1]), {str(out)!r})"
    subprocess.run([sys.executable, "-c", code, json.dumps(commands)], check=True, cwd=work,
                   env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)), stdout=subprocess.DEVNULL)
    report = json.loads(out.read_text())
    assert report["codes"] == [0] * len(commands)
    status, log = report["test_cli"]
    assert status == 0, log
    assert not report["library"], "library cases that raised nothing:\n" + "\n".join(report["library"])
    assert not report["escaped"], "exceptions that left cli.main:\n" + "\n".join(report["escaped"])
    return report


def _function_lines(code, module: str):
    """(module, qualname, lines) of each function body among the constants of `code`, its first line (the `def`)
    left out; a class body runs at import."""
    for const in code.co_consts:
        if inspect.iscode(const):
            if const.co_flags & inspect.CO_OPTIMIZED:
                lines = [line for _, _, line in const.co_lines() if line is not None]
                yield module, const.co_qualname, set(lines[1:]) - {lines[0]}
            yield from _function_lines(const, module)


def test_every_source_line_is_run_by_a_command_or_a_library_case(reach):
    ran = {(Path(f).stem, line) for f, line in reach["ran"]}
    text = {path.stem: path.read_text().splitlines() for path in SRC.glob("*.py")}
    unreached = set()
    for path in sorted(SRC.glob("*.py")):
        for module, name, lines in _function_lines(compile(path.read_text(), str(path), "exec"), path.stem):
            if not any(fnmatch.fnmatchcase(f"{module}.{name}", p) for p in ALLOWED):
                unreached.update((module, line, name) for line in lines if (module, line) not in ran)
    assert not unreached, "function-body lines nothing runs:\n" + "\n".join(
        f"{m}.py:{line} [{name}] {text[m][line - 1].strip()}" for m, line, name in sorted(unreached))


def _raise_lines(path: Path) -> set:
    return {node.lineno for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Raise)}


def test_every_raise_site_the_cli_reaches_is_typed(reach):
    # an exception that reaches cli.main from its raise site; a ValueError that main's own parse of a --sigma
    # value catches is main's, at a line that raises nothing
    main_lines = _raise_lines(SRC / "cli.py")
    sites = {f"{Path(f).stem}.{name}:{line}": (kind, typed) for f, name, line, kind, typed in reach["reached"]
             if not (name == "main" and Path(f).stem == "cli" and line not in main_lines)}
    assert len(sites) > 40 and "ContourTooLong" in {kind for kind, _ in sites.values()}  # config errors, a contour
    untyped = sorted(f"{site} raises {kind}" for site, (kind, typed) in sites.items() if not typed)
    assert not untyped, "raise sites that reach cli.main with an untyped exception:\n" + "\n".join(untyped)
