"""Every function of `src/wignersim` is entered by some CLI command.

One child interpreter runs `wignersim.cli.main` under `sys.setprofile` on the
shipped configs, the benchmark's heralded points (a), (b) and (b) at m = 2,
the QFI of (a) at uniform loss L = 0.5 and 1, two configs that take the
remaining modifications, noise and detectors, and a key-tree file, through
every command: run, validate, sweep (over L and phi), drift and counts.  The
test compiles each source file and fails on any function (a method or nested
function included) the commands never enter, except the closed forms, which
the tests and the benchmark check against, and the error constructors.  A
function no command reaches is dead code, or a referee that belongs in
`tests/reference.py`.
"""

import fnmatch
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "wignersim"

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
KEY_TREE = """# coherent + vacuum, parity on mode 1
interferometer.phi = 1.0
detection.0.scheme = "parity"
inputs.1.kind = "vacuum"
[inputs.0]
kind = "coherent"
alpha = 1.0
"""

CHILD = """
import json, sys
from wignersim import cli

entered = set()

def hook(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)

sys.setprofile(hook)
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
sys.setprofile(None)
with open(sys.argv[2], "w") as fh:
    json.dump({"codes": codes, "entered": [[c.co_filename, c.co_qualname, c.co_firstlineno] for c in entered]}, fh)
"""


def _functions(code, module: str):
    for const in code.co_consts:
        if inspect.iscode(const):
            # a class body runs at import, and lambdas and comprehensions belong to their function
            if const.co_flags & inspect.CO_OPTIMIZED and not const.co_name.startswith("<"):
                yield module, const.co_qualname, const.co_firstlineno
            yield from _functions(const, module)


def _commands(work: Path) -> list:
    configs = {"fock_click": FOCK_CLICK, "spdc_output": SPDC_OUTPUT, "point_a": workloads.point_a(1.0),
               "point_b": workloads.point_b(1.0), "point_b_m2": workloads.point_b(1.0, m=2),
               **{f"point_a_L{loss}": dict(workloads.point_a(1.0), noise={"loss": {"L": loss}}, metrics=["qfi"])
                  for loss in (0.5, 1.0)}}
    for name, cfg in configs.items():
        (work / f"{name}.json").write_text(json.dumps(cfg))
    (work / "key_tree.cfg").write_text(KEY_TREE)
    shipped = {name: str(ROOT / "configs" / f"{name}.json")
               for name in ("ligo_lossy", "pacs_counts", "subtracted_thermal")}
    paths = {**shipped, **{name: str(work / f"{name}.json") for name in configs}}
    runs = [["run", "--config", paths[name]] for name in (*shipped, *configs)]
    return [argv + ["--out", str(work / f"out{i}")] for i, argv in enumerate(runs + [
        ["sweep", "--config", shipped["ligo_lossy"], "--grid", "L=0:0.1:0.1"],
        ["sweep", "--config", paths["point_a"], "--grid", "phi=0.5:1:0.5"],
        ["drift", "--config", shipped["ligo_lossy"], "--trials", "20"],
        ["counts", "--config", shipped["pacs_counts"], "--trials", "50", "--grid", "T=0.5:1:0.5"],
    ])] + [["validate", "--config", str(work / "key_tree.cfg")]]


def test_every_source_function_is_entered_by_a_command(tmp_path):
    commands = _commands(tmp_path)
    result = tmp_path / "entered.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-c", CHILD, json.dumps(commands), str(result)], check=True, env=env,
                   cwd=tmp_path, stdout=subprocess.DEVNULL)
    report = json.loads(result.read_text())
    assert report["codes"] == [0] * len(commands)
    entered = {(Path(f).stem, q, line) for f, q, line in report["entered"] if Path(f).parent == SRC}
    defined = set()
    for path in sorted(SRC.glob("*.py")):
        defined.update(_functions(compile(path.read_text(), str(path), "exec"), path.stem))
    unreached = sorted(f"{m}.{q} (line {line})" for m, q, line in defined - entered
                       if not any(fnmatch.fnmatchcase(f"{m}.{q}", p) for p in ALLOWED))
    assert not unreached, "functions no command enters:\n" + "\n".join(unreached)
