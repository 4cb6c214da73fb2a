"""CLI byte-identity against committed golden outputs, exit code 2 on bad input, and the rows of configs that take
the rarer branches (a sweep of alpha2, r or nbar_env, a phi grid, dark clicks, a herald at T = 1, counts of a Fock
state or of a photon-number tail past n = 1000, a drift draw without a slope, a drift detector with no scored
draw), checked against closed forms or a direct run.
`tests/test_reach.py` traces every CLI call of this file.

The golden files under tests/golden/ are the outputs of the shipped configs.
An intended output change regenerates them, from the repository root with
`src` on PYTHONPATH, with the commands

    wignersim run --config configs/ligo_lossy.json --out tests/golden/run_ligo_lossy
    wignersim run --config configs/pacs_counts.json --out tests/golden/run_pacs_counts
    wignersim run --config configs/subtracted_thermal.json --out tests/golden/run_subtracted_thermal
    wignersim counts --config configs/pacs_counts.json --seed 42 --out tests/golden/counts_pacs_counts

(`python -m wignersim.cli` in place of `wignersim` where the package is not installed).
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import workloads
from wignersim import cli
from wignersim import conditional as cond
from wignersim import estimation as est
from wignersim import scenario as sc
from wignersim.errors import ImprobableBranch

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIGS = ROOT / "configs"

# golden directory -> CLI arguments that re-emit it
GOLDEN_RUNS = {
    "run_ligo_lossy": ["run", "--config", "configs/ligo_lossy.json"],
    "run_pacs_counts": ["run", "--config", "configs/pacs_counts.json"],
    "run_subtracted_thermal": ["run", "--config", "configs/subtracted_thermal.json"],
    "counts_pacs_counts": ["counts", "--config", "configs/pacs_counts.json", "--seed", "42"],
}


def _assert_golden(name: str, out: Path) -> None:
    want = sorted(p.name for p in (GOLDEN / name).iterdir())
    assert sorted(p.name for p in out.iterdir()) == want
    for fname in want:
        assert (out / fname).read_bytes() == (GOLDEN / name / fname).read_bytes(), fname


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_outputs_match_golden_bytes(name, tmp_path):
    argv = list(GOLDEN_RUNS[name])
    argv[2] = str(ROOT / argv[2])
    assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    _assert_golden(name, tmp_path)


def test_golden_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # a child interpreter per OpenBLAS thread count: the photon-number inversion of `distributions`, a complex
    # product of the contour's values and the inverse DFT, rounded differently under 1 and 2 threads through BLAS
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    for threads in ("1", "2"):
        out = tmp_path / threads
        subprocess.run([sys.executable, "-m", "wignersim.cli", *GOLDEN_RUNS["run_subtracted_thermal"], "--out",
                        str(out)], check=True, cwd=ROOT, stdout=subprocess.DEVNULL,
                       env=dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path))
        _assert_golden("run_subtracted_thermal", out)


def test_thread_count_variable_is_ignored(tmp_path, monkeypatch):
    # no option or environment variable selects how grid points are run
    monkeypatch.setenv("WIGNERSIM_THREADS", "abc")
    argv = ["run", "--config", str(ROOT / "configs" / "pacs_counts.json"), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 0
    assert (tmp_path / "out" / "report.json").exists()


def test_parser_is_built_once_and_keeps_parses_apart():
    assert cli.build_parser() is cli.build_parser()
    first = cli.build_parser().parse_args(["drift", "--config", "c.json", "--sigma", "parity=0.1"])
    second = cli.build_parser().parse_args(["drift", "--config", "c.json"])
    assert first.sigma == ["parity=0.1"] and second.sigma == []


def _config_with(tmp_path, text: str) -> str:
    """A copy of configs/pacs_counts.json with `"alpha": 1.0` replaced by `text`."""
    raw = (ROOT / "configs" / "pacs_counts.json").read_text()
    assert '"alpha": 1.0' in raw
    path = tmp_path / "cfg.json"
    path.write_text(raw.replace('"alpha": 1.0', f'"alpha": {text}'))
    return str(path)


@pytest.mark.parametrize("text", ["NaN", "Infinity", "1" + "0" * 400])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_non_finite_config_number_exits_2(text, command, tmp_path, capsys):
    argv = [command, "--config", _config_with(tmp_path, text)]
    if command == "run":
        argv += ["--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    assert "inputs.0.alpha: expected a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["L=0:nan:0.1", "L=0:0.1:inf", "L=-inf:0:0.1"])
def test_non_finite_grid_bound_exits_2(grid, tmp_path, capsys):
    argv = ["sweep", "--config", str(ROOT / "configs" / "ligo_lossy.json"), "--grid", grid,
            "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    assert "non-finite grid bound" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sigma", ["default=nan", "parity=inf", "default=-0.1", "parity=abc"])
def test_bad_drift_sigma_exits_2(sigma, tmp_path, capsys):
    argv = ["drift", "--config", str(ROOT / "configs" / "ligo_lossy.json"), "--trials", "2",
            "--sigma", sigma, "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    assert "--sigma" in capsys.readouterr().err


@pytest.mark.parametrize("sigma", ["paritty=0.1", "=0.1"])
def test_unknown_drift_sigma_kind_exits_2(sigma, tmp_path, capsys):
    # a KIND that names no detector, nor `default`, would set no sigma at all
    argv = ["drift", "--config", str(ROOT / "configs" / "ligo_lossy.json"), "--trials", "2",
            "--sigma", sigma, "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    assert "--sigma" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


THERMAL = {"nbar_env": 0.1, "eta": 0.9}


@pytest.mark.parametrize("key, value, path", [
    ("detection.0.mode", 3, "detection.0.mode"),
    ("detection.3.mode_b", "2", "detection.3.mode_b"),
    ("detection.0.mode", 1.7, "detection.0.mode"),
    ("detection.0.mode", True, "detection.0.mode"),
    ("detection.0.mode", 1.0, "detection.0.mode"),
    ("modifications.0.mode", True, "modifications.0.mode"),
    ("modifications.0.mode", 2.0, "modifications.0.mode"),
    ("noise.thermal", dict(THERMAL, modes=[1, True]), "noise.thermal.modes.1"),
    ("noise.thermal", dict(THERMAL, modes=[2.0]), "noise.thermal.modes.0"),
])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_mode_that_is_not_the_integer_1_or_2_exits_2(key, value, path, command, tmp_path, capsys):
    cfg = json.loads((ROOT / "configs" / "ligo_lossy.json").read_text())
    sc._set_path(cfg, key.split("."), value, 0)
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    argv = [command, "--config", str(tmp_path / "cfg.json")]
    if command == "run":
        argv += ["--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    assert f"{path}: mode must be the integer 1 or 2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("config, op", [("pacs_counts.json", "add"), ("subtracted_thermal.json", "subtract")])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_boolean_herald_photon_number_exits_2(config, op, command, tmp_path, capsys):
    cfg = json.loads((ROOT / "configs" / config).read_text())
    assert cfg["modifications"][0]["op"] == op
    cfg["modifications"][0]["m"] = True
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    argv = [command, "--config", str(tmp_path / "cfg.json")]
    if command == "run":
        argv += ["--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    assert "modifications.0.m: m must be" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_non_integer_m_grid_exits_2(tmp_path, capsys):
    # int(1.5) used to label an m=1 evaluation as m=1.5
    argv = ["sweep", "--config", str(ROOT / "configs" / "pacs_counts.json"), "--grid", "m=1:2:0.5",
            "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    assert "sweep parameter m takes integer values, got 1.5" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


SPDC_ADDITION = {"op": "add", "stage": "input", "mode": 1, "m": 1, "mechanism": "spdc", "r": 0.1}


def _ligo_lossy_with(tmp_path, *modifications: dict) -> str:
    cfg = json.loads((ROOT / "configs" / "ligo_lossy.json").read_text())
    cfg["modifications"] = list(modifications)
    cfg["metrics"] = ["phase_variance", "snr"]
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    return str(tmp_path / "cfg.json")


SQUEEZE = {"op": "squeeze", "stage": "input", "mode": 2}


@pytest.mark.parametrize("modification, path", [
    (dict(SQUEEZE, r=8), "modifications.0.r"),
    (dict(SQUEEZE, r=800), "modifications.0.r"),
    (dict(SQUEEZE, r=sc.MAX_SQUEEZE_R * (1 + 1e-12)), "modifications.0.r"),
    (dict(SQUEEZE, gain=1.0001 * math.cosh(sc.MAX_SQUEEZE_R) ** 2), "modifications.0.gain"),
    (dict(SPDC_ADDITION, r=sc.MAX_SQUEEZE_R + 0.5), "modifications.0.r"),
], ids=["r8", "r800", "r_just_above", "gain", "spdc"])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_squeeze_above_the_cap_exits_2(modification, path, command, tmp_path, capsys):
    # r = 8 used to pass validate and then fail to build (matrix not symplectic); r = 800 overflowed
    argv = [command, "--config", _ligo_lossy_with(tmp_path, modification)]
    if command == "run":
        argv += ["--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    assert f"{path}: value" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("modification", [dict(SQUEEZE, r=sc.MAX_SQUEEZE_R, theta=1.234),
                                          dict(SQUEEZE, gain=math.cosh(sc.MAX_SQUEEZE_R) ** 2)],
                         ids=["r", "gain"])
def test_squeeze_at_the_cap_runs(modification, tmp_path):
    assert cli.main(["run", "--config", _ligo_lossy_with(tmp_path, modification), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("second", [dict(SQUEEZE, r=6.0), dict(SQUEEZE, gain=math.cosh(6.0) ** 2)], ids=["r", "gain"])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_summed_squeeze_above_the_cap_exits_2(second, command, tmp_path, capsys):
    # two r = 6 squeezes on one mode passed validate and then crashed run (state not bona fide, exit 1)
    argv = [command, "--config", _ligo_lossy_with(tmp_path, dict(SQUEEZE, r=6.0), second)]
    if command == "run":
        argv += ["--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    assert "modifications.1: squeezes on mode 2 at the input stage sum to r = 12" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_summed_squeeze_at_the_cap_runs(tmp_path):
    # 3 + 3 on mode 2 reaches the cap; squeezes on another mode or stage count apart
    mods = [dict(SQUEEZE, r=3.0), dict(SQUEEZE, r=3.0), dict(SQUEEZE, mode=1, r=1.0),
            dict(SQUEEZE, stage="output", r=1.0)]
    assert cli.main(["run", "--config", _ligo_lossy_with(tmp_path, *mods), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "report.json").exists()


def test_r_grid_above_the_cap_exits_2(tmp_path, capsys):
    argv = ["sweep", "--config", str(ROOT / "configs" / "ligo_lossy.json"), "--grid", "r=5.5:6.5:0.5",
            "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    assert "modifications.0.r: value 6.5 above maximum" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def _cli_report(work: Path, command: str, config, *args: str) -> dict:
    """The report.json of `command` on `config` (a raw config, or a path) with `args`, which exits 0."""
    if isinstance(config, dict):
        work.mkdir(parents=True, exist_ok=True)
        (work / "cfg.json").write_text(json.dumps(config))
        config = work / "cfg.json"
    assert cli.main([command, "--config", str(config), *args, "--out", str(work / "out")]) == 0
    return json.loads((work / "out" / "report.json").read_text(), parse_constant=_reject_constant)


@pytest.mark.parametrize("r", [4.5, 5.0, 5.5, 6.0])
def test_strongly_squeezed_lossy_qfi_runs(r, tmp_path):
    # strongly squeezed and lossy: in the Williamson basis the SLD equation needs no regularization
    raw = json.loads((ROOT / "configs" / "ligo_lossy.json").read_text())
    raw["modifications"][0]["r"] = r
    raw["metrics"] = ["qfi"]
    row = _cli_report(tmp_path, "run", raw)["rows"][0]
    assert row["qfi_route"] == "mixed_gaussian"
    assert math.isfinite(row["qfi"]) and row["qfi"] > 0.0
    assert row["qcrb"] == 1.0 / row["qfi"]


@pytest.mark.parametrize("loss", [0.0, 0.5, 1.0])
def test_lossy_heralded_point_reads_the_lossless_photon_number(loss, tmp_path):
    # point (a) with a uniform loss L after the MZI: snl and hl read the input's photon number off the lossless
    # prefix at every L; a lossy heralded family is mixed and non-Gaussian and gets no QFI, and at L = 1 it does
    # not depend on phi, of QFI 0
    raw = dict(workloads.point_a(1.0), noise={"loss": {"L": loss}}, metrics=["qfi"])
    report = _cli_report(tmp_path, "run", raw)
    row = report["rows"][0]
    assert (row["snl"], row["hl"]) == (0.42128603104212853, 0.17748191995122928)
    if loss == 0.5:
        assert "qfi" not in row and "qfi: unavailable (mixed non-Gaussian)" in report["warnings"]
    else:
        assert row["qfi_route"] == "pure_wigner" and (row["qfi"] == 0.0 if loss == 1.0 else row["qfi"] > 0.0)


def test_vacuum_inputs_report_no_phase_information(tmp_path, capsys):
    # no photons and no phase information: no snl/hl, and a zero qfi with no qcrb (no Infinity in the JSON)
    raw = {"inputs": [{"kind": "vacuum"}, {"kind": "vacuum"}], "interferometer": {"phi": 1.0}, "metrics": ["qfi"]}
    report = _cli_report(tmp_path, "run", raw)
    row = report["rows"][0]
    assert row["qfi"] == 0.0 and row["qfi_route"] == "pure_gaussian"
    assert not {"qcrb", "snl", "hl"} & set(row)
    assert len(report["warnings"]) == 1 and "no phase information and no QCRB" in report["warnings"][0]
    assert report["warnings"][0] in capsys.readouterr().err


def test_vacuum_inputs_give_one_warning_per_detector(tmp_path):
    # a flat signal has no optimum and no phase variance: parity by its rounding-level curvature,
    # intensity by its rounding-level Fourier slope coefficients
    raw = {"inputs": [{"kind": "vacuum"}, {"kind": "vacuum"}], "interferometer": {"phi": 1.0},
           "detection": [{"scheme": "parity", "mode": 1}, {"scheme": "intensity", "mode": 1}],
           "metrics": ["phase_variance"]}
    report = _cli_report(tmp_path, "run", raw)
    assert [w.split(":")[0] for w in report["warnings"]] == ["optimal_phi[parity[1]]", "optimal_phi[intensity[1]]"]
    assert not any(key.startswith(("optimal_", "min_phase_variance.", "phase_variance.")) for key in report["rows"][0])


@pytest.mark.parametrize("command", [["run"], ["drift", "--trials", "3"]], ids=["run", "drift"])
def test_detector_with_no_finite_variance_reports_no_optimum(command, tmp_path, capsys):
    # the mode-1 mean field stays orthogonal to the homodyne angle at every phi
    raw = {
        "inputs": [{"kind": "fock"}, {"kind": "coherent", "alpha": 0.6, "theta": 0.3}],
        "interferometer": {"phi": 1.0},
        "detection": [{"scheme": "homodyne", "mode": 1, "angle": 0.3}],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert cli.main(command + ["--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert "[homodyne[1,0.3]]: no searched phase gives a finite phase variance" in capsys.readouterr().err
    report = json.loads((tmp_path / "out" / "report.json").read_text(), parse_constant=_reject_constant)
    assert report["warnings"]
    for row in report["rows"]:
        assert not any(key.startswith(("optimal_", "min_phase_variance.", "phase_variance.")) for key in row)


def test_bright_coherent_distributions_run(tmp_path):
    # the LIGO amplitude, |alpha|^2 = 500, all in mode 1 at phi = 0: a fixed 512-point contour aliased its
    # distribution to -1.5e-2; the tail bound asks for 1024 points and runs the distribution to n = 678, whose
    # mean is |alpha|^2
    raw = json.loads((ROOT / "configs" / "ligo_lossy.json").read_text())
    raw.update(modifications=[], noise={"loss": {"L": 0.0, "D": 1.0}}, interferometer={"phi": 0.0},
               detection=[{"scheme": "parity", "mode": 1}], metrics=["distributions"])
    report = _cli_report(tmp_path, "run", raw)
    mode1 = [d["p"] for d in report["distributions"] if d["mode"] == 1]
    assert len(mode1) == 679 and report["warnings"] == [] and "flag" not in report["rows"][0]
    assert report["rows"][0]["distribution_tail.mode1"] <= 1e-12
    assert math.fsum(n * p for n, p in enumerate(mode1)) == pytest.approx(500.0, rel=1e-9, abs=0.0)


def test_distributions_beyond_the_contour_cap_exit_2(tmp_path, capsys):
    # a thermal input of nbar = 1000 needs some 4e4 contour points; the cap raises ContourTooLong, a typed error,
    # before the contour is read
    raw = {"inputs": [{"kind": "thermal", "nbar": 1000.0}, {"kind": "vacuum"}], "interferometer": {"phi": 0.0},
           "metrics": ["distributions"]}
    (tmp_path / "cfg.json").write_text(json.dumps(raw))
    assert cli.main(["run", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")]) == 2
    assert "error: the photon-number tail bound needs a contour of" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_improbable_herald_warning_shows_a_probability_in_range(tmp_path):
    # at nbar = 0 the subtracted thermal input is vacuum: the herald's probability is 0, which rounding puts at
    # -5.6e-17, and the warning reads it as 0 while the exception keeps the raw value
    argv = ["sweep", "--config", str(ROOT / "configs" / "subtracted_thermal.json"), "--grid", "nbar=0:1:0.5"]
    assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    warnings = json.loads((tmp_path / "report.json").read_text())["warnings"]
    shown = [float(w.split("herald probability ")[1].split()[0]) for w in warnings if "herald probability" in w]
    assert shown and all(0.0 <= p <= 1.0 for p in shown)
    exc = ImprobableBranch(-5.551e-17)
    assert exc.probability == -5.551e-17 and "probability 0.000e+00 below" in str(exc)


def _refuse_allocation(*args, **kwargs):
    raise AssertionError("a grid was built before its size was checked")


@pytest.mark.parametrize("grid", ["L=0:1e9:1e-9", "L=-1e308:1e308:1e-300"])
def test_grid_above_the_point_cap_exits_2(grid, tmp_path, capsys, monkeypatch):
    # 1e18 points would need 7 EiB: the size is checked before any array is allocated
    monkeypatch.setattr(cli.np, "arange", _refuse_allocation)
    argv = ["sweep", "--config", str(ROOT / "configs" / "ligo_lossy.json"), "--grid", grid,
            "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    assert f"--grid: more than {sc.MAX_GRID_POINTS} grid points" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _refuse_draws(*args, **kwargs):
    raise AssertionError("trials were drawn before their count was checked")


@pytest.mark.parametrize("command, config", [("counts", "pacs_counts"), ("drift", "ligo_lossy")])
@pytest.mark.parametrize("trials", [sc.MAX_TRIALS + 1, 10**15])
def test_trials_above_the_cap_exit_2(command, config, trials, tmp_path, capsys, monkeypatch):
    # 1e15 trials would need 7 PiB of draws, which numpy failed to allocate with an exit-1 traceback: the count
    # is checked before any generator is made
    monkeypatch.setattr(sc.np.random, "default_rng", _refuse_draws)
    argv = [command, "--config", str(CONFIGS / f"{config}.json"), "--trials", str(trials)]
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {command}.trials: more than {sc.MAX_TRIALS} trials\n"
    assert not (tmp_path / "out").exists()


def test_phi_grid_above_the_point_cap_exits_2(tmp_path, capsys):
    # 200,001 points: few enough to build quickly were the cap not checked
    cfg = json.loads((ROOT / "configs" / "ligo_lossy.json").read_text())
    cfg["interferometer"]["phi"] = {"start": 0.0, "stop": 2.0, "step": 1e-5}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert cli.main(["validate", "--config", str(tmp_path / "cfg.json")]) == 2
    assert f"interferometer.phi: more than {sc.MAX_GRID_POINTS} grid points" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, path", [
    ("inputs", [None, {"kind": "vacuum"}], "inputs.0"),
    ("detection", [3], "detection.0"),
    ("modifications", [None], "modifications.0"),
    ("noise", {"loss": 0.2}, "noise.loss"),
])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_list_entry_that_is_not_an_object_exits_2(key, value, path, command, tmp_path, capsys):
    cfg = dict(json.loads((ROOT / "configs" / "ligo_lossy.json").read_text()), **{key: value})
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    argv = [command, "--config", str(tmp_path / "cfg.json")]
    if command == "run":
        argv += ["--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    assert f"{path}: expected an object" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_key_tree_with_a_hole_in_a_list_exits_2(tmp_path, capsys):
    # `inputs.1` alone pads `inputs.0` with nothing
    (tmp_path / "cfg.tree").write_text('inputs.1.kind = "vacuum"\ninterferometer.phi = 1.0\n')
    assert cli.main(["validate", "--config", str(tmp_path / "cfg.tree")]) == 2
    assert "inputs.0: expected an object, got None" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["modifications", "detection", "metrics"])
def test_list_that_is_not_a_list_exits_2(key, tmp_path, capsys):
    cfg = dict(json.loads((ROOT / "configs" / "ligo_lossy.json").read_text()), **{key: 3})
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert cli.main(["validate", "--config", str(tmp_path / "cfg.json")]) == 2
    assert f"{key}: expected a list, got 3" in capsys.readouterr().err


def _shipped(name: str, *edits: tuple) -> dict:
    """A shipped config with each (dotted key, value) of `edits` set."""
    cfg = json.loads((CONFIGS / f"{name}.json").read_text())
    for key, value in edits:
        sc._set_path(cfg, key.split("."), value, 0)
    return cfg


PHI_GRID = {"start": 0.5, "stop": 1.5, "step": 0.5}
# id -> (command, config: a raw config or a file's text, further arguments, the start of the error)
CONFIG_ERRORS = {
    "input_kind": ("validate", _shipped("ligo_lossy", ("inputs.0.kind", "squeezed")), [],
                   "inputs.0.kind: unknown input kind"),
    "fock_n": ("validate", _shipped("ligo_lossy", ("inputs.1", {"kind": "fock", "n": 2})), [],
               "inputs.1.n: the input menu offers the single-photon Fock state only"),
    "one_input": ("validate", _shipped("ligo_lossy", ("inputs", [{"kind": "vacuum"}])), [],
                  "inputs: exactly two input modes are required"),
    "op": ("validate", _shipped("ligo_lossy", ("modifications.0.op", "rotate")), [],
           "modifications.0.op: unknown modification"),
    "stage": ("validate", _shipped("ligo_lossy", ("modifications.0.stage", "middle")), [],
              "modifications.0.stage: stage must be"),
    "mechanism": ("validate", _shipped("pacs_counts", ("modifications.0.mechanism", "pdc")), [],
                  "modifications.0.mechanism: mechanism must be"),
    "displaced_vacuum": ("validate", _shipped("ligo_lossy", ("modifications.0", {"op": "displace", "mode": 2,
                                                                                 "alpha": 1.0})), [],
                         "modifications.0: displacing a bare vacuum input is redundant"),
    "thermal_modes": ("validate", _shipped("ligo_lossy", ("noise.thermal", dict(THERMAL, modes=[]))), [],
                      "noise.thermal.modes: modes must be a non-empty subset"),
    "phi_grid": ("validate", _shipped("ligo_lossy", ("interferometer.phi", {"start": 1.0, "stop": 0.0,
                                                                            "step": 0.5})), [],
                 "interferometer.phi: need stop >= start"),
    "scheme": ("validate", _shipped("ligo_lossy", ("detection.0.scheme", "heterodyne")), [],
               "detection.0: unknown detection kind"),
    "mode_b": ("validate", _shipped("ligo_lossy", ("detection.3", {"scheme": "intensity_difference", "mode": 1})),
               [], "detection.3: intensity difference needs two distinct modes"),
    "metric": ("validate", _shipped("ligo_lossy", ("metrics.0", "fidelity")), [], "metrics.0: unknown metric"),
    "cfi_two_heralds": ("validate", _shipped("pacs_counts", ("modifications.1", {"op": "subtract", "mode": 2,
                                                                                 "T": 0.9}), ("metrics", ["cfi"])),
                        [], "metrics: cfi with more than one heralded modification"),
    "missing_key": ("validate", _shipped("ligo_lossy", ("interferometer", {})), [],
                    "interferometer.phi: missing required key"),
    "not_a_number": ("validate", _shipped("ligo_lossy", ("interferometer.phi", "pi")), [],
                     "interferometer.phi: expected a number"),
    "below_minimum": ("validate", _shipped("ligo_lossy", ("inputs.0.alpha", -1.0)), [],
                      "inputs.0.alpha: value -1.0 below minimum"),
    "unknown_key": ("validate", _shipped("ligo_lossy", ("extra", 1)), [], "extra: unknown key"),
    "json": ("validate", '{"inputs": [', [], "<file>: invalid JSON"),
    "key_tree_line": ("validate", "interferometer.phi 1.0\n", [], "line 1: expected `key = value`"),
    "key_tree_index": ("validate", "interferometer.phi = 1.0\ninterferometer.0 = 1\n", [],
                       "line 2: cannot index non-list"),
    "key_tree_key": ("validate", 'inputs.0 = 3\ninputs.0.kind = "vacuum"\n', [], "line 2: cannot key into non-object"),
    "alpha2_sweep": ("sweep", _shipped("subtracted_thermal"), ["--grid", "alpha2=1:2:1"],
                     "inputs: sweep parameter alpha2 needs a coherent input"),
    "nbar_sweep": ("sweep", _shipped("ligo_lossy"), ["--grid", "nbar=1:2:1"],
                   "inputs: sweep parameter nbar needs a thermal input"),
    "r_sweep": ("sweep", _shipped("pacs_counts"), ["--grid", "r=0.1:0.2:0.1"],
                "modifications: sweep parameter r needs a squeeze modification"),
    "T_sweep": ("sweep", _shipped("ligo_lossy"), ["--grid", "T=0.5:0.6:0.1"],
                "modifications: sweep parameter T needs a matching add/subtract modification"),
    # a click herald has no photon number to sweep: writing one turned it into a Fock herald
    "m_sweep_click": ("sweep", _shipped("subtracted_thermal", ("modifications.0.m", "click")), ["--grid", "m=1:2:1"],
                      "modifications: sweep parameter m needs a matching add/subtract modification"),
    "squeeze_r_and_gain": ("validate", _shipped("ligo_lossy", ("modifications.0.gain", 1.5)), [],
                           "modifications.0.gain: a squeeze takes its r or its gain, not both"),
    # a config with no thermal noise has no nbar_env to sweep; one used to be made up, at eta = 0.5
    "nbar_env_sweep": ("sweep", _shipped("ligo_lossy"), ["--grid", "nbar_env=0:0.2:0.1"],
                       "noise: sweep parameter nbar_env needs a thermal noise model"),
    "unknown_sweep": ("sweep", _shipped("ligo_lossy"), ["--grid", "banana=0:1:1"], "sweep: unknown sweep parameter"),
    "grid_no_equals": ("sweep", _shipped("ligo_lossy"), ["--grid", "L0:1:0.1"], "--grid: expected param=start"),
    "grid_two_bounds": ("sweep", _shipped("ligo_lossy"), ["--grid", "L=0:1"], "--grid: expected start:stop:step"),
    "grid_non_numeric": ("sweep", _shipped("ligo_lossy"), ["--grid", "L=a:1:0.1"], "--grid: non-numeric grid bound"),
    "grid_step": ("sweep", _shipped("ligo_lossy"), ["--grid", "L=0:1:0"], "--grid: step must be positive"),
    "grid_empty": ("sweep", _shipped("ligo_lossy"), ["--grid", "L=1:0:0.1"], "--grid: empty grid"),
    "drift_trials": ("drift", _shipped("ligo_lossy"), ["--trials", "0"], "drift.trials: need at least one trial"),
    "counts_trials": ("counts", _shipped("pacs_counts"), ["--trials", "0"], "counts.trials: need at least one trial"),
    "counts_no_herald": ("counts", _shipped("ligo_lossy"), [],
                         "modifications: simulate_counts needs exactly one add/subtract modification"),
    "counts_spdc": ("counts", _shipped("pacs_counts", ("modifications.0", {"op": "add", "mode": 1, "mechanism": "spdc",
                                                                           "r": 0.3})), [],
                    "modifications: simulate_counts sweeps the BS transmissivity"),
    "counts_grid": ("counts", _shipped("pacs_counts"), ["--grid", "L=0:0.1:0.1"],
                    "--grid: counts sweeps transmissivity"),
    # a config's phi grid under a sweep of another parameter, or under counts, was read at its first phase alone
    "phi_grid_sweep": ("sweep", _shipped("ligo_lossy", ("interferometer.phi", PHI_GRID)), ["--grid", "L=0:0.2:0.1"],
                       "interferometer.phi: a phi grid cannot be swept over L"),
    "phi_grid_counts": ("counts", _shipped("pacs_counts", ("interferometer.phi", PHI_GRID)), [],
                        "interferometer.phi: counts reads one phase"),
}


@pytest.mark.parametrize("case", sorted(CONFIG_ERRORS))
def test_config_error_exits_2(case, tmp_path, capsys):
    command, config, args, message = CONFIG_ERRORS[case]
    (tmp_path / "cfg").write_text(config if isinstance(config, str) else json.dumps(config))
    argv = [command, "--config", str(tmp_path / "cfg"), *args]
    assert cli.main(argv if command == "validate" else argv + ["--out", str(tmp_path / "out")]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# coherent + squeezed vacuum, lossless: QFI = |alpha|^2 e^{2r} + sinh^2 r at every phi
COHERENT_SQUEEZED = {
    "inputs": [{"kind": "coherent", "alpha": 1.0}, {"kind": "vacuum"}],
    "modifications": [{"op": "squeeze", "stage": "input", "mode": 2, "r": 1.0}],
    "interferometer": {"phi": 2.6},
    "metrics": ["qfi"],
}


def test_alpha2_sweep_reads_the_lossless_qcrb(tmp_path):
    rows = _cli_report(tmp_path, "sweep", COHERENT_SQUEEZED, "--grid", "alpha2=1:3:1")["rows"]
    assert [row["alpha2"] for row in rows] == [1.0, 2.0, 3.0]
    for row in rows:
        assert row["qfi"] == pytest.approx(1.0 / est.lossless_qcrb(row["alpha2"], 1.0), rel=1e-12, abs=0.0)


def test_r_sweep_of_a_gain_squeeze_reads_each_r(tmp_path):
    # a squeeze given by its gain, cosh^2 r = 1.5, and an angle: each swept row is the run of the squeeze at that r
    raw = {"inputs": [{"kind": "coherent", "alpha": 1.0}, {"kind": "vacuum"}],
           "modifications": [{"op": "squeeze", "mode": 2, "gain": 1.5, "theta": 0.7}],
           "interferometer": {"phi": 0.4}, "metrics": ["qfi"]}
    rows = _cli_report(tmp_path / "sweep", "sweep", raw, "--grid", "r=0.1:0.5:0.2")["rows"]
    assert len({row["qfi"] for row in rows}) == 3
    for row in rows:
        point = dict(raw, modifications=[{"op": "squeeze", "mode": 2, "r": row.pop("r"), "theta": 0.7}])
        alone = _cli_report(tmp_path / str(row["index"]), "run", point)["rows"][0]
        assert {**alone, "index": row["index"]} == row


def test_phi_grid_of_a_config_runs_each_phase(tmp_path):
    raw = dict(COHERENT_SQUEEZED, interferometer={"phi": {"start": 0.5, "stop": 1.5, "step": 0.5}})
    report = _cli_report(tmp_path, "run", raw)
    assert report["parameter"] == "phi" and [row["phi"] for row in report["rows"]] == [0.5, 1.0, 1.5]
    for row in report["rows"]:
        assert row["qfi"] == pytest.approx(1.0 / est.lossless_qcrb(1.0, 1.0), rel=1e-12, abs=0.0)


def test_nbar_env_sweep_rewrites_the_configured_thermal_noise(tmp_path):
    # each row is the run of the config at that nbar_env (a config without thermal noise exits 2: CONFIG_ERRORS)
    raw = _shipped("ligo_lossy", ("noise.thermal", {"nbar_env": 0.3, "eta": 0.9, "modes": [2]}), ("metrics", ["qfi"]))
    rows = _cli_report(tmp_path / "sweep", "sweep", raw, "--grid", "nbar_env=0:0.2:0.2")["rows"]
    assert [row["nbar_env"] for row in rows] == [0.0, 0.2]
    for row in rows:
        raw["noise"]["thermal"]["nbar_env"] = row.pop("nbar_env")
        alone = _cli_report(tmp_path / str(row["index"]), "run", raw)["rows"][0]
        assert {**alone, "index": row["index"]} == row


def test_single_photon_clicks_take_both_dark_limits(tmp_path):
    # a photon in mode 1 at phi = 0: detector 1 never stays dark and detector 2 never clicks, so each binary CFI
    # is the limit 2 P'' of its impossible outcome, 1 for a single photon; `cfi` sums the two detectors' (the
    # whole click record's, ROADMAP item 1, would read 1)
    raw = {"inputs": [{"kind": "fock"}, {"kind": "vacuum"}], "interferometer": {"phi": 0.0},
           "detection": [{"scheme": "click", "mode": 1}, {"scheme": "click", "mode": 2}], "metrics": ["cfi", "qfi"]}
    row = _cli_report(tmp_path, "run", raw)["rows"][0]
    assert row["cfi"] == pytest.approx(2.0, rel=1e-12, abs=0.0)
    assert row["qfi"] == pytest.approx(1.0, rel=1e-12, abs=0.0)


def test_single_photon_intensity_reads_the_qcrb_at_every_phase(tmp_path):
    # a photon in mode 1: <n_1> = (1 - cos phi) / 2 with Bernoulli variance, so V = 1, the single-photon QCRB, at
    # every phi, and so for n_1 - n_2.  Both slope zeros, 0 and pi, are dark fringes: cancelling them leaves a
    # constant slope polynomial, whose empty derivative made the search raise a numpy ValueError
    raw = {"inputs": [{"kind": "fock"}, {"kind": "vacuum"}], "interferometer": {"phi": 1.0},
           "detection": [{"scheme": "intensity", "mode": 1},
                         {"scheme": "intensity_difference", "mode": 1, "mode_b": 2}],
           "metrics": ["phase_variance", "qfi"]}
    report = _cli_report(tmp_path, "sweep", raw, "--grid", f"phi=0:{math.pi!r}:{math.pi / 4.0!r}")
    assert [row["phi"] for row in report["rows"]][::4] == [0.0, math.pi] and report["warnings"] == []
    for row in report["rows"]:
        assert row["qfi"] == pytest.approx(1.0, rel=1e-12, abs=0.0) and row["qfi_route"] == "pure_wigner"
        for label in ("intensity[1]", "diff[1,2]"):
            assert row[f"phase_variance.{label}"] == pytest.approx(1.0, rel=0.0, abs=1e-12), (row["phi"], label)
            assert row[f"min_phase_variance.{label}"] == pytest.approx(1.0, rel=0.0, abs=1e-12), label
            assert row[f"optimal_phi.{label}"] == 0.0, label


def test_output_herald_zero_reads_no_numpy_warning(tmp_path, capsys):
    # mode 2 is dark at phi = pi, where the click subtraction on it never succeeds: the intensity signal's search
    # reads the herald's probability there as exactly 0, whose rounding level of Var is inf, with no numpy
    # division warning (under this repository's error::RuntimeWarning filter the run raised it)
    raw = {"inputs": [{"kind": "vacuum"}, {"kind": "thermal", "nbar": 1.233}],
           "modifications": [{"op": "displace", "stage": "input", "mode": 2, "alpha": 0.88},
                             {"op": "subtract", "stage": "output", "mode": 2, "m": "click", "T": 0.62}],
           "interferometer": {"phi": 1.0}, "detection": [{"scheme": "intensity", "mode": 1}]}
    report = _cli_report(tmp_path, "run", raw)
    assert capsys.readouterr().err == "" and report["warnings"] == []
    assert report["rows"][0]["optimal_phi.intensity[1]"] == 0.0


def test_vacuum_clicks_carry_no_phase_information(tmp_path):
    # the no-click probability is 1 at every phi, and the click's probability, slope and curvature are rounding:
    # every row reads a rounding-level cfi, whatever the sign of that curvature, and no warning
    raw = {"inputs": [{"kind": "vacuum"}, {"kind": "vacuum"}], "interferometer": {"phi": 0.0},
           "detection": [{"scheme": "click", "mode": 1}], "metrics": ["cfi"]}
    report = _cli_report(tmp_path, "sweep", raw, "--grid", "phi=0:3:0.25")
    assert len(report["rows"]) == 13 and report["warnings"] == []
    assert all(abs(row["cfi"]) <= 1e-15 for row in report["rows"])


def test_a_rounding_level_branch_of_an_improbable_arm_gives_a_warning(tmp_path):
    # near pi a click takes the photon of a Fock input with probability below 1e-3 and leaves vacuum, whose
    # no-click probability the arm's renormalization reads to 1e-12 and its curvature to 1e-10, past SLOPE_FLOOR
    # (ROADMAP defect H): a row reads the cfi, about 2 for one photon and two detectors, or none with a warning
    raw = {"inputs": [{"kind": "fock"}, {"kind": "vacuum"}], "interferometer": {"phi": 0.0},
           "modifications": [{"op": "subtract", "stage": "output", "mode": 1, "m": "click", "T": 0.9}],
           "detection": [{"scheme": "click", "mode": 1}, {"scheme": "click", "mode": 2}], "metrics": ["cfi"]}
    report = _cli_report(tmp_path, "sweep", raw, "--grid", "phi=2.5:3.5:0.5")
    assert 1.9 < report["rows"][0]["cfi"] <= 2.0
    for row in report["rows"][1:]:
        warned = f"cfi at phi={row['phi']:.6g}: branch probability -"
        assert "cfi" in row or any(w.startswith(warned) for w in report["warnings"])


def test_input_herald_at_unit_transmissivity_gives_a_flagged_row(tmp_path):
    # point (a)'s input-stage addition succeeds with its closed-form probability at T = 0.5, and never at T = 1
    raw = dict(workloads.point_a(1.0), metrics=["snr"])
    rows = _cli_report(tmp_path, "sweep", raw, "--grid", "T=0.5:1:0.5")["rows"]
    assert rows[0]["herald_probability"] == pytest.approx(cond.spacs_prob(1.0, 1, 0.5), rel=1e-12, abs=0.0)
    assert rows[1]["flag"] == "improbable herald branch" and "herald_probability" not in rows[1]


def test_counts_of_a_fock_state_and_without_a_kept_trial(tmp_path):
    # one trial per point: a point that keeps none is flagged; at T = 0 the addition heralds Fock 1, whose SNR is
    # undefined
    report = _cli_report(tmp_path, "counts", CONFIGS / "pacs_counts.json", "--trials", "1", "--grid", "T=0:0.1:0.05")
    for row in report["rows"]:
        assert row["herald_probability"] == pytest.approx(cond.spacs_prob(1.0, 1, row["T"]), rel=1e-12, abs=0.0)
        assert row["theory_mean"] == pytest.approx(cond.spacs_mean_n(1.0, 1, row["T"]), rel=1e-12, abs=0.0)
        assert (row.get("flag") == "no kept measurements") == (row["kept"] == 0)
    assert "theory_snr" not in report["rows"][0]
    assert "T=0: theory_snr: SNR undefined for zero variance" in report["warnings"]


def test_counts_draw_a_bright_subtracted_thermal_state_to_its_tail_bound(tmp_path):
    # one photon subtracted from nbar = 40 at T = 0.99 leaves a mean of 56.6, whose tail beyond n = 640 is 4.9e-9:
    # the contour's tail bound runs its distribution to n = 1017, and the draw keeps every row unflagged
    raw = _shipped("subtracted_thermal", ("inputs.0.nbar", 40.0), ("interferometer.phi", 0.0))
    report = _cli_report(tmp_path, "counts", raw, "--trials", "20", "--grid", "T=0.99:0.99:1")
    row = report["rows"][0]
    assert "flag" not in row and report["warnings"] == [] and row["kept"] > 0
    assert row["theory_mean"] == pytest.approx(cond.mzi_sub_mean_n(40.0, 1, 0.99, 0.0), rel=1e-12, abs=0.0)


def _stationary_trials(report: dict, label: str) -> list:
    """The trials of a drift detector that warned of a stationary draw."""
    prefix = f"drift[{label}] trial "
    return [int(w[len(prefix):].split(":")[0]) for w in report["warnings"] if w.startswith(prefix)]


def test_drift_leaves_a_draw_without_a_slope_out_of_the_mean(tmp_path):
    # click[1] of subtracted_thermal is least at the edge of the herald's zero at pi, inside which its jet is not
    # read: a draw there has no usable slope, so it warns and is counted, and no trace or mean scores it; a draw
    # outside it scores V on the fringe's floor, within 1e-7 of the optimum
    report = _cli_report(tmp_path, "drift", CONFIGS / "subtracted_thermal.json", "--trials", "20",
                         "--sigma", "click=0.0001")
    row = next(r for r in report["rows"] if r["scheme"] == "click[1]")
    flat = _stationary_trials(report, "click[1]")
    traces = [t for t in report["traces"] if t["scheme"] == "click[1]"]
    assert flat and row["stationary_draws"] == len(flat)
    assert sorted(flat + [t["trial"] for t in traces]) == list(range(1, 21))
    scores = [(k + 1) * t["running_mean"] - k * prev["running_mean"]
              for k, (prev, t) in enumerate(zip([{"running_mean": 0.0}] + traces, traces))]
    assert scores == pytest.approx([row["optimal_variance"]] * len(traces), rel=1e-6, abs=0.0)
    assert row["final_running_mean"] == traces[-1]["running_mean"]


def test_drift_flags_a_detector_with_no_scored_draw(tmp_path):
    # ligo_lossy's parity[1] is flat to rounding over most of +-20% of its optimum: both of these draws are
    # stationary, so the row has no mean, a flag and a count of 2, and the other detectors keep their means
    report = _cli_report(tmp_path, "drift", CONFIGS / "ligo_lossy.json", "--trials", "2", "--seed", "0",
                         "--distribution", "uniform20")
    rows = {r["scheme"]: r for r in report["rows"]}
    parity = rows.pop("parity[1]")
    assert parity["stationary_draws"] == len(_stationary_trials(report, "parity[1]")) == 2
    assert parity["flag"] == "every draw stationary" and "final_running_mean" not in parity
    assert not [t for t in report["traces"] if t["scheme"] == "parity[1]"]
    assert all(r["stationary_draws"] == 0 and "flag" not in r and "final_running_mean" in r for r in rows.values())
