"""CLI byte-identity against committed golden outputs, and exit code 2 on bad input.

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
from pathlib import Path

import pytest

from wignersim import cli
from wignersim import scenario as sc

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

# golden directory -> CLI arguments that re-emit it
GOLDEN_RUNS = {
    "run_ligo_lossy": ["run", "--config", "configs/ligo_lossy.json"],
    "run_pacs_counts": ["run", "--config", "configs/pacs_counts.json"],
    "run_subtracted_thermal": ["run", "--config", "configs/subtracted_thermal.json"],
    "counts_pacs_counts": ["counts", "--config", "configs/pacs_counts.json", "--seed", "42"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_outputs_match_golden_bytes(name, tmp_path):
    argv = list(GOLDEN_RUNS[name])
    argv[2] = str(ROOT / argv[2])
    assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    want = sorted(p.name for p in (GOLDEN / name).iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == want
    for fname in want:
        assert (tmp_path / fname).read_bytes() == (GOLDEN / name / fname).read_bytes(), fname


def test_thread_count_variable_is_ignored(tmp_path, monkeypatch):
    # no option or environment variable selects how grid points are run
    monkeypatch.setenv("WIGNERSIM_THREADS", "abc")
    argv = ["run", "--config", str(ROOT / "configs" / "pacs_counts.json"), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 0
    assert (tmp_path / "out" / "report.json").exists()


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


@pytest.mark.parametrize("sigma", ["default=nan", "parity=inf", "default=-0.1"])
def test_bad_drift_sigma_exits_2(sigma, tmp_path, capsys):
    argv = ["drift", "--config", str(ROOT / "configs" / "ligo_lossy.json"), "--trials", "2",
            "--sigma", sigma, "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    assert "--sigma" in capsys.readouterr().err


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


def _run_report(tmp_path, raw: dict) -> dict:
    (tmp_path / "cfg.json").write_text(json.dumps(raw))
    assert cli.main(["run", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")]) == 0
    return json.loads((tmp_path / "out" / "report.json").read_text(), parse_constant=_reject_constant)


@pytest.mark.parametrize("r", [4.5, 5.0, 5.5, 6.0])
def test_strongly_squeezed_lossy_qfi_runs(r, tmp_path):
    # strongly squeezed and lossy: in the Williamson basis the SLD equation needs no regularization
    raw = json.loads((ROOT / "configs" / "ligo_lossy.json").read_text())
    raw["modifications"][0]["r"] = r
    raw["metrics"] = ["qfi"]
    row = _run_report(tmp_path, raw)["rows"][0]
    assert row["qfi_route"] == "mixed_gaussian"
    assert math.isfinite(row["qfi"]) and row["qfi"] > 0.0
    assert row["qcrb"] == 1.0 / row["qfi"]


def test_vacuum_inputs_report_no_phase_information(tmp_path, capsys):
    # no photons and no phase information: no snl/hl, and a zero qfi with no qcrb (no Infinity in the JSON)
    raw = {"inputs": [{"kind": "vacuum"}, {"kind": "vacuum"}], "interferometer": {"phi": 1.0}, "metrics": ["qfi"]}
    report = _run_report(tmp_path, raw)
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
    report = _run_report(tmp_path, raw)
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
