"""CLI byte-identity against committed golden outputs, and thread-count checking.

The golden files under tests/golden/ are the outputs of the shipped configs.
An intended output change regenerates them with the same commands, e.g.

    wignersim run --config configs/ligo_lossy.json --out tests/golden/run_ligo_lossy
    wignersim counts --config configs/pacs_counts.json --seed 42 --out tests/golden/counts_pacs_counts
"""

from pathlib import Path

import pytest

from wignersim import cli
from wignersim.scenario import THREADS_ENV

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
def test_outputs_match_golden_bytes(name, tmp_path, monkeypatch):
    monkeypatch.delenv(THREADS_ENV, raising=False)
    argv = list(GOLDEN_RUNS[name])
    argv[2] = str(ROOT / argv[2])
    assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    want = sorted(p.name for p in (GOLDEN / name).iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == want
    for fname in want:
        assert (tmp_path / fname).read_bytes() == (GOLDEN / name / fname).read_bytes(), fname


def _run_argv(tmp_path) -> list[str]:
    return ["run", "--config", str(ROOT / "configs" / "pacs_counts.json"), "--out", str(tmp_path / "out")]


@pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5"])
def test_bad_thread_count_from_environment_exits_2(value, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(THREADS_ENV, value)
    assert cli.main(_run_argv(tmp_path)) == 2
    assert THREADS_ENV in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["-3", "0", "many"])
def test_bad_threads_flag_exits_2(value, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(THREADS_ENV, raising=False)
    assert cli.main(_run_argv(tmp_path) + ["--threads", value]) == 2
    assert "--threads" in capsys.readouterr().err


def test_flag_overrides_environment(tmp_path, monkeypatch):
    monkeypatch.setenv(THREADS_ENV, "abc")
    assert cli.main(_run_argv(tmp_path) + ["--threads", "2"]) == 0


def test_validate_ignores_thread_count(monkeypatch):
    monkeypatch.setenv(THREADS_ENV, "abc")
    assert cli.main(["validate", "--config", str(ROOT / "configs" / "pacs_counts.json")]) == 0


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
