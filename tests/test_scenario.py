import json
import math
from pathlib import Path

import numpy as np
import pytest

from wignersim import cli
from wignersim import estimation as est
from wignersim import gaussian as ga
from wignersim import measurements as meas
from wignersim import scenario as sc
from wignersim import wigner as wg
from wignersim.errors import ConfigError

ROOT = Path(__file__).resolve().parent.parent


def base_config(**overrides) -> dict:
    cfg = {
        "inputs": [
            {"kind": "coherent", "alpha": 1.0, "theta": 0.0},
            {"kind": "vacuum"},
        ],
        "modifications": [{"op": "squeeze", "stage": "input", "mode": 2, "r": 0.8}],
        "interferometer": {"phi": 1.1},
        "detection": [
            {"scheme": "homodyne", "mode": 1, "angle": 0.0},
            {"scheme": "parity", "mode": 1},
        ],
        "metrics": ["phase_variance", "qfi"],
    }
    cfg.update(overrides)
    return cfg


class TestValidation:
    def test_valid_config(self):
        cfg = sc.ScenarioConfig.from_dict(base_config())
        assert cfg.phi == 1.1
        assert cfg.inputs[0].kind == "coherent"

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="frobnicate"):
            sc.ScenarioConfig.from_dict(base_config(frobnicate=1))

    def test_unknown_nested_key_path(self):
        cfg = base_config()
        cfg["inputs"][0]["amplitude"] = 2.0
        with pytest.raises(ConfigError, match=r"inputs\.0\.amplitude"):
            sc.ScenarioConfig.from_dict(cfg)

    def test_displacement_on_vacuum_redundant(self):
        cfg = base_config(
            modifications=[{"op": "displace", "stage": "input", "mode": 2, "alpha": 1.0}]
        )
        with pytest.raises(ConfigError, match="redundant"):
            sc.ScenarioConfig.from_dict(cfg)

    def test_displacement_allowed_after_prior_mod(self):
        cfg = base_config(
            modifications=[
                {"op": "squeeze", "stage": "input", "mode": 2, "r": 0.3},
                {"op": "displace", "stage": "input", "mode": 2, "alpha": 1.0},
            ]
        )
        sc.ScenarioConfig.from_dict(cfg)

    def test_fock_restricted_to_single_photon(self):
        cfg = base_config(inputs=[{"kind": "fock", "n": 2}, {"kind": "vacuum"}])
        with pytest.raises(ConfigError, match="single-photon"):
            sc.ScenarioConfig.from_dict(cfg)

    def test_unknown_metric(self):
        with pytest.raises(ConfigError, match=r"metrics\.0"):
            sc.ScenarioConfig.from_dict(base_config(metrics=["negativity"]))

    def test_two_inputs_required(self):
        with pytest.raises(ConfigError, match="two input"):
            sc.ScenarioConfig.from_dict(base_config(inputs=[{"kind": "vacuum"}]))

    def test_loss_bounds(self):
        with pytest.raises(ConfigError, match=r"noise\.loss\.L"):
            sc.ScenarioConfig.from_dict(base_config(noise={"loss": {"L": 1.4}}))


class TestKeyTree:
    def test_parse_equivalent_to_json(self, tmp_path):
        text = """
        # simple scenario
        inputs.0.kind = "coherent"
        inputs.0.alpha = 1.0
        inputs.1.kind = "vacuum"
        metrics = ["qfi"]
        [interferometer]
        phi = 1.1
        [detection.0]
        scheme = "parity"
        mode = 1
        """
        path = tmp_path / "cfg.tree"
        path.write_text(text)
        cfg = sc.load_config(str(path))
        assert cfg.phi == 1.1
        assert cfg.detection[0].kind == "parity"

    def test_json_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_config()))
        cfg = sc.load_config(str(path))
        assert cfg.inputs[1].kind == "vacuum"

    def test_bad_line(self, tmp_path):
        path = tmp_path / "bad.tree"
        path.write_text("this is not a key tree\n")
        with pytest.raises(ConfigError, match="line 1"):
            sc.load_config(str(path))


class TestPipeline:
    def test_gaussian_fast_path_detected(self):
        res = sc.build_pipeline(sc.ScenarioConfig.from_dict(base_config()))
        assert res.gaussian_path
        assert isinstance(res.state, ga.GaussianState)

    def test_path_equivalence(self, monkeypatch):
        cfg = sc.ScenarioConfig.from_dict(
            base_config(
                noise={"loss": {"L": 0.15}, "thermal": {"nbar_env": 0.4, "eta": 0.85, "modes": [1, 2]}},
                metrics=["phase_variance", "snr"],
            )
        )
        fast, _, _ = sc.evaluate_point(cfg)
        monkeypatch.setattr(sc, "_gaussian_possible", lambda c: False)
        slow, _, _ = sc.evaluate_point(cfg)
        for key in fast.phase_variance:
            assert abs(fast.phase_variance[key] - slow.phase_variance[key]) < 1e-8 * max(
                1.0, abs(fast.phase_variance[key])
            )
        for key in fast.snr:
            assert abs(fast.snr[key] - slow.snr[key]) < 1e-8 * max(1.0, abs(fast.snr[key]))

    def test_lossless_conservation(self):
        cfg = sc.ScenarioConfig.from_dict(base_config())
        res = sc.build_pipeline(cfg)
        n_in = 1.0 + math.sinh(0.8) ** 2
        assert abs(ga.total_mean_photon(res.state) - n_in) < 1e-9

    def test_addition_failure_branch_tracked(self):
        cfg = sc.ScenarioConfig.from_dict(
            base_config(
                modifications=[
                    {"op": "squeeze", "stage": "input", "mode": 2, "r": 0.5},
                    {"op": "add", "stage": "input", "mode": 1, "m": 1, "mechanism": "bs", "T": 0.9},
                ],
                metrics=["cfi"],
            )
        )
        res = sc.build_pipeline(cfg)
        assert res.herald_stage == "input"
        assert res.failure_state is not None
        assert abs(res.success_prob + res.failure_prob - 1.0) < 1e-9
        # herald-weighted total click CFI over both arms is finite and positive
        report, warnings, _ = sc.evaluate_point(cfg)
        assert report.cfi is not None and report.cfi > 0.0

    def test_heralded_phase_variance_survives_empty_arm_phases(self):
        # the optimal-phi scan passes phases where the subtraction arm is dark
        # and the herald becomes impossible; those points score as unusable
        cfg = sc.ScenarioConfig.from_dict(
            base_config(
                inputs=[{"kind": "thermal", "nbar": 2.0}, {"kind": "vacuum"}],
                modifications=[{"op": "subtract", "stage": "output", "mode": 1, "m": 1, "T": 0.9}],
                detection=[{"scheme": "intensity", "mode": 1}],
                interferometer={"phi": 0.8},
                metrics=["phase_variance"],
            )
        )
        report, warnings, _ = sc.evaluate_point(cfg)
        assert "intensity[1]" in report.phase_variance
        assert math.isfinite(report.extras["min_phase_variance.intensity[1]"])

    def test_improbable_herald_is_warning_row(self):
        cfg = sc.ScenarioConfig.from_dict(
            base_config(
                inputs=[{"kind": "thermal", "nbar": 2.0}, {"kind": "vacuum"}],
                modifications=[{"op": "subtract", "stage": "output", "mode": 1, "m": 1, "T": 1.0}],
                metrics=["snr"],
            )
        )
        report = sc.run(cfg)
        assert report.rows[0]["flag"] == "improbable herald branch"
        assert report.warnings

    def test_heralded_pipeline(self):
        cfg = sc.ScenarioConfig.from_dict(
            base_config(
                inputs=[{"kind": "thermal", "nbar": 2.0}, {"kind": "vacuum"}],
                modifications=[{"op": "subtract", "stage": "output", "mode": 1, "m": 1, "T": 0.9}],
                metrics=["snr"],
            )
        )
        res = sc.build_pipeline(cfg)
        assert not res.gaussian_path
        assert res.herald_stage == "output"
        assert 0.0 < res.success_prob < 1.0
        assert abs(res.success_prob + res.failure_prob - 1.0) < 1e-9


class TestRunAndSweep:
    def test_run_report_shape(self):
        cfg = sc.ScenarioConfig.from_dict(base_config(metrics=["qfi"]))
        report = sc.run(cfg, seed=1)
        assert report.rows[0]["qfi"] > 0.0
        assert report.version

    def test_run_with_phi_grid(self):
        cfg = sc.ScenarioConfig.from_dict(
            base_config(interferometer={"phi": {"start": 0.5, "stop": 1.5, "step": 0.5}}, metrics=["qfi"])
        )
        report = sc.run(cfg)
        assert report.parameter == "phi"
        assert [row["phi"] for row in report.rows] == [0.5, 1.0, 1.5]

    def test_phi_grid_validation(self):
        with pytest.raises(ConfigError, match=r"interferometer\.phi"):
            sc.ScenarioConfig.from_dict(
                base_config(interferometer={"phi": {"start": 1.0, "stop": 0.0, "step": 0.5}})
            )

    def test_sweep_phi(self):
        cfg = sc.ScenarioConfig.from_dict(base_config(metrics=["qfi"]))
        report = sc.sweep(cfg, "phi", [0.5, 1.0, 1.5])
        assert [row["phi"] for row in report.rows] == [0.5, 1.0, 1.5]
        # pure-state QFI for this family is phase independent
        vals = [row["qfi"] for row in report.rows]
        assert max(vals) - min(vals) < 1e-6 * max(vals)

    def test_sweep_unknown_parameter(self):
        cfg = sc.ScenarioConfig.from_dict(base_config())
        with pytest.raises(ConfigError):
            sc.sweep(cfg, "banana", [0.1])

    def test_sweep_empty_grid(self):
        cfg = sc.ScenarioConfig.from_dict(base_config())
        with pytest.raises(ConfigError, match="empty"):
            sc.sweep(cfg, "phi", [])

    def test_herald_probability_sweep_shapes(self):
        # SPACS herald probability peaks at interior T; SPSTS peaks at
        # T = 1 - 1/nbar (interior for nbar > 1, boundary for nbar = 1)
        grid = [0.05 * k for k in range(1, 20)]
        add_cfg = sc.ScenarioConfig.from_dict(
            {
                "inputs": [{"kind": "coherent", "alpha": 1.0}, {"kind": "vacuum"}],
                "modifications": [{"op": "add", "stage": "output", "mode": 1, "m": 1, "mechanism": "bs", "T": 0.5}],
                "interferometer": {"phi": 0.0},
                "detection": [],
                "metrics": ["snr"],
            }
        )
        probs = [row["herald_probability"] for row in sc.sweep(add_cfg, "T", grid).rows]
        k = int(np.argmax(probs))
        assert 0 < k < len(grid) - 1

        sub_cfg = sc.ScenarioConfig.from_dict(
            {
                "inputs": [{"kind": "thermal", "nbar": 2.0}, {"kind": "vacuum"}],
                "modifications": [{"op": "subtract", "stage": "output", "mode": 1, "m": 1, "T": 0.5}],
                "interferometer": {"phi": 0.0},
                "detection": [],
                "metrics": ["snr"],
            }
        )
        probs = [row["herald_probability"] for row in sc.sweep(sub_cfg, "T", grid).rows]
        k = int(np.argmax(probs))
        assert abs(grid[k] - 0.5) < 0.051  # peak at T = 1 - 1/nbar = 0.5


class TestLigoStudies:
    def test_lossy_ranking_parity_degrades(self):
        # under 20% loss parity loses its lead entirely while the other three
        # keep their lossless order
        cfg = sc.ScenarioConfig.from_dict(
            {
                "inputs": [{"kind": "coherent", "alpha": math.sqrt(500.0)}, {"kind": "vacuum"}],
                "modifications": [{"op": "squeeze", "stage": "input", "mode": 2, "r": 1.0}],
                "interferometer": {"phi": 2.6},
                "noise": {"loss": {"L": 0.2}},
                "detection": [
                    {"scheme": "parity", "mode": 1},
                    {"scheme": "homodyne", "mode": 1, "angle": 0.0},
                    {"scheme": "intensity", "mode": 1},
                    {"scheme": "intensity_difference", "mode": 1, "mode_b": 2},
                ],
                "metrics": ["phase_variance", "qfi"],
            }
        )
        report, _, _ = sc.evaluate_point(cfg)
        mins = {k.split(".", 1)[1]: v for k, v in report.extras.items() if k.startswith("min_phase_variance")}
        assert mins["homodyne[1,0]"] < mins["diff[1,2]"] < mins["intensity[1]"] < mins["parity[1]"]
        # homodyne presses against the lossy QCRB
        assert mins["homodyne[1,0]"] < 1.05 * report.qcrb

    def test_thermal_noise_parity_above_snl_homodyne_below(self):
        # sweeping the injected thermal occupation up to 1/3 photon
        cfg = sc.ScenarioConfig.from_dict(
            {
                "inputs": [{"kind": "coherent", "alpha": math.sqrt(500.0)}, {"kind": "vacuum"}],
                "modifications": [{"op": "squeeze", "stage": "input", "mode": 2, "r": 1.0}],
                "interferometer": {"phi": 3.0},
                "noise": {"thermal": {"nbar_env": 0.0, "eta": 0.8, "modes": [1, 2]}},
                "detection": [
                    {"scheme": "parity", "mode": 1},
                    {"scheme": "homodyne", "mode": 1, "angle": 0.0},
                ],
                "metrics": ["phase_variance"],
            }
        )
        noiseless = sc.ScenarioConfig.from_dict(
            {k: v for k, v in cfg.raw.items() if k != "noise"}
        )
        baseline, _, _ = sc.evaluate_point(noiseless)
        report = sc.sweep(cfg, "nbar_env", [1.0 / 3.0])
        noisy = report.rows[0]
        snl = noisy["snl"]
        assert baseline.extras["min_phase_variance.parity[1]"] < snl  # lossless parity beats the SNL
        assert noisy["min_phase_variance.parity[1]"] > snl  # thermal noise pushes it above
        assert noisy["min_phase_variance.homodyne[1,0]"] < snl  # homodyne stays below


class TestDistributionsMetric:
    def test_phi_steering_balanced_point(self):
        cfg = sc.ScenarioConfig.from_dict(
            base_config(
                modifications=[],
                interferometer={"phi": math.pi / 2},
                metrics=["distributions"],
            )
        )
        report, _, dists = sc.evaluate_point(cfg, n_max=20)
        p1 = [d["p"] for d in dists if d["mode"] == 1]
        p2 = [d["p"] for d in dists if d["mode"] == 2]
        np.testing.assert_allclose(p1, p2, atol=1e-10)


class TestEmitDeterminism:
    def test_byte_identical_outputs(self, tmp_path):
        cfg = sc.ScenarioConfig.from_dict(base_config(metrics=["qfi", "snr"]))
        d1, d2 = tmp_path / "a", tmp_path / "b"
        sc.emit(sc.run(cfg, seed=11), str(d1))
        sc.emit(sc.run(cfg, seed=11), str(d2))
        assert (d1 / "report.json").read_bytes() == (d2 / "report.json").read_bytes()
        assert (d1 / "results.csv").read_bytes() == (d2 / "results.csv").read_bytes()

    def test_csv_seventeen_digit_round_trip(self, tmp_path):
        cfg = sc.ScenarioConfig.from_dict(base_config(metrics=["qfi"]))
        report = sc.run(cfg)
        sc.emit(report, str(tmp_path), formats="csv")
        lines = (tmp_path / "results.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        values = lines[1].split(",")
        qfi = float(values[header.index("qfi")])
        assert qfi == report.rows[0]["qfi"]


class TestDrift:
    def _cfg(self):
        return sc.ScenarioConfig.from_dict(
            base_config(detection=[{"scheme": "homodyne", "mode": 1, "angle": 0.0}], metrics=["phase_variance"])
        )

    def test_tiny_sigma_recovers_optimum(self):
        report = sc.phase_drift_study(self._cfg(), trials=5, seed=3, sigma={"default": 1e-9})
        row = report.rows[0]
        assert abs(row["final_running_mean"] - row["optimal_variance"]) < 1e-6 * row["optimal_variance"]

    def test_identical_seed_identical_trace(self):
        a = sc.phase_drift_study(self._cfg(), trials=12, seed=5)
        b = sc.phase_drift_study(self._cfg(), trials=12, seed=5)
        assert a.traces == b.traces

    def test_uniform_mode_runs(self):
        report = sc.phase_drift_study(self._cfg(), trials=6, seed=2, distribution="uniform20")
        assert len(report.traces) == 6

    def test_running_mean_converges(self):
        # law of large numbers on the simulated trace: the running mean moves
        # by less than 1e-3 relative across the trailing tenth of the trials
        cfg = sc.ScenarioConfig.from_dict(
            {
                "inputs": [{"kind": "coherent", "alpha": 10.0}, {"kind": "vacuum"}],
                "modifications": [{"op": "squeeze", "stage": "input", "mode": 2, "r": 1.0}],
                "interferometer": {"phi": 3.0},
                "detection": [{"scheme": "homodyne", "mode": 1, "angle": 0.0}],
                "metrics": ["phase_variance"],
            }
        )
        report = sc.phase_drift_study(cfg, trials=2000, seed=17, sigma={"default": 0.15})
        trail = [row["running_mean"] for row in report.traces][1799:]
        final = trail[-1]
        assert max(abs(v - final) / final for v in trail) < 1e-3


class TestCounts:
    def _cfg(self):
        return sc.ScenarioConfig.from_dict(
            {
                "inputs": [{"kind": "coherent", "alpha": 1.0}, {"kind": "vacuum"}],
                "modifications": [{"op": "add", "stage": "output", "mode": 1, "m": 1, "mechanism": "bs", "T": 0.9}],
                "interferometer": {"phi": 0.0},
                "detection": [],
                "metrics": ["snr"],
            }
        )

    def test_kept_counts_binomial(self):
        report = sc.simulate_counts(self._cfg(), trials=2000, seed=9, t_grid=[0.6, 0.8])
        for row in report.rows:
            p = row["herald_probability"]
            sd = math.sqrt(2000 * p * (1 - p))
            assert abs(row["kept"] - 2000 * p) < 4 * sd

    def test_zero_kept_flagged_not_fatal(self):
        report = sc.simulate_counts(self._cfg(), trials=5, seed=1, t_grid=[0.999999])
        assert report.rows[0]["kept"] == 0
        assert report.rows[0]["flag"] == "no kept measurements"

    def test_requires_single_herald(self):
        cfg = sc.ScenarioConfig.from_dict(base_config(metrics=["snr"]))
        with pytest.raises(ConfigError):
            sc.simulate_counts(cfg, trials=10, seed=0)

    def test_spdc_rejected(self):
        cfg = sc.ScenarioConfig.from_dict(
            {
                "inputs": [{"kind": "coherent", "alpha": 1.0}, {"kind": "vacuum"}],
                "modifications": [{"op": "add", "stage": "output", "mode": 1, "m": 1, "mechanism": "spdc", "r": 0.3}],
                "interferometer": {"phi": 0.0},
                "detection": [],
                "metrics": ["snr"],
            }
        )
        with pytest.raises(ConfigError, match="transmissivity"):
            sc.simulate_counts(cfg, trials=10, seed=0)

    def test_click_herald_counts(self):
        cfg = sc.ScenarioConfig.from_dict(
            {
                "inputs": [{"kind": "thermal", "nbar": 2.0}, {"kind": "vacuum"}],
                "modifications": [{"op": "subtract", "stage": "output", "mode": 1, "m": "click", "T": 0.8}],
                "interferometer": {"phi": 0.0},
                "detection": [],
                "metrics": ["snr"],
            }
        )
        report = sc.simulate_counts(cfg, trials=300, seed=4, t_grid=[0.6, 0.8])
        for row in report.rows:
            assert row["kept"] > 0
            assert "sample_mean" in row

    def test_improbable_herald_is_a_flagged_row(self, tmp_path, capsys):
        # at T = 1 a beam-splitter addition never succeeds: that grid point is flagged, the others run
        argv = ["counts", "--config", str(ROOT / "configs" / "pacs_counts.json"), "--grid", "T=0.9:1.0:0.05",
                "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert [row["T"] for row in report["rows"]] == pytest.approx([0.9, 0.95, 1.0])
        assert [row["kept"] > 0 for row in report["rows"]] == [True, True, False]
        last = report["rows"][-1]
        assert last == {"index": 2, "T": last["T"], "kept": 0, "flag": "improbable herald branch"}
        assert len(report["warnings"]) == 1 and report["warnings"][0].startswith("T=1: herald probability")
        assert "warning: T=1" in capsys.readouterr().err

    def test_zero_variance_state_has_no_theory_snr(self, tmp_path):
        # at phi = 0 mode 2 carries the vacuum, and adding one photon to it heralds the Fock state |1>
        raw = json.loads((ROOT / "configs" / "pacs_counts.json").read_text())
        raw["modifications"][0]["mode"] = 2
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        argv = ["counts", "--config", str(path), "--grid", "T=0.3:0.6:0.3", "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        for row in report["rows"]:
            assert "theory_snr" not in row and "sample_snr" not in row
            assert row["theory_mean"] == pytest.approx(1.0, rel=1e-12)
            assert row["sample_mean"] == 1.0
        assert report["warnings"] == [f"T={t:g}: theory_snr: SNR undefined for zero variance" for t in (0.3, 0.6)]


COUNTED = {
    "pacs_m1": {},
    "pacs_m3": {"modifications": [{"op": "add", "stage": "output", "mode": 1, "m": 3, "mechanism": "bs", "T": 0.6}]},
    "herald_on_mode_2": {
        "modifications": [{"op": "add", "stage": "output", "mode": 2, "m": 1, "mechanism": "bs", "T": 0.6}],
        "interferometer": {"phi": 0.7},
    },
    "click_subtracted_thermal": {
        "inputs": [{"kind": "thermal", "nbar": 2.0}, {"kind": "vacuum"}],
        "modifications": [{"op": "subtract", "stage": "output", "mode": 1, "m": "click", "T": 0.8}],
    },
    "input_addition": {
        "modifications": [{"op": "add", "stage": "input", "mode": 1, "m": 2, "mechanism": "bs", "T": 0.6}],
        "interferometer": {"phi": 0.7},
    },
    "output_squeeze_and_other_displacement": {
        "modifications": [
            {"op": "displace", "stage": "output", "mode": 2, "alpha": 0.4, "theta": 0.3},
            {"op": "squeeze", "stage": "output", "mode": 1, "r": 0.3, "theta": 0.5},
            {"op": "add", "stage": "output", "mode": 1, "m": 2, "mechanism": "bs", "T": 0.6},
        ],
        "interferometer": {"phi": 0.9},
    },
    "thermal_noise_on_other_mode": {
        "inputs": [{"kind": "coherent", "alpha": 1.0}, {"kind": "thermal", "nbar": 0.3}],
        "modifications": [{"op": "subtract", "stage": "output", "mode": 1, "m": 1, "T": 0.7}],
        "interferometer": {"phi": 1.3},
        "noise": {"thermal": {"nbar_env": 0.4, "eta": 0.8, "modes": [2]}},
    },
    "uniform_loss": {
        "modifications": [{"op": "add", "stage": "output", "mode": 1, "m": 2, "mechanism": "bs", "T": 0.6}],
        "interferometer": {"phi": 0.5},
        "noise": {"loss": {"L": 0.2, "D": 0.9}},
    },
}


@pytest.mark.parametrize("case", sorted(COUNTED))
def test_counted_mode_matches_the_two_mode_pipeline(case):
    # tracing the other arm out ahead of the output stage commutes with every stage after the MZI
    raw = dict(json.loads((ROOT / "configs" / "pacs_counts.json").read_text()), **COUNTED[case])
    cfg = sc.ScenarioConfig.from_dict(raw)
    mode = next(m for m in cfg.modifications if m.heralded).mode
    want, got = sc.build_pipeline(cfg), sc._counted(cfg, mode, {})
    assert got.state.modes == 1
    assert got.success_prob == pytest.approx(want.success_prob, rel=1e-12, abs=0.0)
    n_want, n_got = meas.intensity(want.state, mode), meas.intensity(got.state, 1)
    assert [n_got.mean, n_got.second_moment] == pytest.approx([n_want.mean, n_want.second_moment], rel=1e-12, abs=0.0)
    p_want = wg.photon_number_distribution(want.state, mode).probs
    p_got = wg.photon_number_distribution(got.state, 1).probs
    assert np.max(np.abs(p_got - p_want)) <= 1e-14


class TestCli:
    def test_validate_ok(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_config()))
        assert cli.main(["validate", "--config", str(path)]) == 0

    def test_validate_bad_config_exit_2(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_config(frobnicate=2)))
        assert cli.main(["validate", "--config", str(path)]) == 2

    def test_run_writes_outputs(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_config(metrics=["qfi"])))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out), "--format", "both"]) == 0
        assert (out / "report.json").exists()
        assert (out / "results.csv").exists()

    def test_sweep_grid_parsing(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_config(metrics=["qfi"])))
        out = tmp_path / "out"
        rc = cli.main(["sweep", "--config", str(path), "--grid", "phi=0.2:0.6:0.2", "--out", str(out), "--format", "csv"])
        assert rc == 0
        lines = (out / "results.csv").read_text().strip().splitlines()
        assert len(lines) == 4  # header + 3 points

    def test_bad_grid_exit_2(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_config()))
        assert cli.main(["sweep", "--config", str(path), "--grid", "phi=0.2:0.6"]) == 2

    def test_counts_subcommand(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps(
                {
                    "inputs": [{"kind": "coherent", "alpha": 1.0}, {"kind": "vacuum"}],
                    "modifications": [
                        {"op": "add", "stage": "output", "mode": 1, "m": 1, "mechanism": "bs", "T": 0.9}
                    ],
                    "interferometer": {"phi": 0.0},
                    "detection": [],
                    "metrics": ["snr"],
                }
            )
        )
        out = tmp_path / "out"
        rc = cli.main(
            ["counts", "--config", str(path), "--trials", "50", "--seed", "3",
             "--grid", "T=0.5:0.9:0.2", "--out", str(out), "--format", "csv"]
        )
        assert rc == 0
        lines = (out / "results.csv").read_text().strip().splitlines()
        assert len(lines) == 4

    def test_drift_subcommand(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_config(detection=[{"scheme": "homodyne", "mode": 1}])))
        out = tmp_path / "out"
        rc = cli.main(
            ["drift", "--config", str(path), "--trials", "5", "--seed", "2",
             "--sigma", "default=0.1", "--out", str(out), "--format", "csv"]
        )
        assert rc == 0
        assert (out / "traces.csv").exists()
