import json
import math
from pathlib import Path

import numpy as np
import pytest

import workloads
import reference as ref
from wignersim import cli
from wignersim import conditional as cond
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

    @pytest.mark.parametrize("text", [
        'inputs.-1.kind = "vacuum"\n',  # no list to index yet
        'inputs.0.kind = "vacuum"\ninputs.1.kind = "vacuum"\ninputs.-1.kind = "fock"\n',  # would alias input 2
    ], ids=["alone", "after_two_inputs"])
    def test_negative_index_is_a_config_error(self, text, tmp_path, capsys):
        # a list index is a run of digits: "-1" is a key, which no list takes and no input list holds
        path = tmp_path / "cfg.tree"
        path.write_text(text + 'interferometer.phi = 1.0\n')
        assert cli.main(["validate", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err


class TestPipeline:
    def test_gaussian_fast_path_detected(self):
        res = ref.build_pipeline(sc.ScenarioConfig.from_dict(base_config()))
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
        monkeypatch.setattr(sc, "_route", sc._route.__wrapped__)  # not the kept Gaussian-path route
        slow, _, _ = sc.evaluate_point(cfg)
        for key in fast.phase_variance:
            assert abs(fast.phase_variance[key] - slow.phase_variance[key]) < 1e-8 * max(
                1.0, abs(fast.phase_variance[key])
            )
        for key in fast.snr:
            assert abs(fast.snr[key] - slow.snr[key]) < 1e-8 * max(1.0, abs(fast.snr[key]))

    def test_lossless_conservation(self):
        cfg = sc.ScenarioConfig.from_dict(base_config())
        res = ref.build_pipeline(cfg)
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
        res = ref.build_pipeline(cfg)
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

    def test_almost_sure_click_herald_keeps_its_row(self):
        # the no-click branch of alpha = 6 at T = 0.05 has probability ~1e-15: the click succeeds almost surely,
        # so `run` keeps the row with the failure branch untracked, as `counts` does
        raw = {
            "inputs": [{"kind": "coherent", "alpha": 6.0}, {"kind": "vacuum"}],
            "modifications": [{"op": "subtract", "stage": "output", "mode": 1, "m": "click", "T": 0.05}],
            "interferometer": {"phi": 0.0},
            "detection": [{"scheme": "intensity", "mode": 1}],
            "metrics": ["snr"],
        }
        cfg = sc.ScenarioConfig.from_dict(raw)
        row = sc.run(cfg).rows[0]
        assert "flag" not in row
        counted = sc.simulate_counts(cfg, trials=100, seed=1, t_grid=[0.05]).rows[0]
        assert abs(row["herald_probability"] - counted["herald_probability"]) <= 1e-15

    def test_click_cfi_where_the_failure_branch_drops_below_the_floor(self):
        # near phi = 0.483964172 the no-click probability crosses the floor, so of phi and phi +- h some track
        # the failure branch and some do not; the click CFI then reads the success arm alone
        raw = {
            "inputs": [{"kind": "coherent", "alpha": 6.0}, {"kind": "vacuum"}],
            "modifications": [{"op": "subtract", "stage": "output", "mode": 1, "m": "click", "T": 0.05}],
            "interferometer": {"phi": 0.0},
            "detection": [{"scheme": "click", "mode": 1}, {"scheme": "click", "mode": 2}],
            "metrics": ["cfi"],
        }
        cfg = sc.ScenarioConfig.from_dict(raw)
        crossing, h = 0.483964172, ref.DEFAULT_STEP
        assert ref.build_pipeline(cfg, crossing - h).failure_state is None
        assert ref.build_pipeline(cfg, crossing + h).failure_state is not None
        for phi in (crossing - h / 2, crossing + h / 2):
            report, warnings, _ = sc.evaluate_point(cfg, phi)
            assert warnings == []
            assert report.cfi == pytest.approx(10.2017, abs=1e-3)

    def test_heralded_pipeline(self):
        cfg = sc.ScenarioConfig.from_dict(
            base_config(
                inputs=[{"kind": "thermal", "nbar": 2.0}, {"kind": "vacuum"}],
                modifications=[{"op": "subtract", "stage": "output", "mode": 1, "m": 1, "T": 0.9}],
                metrics=["snr"],
            )
        )
        res = ref.build_pipeline(cfg)
        assert not res.gaussian_path
        assert res.herald_stage == "output"
        assert 0.0 < res.success_prob < 1.0
        assert abs(res.success_prob + res.failure_prob - 1.0) < 1e-9


def test_dark_port_has_no_snr():
    # the heralded reference (a) leaves mode 1 dark at phi = pi: <n> = <n^2> = Var = 2.2e-16 of rounding there,
    # which gave an SNR of -67108864
    report, warnings, _ = sc.evaluate_point(sc.ScenarioConfig.from_dict(workloads.point_a(math.pi)))
    assert "mode1" not in report.snr and "mode2" in report.snr
    assert warnings.count("snr mode 1: SNR undefined for zero variance") == 1


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
        report, _, dists = sc.evaluate_point(cfg)
        p1 = [d["p"] for d in dists if d["mode"] == 1]
        p2 = [d["p"] for d in dists if d["mode"] == 2]
        np.testing.assert_allclose(p1, p2, atol=1e-10)

    def test_tail_mass_is_a_probability(self):
        # the tail is 1 minus the summed probabilities, which rounding can push just below 0
        row = sc.run(sc.load_config(str(ROOT / "configs" / "subtracted_thermal.json"))).rows[0]
        tails = [v for k, v in row.items() if k.startswith("distribution_tail.")]
        assert len(tails) == 2
        assert all(0.0 <= v <= 1.0 for v in tails)


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

    @pytest.mark.parametrize("m", [1, 3])
    def test_theory_snr_is_the_photon_added_closed_form(self, m):
        # pacs_counts at phi = 0, where mode 1 carries the whole coherent input of |alpha|^2 = 1
        cfg = sc.load_config(str(ROOT / "configs" / "pacs_counts.json")).with_values(m=m)
        assert cfg.phi == 0.0 and cfg.inputs[0].alpha == 1.0
        grid = [0.3, 0.6, 0.9]
        rows = sc.simulate_counts(cfg, trials=100, seed=1, t_grid=grid).rows
        assert [row["theory_snr"] for row in rows] == pytest.approx([cond.spacs_snr(1.0, m, T) for T in grid],
                                                                     rel=1e-10, abs=0.0)

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

    def test_almost_sure_click_herald_is_kept(self, tmp_path):
        # the no-click branch of alpha = 6 at small T has probability ~1e-15; counts never reads it, so the
        # click rows are kept rather than flagged improbable
        raw = {
            "inputs": [{"kind": "coherent", "alpha": 6.0}, {"kind": "vacuum"}],
            "modifications": [{"op": "subtract", "stage": "output", "mode": 1, "m": "click", "T": 0.9}],
            "interferometer": {"phi": 0.0},
            "detection": [],
            "metrics": ["snr"],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        argv = ["counts", "--config", str(path), "--trials", "100", "--seed", "1", "--grid", "T=0.05:0.15:0.05",
                "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["warnings"] == []
        for row in report["rows"]:
            assert "flag" not in row
            assert row["herald_probability"] == pytest.approx(1.0, abs=1e-12)
            assert row["kept"] == 100

    def test_click_subtraction_rows_match_the_forward_pipeline(self):
        raw = dict(json.loads((ROOT / "configs" / "pacs_counts.json").read_text()), **COUNTED["click_subtracted_thermal"])
        cfg = sc.ScenarioConfig.from_dict(raw)
        grid = [0.3, 0.6, 0.9]
        report = sc.simulate_counts(cfg, trials=200, seed=5, t_grid=grid)
        for T, row in zip(grid, report.rows):
            want = ref.build_pipeline(cfg.with_values(T=T))
            got = [row["herald_probability"], row["theory_mean"]]
            assert got == pytest.approx([want.success_prob, meas.intensity(want.state, 1).mean], rel=1e-12, abs=0.0)

    def test_grid_is_validated_before_any_point(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["counts", "--config", str(ROOT / "configs" / "pacs_counts.json"), "--grid", "T=0.5:1.5:0.5",
                "--out", str(out)]
        assert cli.main(argv) == 2
        assert "modifications.0.T: value 1.5 above maximum 1.0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("stage", ["output", "input"])
    def test_a_grid_of_improbable_points_only_flags_each(self, stage):
        # no point keeps a state, so nothing is read off the grid expression
        raw = json.loads((ROOT / "configs" / "pacs_counts.json").read_text())
        raw["modifications"][0]["stage"] = stage
        report = sc.simulate_counts(sc.ScenarioConfig.from_dict(raw), trials=10, seed=1, t_grid=[1.0, 1.0])
        assert [row["flag"] for row in report.rows] == ["improbable herald branch"] * 2
        assert len(report.warnings) == 2

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
    "output_maps_after_the_herald": {
        "modifications": [
            {"op": "add", "stage": "output", "mode": 1, "m": 2, "mechanism": "bs", "T": 0.6},
            {"op": "squeeze", "stage": "output", "mode": 1, "r": 0.2, "theta": 0.4},
            {"op": "displace", "stage": "output", "mode": 1, "alpha": 0.3, "theta": 0.1},
        ],
        "interferometer": {"phi": 0.6},
    },
    "uniform_loss": {
        "modifications": [{"op": "add", "stage": "output", "mode": 1, "m": 2, "mechanism": "bs", "T": 0.6}],
        "interferometer": {"phi": 0.5},
        "noise": {"loss": {"L": 0.2, "D": 0.9}},
    },
}


@pytest.mark.parametrize("case", sorted(COUNTED))
def test_counted_mode_matches_the_two_mode_pipeline(case):
    # one herald of a stack of beam splitters gives the counted mode at every T of the grid; tracing the other
    # arm out ahead of the output stage commutes with every stage after the MZI
    raw = dict(json.loads((ROOT / "configs" / "pacs_counts.json").read_text()), **COUNTED[case])
    cfg = sc.ScenarioConfig.from_dict(raw)
    mod = next(m for m in cfg.modifications if m.heralded)
    grid = (0.3, 0.6, 0.9)
    state, prob = sc._counted(cfg, mod, grid)
    n_got, p_got = meas.intensity(state, 1), wg.photon_number_distribution(state, 1).probs
    assert state.modes == 1 and p_got.shape == (3, wg.DEFAULT_NMAX + 1)
    for i, T in enumerate(grid):
        want = ref.build_pipeline(cfg.with_values(T=T))
        assert prob[i] == pytest.approx(want.success_prob, rel=1e-12, abs=0.0)
        n_want = meas.intensity(want.state, mod.mode)
        assert [n_got.mean[i], n_got.second_moment[i]] == pytest.approx([n_want.mean, n_want.second_moment],
                                                                         rel=1e-12, abs=0.0)
        assert np.max(np.abs(p_got[i] - wg.photon_number_distribution(want.state, mod.mode).probs)) <= 1e-14


@pytest.mark.parametrize("case", ["pacs_m3", "click_subtracted_thermal", "input_addition", "uniform_loss"])
def test_counts_rows_match_the_per_point_route(case):
    # the grid's draws are those of one herald per T: kept counts and samples to the bit
    raw = dict(json.loads((ROOT / "configs" / "pacs_counts.json").read_text()), **COUNTED[case])
    cfg = sc.ScenarioConfig.from_dict(raw)
    grid = [0.2, 0.5, 0.8, 1.0]
    got, want = sc.simulate_counts(cfg, trials=500, seed=3, t_grid=grid).rows, ref.counts_rows(cfg, 500, 3, grid)
    assert [sorted(row) for row in got] == [sorted(row) for row in want]
    for g, w in zip(got, want):
        exact = {k: w[k] for k in ("index", "T", "kept", "flag", "sample_mean", "sample_snr") if k in w}
        assert {k: g[k] for k in exact} == exact
        close = [k for k in ("herald_probability", "theory_mean", "theory_snr") if k in w]
        assert [g[k] for k in close] == pytest.approx([w[k] for k in close], rel=1e-12, abs=0.0)


def test_reported_herald_probability_is_the_cfi_herald_read():
    # the observation and the CFI's herald read take one channel A(phi) (`sc._through_mzi`), so the herald
    # probability `run` reports is the herald read of the same point, bit for bit
    cfg = sc.load_config(str(ROOT / "configs" / "pacs_counts.json"))
    route = sc._route(cfg)
    p = route.observe(cfg.phi)[0]
    read = sc._wigner_read(cfg, 0, 0, route.arms[0][1])(np.array([cfg.phi]))[0]
    assert p.hex() == float(read[0, 0]).hex()
    assert sc.evaluate_point(cfg)[0].extras["herald_probability"] == p


def test_counts_draw_does_not_depend_on_the_last_bit_of_p(monkeypatch):
    # the click subtraction of thermal nbar = 2 at T = 0.5 heralds with p = 1/2 in theory, where numpy's binomial
    # switches between its two algorithms (p <= 0.5 and p > 0.5): the kept count is the number of uniforms below p,
    # so p = 0.5 and the next float above it keep the same draws and the same samples
    raw = dict(json.loads((ROOT / "configs" / "pacs_counts.json").read_text()), **COUNTED["click_subtracted_thermal"])
    cfg = sc.ScenarioConfig.from_dict(raw)
    counted = sc._counted
    assert counted(cfg, cfg.modifications[0], (0.5,))[1][0] == pytest.approx(0.5, abs=1e-15)

    def row_at(p: float) -> dict:  # the heralded state, kept with probability p
        monkeypatch.setattr(sc, "_counted", lambda *args: (counted(*args)[0], np.array([p])))
        return sc.simulate_counts(cfg, trials=500, seed=3, t_grid=[0.5]).rows[0]

    low, high = row_at(0.5), row_at(np.nextafter(0.5, 1.0))
    assert (low.pop("herald_probability"), high.pop("herald_probability")) == (0.5, np.nextafter(0.5, 1.0))
    assert low == high and "sample_snr" in low


def test_bright_counts_are_not_truncated():
    # alpha = 7 plus one photon has <n> = 46: at n_max = 40 its tail held 0.8 of the mass, which sampling dropped
    raw = {
        "inputs": [{"kind": "coherent", "alpha": 7.0}, {"kind": "vacuum"}],
        "modifications": [{"op": "add", "stage": "output", "mode": 1, "m": 1, "mechanism": "bs", "T": 0.9}],
        "interferometer": {"phi": 0.0},
        "detection": [],
        "metrics": ["snr"],
    }
    report = sc.simulate_counts(sc.ScenarioConfig.from_dict(raw), trials=3000, seed=1, t_grid=[0.9])
    row = report.rows[0]
    assert "flag" not in row and report.warnings == []
    sd = (row["theory_mean"] - 1.0) / row["theory_snr"]
    assert abs(row["sample_mean"] - row["theory_mean"]) < 4.0 * sd / math.sqrt(row["kept"])
    assert row["theory_mean"] == pytest.approx(46.0778, abs=1e-4)


def test_counts_flag_a_tail_beyond_the_largest_n_max():
    # <n> of about 810 lies beyond COUNTS_NMAX photons: the row keeps its draws and is flagged
    raw = {
        "inputs": [{"kind": "coherent", "alpha": 30.0}, {"kind": "vacuum"}],
        "modifications": [{"op": "subtract", "stage": "output", "mode": 1, "m": "click", "T": 0.9}],
        "interferometer": {"phi": 0.0},
        "detection": [],
        "metrics": ["snr"],
    }
    report = sc.simulate_counts(sc.ScenarioConfig.from_dict(raw), trials=200, seed=1, t_grid=[0.9])
    row = report.rows[0]
    assert row["flag"] == "truncated photon-number distribution" and "sample_mean" in row
    assert len(report.warnings) == 1
    assert report.warnings[0].startswith("T=0.9: photon-number tail")
    assert report.warnings[0].endswith(f"at n_max = {sc.COUNTS_NMAX}")


def test_distributions_warn_of_a_tail_beyond_n_max():
    # ROADMAP defect G: alpha = 7 plus one photon added after the phase holds 0.8 of mode 1 beyond n = 40; the
    # distribution keeps its n_max and the row its bytes, with no flag, and a warning names the mode, tail and n_max
    raw = {
        "inputs": [{"kind": "coherent", "alpha": 7.0}, {"kind": "vacuum"}],
        "modifications": [{"op": "add", "stage": "output", "mode": 1, "m": 1, "mechanism": "bs", "T": 0.9}],
        "interferometer": {"phi": 0.0},
        "detection": [],
        "metrics": ["distributions"],
    }
    report = sc.run(sc.ScenarioConfig.from_dict(raw))
    row = report.rows[0]
    assert "flag" not in row
    assert row["distribution_tail.mode1"] == pytest.approx(0.797, abs=1e-3) and row["distribution_tail.mode2"] == 0.0
    tail = row["distribution_tail.mode1"]
    assert report.warnings == [f"distributions mode 1: photon-number tail {tail:.3e} at n_max = {wg.DEFAULT_NMAX}"]


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


@pytest.mark.parametrize("histogram, added, snr", [
    ([0, 3, 5, 2, 0, 1], 1, True),
    ([0, 0, 7], 0, False),  # one photon number: no spread
    ([0, 1], 0, False),  # one kept run
])
def test_sample_stats_of_a_histogram_are_those_of_its_samples(histogram, added, snr):
    samples = np.repeat(np.arange(len(histogram)), histogram)
    stats = sc._sample_stats(np.array(histogram), added)
    assert stats["sample_mean"] == pytest.approx(float(np.mean(samples)), rel=1e-15)
    assert ("sample_snr" in stats) == snr
    if snr:
        want = (np.mean(samples) - added) / np.std(samples, ddof=1)
        assert stats["sample_snr"] == pytest.approx(float(want), rel=1e-13)
