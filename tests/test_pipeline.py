"""One pipeline body for both state types: the cached phi-independent prefix
(the uniform loss follows it, first in the channel after the MZI), the single
click-CFI formula, the QFI route chosen from the state, and the reported phase
variances against the QCRB."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

import workloads
from fock_oracle import Mixture, Oracle, qfi_sld
import reference as ref
from test_optimum import OUTPUT_DISPLACED
from wignersim import cli
from wignersim import conditional as cond
from wignersim import estimation as est
from wignersim import gaussian as ga
from wignersim import measurements as meas
from wignersim import scenario as sc
from wignersim import symplectic as sym
from wignersim import wigner as wg


def config(inputs, modifications=(), metrics=("qfi",), detection=(), phi=0.7) -> sc.ScenarioConfig:
    return sc.ScenarioConfig.from_dict(
        {
            "inputs": list(inputs),
            "modifications": list(modifications),
            "interferometer": {"phi": phi},
            "detection": list(detection),
            "metrics": list(metrics),
        }
    )


COHERENT = {"kind": "coherent", "alpha": 1.0, "theta": 0.0}
VACUUM = {"kind": "vacuum"}
INPUT_ADDITION = {"op": "add", "stage": "input", "mode": 1, "m": 1, "mechanism": "bs", "T": 0.9}


def oracle_qfi(specs, steps_before_mzi, herald, phi: float, dims) -> float:
    """SLD QFI of the MZI family on the truncated Fock lattice, after an optional vacuum herald."""

    def rho(p):
        orc = Oracle(dims)
        mix = Mixture.from_product(orc, specs).apply(steps_before_mzi(orc))
        if herald is not None:
            mix, _ = mix.herald_fock(herald, 0)
        return mix.apply(Oracle(mix.oracle.dims).mzi(p)).dm()

    h = 1e-4
    return qfi_sld(rho(phi), (rho(phi + h) - rho(phi - h)) / (2 * h))


class TestPrefix:
    def test_input_herald_runs_once_per_point(self, monkeypatch):
        # the input herald is one image of the cached prefix: its projected part and the unheralded part, which
        # the failure arm and the weights share, one partial integration each
        calls = []
        orig = wg._integrate_out

        def counted(*args, **kwargs):
            calls.append(1)
            return orig(*args, **kwargs)

        monkeypatch.setattr(wg, "_integrate_out", counted)
        sc._prefix.cache_clear()
        sc._routes.cache_clear()
        cfg = config([COHERENT, VACUUM], [INPUT_ADDITION], metrics=["phase_variance", "snr"],
                     detection=[{"scheme": "intensity", "mode": 1}], phi=1.0)
        report, _, _ = sc.evaluate_point(cfg)
        assert "intensity[1]" in report.phase_variance
        assert len(calls) == 2

    def test_cache_keys_on_the_state_type(self, monkeypatch):
        cfg = config([COHERENT, {"kind": "thermal", "nbar": 0.5}])
        assert ref.build_pipeline(cfg).gaussian_path
        monkeypatch.setattr(ref, "gaussian_possible", lambda c: False)
        res = ref.build_pipeline(cfg)
        assert not res.gaussian_path
        assert isinstance(res.state, wg.WignerExpr)

    def test_shared_prefix_is_frozen(self):
        res = ref.build_pipeline(config([COHERENT, VACUUM], [INPUT_ADDITION]))
        with pytest.raises(dataclasses.FrozenInstanceError):
            res.state = None

    def test_output_stage_modifications_follow_the_phase(self):
        squeeze_out = {"op": "squeeze", "stage": "output", "mode": 2, "r": 0.4}
        cfg = config([COHERENT, VACUUM], [INPUT_ADDITION, squeeze_out])
        a, b = ref.build_pipeline(cfg, 0.3), ref.build_pipeline(cfg, 1.3)
        assert a.herald_stage == b.herald_stage == "input"
        assert a.success_prob == b.success_prob
        assert abs(meas.intensity(a.state, 1).mean - meas.intensity(b.state, 1).mean) > 1e-3


THERMAL = {"kind": "thermal", "nbar": 0.6}


def input_addition(m: int, mode: int = 1, T: float = 0.9) -> dict:
    return {"op": "add", "stage": "input", "mode": mode, "m": m, "mechanism": "bs", "T": T}


def input_squeeze(mode: int) -> dict:
    return {"op": "squeeze", "stage": "input", "mode": mode, "r": 0.4, "theta": 0.5}


# name -> (inputs, input-stage modifications, uniform loss)
PREFIX_CASES = {
    "bs_add_m1": ([COHERENT, VACUUM], [input_addition(1)], None),
    "bs_add_m3": ([COHERENT, VACUUM], [input_addition(3)], None),
    "spdc_add": ([COHERENT, VACUUM], [{"op": "add", "stage": "input", "mode": 1, "m": 1, "mechanism": "spdc",
                                       "r": 0.3, "theta": 0.2}], None),
    "fock2_subtract": ([THERMAL, COHERENT], [{"op": "subtract", "stage": "input", "mode": 1, "m": 2, "T": 0.8}], None),
    "click_subtract": ([THERMAL, COHERENT], [{"op": "subtract", "stage": "input", "mode": 1, "m": "click", "T": 0.8}],
                       None),
    "squeeze_before_the_herald": ([COHERENT, VACUUM], [input_squeeze(1), input_addition(1)], None),
    "squeeze_after_the_herald": ([COHERENT, VACUUM], [input_addition(1), input_squeeze(1)], None),
    "displacement": ([COHERENT, THERMAL], [input_addition(1, mode=2),
                                          {"op": "displace", "stage": "input", "mode": 2, "alpha": 0.6, "theta": 0.4}],
                     None),
    "uniform_loss": ([COHERENT, VACUUM], [input_addition(2), input_squeeze(2)], {"L": 0.1, "D": 0.9}),
    "two_heralds": ([COHERENT, THERMAL], [input_addition(1), {"op": "subtract", "stage": "input", "mode": 2, "m": 1,
                                                              "T": 0.7}], None),
    "fock_input": ([{"kind": "fock"}, COHERENT], [{"op": "subtract", "stage": "input", "mode": 1, "m": "click",
                                                   "T": 0.6}, input_squeeze(2)], None),
}


def assert_same_expr(got: wg.WignerExpr, want: wg.WignerExpr, points: np.ndarray, label) -> None:
    """The two expressions agree in norm, in every moment of degree <= 4 and in value at `points`."""
    assert got.norm == pytest.approx(want.norm, rel=1e-12), label
    # a moment that vanishes by symmetry is rounding on the scale of the largest
    t_got, t_want = ref.moment_tensor(got), ref.moment_tensor(want)
    assert np.all(np.abs(t_got - t_want) <= 1e-12 * np.abs(t_want) + 1e-15 * np.max(np.abs(t_want))), label
    values = np.array([[ref.evaluate(got, x), ref.evaluate(want, x)] for x in points])
    assert np.max(np.abs(values[:, 0] - values[:, 1])) <= 1e-12 * np.max(np.abs(values[:, 1])), label


@pytest.mark.parametrize("name", sorted(PREFIX_CASES))
def test_each_prefix_arm_matches_the_stage_by_stage_referee(name):
    # the prefix is one read of the inputs and the heralds' ancillas through one channel; the referee applies one
    # modification at a time, substituting each map and conditioning each herald alone.  The uniform loss is the
    # first map of the channel after the MZI, so the prefix is the lossless one, and a lossy arm is checked where
    # it lives: the route's observation and detected modes, against the forward build, whose loss sits in its
    # prefix
    inputs, mods, loss = PREFIX_CASES[name]
    raw = {"inputs": inputs, "modifications": mods, "interferometer": {"phi": 0.0}}
    cfg = sc.ScenarioConfig.from_dict(dict(raw, noise={"loss": loss}) if loss else raw)
    key = (cfg.inputs, ref.input_mods(cfg))
    (p, arms), want = sc._prefix(*key).arms, ref.prefix(*key, False, None)
    assert p == pytest.approx(want.success_prob, rel=1e-12, abs=0.0)
    assert (want.failure_state is None) == (name == "two_heralds") == (len(arms) == 1)
    points = np.random.default_rng(3).normal(scale=0.8, size=(12, 4))
    for arm, g, w in zip(("state", "failure_state"), arms, (want.state, want.failure_state)):
        assert_same_expr(g, w, points, arm)
    for phi in (0.4, 2.2) if loss else ():
        built, route = ref.build_pipeline(cfg, phi), sc._route(cfg)
        assert route.observe(phi)[0] == pytest.approx(built.success_prob, rel=1e-12, abs=0.0)
        for mode in (1, 2):
            assert_same_expr(route.detected(phi, mode), ref.marginal_mode(built.state, mode), points[:, :2],
                             (phi, mode))


def test_two_input_heralds_floor_their_joint_probability():
    # each addition at T = 1 - 1e-8 alone succeeds with p ~ 1e-8, above the renormalization floor, and keeps its
    # row; the two together, read at once, succeed with ~1e-16 and give the flagged row
    one, two = input_addition(1, T=1.0 - 1e-8), input_addition(1, mode=2, T=1.0 - 1e-8)
    for mods in ([one], [two]):
        assert "flag" not in sc.evaluate_point(config([COHERENT, VACUUM], mods, metrics=["snr"]))[0].extras
    cfg = config([COHERENT, VACUUM], [one, two], metrics=["snr"])
    report, warnings, _ = sc.evaluate_point(cfg)
    assert report.extras["flag"] == "improbable herald branch"
    assert len(warnings) == 1 and "below renormalization floor" in warnings[0]
    # the referee, which floors each herald's conditional probability, keeps the branch
    assert ref.prefix(cfg.inputs, ref.input_mods(cfg), False, None).success_prob < wg.IMPROBABLE_FLOOR


def test_an_input_click_that_fires_almost_surely_keeps_its_row():
    # coherent |alpha|^2 = 100 on a click subtraction at T = 0.5: no click has probability e^-50, below the floor,
    # so the failure arm is untracked and the row keeps every value
    click = {"op": "subtract", "stage": "input", "mode": 1, "m": "click", "T": 0.5}
    cfg = config([{"kind": "coherent", "alpha": 10.0}, VACUUM], [click], metrics=["snr", "cfi"],
                 detection=[{"scheme": "intensity", "mode": 1}])
    assert len(sc._prefix(cfg.inputs, ref.input_mods(cfg)).arms[1]) == 1
    report, warnings, _ = sc.evaluate_point(cfg)
    assert not warnings and "flag" not in report.extras
    assert report.snr["mode1"] > 0.0 and report.cfi > 0.0


def noise_after_mzi(cfg: sc.ScenarioConfig, phi: float) -> ref.Built:
    """Reference Wigner pipeline with every noise channel applied per phi: MZI, loss per mode, thermal."""
    res = ref.prefix(cfg.inputs, tuple(m for m in cfg.modifications if m.stage == "input"), False, None)
    mzi = sym.SymplecticTransform(sym.mzi_matrix(phi))

    def noise(state):
        state = ref.apply_symplectic(state, mzi)
        for m in (1, 2):
            state = ref.attenuate(state, m, 1.0 - cfg.noise.loss.total, 0.0)
        for m in cfg.noise.thermal_modes if cfg.noise.has_thermal else ():
            state = ref.attenuate(state, m, cfg.noise.thermal_eta, cfg.noise.thermal_nbar)
        return state

    return ref.output_stage(ref.each(res, noise), cfg)


def observables(res: ref.PipelineResult) -> list:
    s = res.state
    n1 = meas.intensity(s, 1)
    return [res.success_prob, s.norm, n1.mean, n1.second_moment, ref.intensity_difference(s, 1, 2).second_moment,
            ref.parity(s, 1).mean, ref.click_probability(s, 2), meas.intensity(res.failure_state, 2).mean]


LOSSY_FOCK = {
    "inputs": [{"kind": "fock"}, {"kind": "coherent", "alpha": 0.8}],
    "modifications": [{"op": "subtract", "stage": "output", "mode": 1, "m": 1, "T": 0.9}],
    "interferometer": {"phi": 0.7},
    "noise": {"loss": {"L": 0.15, "D": 0.95}, "thermal": {"nbar_env": 0.2, "eta": 0.9, "modes": [2]}},
}


def mean_photon(raw: dict) -> float:
    """The input photon number of a config, as its route's prefix record gives it."""
    return sc._route(sc.ScenarioConfig.from_dict(raw)).prefix.mean_photon


class TestUniformLossInPrefix:
    """The forward build's uniform loss, in its Wigner prefix ahead of the MZI, against the loss after the MZI:
    the referee's own check of the commutation that lets the engine apply the loss first after the MZI, and the
    input photon number the prefix gives at every L."""

    @pytest.mark.parametrize("raw", [workloads.point_b(1.0), LOSSY_FOCK], ids=["point_b", "fock_thermal_output"])
    @pytest.mark.parametrize("phi", [0.3, 1.0, 2.9, 4.4])
    def test_matches_noise_after_the_mzi(self, raw, phi):
        cfg = sc.ScenarioConfig.from_dict(raw)
        got, want = observables(ref.build_pipeline(cfg, phi)), observables(noise_after_mzi(cfg, phi))
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_input_mean_photon_stays_lossless(self):
        # photon-added coherent state (|alpha|^2 = 1, m = 1, T = 0.9) plus squeezed vacuum r = 0.5, before the loss
        want = cond.spacs_mean_n(1.0, 1, 0.9) + math.sinh(0.5) ** 2
        got = mean_photon(workloads.point_b(1.0))
        assert got == pytest.approx(want, rel=1e-10)

    def test_input_mean_photon_at_total_loss_reads_the_lossless_prefix(self):
        # the uniform loss follows the MZI, so the prefix holds the input's <n> at every L, L = 1 included
        raw = workloads.point_b(1.0)
        lossless = mean_photon({k: v for k, v in raw.items() if k != "noise"})
        got = mean_photon(dict(raw, noise={"loss": {"L": 1.0, "D": 0.9}}))
        assert got == lossless

    @pytest.mark.parametrize("name, want", [("pacs_counts", 1.0), ("subtracted_thermal", 4.0)])
    def test_input_mean_photon_is_read_before_the_mzi(self, name, want):
        # the prefix ahead of the MZI gives the input totals exactly, with no rounding from the MZI matrix
        assert mean_photon(json.loads((ROOT / "configs" / f"{name}.json").read_text())) == want


class TestClickCfi:
    def test_unheralded_cfi_is_the_plain_detector_sum(self):
        cfg = config([COHERENT, VACUUM], [{"op": "squeeze", "stage": "input", "mode": 2, "r": 0.3}],
                     metrics=["cfi"], phi=0.9)
        report, warnings, _ = sc.evaluate_point(cfg)
        assert not warnings

        def branch(mode):
            return ref.two_outcome(lambda p: ref.click_probability(ref.build_pipeline(cfg, p).state, mode))

        def exact(mode):
            # P0'^2 / P0 + P0'^2 / (1 - P0) from the no-click jet, its first term as P0 (P0'/P0)^2
            jet = sc._kernel_jet((sc._route(cfg),), meas.DetectionScheme("click", mode))
            p0, dp0 = (float(v[0]) for v in jet(np.array([cfg.phi]), 0)[:2])
            return p0 * (dp0 / p0) ** 2 + dp0 * dp0 / (1.0 - p0)

        assert report.cfi == sum(exact(m) for m in (1, 2))
        # the exact slopes replace central differences of step 1e-5, which agree to their truncation error
        assert report.cfi == pytest.approx(sum(ref.cfi(branch(m), cfg.phi) for m in (1, 2)), rel=1e-7)

    def test_bright_port_cfi_is_reported_at_every_phase(self):
        # ligo_lossy at L = 0: a bright port has a no-click probability far below rounding of 1 - P(click), from
        # 8e-7 down to underflow, and the jet still resolves each detector's two outcomes
        raw = json.loads((ROOT / "configs" / "ligo_lossy.json").read_text())
        raw["noise"]["loss"]["L"] = 0.0
        raw["detection"] = [{"scheme": "click", "mode": 1}, {"scheme": "click", "mode": 2}]
        raw["metrics"] = ["cfi", "qfi"]

        def log_p0(cfg, mode, phi):
            # the vacuum overlap of the mode block, 2 exp(-mu^T K^-1 mu) / sqrt(det K) with K = sigma + I, as a log
            state = ref.build_pipeline(cfg, phi).state
            i = slice(2 * mode - 2, 2 * mode)
            mu, k = state.mean[i], state.cov[i, i] + np.eye(2)
            return math.log(2.0) - float(mu @ np.linalg.solve(k, mu)) - 0.5 * math.log(np.linalg.det(k))

        checked = 0
        for phi in [0.3312, 2.6, 5.952] + [2.0 * math.pi * j / 40 for j in range(40)]:
            raw["interferometer"]["phi"] = phi
            cfg = sc.ScenarioConfig.from_dict(raw)
            report, warnings, _ = sc.evaluate_point(cfg)
            assert not warnings
            assert 0.0 <= report.cfi <= report.qfi
            want = 0.0
            for mode in (1, 2):
                p0 = math.exp(log_p0(cfg, mode, phi))
                if min(p0, 1.0 - p0) > 1e-6:
                    dp0 = richardson(lambda p: math.exp(log_p0(cfg, mode, p)), phi, 1e-3)
                    cfi = dp0 * dp0 / (p0 * (1.0 - p0))
                    checked += 1
                else:  # P0'^2 / P0 = P0 (log P0)'^2, resolved as P0 underflows
                    dlog = richardson(lambda p: log_p0(cfg, mode, p), phi, 1e-3)
                    cfi = p0 * dlog * dlog + (p0 * dlog) ** 2 / (1.0 - p0)
                want += cfi
            # abs: at phi = 0 and pi the slope vanishes, and both sides are rounding noise around 0
            assert report.cfi == pytest.approx(want, rel=1e-7, abs=1e-15)
        assert checked > 0

    def test_photon_added_after_the_phase_reports_cfi_at_every_phase(self):
        # the success arm's photon-added mode 1 always clicks: its no-click outcome is impossible and adds 0, where
        # the CFI of each phase was dropped with the warning "branch probability 0.000e+00"
        raw = json.loads((ROOT / "configs" / "pacs_counts.json").read_text())
        cfg = sc.ScenarioConfig.from_dict(dict(raw, metrics=["cfi"]))
        h = ref.DEFAULT_STEP
        for phi in np.linspace(0.3, 6.0, 12):
            report, warnings, _ = sc.evaluate_point(cfg, float(phi))
            assert not warnings
            res = [ref.build_pipeline(cfg, p) for p in (phi, phi + h, phi - h)]
            want = 0.0
            for arm, weight in (("state", res[0].success_prob), ("failure_state", 1.0 - res[0].success_prob)):
                for mode in (1, 2):
                    clicks = [ref.click_probability(getattr(r, arm), mode) for r in res]
                    for q in (clicks, [1.0 - c for c in clicks]):
                        if any(q):  # an outcome impossible at phi and phi +- h adds 0
                            want += weight * ((q[1] - q[2]) / (2 * h)) ** 2 / q[0]
            dp = (res[1].success_prob - res[2].success_prob) / (2 * h)
            want += dp * dp / (res[0].success_prob * (1.0 - res[0].success_prob))
            assert report.cfi == pytest.approx(want, rel=1e-9, abs=0.0), phi
            # the herald and the detectors measure the coherent input after the MZI, whose QFI is 1
            assert 0.0 < report.cfi < 1.0, phi

    def test_lossy_thermal_cfi_matches_central_differences(self):
        # the Gaussian CFI takes the exact click slopes; a test-side central difference agrees to its truncation error
        cfg = sc.ScenarioConfig.from_dict(dict(NOISY_GAUSSIAN, metrics=["cfi"]))
        report, warnings, _ = sc.evaluate_point(cfg)
        assert not warnings
        want = 0.0
        for mode in (1, 2):
            p = lambda phi: ref.click_probability(ref.build_pipeline(cfg, phi).state, mode)
            dp = richardson(p, cfg.phi, 1e-2)
            want += dp * dp / (p(cfg.phi) * (1.0 - p(cfg.phi)))
        assert report.cfi == pytest.approx(want, rel=1e-7)


class TestQfiRoute:
    def test_thermal_input_takes_the_mixed_route(self):
        # thermal nbar = 1 + coherent |alpha| = 1, lossless: mixed, so the pure formula would halve the QFI
        cfg = config([{"kind": "thermal", "nbar": 1.0}, COHERENT])
        report, warnings, _ = sc.evaluate_point(cfg)
        assert not warnings
        assert report.extras["qfi_route"] == "mixed_gaussian"
        want = oracle_qfi([("thermal", 1.0), ("coherent", 1.0)], lambda orc: [], None, cfg.phi, [24, 24])
        assert abs(report.qfi - want) < 1e-5 * want

    def test_pure_gaussian_route_label(self):
        report, _, _ = sc.evaluate_point(config([COHERENT, VACUUM]))
        assert report.extras["qfi_route"] == "pure_gaussian"
        assert abs(report.qfi - 1.0) < 1e-8

    def test_lossless_input_herald_is_pure(self):
        # ROADMAP heralded reference (a): its success branch is pure, so the Wigner route applies
        cfg = config([COHERENT, VACUUM], [INPUT_ADDITION], phi=1.0)
        report, warnings, _ = sc.evaluate_point(cfg)
        assert not warnings
        assert report.extras["qfi_route"] == "pure_wigner"
        want = oracle_qfi([("coherent", 1.0), ("vacuum",), ("fock", 1)], lambda orc: orc.bs(3, 1, 0.9), 3,
                          cfg.phi, [14, 14, 14])
        assert abs(report.qfi - want) < 1e-6 * want
        assert abs(report.qcrb * report.qfi - 1.0) < 1e-15

    def test_noise_after_the_mzi_is_read_from_the_channel(self, monkeypatch):
        # thermal injection at eta = 1 is no noise (C = 0): the pure route, bit-equal to no thermal noise;
        # at eta = 0.9 the family is mixed non-Gaussian, and no state is built to find that out
        builds = []
        orig = wg._integrate_out
        monkeypatch.setattr(wg, "_integrate_out", lambda *args: builds.append(1) or orig(*args))
        raw = {"inputs": [{"kind": "fock"}, COHERENT], "interferometer": {"phi": 0.7}, "metrics": ["qfi"]}
        thermal = lambda eta: dict(raw, noise={"thermal": {"nbar_env": 0.3, "eta": eta}})
        plain = sc._qfi(sc._route(sc.ScenarioConfig.from_dict(raw)), 0.7)
        assert plain[1] == "pure_wigner" and plain[0] == pytest.approx(4.0, rel=1e-14)
        assert sc._qfi(sc._route(sc.ScenarioConfig.from_dict(thermal(1.0))), 0.7) == plain
        mixed = sc._qfi(sc._route(sc.ScenarioConfig.from_dict(thermal(0.9))), 0.7)
        assert mixed == (None, "unavailable (mixed non-Gaussian)")
        assert builds == []

    @pytest.mark.parametrize("inputs, mods", [([COHERENT, VACUUM], [INPUT_ADDITION]),
                                              ([COHERENT, VACUUM], [dict(INPUT_ADDITION, m=2)]),
                                              ([{"kind": "fock"}, COHERENT], [])],
                             ids=["point_a", "point_a_m2", "fock_input"])
    def test_prefix_qfi_is_the_intensity_difference_after_a_50_50_splitter(self, inputs, mods):
        # Var(x1 x2 + p1 p2) of the prefix's own moments is Var(n1 - n2) of its image through the first splitter
        prefix = sc._route(config(inputs, mods)).prefix
        image = wg.AffineImage(prefix.jet((), 0), sym.beam_splitter_matrix(0.5), np.zeros(4), np.zeros((4, 4)))
        split = image.state((1, 2))
        assert prefix.qfi == pytest.approx(ref.intensity_difference(split, 1, 2).variance, rel=1e-12, abs=0.0)

    def test_mixed_non_gaussian_is_a_warning(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "inputs": [{"kind": "fock"}, {"kind": "thermal", "nbar": 0.5}],
            "interferometer": {"phi": 0.7},
            "metrics": ["qfi"],
        }))
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        assert "qfi: unavailable (mixed non-Gaussian)" in capsys.readouterr().err
        row = json.loads((tmp_path / "out" / "report.json").read_text())["rows"][0]
        assert "qfi" not in row and "qfi_route" not in row

    def test_herald_after_the_phase_gives_no_qfi(self):
        # the conditional state's QFI sits below this config's herald-weighted CFI at phi = 2.8
        subtract_out = {"op": "subtract", "stage": "output", "mode": 1, "m": 1, "T": 0.9}
        cfg = config([COHERENT, VACUUM], [subtract_out], metrics=["cfi", "qfi"], phi=2.8)
        report, warnings, _ = sc.evaluate_point(cfg)
        assert report.cfi > 0.95
        assert report.qfi is None and "qfi_route" not in report.extras
        assert warnings == ["qfi: unavailable (herald after the phase)"]


class TestPhaseVarianceBound:
    def test_heralded_reference_a_respects_the_qcrb(self):
        # ROADMAP heralded reference (a): at its parity optimum phi = pi the variance clamps to 0
        cfg = config([COHERENT, VACUUM], [INPUT_ADDITION], metrics=["phase_variance", "qfi"],
                     detection=[{"scheme": "parity", "mode": 1}, {"scheme": "intensity", "mode": 1}], phi=1.0)
        report, warnings, _ = sc.evaluate_point(cfg)
        assert not warnings
        floor = (1.0 - 1e-6) * report.qcrb
        assert report.extras["min_phase_variance.parity[1]"] >= floor
        assert report.extras["min_phase_variance.intensity[1]"] >= floor
        assert set(report.phase_variance) == {"parity[1]", "intensity[1]"}
        assert all(v >= floor for v in report.phase_variance.values())


ROOT = Path(__file__).resolve().parent.parent
LIGO_LOSSY = json.loads((ROOT / "configs" / "ligo_lossy.json").read_text())
FIVE_DETECTORS = [
    {"scheme": "parity", "mode": 1},
    {"scheme": "homodyne", "mode": 2, "angle": 0.4},
    {"scheme": "intensity", "mode": 1},
    {"scheme": "intensity_difference", "mode": 1, "mode_b": 2},
    {"scheme": "click", "mode": 2},
]
# thermal noise on both modes, and an output-stage squeeze and displacement after it
NOISY_GAUSSIAN = {
    "inputs": [{"kind": "coherent", "alpha": 1.5, "theta": 0.3}, {"kind": "thermal", "nbar": 0.2}],
    "modifications": [
        {"op": "squeeze", "stage": "input", "mode": 2, "r": 0.6},
        {"op": "squeeze", "stage": "output", "mode": 1, "r": 0.3, "theta": 0.7},
        {"op": "displace", "stage": "output", "mode": 2, "alpha": 0.5, "theta": 1.1},
    ],
    "interferometer": {"phi": 1.2},
    "noise": {"loss": {"L": 0.1, "D": 0.9}, "thermal": {"nbar_env": 0.3, "eta": 0.8, "modes": [1, 2]}},
    "detection": FIVE_DETECTORS,
    "metrics": ["phase_variance"],
}


def richardson(f, phi: float, h: float):
    """Central differences at h, h/2, h/4 with two Richardson levels (error O(h^6))."""
    d = [(f(phi + s) - f(phi - s)) / (2 * s) for s in (h, h / 2, h / 4)]
    r = [(4 * d[i + 1] - d[i]) / 3 for i in range(2)]
    return (16 * r[1] - r[0]) / 15


def richardson_curvature(f, phi: float, h: float):
    """Second differences at h, h/2, h/4 with two Richardson levels (error O(h^6))."""
    d = [(f(phi + s) - 2.0 * f(phi) + f(phi - s)) / (s * s) for s in (h, h / 2, h / 4)]
    r = [(4 * d[i + 1] - d[i]) / 3 for i in range(2)]
    return (16 * r[1] - r[0]) / 15


def signal_fns(cfg: sc.ScenarioConfig, scheme: meas.DetectionScheme) -> tuple:
    """mean(phi) and variance(phi) of one detector, measured on the observed state."""
    at = lambda p: ref.measure(ref.observed(cfg, p)[1][0], scheme)  # noqa: E731
    return (lambda p: at(p).mean), (lambda p: at(p).variance)


class TestGaussianPrefixChannel:
    @pytest.mark.parametrize("raw", [LIGO_LOSSY, NOISY_GAUSSIAN], ids=["ligo_lossy", "noisy_gaussian"])
    def test_matches_build_pipeline(self, raw):
        cfg = sc.ScenarioConfig.from_dict(raw)
        observe = sc._route(cfg).observe
        for phi in (0.3, 1.7, 2.9, 4.4):
            want, (got,) = ref.build_pipeline(cfg, phi).state, observe(phi)[1]
            assert isinstance(got, sc._Row)
            for a, b in ((got.mean, want.mean), (got.cov, want.cov)):
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-12 * max(1.0, np.abs(b).max()))


def ligo_lossy(r: float, L: float = 0.2, output_mods=()) -> sc.ScenarioConfig:
    raw = json.loads(json.dumps(LIGO_LOSSY))
    raw["modifications"][0]["r"] = r
    raw["modifications"] += list(output_mods)
    raw["noise"]["loss"]["L"] = L
    raw["metrics"] = ["qfi"]
    return sc.ScenarioConfig.from_dict(raw)


class TestGaussianQfi:
    @pytest.mark.parametrize("r", [1.0, 5.0])
    def test_output_unitaries_keep_the_qfi(self, r):
        # an output squeeze and displacement are phi-independent unitaries after the phase
        dressed = [{"op": "squeeze", "stage": "output", "mode": 1, "r": 2.0, "theta": 0.7},
                   {"op": "displace", "stage": "output", "mode": 2, "alpha": 3.0, "theta": 0.4}]
        plain, route = sc._qfi(sc._route(ligo_lossy(r)), 2.6)
        got, dressed_route = sc._qfi(sc._route(ligo_lossy(r, output_mods=dressed)), 2.6)
        assert route == dressed_route == "mixed_gaussian"
        assert got == pytest.approx(plain, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 5.5, 6.0])
    def test_lossless_qfi_matches_the_closed_form(self, r):
        cfg = ligo_lossy(r, L=0.0)
        want = 1.0 / est.lossless_qcrb(cfg.inputs[0].alpha ** 2, r)
        for phi in (0.3, 1.7, 2.6, 4.4):
            got, route = sc._qfi(sc._route(cfg), phi)
            assert route == "pure_gaussian"
            assert got == pytest.approx(want, rel=1e-10, abs=0.0), phi

    def test_loss_on_one_mode_matches_the_fock_oracle(self):
        # loss on mode 1 alone, after the MZI, moves the symplectic eigenvalues with phi
        cfg = sc.ScenarioConfig.from_dict({
            "inputs": [COHERENT, VACUUM],
            "modifications": [{"op": "squeeze", "stage": "input", "mode": 2, "r": 0.3}],
            "interferometer": {"phi": 0.9},
            "noise": {"thermal": {"nbar_env": 0.0, "eta": 0.8, "modes": [1]}},
            "metrics": ["qfi"],
        })
        observe = sc._route(cfg).observe
        nu = [ga.williamson(observe(p)[1][0].cov)[0] for p in (0.5, 0.9)]
        assert abs(nu[1][-1] - nu[0][-1]) > 1e-3
        got, route = sc._qfi(sc._route(cfg), 0.9)
        assert route == "mixed_gaussian"

        orc = Oracle([18, 18])

        def rho(p):
            mix = Mixture.from_product(orc, [("coherent", 1.0), ("squeezed", 0.3)]).apply(orc.mzi(p))
            return mix.loss(1, 0.8, kmax=10).dm()

        h = 1e-4
        want = qfi_sld(rho(0.9), (rho(0.9 + h) - rho(0.9 - h)) / (2 * h))
        assert got == pytest.approx(want, rel=1e-7, abs=0.0)


class TestExactSlopes:
    @pytest.mark.parametrize("raw", [LIGO_LOSSY, NOISY_GAUSSIAN], ids=["ligo_lossy", "noisy_gaussian"])
    @pytest.mark.parametrize("phi", [0.4, 1.2, 2.6, 3.14])
    def test_tangent_matches_central_differences(self, raw, phi):
        # the (dR, dsigma) that the Gaussian QFI and the kernel optimum read, the route's image to first order
        cfg = sc.ScenarioConfig.from_dict(raw)
        tangent = sc._route(cfg).observe(phi)[1][0].tangent
        dmean = richardson(lambda p: ref.build_pipeline(cfg, p).state.mean, phi, 1e-2)
        dcov = richardson(lambda p: ref.build_pipeline(cfg, p).state.cov, phi, 1e-2)
        np.testing.assert_allclose(tangent[0], dmean, rtol=0, atol=1e-10 * max(1.0, np.abs(dmean).max()))
        np.testing.assert_allclose(tangent[1], dcov, rtol=0, atol=1e-10 * max(1.0, np.abs(dcov).max()))

    @pytest.mark.parametrize("raw", [LIGO_LOSSY, NOISY_GAUSSIAN, OUTPUT_DISPLACED],
                             ids=["ligo_lossy", "noisy_gaussian", "output_displaced"])
    @pytest.mark.parametrize("phi", [0.4, 2.6])
    def test_image_curvature_matches_second_differences(self, raw, phi):
        # mu'' and sigma'' of the whole 4x4 image, which the kernel jets read on one mode's rows.  The referee's
        # smallest step, h/4 = 2.5e-3, leaves each second difference a rounding of about 4 eps |f| / (h/4)^2 =
        # 1.4e-10 |f|, which the Richardson weights raise to a few 1e-10 |f|; its truncation is O(h^6).  So the
        # tolerance is 1e-9 of the largest entry of the image itself
        cfg = sc.ScenarioConfig.from_dict(raw)
        (mean, cov), _, (d2mean, d2cov) = ga.trig_image(sc._stacked((sc._route(cfg),)), (phi,), 2)
        for got, value, part in ((d2mean, mean, "mean"), (d2cov, cov, "cov")):
            want = richardson_curvature(lambda p: getattr(ref.build_pipeline(cfg, p).state, part), phi, 1e-2)
            np.testing.assert_allclose(got[0], want, rtol=0, atol=1e-9 * max(1.0, np.abs(value).max()))

    # the bright ligo_lossy fringes are narrow, so its differences take a shorter step
    @pytest.mark.parametrize("raw, phis, h", [
        (dict(LIGO_LOSSY, detection=FIVE_DETECTORS), (3.1, 3.14, 3.16), 1e-3),
        (NOISY_GAUSSIAN, (0.4, 1.2, 2.9), 1e-2),
    ], ids=["ligo_lossy", "noisy_gaussian"])
    def test_exact_slope_matches_central_differences(self, raw, phis, h):
        # the slope each detector's phase signal implies, sqrt(Var / V)
        cfg = sc.ScenarioConfig.from_dict(raw)
        for scheme in cfg.detection:
            mean, var = signal_fns(cfg, scheme)
            signal = sc._optimal_phi(sc._route(cfg), scheme)[2]
            for phi in phis:
                got = math.sqrt(var(phi) / signal.variance(np.array([phi]))[0])
                want = abs(richardson(mean, phi, h))
                assert got == pytest.approx(want, rel=1e-8, abs=1e-10), (scheme.label, phi)

    def test_parity_differences_converge_to_the_exact_slope(self):
        # the h = 1e-5 difference used before is off by 6.5e-8 relative; the error falls as h^2
        cfg = sc.ScenarioConfig.from_dict(LIGO_LOSSY)
        mean = signal_fns(cfg, meas.DetectionScheme("parity", 1))[0]
        exact = sc._kernel_jet((sc._route(cfg),), meas.DetectionScheme("parity", 1))(np.array([3.14]), 0)[1][0]
        errs = [abs((mean(3.14 + h) - mean(3.14 - h)) / (2 * h) / exact - 1.0) for h in (1e-3, 1e-4, 1e-5)]
        assert 6e-8 < errs[2] < 7e-8
        assert all(95 < a / b < 105 for a, b in zip(errs, errs[1:]))

    def test_error_propagation_uses_the_exact_slope(self):
        cfg = sc.ScenarioConfig.from_dict(NOISY_GAUSSIAN)
        report, warnings, _ = sc.evaluate_point(cfg)
        assert not warnings
        for scheme in cfg.detection:
            mean, var = signal_fns(cfg, scheme)
            got = report.phase_variance[scheme.label]
            assert got == pytest.approx(var(1.2) / richardson(mean, 1.2, 1e-2) ** 2, rel=1e-8)

    def test_lossless_minimum_variances_match_the_closed_forms(self):
        # with central differences these sat 5e-12 to 3e-11 from the closed forms
        raw = json.loads(json.dumps(LIGO_LOSSY))
        raw["noise"]["loss"]["L"] = 0.0
        report, _, _ = sc.evaluate_point(sc.ScenarioConfig.from_dict(raw))
        alpha2, r = raw["inputs"][0]["alpha"] ** 2, raw["modifications"][0]["r"]
        for label, closed_form in [("homodyne[1,0]", est.homodyne_min_variance),
                                   ("diff[1,2]", est.intensity_difference_min_variance),
                                   ("intensity[1]", est.intensity_min_variance)]:
            want = closed_form(alpha2, r)
            assert report.extras[f"min_phase_variance.{label}"] == pytest.approx(want, rel=1e-12, abs=0.0), label


# thermal noise after the MZI on mode 2, an input-stage click subtraction (both arms tracked), and an
# output squeeze and displacement: every piece of the pulled-back channel
THERMAL_CLICK = {
    "inputs": [{"kind": "coherent", "alpha": 0.9, "theta": 0.2}, {"kind": "thermal", "nbar": 0.3}],
    "modifications": [
        {"op": "subtract", "stage": "input", "mode": 2, "m": "click", "T": 0.8},
        {"op": "squeeze", "stage": "output", "mode": 1, "r": 0.3, "theta": 0.7},
        {"op": "displace", "stage": "output", "mode": 2, "alpha": 0.5, "theta": 1.1},
    ],
    "interferometer": {"phi": 1.2},
    "noise": {"loss": {"L": 0.1, "D": 0.9}, "thermal": {"nbar_env": 0.3, "eta": 0.8, "modes": [2]}},
}
ROUTE_CONFIGS = {
    "point_a": workloads.point_a(1.0),
    "point_b": workloads.point_b(1.0),
    "point_b_m2": workloads.point_b(1.0, m=2),
    "thermal_click": THERMAL_CLICK,
}
EVERY_DETECTOR = [
    meas.DetectionScheme("intensity", 1),
    meas.DetectionScheme("intensity", 2),
    meas.DetectionScheme("homodyne", 2, angle=0.4),
    meas.DetectionScheme("intensity_difference", 1, mode_b=2),
    meas.DetectionScheme("parity", 1),
    meas.DetectionScheme("parity", 2),
    meas.DetectionScheme("click", 1),
    meas.DetectionScheme("click", 2),
]


# a herald after the phase, on each route to it: shipped configs, a click herald, an SPDC addition, an input-stage
# herald ahead of it, and output squeezes and displacements after it under thermal noise
OUTPUT_HERALDS = {
    "subtracted_thermal": json.loads((ROOT / "configs" / "subtracted_thermal.json").read_text()),
    "pacs_counts": json.loads((ROOT / "configs" / "pacs_counts.json").read_text()),
    "click_subtraction": {
        "inputs": [{"kind": "coherent", "alpha": 1.2, "theta": 0.3}, {"kind": "thermal", "nbar": 0.5}],
        "modifications": [{"op": "subtract", "stage": "output", "mode": 2, "m": "click", "T": 0.8}],
        "interferometer": {"phi": 0.4},
    },
    "spdc_addition": {
        "inputs": [{"kind": "coherent", "alpha": 1.0}, {"kind": "vacuum"}],
        "modifications": [{"op": "add", "stage": "output", "mode": 1, "mechanism": "spdc", "r": 0.3, "theta": 0.4}],
        "interferometer": {"phi": 0.4},
    },
    "input_and_output": {
        "inputs": [{"kind": "coherent", "alpha": 1.0}, {"kind": "vacuum"}],
        "modifications": [INPUT_ADDITION, {"op": "subtract", "stage": "output", "mode": 2, "m": 1, "T": 0.85}],
        "interferometer": {"phi": 0.4},
    },
    "squeezed_displaced_thermal": dict(LOSSY_FOCK, modifications=LOSSY_FOCK["modifications"] + [
        {"op": "squeeze", "stage": "output", "mode": 1, "r": 0.2, "theta": 0.5},
        {"op": "displace", "stage": "output", "mode": 1, "alpha": 0.3, "theta": 1.0}]),
}

KERNEL_SCHEMES = [meas.DetectionScheme(kind, mode) for kind in ("parity", "click") for mode in (1, 2)]
# (config, phases, Richardson step): the bright ligo_lossy fringes are narrow and take a short step
KERNEL_JET_CASES = {
    "ligo_lossy": (LIGO_LOSSY, (3.1, 3.125, 3.14, 3.16), 1e-3),
    "thermal_after_mzi": (dict(NOISY_GAUSSIAN, modifications=NOISY_GAUSSIAN["modifications"][:1]), (0.4, 1.2, 2.9), 1e-2),
    "output_squeeze": (dict(NOISY_GAUSSIAN, noise={}, modifications=NOISY_GAUSSIAN["modifications"][:2]),
                       (0.4, 1.2, 2.9, 5.0), 1e-2),
    "output_displaced": (NOISY_GAUSSIAN, (0.4, 1.2, 2.9, 5.0, 8.0), 1e-2),
}


class TestKernelJet:
    """`sc._kernel_jet`, the batched parity and no-click kernel with its first two phi-derivatives."""

    @staticmethod
    def observed(cfg, scheme, phi):
        # parity, or the no-click probability, on the validated observed state, and the exact slope of its signal
        mean = ref.measure(ref.observed(cfg, phi)[1][0], scheme).mean
        return (mean if scheme.kind == "parity" else 1.0 - mean), sc._kernel_jet((sc._route(cfg),), scheme)(
            np.array([phi]), 0)[1][0]

    @pytest.mark.parametrize("name", sorted(KERNEL_JET_CASES))
    def test_value_matches_the_measured_kernel(self, name):
        raw, phis, _ = KERNEL_JET_CASES[name]
        cfg = sc.ScenarioConfig.from_dict(raw)
        for scheme in KERNEL_SCHEMES:
            values = sc._kernel_jet((sc._route(cfg),), scheme)(np.array(phis), 0)[0]
            for phi, got in zip(phis, values):
                state = ref.observed(cfg, phi)[1][0]
                if scheme.kind == "parity":
                    assert got == pytest.approx(ref.parity(state, scheme.mode).mean, rel=1e-13, abs=1e-300)
                else:
                    assert 1.0 - got == pytest.approx(ref.click_probability(state, scheme.mode), rel=0.0, abs=1e-13)

    @pytest.mark.parametrize("name", sorted(KERNEL_JET_CASES))
    def test_slope_and_curvature_match_central_differences(self, name):
        raw, phis, h = KERNEL_JET_CASES[name]
        cfg = sc.ScenarioConfig.from_dict(raw)
        for scheme in KERNEL_SCHEMES:
            _, slopes, curves, _ = sc._kernel_jet((sc._route(cfg),), scheme)(np.array(phis), 0)
            for phi, slope, curve in zip(phis, slopes, curves):
                want_slope = richardson(lambda p: self.observed(cfg, scheme, p)[0], phi, h)
                want_curve = richardson(lambda p: self.observed(cfg, scheme, p)[1], phi, h)
                assert slope == pytest.approx(want_slope, rel=1e-7, abs=1e-10), (scheme.label, phi)
                assert curve == pytest.approx(want_curve, rel=1e-7, abs=1e-10), (scheme.label, phi)


class TestWignerKernelJet:
    """`sc._kernel_jet` on a Wigner prefix: densities of the prefix arm and of its phase tangents."""

    @pytest.mark.parametrize("name", sorted(ROUTE_CONFIGS))
    def test_slope_and_curvature_match_central_differences(self, name):
        cfg = sc.ScenarioConfig.from_dict(ROUTE_CONFIGS[name])
        observe = lambda p: ref.observed(cfg, p)  # noqa: E731
        phis = (0.4, 1.2, 2.9, 5.0)
        for arm, branch in enumerate(("state", "failure_state")[: len(observe(1.0)[1])]):
            for scheme in KERNEL_SCHEMES:
                jet = sc._kernel_jet((sc._route(cfg),), scheme, arm)

                def value(p):  # parity, or the no-click probability, measured on the observed arm
                    mean = ref.measure(observe(p)[1][arm], scheme).mean
                    return mean if scheme.kind == "parity" else 1.0 - mean

                values, slopes, curves, _ = jet(np.array(phis), 0)
                for phi, got, slope, curve in zip(phis, values, slopes, curves):
                    assert got == pytest.approx(value(phi), rel=1e-12, abs=1e-15), (branch, scheme.label, phi)
                    want_slope = richardson(value, phi, 1e-2)
                    want_curve = richardson(lambda p: jet(np.array([p]), 0)[1][0], phi, 1e-2)
                    assert slope == pytest.approx(want_slope, rel=1e-7, abs=1e-10), (branch, scheme.label, phi)
                    assert curve == pytest.approx(want_curve, rel=1e-7, abs=1e-10), (branch, scheme.label, phi)

    @pytest.mark.parametrize("name", ["point_a", "point_b", "point_b_m2"])
    def test_click_cfi_matches_central_differences(self, name):
        # the exact slopes of the jets, against the herald-weighted CFI of central differences of the click
        # probabilities (step 1e-5), which the CFI of a Wigner prefix took before
        cfg = sc.ScenarioConfig.from_dict(ROUTE_CONFIGS[name])
        observe = lambda p: ref.observed(cfg, p)  # noqa: E731

        def arm(index):
            return [ref.two_outcome(lambda p, m=m: ref.click_probability(observe(p)[1][index], m)) for m in (1, 2)]

        want = ref.probabilistic_cfi(observe(cfg.phi)[0], arm(0), arm(1), cfg.phi)
        assert sc._click_cfi(sc._route(cfg), cfg.phi) == pytest.approx(want, rel=0.0, abs=1e-8)

    def test_click_cfi_takes_the_dark_outcome_limit(self):
        # point (a) at phi = pi: mode 1 never clicks and mode 2 always does, each to rounding; those outcomes add
        # their limit 2 P'' and the row keeps its cfi.  The reference extrapolates the CFI at pi +- h, h = 4e-3,
        # 2e-3, 1e-3 (where the dark probabilities are resolved), over two Richardson levels; it agrees with the
        # limit to 2.4e-9, and the mean at h = 1e-4, 1.0367877540, is 1.9e-7 low from the rounding of P ~ 1e-8
        raw = dict(ROUTE_CONFIGS["point_a"], metrics=["cfi"],
                   detection=[{"scheme": "click", "mode": 1}, {"scheme": "click", "mode": 2}])
        report, warnings, _ = sc.evaluate_point(sc.ScenarioConfig.from_dict(raw), math.pi)
        assert not warnings
        route = sc._route(sc.ScenarioConfig.from_dict(raw))
        mean = [(sc._click_cfi(route, math.pi + h) + sc._click_cfi(route, math.pi - h)) / 2.0
                for h in (4e-3, 2e-3, 1e-3)]
        r1, r2 = (4.0 * mean[1] - mean[0]) / 3.0, (4.0 * mean[2] - mean[1]) / 3.0
        assert report.cfi == pytest.approx((16.0 * r2 - r1) / 15.0, rel=0.0, abs=1e-8)

    def test_failure_arm_integrates_to_one_near_the_dark_port(self):
        # ROADMAP defect I: an arm's norm is the signed sum of its parts' norms, so the normalized failure arm's
        # terms integrate to 1 to rounding.  Its norm taken as the joint's less the projected arm's was 1.3e-15 off,
        # which a dark outcome's P ~ h^2 amplifies: point (a)'s click cfi at pi +- 1e-5 read 1.0367277435
        cfg = sc.ScenarioConfig.from_dict(workloads.point_a(math.pi))
        p, (_, fail) = sc._route(cfg).prefix.arms
        assert 0.0 < p < 1.0
        assert sum(t.integral() for t in fail.terms) == pytest.approx(1.0, rel=0.0, abs=2e-16)
        for h, least in ((1e-4, 1.0367877540), (1e-5, 1.0367645123)):
            route = sc._route(cfg)
            assert min(sc._click_cfi(route, math.pi - h), sc._click_cfi(route, math.pi + h)) >= least, h


class TestPulledBackRoute:
    @pytest.mark.parametrize("name", sorted(ROUTE_CONFIGS))
    def test_matches_build_then_measure(self, name):
        cfg = sc.ScenarioConfig.from_dict(ROUTE_CONFIGS[name])
        for phi in (0.3, 1.7, 2.9, 4.4):
            want, (p, arms) = ref.build_pipeline(cfg, phi), ref.observed(cfg, phi)
            assert all(isinstance(q, float) for q in sc._route(cfg).observe(phi)[1])  # each arm's probability
            # the referee heralds and attenuates one stage at a time: its probability agrees to rounding
            assert p == pytest.approx(want.success_prob, rel=1e-12, abs=0.0)
            assert len(arms) == 2 - (want.failure_state is None)
            for arm, g, w in zip(("state", "failure_state"), arms, (want.state, want.failure_state)):
                for mode in (1, 2):
                    assert ref.click_probability(g, mode) == pytest.approx(ref.click_probability(w, mode),
                                                                           rel=1e-10, abs=0.0)
                for scheme in EVERY_DETECTOR:
                    a, b = ref.measure(w, scheme), ref.measure(g, scheme)
                    assert b.mean == pytest.approx(a.mean, rel=1e-10, abs=0.0), (phi, arm, scheme.label)
                    assert b.second_moment == pytest.approx(a.second_moment, rel=1e-10, abs=0.0), (phi, arm,
                                                                                                  scheme.label)

    @pytest.mark.parametrize("name", ["point_a", "thermal_click"])
    def test_polynomial_detectors_take_exact_slopes(self, name):
        cfg = sc.ScenarioConfig.from_dict(ROUTE_CONFIGS[name])
        for scheme in (s for s in EVERY_DETECTOR if s.kind in meas.POLYNOMIAL_KINDS):
            signal = sc._optimal_phi(sc._route(cfg), scheme)[2]
            mean, var = signal_fns(cfg, scheme)
            for phi in (0.4, 1.2, 2.9):
                got = math.sqrt(var(phi) / signal.variance(np.array([phi]))[0])
                assert got == pytest.approx(abs(richardson(mean, phi, 1e-2)), rel=1e-9, abs=1e-12), scheme.label

    @pytest.mark.parametrize("name", sorted(OUTPUT_HERALDS))
    def test_output_herald_matches_the_forward_build(self, name):
        # the herald's ancilla rides in the cached prefix, and its projector is one more kernel factor: the herald
        # probability and every detector's moments of each arm agree with the state built at phi
        cfg = sc.ScenarioConfig.from_dict(OUTPUT_HERALDS[name])
        every = EVERY_DETECTOR + [meas.DetectionScheme("homodyne", 1, angle=1.1),
                                  meas.DetectionScheme("intensity_difference", 2, mode_b=1)]
        for phi in (0.4, 1.7, 4.1):
            want, (p, arms) = ref.build_pipeline(cfg, phi), ref.observed(cfg, phi)
            assert all(isinstance(q, float) for q in sc._route(cfg).observe(phi)[1])  # each arm's probability
            assert p == pytest.approx(want.success_prob, rel=1e-10, abs=0.0)
            assert len(arms) == 2 - (want.failure_state is None)
            for arm, g, w in zip(("state", "failure_state"), arms, (want.state, want.failure_state)):
                for scheme in every:
                    a, b = ref.measure(w, scheme), ref.measure(g, scheme)
                    assert b.mean == pytest.approx(a.mean, rel=1e-10, abs=1e-14), (phi, arm, scheme.label)
                    assert b.variance == pytest.approx(a.variance, rel=1e-10, abs=1e-14), (phi, arm, scheme.label)

    @pytest.mark.parametrize("name", sorted(n for n in OUTPUT_HERALDS if n != "input_and_output"))
    def test_output_herald_cfi_matches_differences_of_the_forward_build(self, name):
        # the exact jets of the click probabilities and of the herald, against five-point differences of the
        # state built at phi +- h, phi +- 2 h
        cfg = sc.ScenarioConfig.from_dict(dict(OUTPUT_HERALDS[name], metrics=["cfi"]))
        for phi in (0.4, 1.7, 4.1):
            got = sc._click_cfi(sc._route(cfg), phi)
            assert got == pytest.approx(ref.forward_click_cfi(cfg, phi), rel=1e-8, abs=0.0)

    def test_m2_point_b_matches_the_forward_path(self):
        # ROADMAP heralded reference (b) at m = 2, the `stress` workload: it took about 14 s on the forward path
        cfg = sc.ScenarioConfig.from_dict(workloads.point_b(1.0, m=2))
        report, warnings, _ = sc.evaluate_point(cfg)
        assert not warnings
        assert report.extras["herald_probability"] == pytest.approx(cond.spacs_prob(1.0, 2, 0.9), rel=1e-10)
        assert 1.0 / report.snl == pytest.approx(cond.spacs_mean_n(1.0, 2, 0.9) + math.sinh(0.5) ** 2, rel=1e-10)
        forward = lambda p: ref.build_pipeline(cfg, p).state
        signals = {scheme: sc._optimal_phi(sc._route(cfg), scheme)[2] for scheme in cfg.detection}
        for phi in (cfg.phi, report.optimal_phi["diff[1,2]"]):
            for scheme in cfg.detection:
                mean = lambda p: ref.measure(forward(p), scheme).mean
                var = lambda p: ref.measure(forward(p), scheme).variance
                want = ref.phase_variance_error_prop(mean, var, phi)
                got_mean, got_var = signal_fns(cfg, scheme)
                assert got_mean(phi) == pytest.approx(mean(phi), rel=1e-10), scheme.label
                assert got_var(phi) == pytest.approx(var(phi), rel=1e-10), scheme.label
                got = signals[scheme].at(phi)
                # the forward path differences the mean with h = 1e-5
                assert got == pytest.approx(want, rel=1e-6), (phi, scheme.label)

    @pytest.mark.parametrize("phi", [0.4, 1.0, 2.8])
    def test_generator_qfi_matches_the_wigner_integral_and_the_oracle(self, phi):
        # ROADMAP heralded reference (a) with an output squeeze and displacement, which keep the QFI
        raw = workloads.point_a(phi)
        raw["modifications"] += [{"op": "squeeze", "stage": "output", "mode": 1, "r": 0.2},
                                 {"op": "displace", "stage": "output", "mode": 2, "alpha": 0.3}]
        cfg = sc.ScenarioConfig.from_dict(raw)
        got, route = sc._qfi(sc._route(cfg), phi)
        assert route == "pure_wigner"
        integral = ref.qfi_pure_wigner(lambda p: ref.build_pipeline(cfg, p).state, phi)
        assert got == pytest.approx(integral, rel=1e-9, abs=0.0)
        want = oracle_qfi([("coherent", 1.0), ("vacuum",), ("fock", 1)], lambda orc: orc.bs(3, 1, 0.9), 3, phi,
                          [14, 14, 14])
        assert got == pytest.approx(want, rel=1e-6, abs=0.0)
        assert integral == pytest.approx(want, rel=1e-6, abs=0.0)

    @pytest.mark.parametrize("raw", [workloads.point_b(1.0), THERMAL_CLICK], ids=["lossy_prefix", "thermal_noise"])
    def test_mixed_state_has_no_pure_qfi(self, raw):
        assert sc._qfi(sc._route(sc.ScenarioConfig.from_dict(raw)), 1.0) == (None, "unavailable (mixed non-Gaussian)")


# the six heralds after the phase above, thermal injection after the MZI on a herald's mode ahead of it, two
# heralds after the phase on mode 1 (ROADMAP defect F's config), a Gaussian config (ligo_lossy at |alpha| = 3,
# whose distribution stays short) and an input herald behind loss (point (b))
DISTRIBUTED = dict(
    OUTPUT_HERALDS,
    gaussian=dict(LIGO_LOSSY, inputs=[dict(LIGO_LOSSY["inputs"][0], alpha=3.0), LIGO_LOSSY["inputs"][1]]),
    input_herald_with_loss=workloads.point_b(1.0),
    thermal_ahead_of_the_herald=dict(OUTPUT_HERALDS["subtracted_thermal"],
                                     noise={"thermal": {"nbar_env": 0.3, "eta": 0.8, "modes": [1]}}),
    two_heralds_on_mode_1={
        "inputs": [{"kind": "coherent", "alpha": 1.1}, {"kind": "vacuum"}],
        "modifications": [{"op": "subtract", "stage": "output", "mode": 1, "m": "click", "T": 0.8},
                          {"op": "add", "stage": "output", "mode": 1, "m": 2, "mechanism": "bs", "T": 0.7}],
        "interferometer": {"phi": 0.7},
    },
)


class TestDistributionsOffTheChannel:
    @pytest.mark.parametrize("name", sorted(DISTRIBUTED))
    def test_matches_the_forward_build(self, name):
        # each mode's state is built off the prefix's channel through the herald's projectors, on either path: its
        # norm is the herald probability and its photon-number distribution that of the state built at phi
        cfg = sc.ScenarioConfig.from_dict(dict(DISTRIBUTED[name], metrics=["distributions"]))
        route = sc._route(cfg)
        weight = route.prefix.arms[0]  # an input-stage herald's, in the prefix
        for phi in (0.3, 1.7, 4.4):
            want = ref.build_pipeline(cfg, phi)
            built = want.state if isinstance(want.state, wg.WignerExpr) else wg.from_gaussian(want.state)
            for mode in (1, 2):
                state = route.detected(phi, mode)
                assert weight * state.norm == pytest.approx(want.success_prob, rel=1e-12, abs=0.0), (phi, mode)
                p_want = wg.photon_number_distribution(ref.marginal_mode(built, mode)).probs
                assert ref.distribution_gap(wg.photon_number_distribution(state).probs, p_want) <= 1e-12, (phi, mode)
