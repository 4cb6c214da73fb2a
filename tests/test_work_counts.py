"""Deterministic work counters of the shared primitives and of one scenario point."""

import json
import math
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import workloads
from wignersim import cli
from wignersim import estimation as est
from wignersim import gaussian as ga
from wignersim import measurements as meas
from wignersim import scenario as sc
from wignersim import symplectic as sym
from wignersim import wigner as wg

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SHIPPED = ("ligo_lossy.json", "pacs_counts.json", "subtracted_thermal.json")
LIGO_LOSSY = str(CONFIGS / "ligo_lossy.json")
PACS_COUNTS = str(CONFIGS / "pacs_counts.json")


def two_mode_gaussian() -> ga.GaussianState:
    state = ga.tensor([ga.coherent_state(1.0, 0.2), ga.propagate(ga.vacuum_state(), sym.make_squeezer(0.4, 0.0))])
    return ga.propagate(state, sym.SymplecticTransform(sym.mzi_matrix(0.7)))


@pytest.fixture
def moment_calls(monkeypatch):
    # one `moments` call per detector: all its monomials share one Wick recursion per term
    calls = []
    orig = meas.moments

    def counted(*args, **kwargs):
        calls.append(args[1])
        return orig(*args, **kwargs)

    monkeypatch.setattr(meas, "moments", counted)
    return calls


@pytest.mark.parametrize("as_expr, expected", [(True, 1), (False, 0)])
def test_intensity_difference_moment_calls(as_expr, expected, moment_calls):
    state, scheme = two_mode_gaussian(), meas.DetectionScheme("intensity_difference", 1, 2)
    if as_expr:
        meas.polynomial_moments(scheme, partial(meas.moments, wg.from_gaussian(state)))
    else:
        meas.gaussian_moments(scheme, state.mean[None], state.cov[None])
    assert len(moment_calls) == expected


@pytest.mark.parametrize("as_expr, expected", [(True, 1), (False, 0)])
def test_intensity_moment_calls(as_expr, expected, moment_calls):
    state = two_mode_gaussian()
    state = wg.from_gaussian(state) if as_expr else state
    meas.intensity(state, 1)
    assert len(moment_calls) == expected


def test_norm_is_computed_once_on_first_read(monkeypatch):
    calls = []
    orig = wg.Term.integral

    def counted(self, *args, **kwargs):
        calls.append(1)
        return orig(self, *args, **kwargs)

    monkeypatch.setattr(wg.Term, "integral", counted)
    expr = wg.tensor_exprs(wg.fock_wigner(1), wg.from_gaussian(ga.thermal_state(0.5)))
    expr = wg._integrate_out(expr, [], sym.SymplecticTransform(sym.beam_splitter_matrix(0.3)))
    assert calls == []
    assert abs(expr.norm - 1.0) < 1e-12
    assert len(calls) == len(expr.terms)
    expr.norm
    assert len(calls) == len(expr.terms)


def counter(monkeypatch, module, name: str) -> list:
    """The keyword arguments of each call, in order."""
    calls = []
    orig = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return orig(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def forget_routes() -> None:
    """Drop the kept prefix records and route, so that the next point builds its own."""
    sc._prefix.cache_clear()
    sc._route.cache_clear()


def test_pipeline_builds_per_ligo_lossy_point(monkeypatch):
    # pinned so that a change in build count shows up as a diff of this number: the cached prefix propagates its
    # input squeeze once, and every phase reads the prefix through the channel
    calls = counter(monkeypatch, ga, "propagate")
    forget_routes()
    sc.evaluate_point(sc.load_config(LIGO_LOSSY))
    assert len(calls) == 1


@pytest.fixture
def observed(monkeypatch) -> list:
    """The phases at which the scenario observes a state through its route (`_Route.observe`)."""
    seen = []
    orig = sc._Route.observe

    def counted(route, phi):
        seen.append(phi)
        return orig(route, phi)

    monkeypatch.setattr(sc._Route, "observe", counted)
    return seen


@pytest.fixture
def imaged(monkeypatch) -> list:
    """The phases at which a Gaussian route forms a stacked image of its prefix (`_Route.image`)."""
    seen = []
    orig = sc._Route.image

    def counted(route, phis):
        seen.append(phis)
        return orig(route, phis)

    monkeypatch.setattr(sc._Route, "image", counted)
    return seen


def test_gaussian_sweep_pass_validates_8_states_and_8_stacks(tmp_path, monkeypatch):
    # the gaussian_sweep CI gates, at seed 1: the prefix's four states (the two inputs, their product and the
    # input squeeze), each of the four points' own state at its phase, and per point one stack for each sample set,
    # homodyne's and the even detectors'; each state and each stack is one covariance check
    plan = workloads.plan(str(CONFIGS.parent), "gaussian_sweep", 1, str(tmp_path))
    workloads.write_configs(plan)
    forget_routes()
    states, init = [], ga.GaussianState.__post_init__
    monkeypatch.setattr(ga.GaussianState, "__post_init__", lambda state: states.append(1) or init(state))
    checks = counter(monkeypatch, ga, "check_covariance")
    assert [cli.main(command["argv"]) for command in plan["commands"]] == [0]
    assert (len(states), len(checks)) == (8, 16)


def test_gaussian_qfi_observes_one_state(observed):
    # the exact tangent comes from A' = K M'(phi), so no neighbouring phase is observed
    config = sc.load_config(LIGO_LOSSY)
    sc._qfi(config, config.phi)
    assert observed == [config.phi]


def test_gaussian_point_makes_one_williamson_decomposition(monkeypatch):
    # the QFI formula and the pure/mixed label of its route read one decomposition; the prefix's QFI bound, which
    # the parity grid reads, is kept with the prefix record
    config = sc.load_config(LIGO_LOSSY)
    forget_routes()
    sc._route(config).prefix.qfi
    calls = [counter(monkeypatch, est, "williamson"), counter(monkeypatch, ga, "williamson")]
    report = sc.evaluate_point(config)[0]
    assert (sum(map(len, calls)), report.extras["qfi_route"]) == (1, "mixed_gaussian")


@pytest.mark.parametrize("config, label", [
    (LIGO_LOSSY, "intensity[1]"), (LIGO_LOSSY, "homodyne[1,0]"), (LIGO_LOSSY, "diff[1,2]"),
    (workloads.point_a(1.0), "intensity[1]"), (workloads.point_b(1.0), "diff[1,2]"),
])
def test_polynomial_optimum_reads_five_phases(config, label, observed, imaged, monkeypatch):
    # <O> and <O^2> are trigonometric polynomials in phi, fixed by five equispaced samples: a Gaussian prefix is
    # seen at all five as one stacked image, and a Wigner prefix's monomials are read at all five in one batched
    # read; neither observes a state at a phase
    reads = []
    orig = wg.herald_read
    monkeypatch.setattr(wg, "herald_read", lambda columns, rows, *args: reads.append(len(rows)) or orig(
        columns, rows, *args))
    config = sc.load_config(config) if isinstance(config, str) else sc.ScenarioConfig.from_dict(config)
    sc._route.cache_clear()
    sc._optimal_phi(config, next(s for s in config.detection if s.label == label))
    stacks = [len(phis) for phis in imaged]
    assert (observed, stacks, reads) == (([], [5], []) if sc._route(config).gaussian_path else ([], [], [5]))


def sample_set(rate: int) -> tuple:
    """The five phases of a polynomial detector's samples, over [0, 2 pi rate)."""
    return tuple(2.0 * math.pi * rate * j / 5 for j in range(5))


@pytest.mark.parametrize("study", ["point", "drift"])
def test_ligo_lossy_fixed_phases_read_the_optimum_signal(study, observed, imaged):
    # the fixed-phase values of a point, and 50 drift trials, read each detector's signal: the route forms one
    # stacked image per sample set, homodyne's five phases over [0, 4 pi) and the even detectors' shared five
    # over [0, 2 pi), and observes no phase for them; a point observes its own state at its phase, and the parity
    # minimum reads its jet
    config = sc.load_config(LIGO_LOSSY)
    sc._route.cache_clear()
    if study == "point":
        sc.evaluate_point(sc.ScenarioConfig.from_dict(dict(config.raw, metrics=["phase_variance"])))
        assert (observed, imaged) == ([config.phi], [(config.phi,), sample_set(2), sample_set(1)])
    else:
        sc.phase_drift_study(config, trials=50, seed=1)
        assert (observed, imaged) == ([], [sample_set(2), sample_set(1)])


@pytest.mark.parametrize("raw", [workloads.point_a(1.0), workloads.point_b(1.0)], ids=["point_a", "point_b"])
@pytest.mark.parametrize("kind", ["parity", "click"])
def test_wigner_kernel_optimum_makes_no_golden_section_search(raw, kind, observed):
    # on a Wigner state the kernel jet reads the prefix's phase tangents: no observation
    sc._optimal_phi(sc.ScenarioConfig.from_dict(raw), meas.DetectionScheme(kind, 1))
    assert observed == []


@pytest.mark.parametrize("kind", ["parity", "click"])
def test_gaussian_kernel_optimum_observes_nothing(kind, observed):
    # one batched grid of the kernel jet and its refinements find the minimum, and the jet gives its variance
    config = sc.load_config(LIGO_LOSSY)
    sc._optimal_phi(config, meas.DetectionScheme(kind, 1))
    assert observed == []


def test_herald_after_the_phase_builds_each_phase_once(monkeypatch):
    # the herald's ancilla rides in the cached prefix: the point and its cfi read the channel, and the
    # distributions read each mode off it, one partial integration per distributed mode
    integrations = counter(monkeypatch, wg, "_integrate_out")
    sc._route.cache_clear()
    sc.run(sc.load_config(str(Path(LIGO_LOSSY).parent / "subtracted_thermal.json")))
    assert len(integrations) == 2


@pytest.mark.parametrize("metrics, distributed", [(["phase_variance", "cfi", "snr"], 0),
                                                  (["phase_variance", "cfi", "snr", "distributions"], 1)])
def test_output_herald_run_builds_only_its_distributions(metrics, distributed, monkeypatch):
    # every metric reads the prefix, the herald's ancilla included, through the channel; the distributions take
    # each mode off it, one partial integration per mode of the herald's one projector product
    integrations = counter(monkeypatch, wg, "_integrate_out")
    raw = json.loads((Path(LIGO_LOSSY).parent / "subtracted_thermal.json").read_text())
    sc.run(sc.ScenarioConfig.from_dict(dict(raw, metrics=metrics)))
    assert len(integrations) == 2 * distributed


def test_output_herald_drift_builds_nothing(monkeypatch):
    # 200 trials of each detector read its signal's jet, one call for all of them
    integrations = counter(monkeypatch, wg, "_integrate_out")
    report = sc.phase_drift_study(sc.load_config(str(Path(LIGO_LOSSY).parent / "subtracted_thermal.json")),
                                  trials=200, seed=1)
    assert len(report.rows) == 2
    assert integrations == []


def test_ligo_lossy_point_makes_no_per_phi_transform(monkeypatch):
    # each phi is the cached prefix through a plain-matrix channel; the input squeezer and its
    # embedding, both in the prefix, are the point's only transforms
    calls = counter(monkeypatch, sym.SymplecticTransform, "__post_init__")
    forget_routes()
    sc.evaluate_point(sc.load_config(LIGO_LOSSY))
    assert len(calls) == 2


def test_ligo_lossy_point_runs_no_wick_recursion(monkeypatch):
    # every detector moment and slope of a Gaussian point is a closed form in (R, sigma)
    calls = counter(monkeypatch, wg, "_gaussian_expectation")
    sc.evaluate_point(sc.load_config(LIGO_LOSSY))
    assert calls == []


def test_second_heralded_point_builds_no_wick_schedule(monkeypatch):
    # one Wick schedule per monomial set: a second evaluation of point (a), its prefix and observer read anew,
    # runs every expectation on the schedules the first one built
    config = sc.ScenarioConfig.from_dict(workloads.point_a(1.0))
    sc.evaluate_point(config)
    misses = wg._wick_plan.cache_info().misses
    forget_routes()
    calls = counter(monkeypatch, wg, "_gaussian_expectation")
    sc.evaluate_point(config)
    assert calls and wg._wick_plan.cache_info().misses == misses


def test_lossy_heralded_point_applies_uniform_loss_once(monkeypatch):
    # ROADMAP heralded reference (b) on the pulled-back route: the loss on both modes sits in the cached
    # prefix, and no phi substitutes the MZI into a term
    integrations = counter(monkeypatch, wg, "_integrate_out")
    forget_routes()
    sc.evaluate_point(sc.ScenarioConfig.from_dict(workloads.point_b(1.0)))
    # the herald's projected part and the unheralded part of the lossy prefix, whose channel holds the input
    # squeeze and the loss; the photon-number probe reads that prefix too, over 1 - L
    assert len(integrations) == 2


def test_lossy_heralded_point_builds_no_lossless_moment_tensor(monkeypatch):
    # the input photon number of a lossy Wigner point takes four second moments of the lossy prefix the observer
    # reads, over 1 - L: no lossless prefix is read, nor its moments
    losses = []
    orig = sc._prefix

    def counted(inputs, input_mods, gaussian_path, loss):
        losses.append(loss)
        return orig(inputs, input_mods, gaussian_path, loss)

    monkeypatch.setattr(sc, "_prefix", counted)
    sc._route.cache_clear()  # a new route reads the lossy prefix record
    sc.evaluate_point(sc.ScenarioConfig.from_dict(workloads.point_b(1.0)))
    assert losses and None not in losses


@pytest.mark.parametrize("raw, calls", [(workloads.point_a(1.0), 11), (workloads.point_b(1.0), 11)],
                         ids=["point_a", "point_b"])
def test_heralded_point_kernel_density_calls(raw, calls, monkeypatch):
    # the parity optimum: one grid, one call per refinement round for the slope zeros and N's zeros together
    # (three) and V at phi; the four order-1 click jets of `cfi`; the polynomial detector's five samples in one
    # read; and `snr`'s intensity moments of both modes at phi in one read; the roots' own jets are those read in
    # the rounds
    densities = counter(monkeypatch, wg, "kernel_densities")
    sc.evaluate_point(sc.ScenarioConfig.from_dict(raw))
    assert len(densities) == calls


def test_heralded_reference_points_take_at_most_33_wick_expectations(monkeypatch):
    # traced `heralded_phase` gates the same count, one per term of each read: per point, the herald's two norms
    # (the failure arm's is their difference), one read of the prefix's moments for <n> and the QFI bound, the
    # parity optimum's four jet calls and V at phi, six for `cfi`'s click jets (the one-term success arm and the
    # two-term failure arm on both modes), one batched read of the polynomial detector's samples and `snr`'s
    # one read of both modes' intensity moments; and point (a)'s purity check
    calls = counter(monkeypatch, wg, "_gaussian_expectation")
    for raw in (workloads.point_a(1.0), workloads.point_b(1.0)):
        forget_routes()
        sc.evaluate_point(sc.ScenarioConfig.from_dict(raw))
    assert len(calls) <= 33


@pytest.mark.parametrize("raw, rows, pairs", [(workloads.point_a(1.0), 65, 118), (workloads.point_b(1.0), 85, 168)],
                         ids=["point_a", "point_b"])
def test_parity_reads_walk_six_levels_in_20_array_steps(raw, rows, pairs, monkeypatch):
    # each batched read of the parity optimum (its grid and three refinement rounds) walks its Wick schedule a
    # degree level at a time, one product per level and one in-place sum per pair slot: 20 array steps per term,
    # where a step per row and per pair took rows + pairs (183 at point (a), 253 at point (b))
    reads, orig = [], wg._gaussian_expectation
    monkeypatch.setattr(wg, "_gaussian_expectation", lambda poly, mean, *args: reads.append(
        (tuple(poly), mean.ndim)) or orig(poly, mean, *args))
    sc._optimal_phi(sc.ScenarioConfig.from_dict(raw), meas.DetectionScheme("parity", 1))
    batched = [keys for keys, ndim in reads if ndim > 1]
    assert len(batched) == 4
    for keys in batched:
        plan_rows, _, levels, _ = wg._wick_plan(keys, None)
        levels = levels()
        assert (len(plan_rows), sum(len(row[2]) for row in plan_rows), len(levels)) == (rows, pairs, 6)
        assert sum(1 + len(level[3]) for level in levels) == 20


def test_heralded_phase_pass_builds_at_most_11_wick_schedules():
    # one schedule per monomial set: the two reference points of a `heralded_phase` pass, in a fresh interpreter,
    # build 11 and walk every other expectation on them
    wg._wick_plan.cache_clear()
    for raw in (workloads.point_a(1.0), workloads.point_b(1.0)):
        forget_routes()
        sc.run(sc.ScenarioConfig.from_dict(raw))
    assert wg._wick_plan.cache_info().misses <= 11


def test_ligo_lossy_parity_optimum_gaussian_jet_calls(monkeypatch):
    # one grid of 385 phases and three refinement rounds of every bracket at once
    jets = counter(monkeypatch, meas, "kernel_jet")
    config = sc.load_config(LIGO_LOSSY)
    sc._optimal_phi(config, config.detection[0])
    assert len(jets) == 4


@pytest.mark.parametrize("config, m, terms", [("pacs_counts.json", 3, 1), ("subtracted_thermal.json", "click", 2)])
def test_photon_number_distribution_runs_one_wick_recursion_per_term(config, m, terms, monkeypatch):
    # all contour points of a term share one recursion, and the tail bound's real widths one more; the state is
    # the detected mode read off the channel
    raw = json.loads((Path(__file__).resolve().parent.parent / "configs" / config).read_text())
    raw["modifications"][0]["m"] = m
    config = sc.ScenarioConfig.from_dict(raw)
    state = sc._route(config).observe(config.phi)[1][0].state((1,))
    state.norm  # read first, so that its recursions are not counted below
    assert len(wg.marginal_mode(state.normalize(), 1).terms) == terms
    means, orig = [], wg._gaussian_expectation
    monkeypatch.setattr(wg, "_gaussian_expectation", lambda p, mean, *args: means.append(mean) or orig(p, mean, *args))
    wg.photon_number_distribution(state, 1)
    assert sorted(np.iscomplexobj(mean) for mean in means) == [False] * terms + [True] * terms


@pytest.mark.parametrize("m", [1, 3])
def test_counts_reads_32_contour_points_per_t(m, monkeypatch):
    # n <= 40 takes at least 64 points, and the photon-added coherent states' tail bound asks for no more: the
    # 19-point grid reads half that circle, 32 complex widths, and the bound's real widths, each once
    config = sc.load_config(PACS_COUNTS).with_values(m=m)
    widths, orig = [], wg._single_mode_g
    monkeypatch.setattr(wg, "_single_mode_g", lambda e, s: widths.append((e.terms[0].mean.shape, s)) or orig(e, s))
    sc.simulate_counts(config, trials=3600, seed=42)
    assert [(shape, s.size, np.iscomplexobj(s)) for shape, s in widths] == [
        ((19, 2), len(wg.CONTOUR_WIDTHS), False), ((19, 2), 32, True)]


def test_counted_m3_state_is_one_mode(monkeypatch):
    # `counts` reads the counted mode alone off a stack of channels, the other arm integrated out: the m = 3
    # photon-added coherent state is one mode of at most 28 monomials at each grid point, where the two-mode
    # pipeline gives 110 over four variables
    raw = json.loads((Path(__file__).resolve().parent.parent / "configs" / "pacs_counts.json").read_text())
    raw["modifications"][0]["m"] = 3
    config = sc.ScenarioConfig.from_dict(raw)
    state, prob = sc._counted(config, config.modifications[0], (0.3, 0.6, 0.9))
    assert state.modes == 1 and prob.shape == (3,)
    assert all(t.mean.shape == (3, 2) for t in state.terms)
    assert max(len(t.poly) for t in state.terms) <= 28


def test_counts_builds_no_failure_branch_and_one_inverse_dft(monkeypatch):
    # `counts` reads its whole grid once, through the herald's success projector alone: one partial integration
    # per signed product of projectors (a click herald, 1 - 2 pi F_0, takes two), and every point's distribution
    # from one contour by one cached matrix
    integrations = counter(monkeypatch, wg, "_integrate_out")
    contours = counter(monkeypatch, wg, "photon_number_distribution")
    config = sc.load_config(PACS_COUNTS)
    click = sc.ScenarioConfig.from_dict(dict(config.raw, modifications=[
        {"op": "subtract", "stage": "output", "mode": 1, "m": "click", "T": 0.8}]))
    for cfg, products in ((config, 1), (click, 2)):
        integrations.clear()
        contours.clear()
        wg._inverse_dft.cache_clear()
        report = sc.simulate_counts(cfg, trials=3600, seed=42)
        assert len(report.rows) == 19
        assert (len(integrations), len(contours)) == (products, 1)
        assert wg._inverse_dft.cache_info().misses == 1


def test_counted_m3_herald_substitutes_nothing(monkeypatch):
    # an m = 3 `counts` run conditions the prefix through its stack of channels, the MZI and the beam
    # splitters included, in one partial integration: no polynomial product grows past the counted state's
    # 16 monomials
    calls = counter(monkeypatch, wg, "_integrate_out")
    sizes = []
    orig = wg._poly_mul

    def sized(a, b):
        out = orig(a, b)
        sizes.append(len(out))
        return out

    monkeypatch.setattr(wg, "_poly_mul", sized)
    report = sc.simulate_counts(sc.load_config(PACS_COUNTS).with_values(m=3), trials=3600, seed=42)
    assert len(report.rows) == 19
    assert len(calls) == 1
    assert 0 < max(sizes) <= 16


@pytest.mark.parametrize("raw", [workloads.point_a(1.0), workloads.point_b(1.0)], ids=["point_a", "point_b"])
def test_heralded_point_builds_only_the_phase_tangents_it_reads(raw, monkeypatch):
    # the success arm's W' and W'' (the parity and click jets) and the failure arm's W' (the order-1 click jets of
    # `cfi`); no reader asks for the failure arm's W''
    tangents = counter(monkeypatch, wg, "phase_tangent")
    forget_routes()
    sc.evaluate_point(sc.ScenarioConfig.from_dict(raw))
    assert len(tangents) == 3


def test_phi_sweep_shares_its_prefix(monkeypatch):
    # the prefix record is keyed by what comes before the MZI: three phases of point (a) read one prefix, its two
    # partial integrations and its three phase tangents, as one point does
    config = sc.ScenarioConfig.from_dict(workloads.point_a(1.0))
    calls = [counter(monkeypatch, wg, name) for name in ("_integrate_out", "phase_tangent")]
    for study in (lambda: sc.evaluate_point(config), lambda: sc.sweep(config, "phi", [0.5, 1.0, 1.5])):
        forget_routes()
        for c in calls:
            c.clear()
        study()
        assert [len(c) for c in calls] == [2, 3]


def test_loss_sweep_of_a_gaussian_config_propagates_once(monkeypatch):
    # the Gaussian path keeps its loss in the channel after the MZI, so every L reads one prefix
    calls = counter(monkeypatch, ga, "propagate")
    forget_routes()
    report = sc.sweep(sc.load_config(LIGO_LOSSY), "L", [0.0, 0.1, 0.3])
    assert len(report.rows) == 3 and len(calls) == 1


@pytest.mark.parametrize("raw", [*(json.loads((CONFIGS / name).read_text()) for name in SHIPPED),
                                 workloads.point_a(1.0), workloads.point_b(1.0)],
                         ids=[*(name.removesuffix(".json") for name in SHIPPED), "point_a", "point_b"])
def test_run_builds_one_channel_after_the_mzi(raw, monkeypatch):
    # every reader of a config takes the channel from its route
    channels = counter(monkeypatch, sc, "_after_mzi")
    sc._route.cache_clear()
    sc.run(sc.ScenarioConfig.from_dict(raw))
    assert len(channels) == 1


def test_counts_builds_one_channel_after_the_mzi(monkeypatch):
    # the whole T grid is one stack of channels
    channels = counter(monkeypatch, sc, "_after_mzi")
    sc.simulate_counts(sc.load_config(PACS_COUNTS), trials=100, seed=1)
    assert len(channels) == 1
