"""Deterministic work counters of the shared primitives and of one scenario point."""

import importlib
import inspect
import json
import math
import types
import weakref
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import tracer
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
SUBTRACTED_THERMAL = str(CONFIGS / "subtracted_thermal.json")


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
    expr = wg._integrate_out(expr, [], (sym.beam_splitter_matrix(0.3), np.zeros(4), np.zeros((4, 4))))
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
    sc._routes.cache_clear()


def test_pipeline_builds_per_ligo_lossy_point(monkeypatch):
    # pinned so that a change in build count shows up as a diff of this number: the cached prefix is one channel
    # image of the inputs' one-term expressions through the input squeeze, and every phase reads it through the
    # channel after the MZI; no Gaussian state is propagated
    calls = [counter(monkeypatch, wg, "_integrate_out"), counter(monkeypatch, ga, "propagate")]
    forget_routes()
    sc.evaluate_point(sc.load_config(LIGO_LOSSY))
    assert [len(c) for c in calls] == [1, 0]


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
    """The phase sets at which a Gaussian route forms a validated image of its prefix: each observation's phase
    (`_Route._observe`), and each sample set (`_Route.samples`) that the route has not kept yet.  The kernel jet
    reads the same image (`_Route.image`) unvalidated, and is not recorded."""
    seen = []
    observe, samples = sc._Route._observe, sc._Route.samples

    def observed(route, phi):
        if route.gaussian is not None:
            seen.append((phi,))
        return observe(route, phi)

    def sampled(route, phis):
        if phis not in route._samples:
            seen.append(phis)
        return samples(route, phis)

    monkeypatch.setattr(sc._Route, "_observe", observed)
    monkeypatch.setattr(sc._Route, "samples", sampled)
    return seen


def test_gaussian_sweep_pass_validates_7_states_and_8_stacks(tmp_path, monkeypatch):
    # the gaussian_sweep CI gates, at seed 1: the two inputs, the prefix's Gaussian record once for its QFI, each
    # of the four points' own state at its phase, and per point one stack for each sample set, homodyne's and the
    # even detectors'; each state and each stack is one covariance check
    plan = workloads.plan(str(CONFIGS.parent), "gaussian_sweep", 1, str(tmp_path))
    workloads.write_configs(plan)
    forget_routes()
    states, init = [], ga.GaussianState.__post_init__
    monkeypatch.setattr(ga.GaussianState, "__post_init__", lambda state: states.append(1) or init(state))
    checks = counter(monkeypatch, ga, "check_covariance")
    assert [cli.main(command["argv"]) for command in plan["commands"]] == [0]
    assert (len(states), len(checks)) == (7, 15)


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
    sc._routes.cache_clear()
    sc._optimal_phi(config, next(s for s in config.detection if s.label == label))
    stacks = [len(phis) for phis in imaged]
    assert (observed, stacks, reads) == (([], [5], []) if sc._route(config).gaussian is not None else ([], [], [5]))


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
    sc._routes.cache_clear()
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
    sc._routes.cache_clear()
    sc.run(sc.load_config(SUBTRACTED_THERMAL))
    assert len(integrations) == 2


@pytest.mark.parametrize("metrics, distributed", [(["phase_variance", "cfi", "snr"], 0),
                                                  (["phase_variance", "cfi", "snr", "distributions"], 1)])
def test_output_herald_run_builds_only_its_distributions(metrics, distributed, monkeypatch):
    # every metric reads the prefix, the herald's ancilla included, through the channel; the distributions take
    # each mode off it, one partial integration per mode of the herald's one projector product
    integrations = counter(monkeypatch, wg, "_integrate_out")
    raw = json.loads(Path(SUBTRACTED_THERMAL).read_text())
    sc.run(sc.ScenarioConfig.from_dict(dict(raw, metrics=metrics)))
    assert len(integrations) == 2 * distributed


def test_output_herald_drift_builds_nothing(monkeypatch):
    # 200 trials of each detector read its signal's jet, one call for all of them
    integrations = counter(monkeypatch, wg, "_integrate_out")
    report = sc.phase_drift_study(sc.load_config(SUBTRACTED_THERMAL), trials=200, seed=1)
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
    # ROADMAP heralded reference (b) on the pulled-back route: the loss on both modes is the first map of the
    # channel after the MZI, and no phi substitutes the MZI into a term
    integrations = counter(monkeypatch, wg, "_integrate_out")
    forget_routes()
    sc.evaluate_point(sc.ScenarioConfig.from_dict(workloads.point_b(1.0)))
    # the herald's projected part and the unheralded part of the prefix, whose channel holds the input squeeze;
    # the photon-number probe reads that prefix too
    assert len(integrations) == 2


def test_lossy_heralded_point_builds_one_prefix_record_the_lossless_one():
    # the uniform loss follows the MZI, so point (b) builds one prefix record for every metric and the input
    # photon number, and its lossless config reads that same record
    forget_routes()
    config = sc.ScenarioConfig.from_dict(workloads.point_b(1.0))
    sc.evaluate_point(config)
    prefix = sc._route(config).prefix
    assert sc._prefix.cache_info().misses == 1
    lossless = sc.ScenarioConfig.from_dict({k: v for k, v in workloads.point_b(1.0).items() if k != "noise"})
    assert sc._route(lossless).prefix is prefix


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


def test_subtracted_thermal_run_reads_each_projector_product_once(monkeypatch):
    # per phase set and order, each arm's herald read integrates its projector products once: the failure arm
    # takes the success arm's projected part, and `cfi`'s herald term and both modes' click jets share one herald
    # read per arm (reading each product anew took 19 density reads and 27 Wick passes)
    densities = counter(monkeypatch, wg, "kernel_densities")
    wick = counter(monkeypatch, wg, "_gaussian_expectation")
    forget_routes()
    sc.run(sc.load_config(SUBTRACTED_THERMAL))
    assert (len(densities), len(wick)) == (9, 17)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def subtracted_thermal(**updates) -> dict:
    return dict(json.loads(Path(SUBTRACTED_THERMAL).read_text()), **updates)


@pytest.mark.parametrize("raw", [
    subtracted_thermal(), subtracted_thermal(metrics=["phase_variance", "cfi", "snr"]),
    subtracted_thermal(metrics=["phase_variance"], detection=[{"scheme": "parity", "mode": 1},
                                                              {"scheme": "click", "mode": 1}]),
    workloads.point_a(1.0),
], ids=["shipped", "phase_search", "two_blurs", "point_a"])
def test_warm_route_reads_keep_a_fresh_routes_bits(raw, monkeypatch):
    # each read of a subtracted_thermal run, through the route whose stored parts serve its repeats, and again
    # through that warm route after the run, equals the same read through a new route, which integrates afresh;
    # so do those of runs that search the phase (many phase sets), read one mode through two kernels, or read each
    # mode unheralded on its own rows (point (a))
    reads, orig = [], sc._Route.read

    def recorded(route, *args):
        read = orig(route, *args)

        def replayed(*call, **kwargs):
            reads.append((args, call, kwargs, read(*call, **kwargs)))
            return reads[-1][3]

        return replayed

    monkeypatch.setattr(sc._Route, "read", recorded)
    config = sc.ScenarioConfig.from_dict(raw)
    forget_routes()
    sc.run(config)
    monkeypatch.undo()
    warm = sc._route(config)
    stored = [a for parts in warm._parts.values() for part in parts.values() for a in part]
    assert reads and stored and not any(a.flags.writeable for a in stored)
    for args, call, kwargs, got in reads:
        fresh = sc._Route(config.inputs, config.modifications, config.noise).read(*args)(*call, **kwargs)
        for read in (got, warm.read(*args)(*call, **kwargs)):
            assert all(map(same_bits, read, fresh))


def test_a_route_the_cache_has_left_is_freed():
    # a route keeps its last observation and its reads itself, so once `_route` moves on to another config nothing
    # holds the old route, nor its stored parts
    forget_routes()
    config = sc.ScenarioConfig.from_dict(workloads.point_a(1.0))
    sc._route(config).observe(config.phi)
    left = weakref.ref(sc._route(config))
    sc._route(sc.load_config(SUBTRACTED_THERMAL))
    assert left() is None


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


def test_heralded_phase_pass_builds_at_most_12_wick_schedules():
    # one schedule per monomial set: the two reference points of a `heralded_phase` pass, in a fresh interpreter,
    # build 12, ten for the numeric reads and one for each prefix's polynomial build (`wg._affine_expectation`),
    # and walk every other expectation on them
    wg._wick_plan.cache_clear()
    for raw in (workloads.point_a(1.0), workloads.point_b(1.0)):
        forget_routes()
        sc.run(sc.ScenarioConfig.from_dict(raw))
    assert wg._wick_plan.cache_info().misses <= 12


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
    state = sc._route(config).detected(config.phi, 1)
    state.norm  # read first, so that its recursions are not counted below
    assert len(state.terms) == terms
    means, orig = [], wg._gaussian_expectation
    monkeypatch.setattr(wg, "_gaussian_expectation", lambda p, mean, *args: means.append(mean) or orig(p, mean, *args))
    wg.photon_number_distribution(state)
    assert sorted(np.iscomplexobj(mean) for mean in means) == [False] * terms + [True] * terms


@pytest.mark.parametrize("m", [1, 3])
def test_counts_reads_16_contour_points_per_t(m, monkeypatch):
    # the photon-added coherent states' tail bound asks for 32 points (and n <= 16 or 19): the 19-point grid reads
    # half that circle, 16 complex widths, and the bound's real widths, each once
    config = sc.load_config(PACS_COUNTS).with_values(m=m)
    widths, orig = [], wg._single_mode_g
    monkeypatch.setattr(wg, "_single_mode_g", lambda e, s: widths.append((e.terms[0].mean.shape, s)) or orig(e, s))
    sc.simulate_counts(config, trials=3600, seed=42)
    assert [(shape, s.size, np.iscomplexobj(s)) for shape, s in widths] == [
        ((19, 2), len(wg.CONTOUR_WIDTHS), False), ((19, 2), 16, True)]


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
    # 16 monomials, and its build takes 28 products, walking only the schedule rows its output reads through
    # nonzero covariances (every row took 32)
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
    assert (len(calls), len(sizes)) == (1, 28)
    assert max(sizes) <= 16


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


def test_loss_sweep_of_a_gaussian_config_builds_one_prefix(monkeypatch):
    # the uniform loss is the first map of the channel after the MZI, so every L reads one prefix, one channel image
    calls = counter(monkeypatch, wg, "_integrate_out")
    forget_routes()
    report = sc.sweep(sc.load_config(LIGO_LOSSY), "L", [0.0, 0.1, 0.3])
    assert len(report.rows) == 3 and len(calls) == 1


@pytest.mark.parametrize("raw", [json.loads(Path(LIGO_LOSSY).read_text()), workloads.point_a(1.0),
                                 workloads.point_b(1.0)], ids=["ligo_lossy", "point_a", "point_b"])
def test_phi_sweep_builds_one_route_and_searches_each_optimum_once(raw, monkeypatch):
    # a route and each detector's optimum do not depend on the phase: a 20-point phi sweep builds one route and
    # searches each detector's optimum once (four for ligo_lossy, where each point built its own route and ran
    # four searches), and each row is the one its point gives through a route of its own
    config = sc.ScenarioConfig.from_dict(raw)
    grid = [0.3 * k for k in range(20)]
    alone = []
    for phi in grid:
        forget_routes()
        alone.append(sc.evaluate_point(config.with_values(phi=phi))[0].as_dict())
    searches = counter(monkeypatch, sc, "_least")  # one per search, the least of its minima
    forget_routes()
    report = sc.sweep(config, "phi", grid)
    assert (sc._routes.cache_info().misses, len(searches)) == (1, len(config.detection))
    assert [{k: v for k, v in row.items() if k != "index"} for row in report.rows] == alone


def test_loss_sweep_of_a_heralded_point_reads_one_prefix(monkeypatch):
    # on the Wigner path too: three L of point (b) read one prefix, its two partial integrations and its three
    # phase tangents, as one point does, and each row is the one its point gives alone
    config = sc.ScenarioConfig.from_dict(workloads.point_b(1.0))
    grid = [0.0, 0.1, 0.3]
    alone = []
    for value in grid:
        forget_routes()
        alone.append(sc.evaluate_point(config.with_values(L=value))[0].as_dict())
    calls = [counter(monkeypatch, wg, name) for name in ("_integrate_out", "phase_tangent")]
    forget_routes()
    report = sc.sweep(config, "L", grid)
    assert [len(c) for c in calls] == [2, 3]
    assert [{k: v for k, v in row.items() if k not in ("index", "L")} for row in report.rows] == alone


@pytest.mark.parametrize("raw", [*(json.loads((CONFIGS / name).read_text()) for name in SHIPPED),
                                 workloads.point_a(1.0), workloads.point_b(1.0)],
                         ids=[*(name.removesuffix(".json") for name in SHIPPED), "point_a", "point_b"])
def test_run_builds_one_channel_after_the_mzi(raw, monkeypatch):
    # every reader of a config takes the channel from its route
    channels = counter(monkeypatch, sc, "_after_mzi")
    sc._routes.cache_clear()
    sc.run(sc.ScenarioConfig.from_dict(raw))
    assert len(channels) == 1


def test_counts_builds_one_channel_after_the_mzi(monkeypatch):
    # the whole T grid is one stack of channels
    channels = counter(monkeypatch, sc, "_after_mzi")
    sc.simulate_counts(sc.load_config(PACS_COUNTS), trials=100, seed=1)
    assert len(channels) == 1


def test_every_name_the_benchmark_tracer_patches_exists():
    # perfbench/tracer.py reads these from src/ by name (`cls.__dict__[meth]` for a method): one that is gone
    # raises KeyError in every traced pass and in the CI counter step, while the rest of Tier-1 passes
    modules = {name: importlib.import_module(f"wignersim.{name}") for name in tracer.MODULES}
    for module, cls in tracer.CLASS_SPANS:
        assert "__post_init__" in vars(getattr(modules[module], cls)), f"{module}.{cls}.__post_init__"
    assert "__post_init__" in vars(wg.Term)
    assert list(inspect.signature(vars(wg.WignerExpr)["__init__"]).parameters) == ["self", "modes", "terms"]
    for module, names in tracer.PRIVATE.items():
        for name in names:
            assert isinstance(vars(modules[module]).get(name), types.FunctionType), f"{module}.{name}"
