"""Deterministic work counters of the shared primitives and of one scenario point."""

import json
from pathlib import Path

import pytest

import workloads
from wignersim import conditional as cond
from wignersim import estimation as est
from wignersim import gaussian as ga
from wignersim import measurements as meas
from wignersim import scenario as sc
from wignersim import symplectic as sym
from wignersim import wigner as wg

LIGO_LOSSY = str(Path(__file__).resolve().parent.parent / "configs" / "ligo_lossy.json")


def two_mode_gaussian() -> ga.GaussianState:
    state = ga.tensor([ga.coherent_state(1.0, 0.2), ga.squeezed_vacuum(0.4, 0.0)])
    return ga.propagate(state, sym.make_mzi(0.7))


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
    state = two_mode_gaussian()
    state = wg.from_gaussian(state) if as_expr else state
    meas.intensity_difference(state, 1, 2)
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
    expr = wg.apply_symplectic(expr, sym.make_beam_splitter(0.3))
    assert calls == []
    assert abs(expr.norm - 1.0) < 1e-12
    assert len(calls) == len(expr.terms)
    expr.norm
    assert len(calls) == len(expr.terms)


def counter(monkeypatch, module, name: str) -> list:
    calls = []
    orig = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_pipeline_builds_per_ligo_lossy_point(monkeypatch):
    # pinned so that a change in build count shows up as a diff of this number
    calls = []
    orig = sc.build_pipeline

    def counted(config, phi=None):
        calls.append(phi)
        return orig(config, phi)

    monkeypatch.setattr(sc, "build_pipeline", counted)
    config = sc.load_config(LIGO_LOSSY)
    sc.evaluate_point(config)
    assert len(calls) == 0


@pytest.fixture
def observed(monkeypatch) -> list:
    """The phases at which the scenario observes a state through `_observer`."""
    seen = []
    orig = sc._observer

    def observer(config):
        observe = orig(config)

        def counted(phi):
            seen.append(phi)
            return observe(phi)

        return counted

    monkeypatch.setattr(sc, "_observer", observer)
    return seen


def test_gaussian_qfi_observes_one_state(observed):
    # the exact tangent comes from A' = K M'(phi), so no neighbouring phase is observed
    config = sc.load_config(LIGO_LOSSY)
    sc._qfi(config, config.phi)
    assert observed == [config.phi]


@pytest.mark.parametrize("config, label", [
    (LIGO_LOSSY, "intensity[1]"), (LIGO_LOSSY, "homodyne[1,0]"), (LIGO_LOSSY, "diff[1,2]"),
    (workloads.point_a(1.0), "intensity[1]"), (workloads.point_b(1.0), "diff[1,2]"),
])
def test_polynomial_optimum_reads_five_phases(config, label, observed, monkeypatch):
    # <O> and <O^2> are trigonometric polynomials in phi, fixed by five equispaced samples
    golden = counter(monkeypatch, est, "golden_minimize")
    config = sc.load_config(config) if isinstance(config, str) else sc.ScenarioConfig.from_dict(config)
    sc._optimal_phi(config, next(s for s in config.detection if s.label == label))
    assert (len(golden), len(observed)) == (0, 5)


@pytest.mark.parametrize("study", ["point", "drift"])
def test_ligo_lossy_fixed_phases_read_the_optimum_signal(study, observed):
    # the fixed-phase values of a point, and 50 drift trials, read each detector's signal: they observe no
    # phase beyond the optimum's samples (and the point's own state at its phase)
    config = sc.load_config(LIGO_LOSSY)
    for scheme in config.detection:
        sc._optimal_phi(config, scheme)
    optimum = list(observed)
    observed.clear()
    if study == "point":
        sc.evaluate_point(sc.ScenarioConfig.from_dict(dict(config.raw, metrics=["phase_variance"])))
        assert observed == [config.phi] + optimum
    else:
        sc.phase_drift_study(config, trials=50, seed=1)
        assert observed == optimum
    assert len(optimum) == 16  # five samples for each polynomial detector, one for the parity minimum


def test_parity_optimum_keeps_the_golden_section_search(monkeypatch):
    # on a Wigner state: one search from the parity seed and one from each of the two best of 25 scanned phases
    golden = counter(monkeypatch, est, "golden_minimize")
    config = sc.ScenarioConfig.from_dict(workloads.point_a(1.0))
    sc._optimal_phi(config, meas.DetectionScheme("parity", 1))
    assert len(golden) == 3


@pytest.mark.parametrize("kind", ["parity", "click"])
def test_gaussian_kernel_optimum_observes_only_its_minimum(kind, observed, monkeypatch):
    # one batched grid of the kernel jet and its refinements find the minimum; only that phase is observed
    golden = counter(monkeypatch, est, "golden_minimize")
    config = sc.load_config(LIGO_LOSSY)
    phi, _, _ = sc._optimal_phi(config, meas.DetectionScheme(kind, 1))
    assert (len(golden), observed) == (0, [phi])


def test_ligo_lossy_point_makes_no_per_phi_transform(monkeypatch):
    # each phi is the cached prefix through a plain-matrix channel; the input squeezer and its
    # embedding, both in the prefix, are the point's only transforms
    calls = counter(monkeypatch, sym.SymplecticTransform, "__post_init__")
    sc._prefix.cache_clear()
    sc.evaluate_point(sc.load_config(LIGO_LOSSY))
    assert len(calls) == 2


def test_ligo_lossy_point_runs_no_wick_recursion(monkeypatch):
    # every detector moment and slope of a Gaussian point is a closed form in (R, sigma)
    calls = counter(monkeypatch, wg, "_gaussian_expectation")
    sc.evaluate_point(sc.load_config(LIGO_LOSSY))
    assert calls == []


def test_lossy_heralded_point_applies_uniform_loss_once(monkeypatch):
    # ROADMAP heralded reference (b) on the pulled-back route: the loss on both modes sits in the cached
    # prefix, and no phi builds a pipeline or substitutes the MZI into a term
    counts = {name: counter(monkeypatch, module, name) for module, name in (
        (wg, "attenuate"), (sc, "build_pipeline"), (cond, "_herald"), (wg, "apply_symplectic"), (wg, "moment_tensor"))}
    sc._prefix.cache_clear()
    sc._prefix_moments.cache_clear()
    sc.evaluate_point(sc.ScenarioConfig.from_dict(workloads.point_b(1.0)))
    # apply_symplectic: the input squeeze on both arms and the 4 attenuations, all in the prefix
    # moment_tensor: both arms of the lossy prefix and of the lossless one (the photon-number probe)
    assert {name: len(calls) for name, calls in counts.items()} == {
        "attenuate": 4, "build_pipeline": 0, "_herald": 1, "apply_symplectic": 6, "moment_tensor": 4}


@pytest.mark.parametrize("config, m, terms", [("pacs_counts.json", 3, 1), ("subtracted_thermal.json", "click", 2)])
def test_photon_number_distribution_runs_one_wick_recursion_per_term(config, m, terms, monkeypatch):
    # all contour points of a term share one recursion
    raw = json.loads((Path(__file__).resolve().parent.parent / "configs" / config).read_text())
    raw["modifications"][0]["m"] = m
    state = sc.build_pipeline(sc.ScenarioConfig.from_dict(raw)).state
    state.norm  # read first, so that its recursions are not counted below
    assert len(wg.marginal_mode(state.normalize(), 1).terms) == terms
    calls = counter(monkeypatch, wg, "_gaussian_expectation")
    wg.photon_number_distribution(state, 1)
    assert len(calls) == terms


def test_counted_m3_state_is_one_mode(monkeypatch):
    # `counts` heralds the counted mode alone, the other arm traced out: the m = 3 photon-added coherent
    # state is one mode of 16 monomials, where the two-mode pipeline gives 110 over four variables
    raw = json.loads((Path(__file__).resolve().parent.parent / "configs" / "pacs_counts.json").read_text())
    raw["modifications"][0]["m"] = 3
    builds = counter(monkeypatch, sc, "build_pipeline")
    state = sc._counted(sc.ScenarioConfig.from_dict(raw), 1, {}).state
    assert state.modes == 1
    assert max(len(t.poly) for t in state.terms) <= 28
    assert builds == []
