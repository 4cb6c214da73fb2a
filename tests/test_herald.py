"""The single herald primitive: one read of the signal and its ancilla through the mix, against the detector's
projector (`wg.AffineImage.state` with `wg.projector`), the build every stage of a scenario makes.

Both arms of a herald read the same ancilla output, the failure arm through
the complement of the success arm's projector, so together they reassemble
the signal state with the ancilla traced out: p_s W_s + p_f W_f =
Tr_anc[U (W (x) W_anc) U^dagger].  The mixing is never substituted into the
joint state: each arm conditions the joint's Gaussians through the mix, and
agrees with the substituted route and with the one-herald referee.
"""

import math

import numpy as np
import pytest

import reference as ref
from wignersim import gaussian as ga
from wignersim import scenario as sc
from wignersim import symplectic as sym
from wignersim import wigner as wg
from wignersim.errors import ImprobableBranch
from wignersim.wigner import Term, WignerExpr, overlap


def signal() -> WignerExpr:
    """Two-mode signal: coherent on mode 1, thermal on mode 2."""
    return wg.tensor_exprs(
        wg.from_gaussian(ga.coherent_state(1.0, 0.3)), wg.from_gaussian(ga.thermal_state(0.5))
    )


def vacuum() -> WignerExpr:
    return wg.from_gaussian(ga.vacuum_state(1))


def read(expr: WignerExpr, coupling: sym.SymplecticTransform, ancilla: int, n: int, complement: bool) -> tuple:
    """(state, probability) of one arm of a herald on mode 1: the signal and its ancilla in Fock `ancilla` (input 1
    of `coupling`) read through the coupling against the projector on Fock n, or its complement."""
    joint = wg.tensor_exprs(expr, wg.fock_wigner(ancilla))
    mix = sym.embed(coupling, [joint.modes, 1], joint.modes).matrix
    herald = wg.projector(joint.nvars - 2, n, complement)
    state = wg.AffineImage(joint, mix, np.zeros(len(mix)), np.zeros_like(mix)).state(range(1, expr.modes + 1), herald)
    return wg._herald_branch(state, state.norm / joint.norm)


def branches(coupling: sym.SymplecticTransform, ancilla: int, n: int, click: bool = False):
    """expr -> (success, failure) of a herald on mode 1, each (state, probability), from `read`."""
    return lambda e: tuple(read(e, coupling, ancilla, n, c) for c in (click, not click))


def splitter(T: float) -> sym.SymplecticTransform:
    return sym.SymplecticTransform(sym.beam_splitter_matrix(T))


# name -> ((success, failure) from `read`, its coupling, its ancilla); the herald acts on mode 1
MECHANISMS = {
    "bs_add": (branches(splitter(0.85), 2, 0), splitter(0.85), lambda: wg.fock_wigner(2)),
    "spdc_add": (branches(sym.make_two_mode_squeezer(0.3, 0.2), 0, 1), sym.make_two_mode_squeezer(0.3, 0.2), vacuum),
    "fock_subtract": (branches(splitter(0.8), 0, 2), splitter(0.8), vacuum),
    "click_subtract": (branches(splitter(0.8), 0, 0, True), splitter(0.8), vacuum),
}


@pytest.fixture
def counts(monkeypatch):
    """Count the partial integrations, wherever `_integrate_out` is bound, and the moment recursions."""
    seen = {"_integrate_out": 0, "_affine_expectation": 0}
    for name in seen:
        orig = getattr(wg, name)

        def counted(*args, _orig=orig, _name=name, **kwargs):
            seen[_name] += 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(wg, name, counted)
    return seen


@pytest.mark.parametrize("name", sorted(MECHANISMS))
def test_one_mixing_and_one_projection(name, counts):
    # each signed product of an arm's projectors conditions the joint state through the mix once, one moment
    # recursion per term: 2 pi F_n for one arm, 1 and -2 pi F_n for the other; nothing is substituted
    success, failure = MECHANISMS[name][0](signal())
    terms = 1 if name != "bs_add" else len(wg.fock_wigner(2).terms)
    assert counts == {"_integrate_out": 3, "_affine_expectation": 3 * terms}
    assert abs(success[1] + failure[1] - 1.0) < 1e-12


def two_term_signal() -> WignerExpr:
    """Non-Gaussian two-mode signal of two terms: Fock(1) x coherent, and displaced squeezed x thermal."""
    fock = wg.tensor_exprs(wg.fock_wigner(1), wg.from_gaussian(ga.coherent_state(0.7, 0.3)))
    squeezed = ga.propagate(ga.vacuum_state(), sym.make_squeezer(0.4, 0.5))
    squeezed = ga.propagate(squeezed, sym.make_displacement(0.8, 1.1))
    gauss = wg.tensor_exprs(wg.from_gaussian(squeezed), wg.from_gaussian(ga.thermal_state(0.5)))
    return WignerExpr(2, _scaled(fock, 0.6) + _scaled(gauss, 0.4))


# name -> (coupling, ancilla, projector order); the herald acts on mode 1 through ancilla mode 3
ROUTES = {
    "bs_add_m1": (splitter(0.85), lambda: wg.fock_wigner(1), 0),
    "bs_add_m3": (splitter(0.85), lambda: wg.fock_wigner(3), 0),
    "fock_subtract_m1": (splitter(0.8), vacuum, 1),
    "fock_subtract_m2": (splitter(0.8), vacuum, 2),
    "click_subtract": (splitter(0.8), vacuum, 0),
    "spdc_add": (sym.make_two_mode_squeezer(0.3, 0.2), vacuum, 1),
}


@pytest.mark.parametrize("project", [True, False], ids=["projection", "trace"])
@pytest.mark.parametrize("name", sorted(ROUTES))
def test_conditioning_matches_the_substituted_route(name, project):
    # integrating the ancilla out through the mix equals substituting the mix first and integrating after
    coupling, ancilla, n = ROUTES[name]
    joint = wg.tensor_exprs(two_term_signal(), ancilla())
    mix, anc, projectors = sym.embed(coupling, [3, 1], 3), [4, 5], ((4, n),) if project else ()
    fused = wg._integrate_out(joint, anc, ref.channel(mix), projectors)
    substituted = wg._integrate_out(ref.apply_symplectic(joint, mix), anc, projectors=projectors)
    assert fused.modes == substituted.modes == 2
    assert abs(fused.norm - substituted.norm) <= 1e-13 * abs(substituted.norm)
    points = np.random.default_rng(7).normal(scale=0.7, size=(20, 4))
    got = np.array([ref.evaluate(fused, x) for x in points])
    want = np.array([ref.evaluate(substituted, x) for x in points])
    # a projected state changes sign, so each point is compared on the scale of the largest value
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _scaled(expr: WignerExpr, s: float) -> list[Term]:
    return [Term(t.weight * s, t.poly, t.mean, t.quad) for t in expr.terms]


def _collect(expr: WignerExpr) -> WignerExpr:
    """Merge the terms that share a Gaussian, so a difference of equal sums cancels term by term."""
    groups: dict = {}
    for t in expr.terms:
        mean, quad, poly = groups.setdefault((t.mean.tobytes(), t.quad.tobytes()), (t.mean, t.quad, {}))
        for e, c in t.poly.items():
            poly[e] = poly.get(e, 0.0) + t.weight * c
    return WignerExpr(expr.modes, [Term(1.0, poly, mean, quad) for mean, quad, poly in groups.values()])


@pytest.mark.parametrize("name", sorted(MECHANISMS))
def test_branches_reassemble_the_traced_state(name):
    branches, coupling, ancilla = MECHANISMS[name]
    expr = signal()
    (success, p_s), (failure, p_f) = branches(expr)
    mixed = ref.apply_symplectic(wg.tensor_exprs(expr, ancilla()), sym.embed(coupling, [3, 1], 3))
    traced = wg._integrate_out(mixed, [4, 5]).normalize()
    assert abs(p_s + p_f - 1.0) < 1e-12
    parts = _scaled(success, p_s) + _scaled(failure, p_f)
    diff = _collect(WignerExpr(2, parts + _scaled(traced, -1.0)))
    rel_l2 = math.sqrt(abs(overlap(diff, diff)) / overlap(traced, traced))
    assert rel_l2 <= 1e-12


@pytest.mark.parametrize(
    "single, pair, index",
    [
        (lambda e: read(e, splitter(0.85), 2, 0, False), lambda e: ref.herald(e, 1, ("BS", 0.85), 2, 0), 0),
        (lambda e: read(e, sym.make_two_mode_squeezer(0.3, 0.2), 0, 1, False),
         lambda e: ref.herald(e, 1, ("SPDC", 0.3, 0.2), 0, 1), 0),
        (lambda e: read(e, splitter(0.8), 0, 2, False), lambda e: ref.herald(e, 1, ("BS", 0.8), 0, 2), 0),
        (lambda e: read(e, splitter(0.8), 0, 2, True), lambda e: ref.herald(e, 1, ("BS", 0.8), 0, 2), 1),
        (lambda e: read(e, splitter(0.8), 0, 0, True), lambda e: ref.herald(e, 1, ("BS", 0.8), 0, 0, True), 0),
    ],
)
def test_single_branch_entries_match_the_pair(single, pair, index):
    # each arm of the one read, the complement of a Fock herald included, is that arm of the one-herald referee
    (state, p), (want, p_want) = single(signal()), pair(signal())[index]
    assert p == pytest.approx(p_want, rel=1e-13)
    monomials = [{0: 2}, {1: 2}, {0: 1, 2: 1}, {0: 4}, {1: 2, 3: 2}]
    assert wg.moments(state, monomials) == pytest.approx(wg.moments(want, monomials), rel=1e-12, abs=1e-14)


def test_single_branch_ignores_an_improbable_complement():
    # a one-photon Fock state fully reflected onto the herald: exactly one photon is certain
    one = wg.fock_wigner(1)
    s = read(one, splitter(0.0), 0, 1, False)
    assert s[1] == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ImprobableBranch):
        read(one, splitter(0.0), 0, 1, True)
    assert ref.herald(one, 1, ("BS", 0.0), 0, 1)[1] is None
    # and a vacuum signal never clicks, while its no-click branch is certain
    with pytest.raises(ImprobableBranch):
        read(vacuum(), splitter(0.5), 0, 0, True)
    assert read(vacuum(), splitter(0.5), 0, 0, False)[1] == pytest.approx(1.0, abs=1e-12)


def herald_spec(**fields):
    return lambda: sc.ModificationSpec.from_dict(fields, "modifications.0")


@pytest.mark.parametrize(
    "call",
    [
        herald_spec(op="add", mode=3, m=1, T=0.9),
        herald_spec(op="add", mode=1, m=sc.M_CUTOFF + 1, T=0.9),
        herald_spec(op="add", mode=1, m=1, T=1.5),
        herald_spec(op="add", mode=1, m=1, mechanism="spdc", r=-0.1),
        herald_spec(op="add", mode=1, m=sc.M_CUTOFF + 1, mechanism="spdc", r=0.3),
        herald_spec(op="subtract", mode=0, m=1, T=0.9),
        herald_spec(op="subtract", mode=1, m="click", T=-0.1),
    ],
)
def test_every_entry_validates_its_arguments(call):
    # a herald's mode, photon number, transmissivity and squeezing are validated where a config gives them
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize(
    "var_indices, f, fock",
    [
        ([0, 1], None, -1),
        ([0, 1], None, wg.FOCK_CUTOFF + 1),
        ([1, 2], None, 0),  # p of mode 1 and x of mode 2
        ([0], None, 0),  # a projector on a variable that is kept
        ([0, 1], ref.channel(sym.SymplecticTransform(sym.beam_splitter_matrix(0.5))), None),  # a two-mode map on a three-mode state
    ],
)
def test_integrate_out_validates_its_arguments(var_indices, f, fock):
    # the projector, if any, acts on the variables from the first one integrated out
    joint = wg.tensor_exprs(signal(), vacuum())
    with pytest.raises(ValueError):
        wg._integrate_out(joint, var_indices, f, () if fock is None else ((var_indices[0], fock),))


@pytest.mark.parametrize("ancilla, n, click", [(2, 0, False), (0, 1, False), (0, 0, True)])
def test_a_vector_of_T_heralds_each_point_as_one_T_does(ancilla, n, click):
    # both branches through a stack of beam splitters, as `counts` reads its grid: the projection and the
    # trace each integrate the ancilla out once, and each grid point reads as the herald at that T alone
    grid = (0.2, 0.55, 0.9)
    joint = wg.tensor_exprs(signal(), wg.fock_wigner(ancilla))
    mix = np.broadcast_to(np.eye(6), (3, 6, 6)).copy()
    mix[(..., *np.ix_([4, 5, 0, 1], [4, 5, 0, 1]))] = sym.beam_splitter_matrix(grid)  # the ancilla is input 1
    channel = (mix, np.zeros(6), np.zeros((6, 6)))
    projected = wg._integrate_out(joint, [4, 5], channel, ((4, n),))
    complement = WignerExpr(2, wg._integrate_out(joint, [4, 5], channel).terms + _scaled(projected, -1.0))
    stacked = [wg._herald_branch(e, e.norm) for e in ((complement, projected) if click else (projected, complement))]
    want = [ref.herald(signal(), 1, ("BS", t), ancilla, n, click) for t in grid]
    monomials = [{0: 2}, {1: 2}, {0: 1, 2: 1}, {0: 4}]
    for b, (state, probability) in enumerate(stacked):
        assert state.modes == 2 and all(t.mean.shape == (3, 4) for t in state.terms)
        got = wg.moments(state, monomials)
        dist = wg.photon_number_distribution(ref.marginal_mode(state, 1))
        for i, (point, p) in enumerate(w[b] for w in want):
            assert probability[i] == pytest.approx(p, rel=1e-12)
            assert [g[i] for g in got] == pytest.approx(wg.moments(point, monomials), rel=1e-12, abs=1e-14)
            p_want = wg.photon_number_distribution(ref.marginal_mode(point, 1)).probs
            assert ref.distribution_gap(dist.probs[i], p_want) <= 1e-14
            assert wg.moments(state.take([i]), monomials) == pytest.approx([g[i] for g in got], rel=1e-15)
