"""Test-side references: the memoized Gaussian moment recursion, the stage-by-stage prefix and forward build,
central differences, golden section, per-root Newton steps, independent-detector CFIs, per-T counts, a
long-contour P(n).

The engine builds no state at a phase, substitutes no map into a term and
takes no finite difference; the tests check its channel reads, exact phase
signals, jets and Fisher informations against these, the way `fock_oracle.py`
checks its phase-space integrals against a truncated Fock lattice.  `prefix`
applies the input stage one modification at a time, each map substituted into
the terms (`apply_symplectic`) and each herald conditioned alone (`herald`),
and `build_pipeline` builds the state at one phase, stage by stage, into the
referee's own record (`PipelineResult`).  `counts` reads its whole T grid at
once; `counts_rows` builds and heralds it one T at a time.
`photon_number_distribution` reads the whole contour circle at a fixed
length.  `gaussian_expectation` walks the Wick recursion's tree on every call,
memoized per call: the referee of the engine's cached schedule (`wg._wick_plan`).
`circle_roots` polishes the roots of a phase signal's polynomial one at a time:
the referee of the engine's batched Newton steps (`est._circle_roots`).
`moment_tensor` reads every moment of degree <= 4 of an expression at once.
`evaluate` gives an expression's value at a point, `parity` and
`click_probability` a detector's statistics from the Gaussian overlap formulas
or a mode's marginal, and `measure` any detector's at one state, a Gaussian
state's polynomial moments in closed form for it alone (`intensity`,
`homodyne`, `intensity_difference`): the referee of the stacked closed forms.
`gaussian_at` forms a Gaussian route's state at one phase alone, the referee of
its stacked image; `observed` gives a route's arms at one phase in a form the
referees measure, a Wigner arm read through the route (`ArmRead`);
`marginal_mode` integrates every other mode out; `mzi_product` the MZI as the
product of its elements, the referee of `sym.mzi_matrix`.  `inject_thermal` mixes a
Gaussian mode with a thermal ancilla on a beam splitter: the referees of the
engine's kernel reads and its attenuation channel (`attenuated`, `lossy`).
Nothing here is imported by `wignersim`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields, replace
from functools import lru_cache, partial
from typing import Any, Callable, Sequence, Union

import numpy as np

from wignersim import estimation as est
from wignersim import gaussian as ga
from wignersim import measurements as meas
from wignersim import scenario as sc
from wignersim import symplectic as sym
from wignersim import wigner as wg
from wignersim.errors import DegenerateBranch, ImprobableBranch, SignalStationary
from wignersim.estimation import SLOPE_FLOOR, SLOPE_NOISE
from wignersim.wigner import Term, WignerExpr, _const_poly, _poly_add, _poly_mul, _poly_prune, _poly_scale, overlap

DEFAULT_STEP = 1e-5


def gaussian_expectation(poly: dict, mean: np.ndarray, cov: np.ndarray, shifts: list | None = None):
    """E[poly(X)] for X ~ N(mean, cov) (or a batch along trailing axes), by the memoized moment recursion; with
    `shifts`, the list of E[poly(X) X^e] for each exponent tuple e."""
    memo: dict[tuple, complex] = {}

    def mom(e: tuple):
        if e in memo:
            return memo[e]
        i = next((k for k, v in enumerate(e) if v), -1)
        if i < 0:
            return 1.0
        e1 = list(e)
        e1[i] -= 1
        e1t = tuple(e1)
        val = mean[i] * mom(e1t)
        for j, ej in enumerate(e1t):
            if ej:
                e2 = list(e1t)
                e2[j] -= 1
                val += cov[i, j] * ej * mom(tuple(e2))
        memo[e] = val
        return val

    return sum(c * mom(e) for e, c in poly.items()) if shifts is None else [
        sum(c * mom(tuple(a + b for a, b in zip(ea, e))) for ea, c in poly.items()) for e in shifts]


def moment_tensor(expr: WignerExpr) -> np.ndarray:
    """Every moment of degree <= 4 of the expression, as the symmetric tensor E[Y'^(x)4] over Y' = (1, Y), from one
    `wg.moments` read: entry (i, j, k, l) holds the monomial with one power of Y_{v-1} for each index v > 0."""
    n = expr.nvars
    entries = [tuple(idx.count(v + 1) for v in range(n)) for idx in itertools.product(range(n + 1), repeat=4)]
    monomials = list(dict.fromkeys(entries))
    values = dict(zip(monomials, wg.moments(expr, monomials)))
    return np.array([values[e] for e in entries]).reshape((n + 1,) * 4)


def evaluate(expr: WignerExpr, x) -> float:
    """The expression's value at the phase-space point x: the sum of w P(x) exp(-(x - m)^T quad^-1 (x - m))."""
    x = np.asarray(x, dtype=float)
    if x.size != expr.nvars:
        raise ValueError(f"point has {x.size} coordinates, expected {expr.nvars}")
    total = 0.0
    for t in expr.terms:
        d = x - t.mean
        poly = sum(c * np.prod([xx**e for xx, e in zip(x, ee) if e]) for ee, c in t.poly.items())
        total += t.weight * poly * math.exp(-float(d @ np.linalg.inv(t.quad) @ d))
    return float(total)


def _overlap(mu: np.ndarray, k: np.ndarray) -> float:
    """exp(-mu^T k^-1 mu) / sqrt(det k): with k a mode's covariance sigma the parity, with k = sigma + I half the
    no-click probability (the vacuum overlap)."""
    det = k[0, 0] * k[1, 1] - k[0, 1] * k[1, 0]
    kinv = np.array([[k[1, 1], -k[0, 1]], [-k[1, 0], k[0, 0]]]) / det
    return math.exp(-float(mu @ kinv @ mu)) / math.sqrt(det)


def _block(state: ga.GaussianState, mode: int) -> tuple:
    i = 2 * (mode - 1)
    return state.mean[i : i + 2], state.cov[i : i + 2, i : i + 2]


def marginal_mode(expr: WignerExpr, mode: int) -> WignerExpr:
    """The state of one mode of an expression, every other variable integrated out (`wg._integrate_out`)."""
    if expr.modes == 1:
        return expr
    return wg._integrate_out(expr, [i for i in range(expr.nvars) if i // 2 != mode - 1])


@dataclass(frozen=True)
class ArmRead:
    """One Wigner arm of a route at a phase, read as the engine reads it (`sc._Route.read`, the arm's `read`):
    its moments, and the density of a Gaussian kernel on one mode, each over the arm's herald probability, the one
    `sc._Route.observe` gives."""

    read: Callable
    phi: float
    probability: float
    modes: int = 2

    def moments(self, monomials: list) -> list[float]:
        return [float(v[0, 0]) / self.probability for v in self.read(np.array([self.phi]), monomials=monomials)[0]]

    def density(self, mode: int, blur: np.ndarray) -> float:
        """Density at the origin of X_mode + eta, eta ~ N(0, blur) independent."""
        read = self.read(np.array([self.phi]), [2 * mode - 2, 2 * mode - 1], blur)[0]
        return float(read[0, 0]) / self.probability


def observed(config, phi: float) -> tuple:
    """`sc._Route.observe`'s (p, arms), each Wigner arm, given there as its herald probability, as its `ArmRead`
    for the referees to measure."""
    route = sc._route(config)
    p, arms = route.observe(phi)
    if route.gaussian is not None:
        return p, arms
    tracked = [(i, herald) for i, herald in route.arms if i < len(route.prefix.arms[1])]
    return p, tuple(ArmRead(route.read(i, 0, herald), phi, q) for (i, herald), q in zip(tracked, arms))


def parity(state, mode: int = 1) -> meas.MeasurementMoments:
    """Photon-number parity of one mode, pi W(0, 0) of its marginal: a Gaussian overlap on a GaussianState."""
    if isinstance(state, ga.GaussianState):
        mean = _overlap(*_block(state, mode))
    elif isinstance(state, ArmRead):
        mean = math.pi * state.density(mode, np.zeros((2, 2)))
    else:
        mean = math.pi * evaluate(marginal_mode(state, mode), (0.0, 0.0))
    return meas.MeasurementMoments(mean, 1.0)


def click_probability(state, mode: int = 1) -> float:
    """Probability that the mode's detector sees one or more photons: 1 minus the vacuum overlap of a
    GaussianState, or minus the vacuum projector 2 pi W_0 (2 pi times the N(0, I/2) density) on the mode."""
    if isinstance(state, ga.GaussianState):
        mu, sigma = _block(state, mode)
        p0 = 2.0 * _overlap(mu, sigma + np.eye(2))
    elif isinstance(state, ArmRead):
        p0 = 2.0 * math.pi * state.density(mode, 0.5 * np.eye(2))
    else:
        p0 = wg._integrate_out(marginal_mode(state.normalize(), mode), [0, 1], projectors=((0, 0),)).norm
    return min(max(1.0 - p0, 0.0), 1.0)


def check_mode(state, mode: int) -> None:
    if not 1 <= mode <= state.modes:
        raise ValueError(f"mode {mode} out of range 1..{state.modes}")


def reader(state) -> Callable:
    """The moments callable of a WignerExpr, or of any state with a `moments` method (an `ArmRead`)."""
    return partial(wg.moments, state) if isinstance(state, WignerExpr) else state.moments


def _square_moments(state: ga.GaussianState, idx: list[int]) -> np.ndarray:
    """E[X_i^2 X_j^2] over the quadratures idx of one Gaussian state, by Isserlis with covariance C = sigma / 2."""
    mu = state.mean[idx]
    c = state.cov[np.ix_(idx, idx)] / 2.0
    square = np.diag(c) + mu * mu  # E[X_i^2]
    return np.outer(square, square) + 2.0 * c * (c + 2.0 * np.outer(mu, mu))


def intensity(state, mode: int = 1) -> meas.MeasurementMoments:
    """`meas.intensity`, with a GaussianState's closed form taken for that state alone."""
    if not isinstance(state, ga.GaussianState):
        check_mode(state, mode)
        return meas.polynomial_moments(meas.DetectionScheme("intensity", mode), reader(state))
    i = 2 * (mode - 1)
    mean, s2 = ga.mean_photon(state.mean, state.cov, mode), float(_square_moments(state, [i, i + 1]).sum())
    return meas.MeasurementMoments(mean, 0.25 * s2 - mean - 0.5)


def homodyne(state, mode: int = 1, angle: float = 0.0) -> meas.MeasurementMoments:
    """Quadrature x cos(angle) + p sin(angle) of one state; already symmetrically ordered."""
    check_mode(state, mode)
    if not isinstance(state, ga.GaussianState):
        return meas.polynomial_moments(meas.DetectionScheme("homodyne", mode, angle=angle), reader(state))
    i = 2 * (mode - 1)
    c, s = math.cos(angle), math.sin(angle)
    mean = c * state.mean[i] + s * state.mean[i + 1]
    u = np.array([c, s])
    var = float(u @ state.cov[i : i + 2, i : i + 2] @ u) / 2.0
    return meas.MeasurementMoments(mean, var + mean**2)


def intensity_difference(state, mode_a: int, mode_b: int) -> meas.MeasurementMoments:
    """Moments of n_a - n_b of one state."""
    if mode_a == mode_b:
        raise ValueError("intensity difference requires two distinct modes")
    check_mode(state, mode_a)
    check_mode(state, mode_b)
    if not isinstance(state, ga.GaussianState):
        return meas.polynomial_moments(meas.DetectionScheme("intensity_difference", mode_a, mode_b),
                                       reader(state))
    ia, ib = 2 * (mode_a - 1), 2 * (mode_b - 1)
    w = np.array([1.0, 1.0, -1.0, -1.0])
    s2 = float(w @ _square_moments(state, [ia, ia + 1, ib, ib + 1]) @ w)
    n = ga.mean_photon(state.mean, state.cov, mode_a) - ga.mean_photon(state.mean, state.cov, mode_b)
    return meas.MeasurementMoments(n, 0.25 * s2 - 0.5)


def measure(state, scheme: meas.DetectionScheme) -> meas.MeasurementMoments:
    """The moments of any detector at one state: the per-phase referee of the engine's stacked Gaussian closed
    forms (`meas.gaussian_moments`) and batched reads.  Parity's moments, and the Bernoulli moments of the click
    indicator, come from `parity` and `click_probability`."""
    if scheme.kind == "parity":
        return parity(state, scheme.mode)
    if scheme.kind == "click":
        p = click_probability(state, scheme.mode)
        return meas.MeasurementMoments(p, p)
    if scheme.kind == "intensity":
        return intensity(state, scheme.mode)
    if scheme.kind == "homodyne":
        return homodyne(state, scheme.mode, scheme.angle)
    return intensity_difference(state, scheme.mode, scheme.mode_b)


def gaussian_at(route: sc._Route, phi: float) -> ga.GaussianState:
    """A Gaussian route's state at one phase, formed for that phase alone from the route's channel (K, b, C) and
    Gaussian term (R0, sigma0): the per-phase referee of the route's stacked image (`sc._Route.image`).

    A = K M(phi) = a_c cos(phi/2) + a_s sin(phi/2) with a_c = K M(0) and a_s = 2 K M'(0), so A R0 + b is
    b + a_c R0 cos(phi/2) + a_s R0 sin(phi/2), and A sigma0 A^T + 2C, from cos^2 = (1 + cos phi)/2,
    sin^2 = (1 - cos phi)/2 and cos sin = sin(phi)/2 of phi/2, is S0 + S1 cos phi + S2 sin phi with
    S0 = (s_cc + s_ss)/2 + 2C, S1 = (s_cc - s_ss)/2 and S2 = (s_cs + s_cs^T)/2, s_uv = a_u sigma0 a_v^T; S0 and S1
    are symmetrized.
    """
    (k, b, c), term = route.channel, route.gaussian
    a_c, a_s = k @ sym.mzi_matrix(0.0), 2.0 * (k @ sym.mzi_phase_derivative(0.0))
    s_cc, s_cs, s_ss = a_c @ term.quad @ a_c.T, a_c @ term.quad @ a_s.T, a_s @ term.quad @ a_s.T
    s_0, s_1 = (s_cc + s_ss) / 2.0 + 2.0 * c, (s_cc - s_ss) / 2.0
    mean = b + (a_c @ term.mean) * np.cos(phi / 2.0) + (a_s @ term.mean) * np.sin(phi / 2.0)
    cov = (s_0 + s_0.T) / 2.0 + (s_1 + s_1.T) / 2.0 * np.cos(phi) + (s_cs + s_cs.T) / 2.0 * np.sin(phi)
    return ga.GaussianState(mean, cov)


def attenuated(state: ga.GaussianState, rows: slice, gain: float, noise: float) -> ga.GaussianState:
    """A Gaussian state through X -> gain X + xi on the variables `rows`, xi of variance `noise` each: the channel
    the route builds (`sc._attenuated`), applied as to a Gaussian prefix, mean -> K mean + b, cov -> K cov K^T + 2C."""
    n = 2 * state.modes
    k, b, c = sc._attenuated((np.eye(n), np.zeros(n), np.zeros((n, n))), rows, gain, noise)
    cov = k @ state.cov @ k.T + 2.0 * c
    return ga.GaussianState(k @ state.mean + b, (cov + cov.T) / 2.0)


def lossy(state: ga.GaussianState, L: float) -> ga.GaussianState:
    """Uniform loss L on every mode, as the Gaussian route's channel after the MZI applies it (`attenuated`)."""
    return attenuated(state, slice(0, 2 * state.modes), math.sqrt(1.0 - L), L / 2.0)


def inject_thermal(state: ga.GaussianState, mode: int, nbar_env: float, eta: float) -> ga.GaussianState:
    """Mix one mode with a thermal ancilla of mean photon number nbar_env on a beam splitter of transmissivity eta,
    then drop the ancilla: the referee of the engine's attenuation channel (`sc._attenuated`)."""
    n = state.modes
    joint = ga.tensor([state, ga.thermal_state(nbar_env)])
    mixed = ga.propagate(joint, sym.embed(_splitter(eta), [mode, n + 1], n + 1))
    keep = np.arange(2 * n)
    return ga.GaussianState(mixed.mean[keep], mixed.cov[np.ix_(keep, keep)])


def symmetric_phase_matrix(phi: float) -> np.ndarray:
    """Two-mode balanced phase: +phi/2 rotation on mode 1, -phi/2 on mode 2."""
    c, s = math.cos(phi / 2.0), math.sin(phi / 2.0)
    return np.array([[c, -s, 0.0, 0.0], [s, c, 0.0, 0.0], [0.0, 0.0, c, s], [0.0, 0.0, -s, c]])


def mzi_product(phi: float) -> np.ndarray:
    """The balanced MZI as the product BS P(phi) BS of its elements: the referee of `sym.mzi_matrix`."""
    return sym._BALANCED @ symmetric_phase_matrix(phi) @ sym._BALANCED


def _splitter(T: float) -> sym.SymplecticTransform:
    return sym.SymplecticTransform(sym.beam_splitter_matrix(T))


def apply_symplectic(expr: WignerExpr, f: sym.SymplecticTransform) -> WignerExpr:
    """Substitute a map into every term: mean -> F mean + s, quad -> F quad F^T, poly(X) -> poly(F^-1 (X - s))."""
    finv, nv = np.linalg.inv(f.matrix), expr.nvars
    c = -finv @ f.shift
    rows = [_poly_prune({**{tuple(int(j == k) for k in range(nv)): finv[i, j] for j in range(nv)}, (0,) * nv: c[i]})
            for i in range(nv)]
    terms = []
    for t in expr.terms:
        poly = {}
        for expo, coeff in t.poly.items():
            piece = _const_poly(nv, coeff)
            for i, e in enumerate(expo):
                power = _const_poly(nv)
                for _ in range(e):
                    power = _poly_mul(power, rows[i])
                piece = _poly_mul(piece, power) if e else piece
            poly = _poly_add(poly, piece)
        quad = f.matrix @ t.quad @ f.matrix.T
        terms.append(Term(t.weight, _poly_prune(poly), f.matrix @ t.mean + f.shift, (quad + quad.T) / 2.0))
    return WignerExpr(expr.modes, terms)


def attenuate(expr: WignerExpr, mode: int, eta: float, nbar_env: float = 0.0) -> WignerExpr:
    """Loss on one mode: a beam splitter of transmissivity eta (the mode its input 1, which keeps sqrt(eta) of
    its amplitude) against a thermal ancilla, which is traced out."""
    joint = wg.tensor_exprs(expr, wg.from_gaussian(ga.thermal_state(nbar_env)))
    mix = sym.embed(_splitter(eta), [mode, joint.modes], joint.modes)
    return wg._integrate_out(apply_symplectic(joint, mix), [joint.nvars - 2, joint.nvars - 1])


def channel(f: sym.SymplecticTransform) -> tuple:
    """A transform as the noiseless channel (A, b, C) that `wg._integrate_out` takes."""
    return f.matrix, f.shift, np.zeros(f.matrix.shape)


def herald(expr: WignerExpr, mode: int, coupling: tuple, ancilla: int, n: int, click: bool = False) -> tuple:
    """(success, failure) of one herald alone, each (state, probability), on `mode` of `expr`: the ancilla in Fock
    `ancilla` mixed in through `coupling`, ("BS", T) or ("SPDC", r, theta), as its input 1, and Fock n detected, or
    with `click` its complement (a click herald for n = 0, or the failure arm).  The success arm is the joint
    state with its ancilla conditioned through the mix on Fock n, its complement the ancilla traced out through the
    mix minus that projection.  A success arm below the renormalization floor raises ImprobableBranch, and a
    failure arm there is None."""
    kind, x, *theta = coupling
    joint = wg.tensor_exprs(expr, wg.fock_wigner(ancilla))
    mix = _splitter(x) if kind == "BS" else sym.make_two_mode_squeezer(x, *theta)
    mix, anc = sym.embed(mix, [joint.modes, mode], joint.modes), [joint.nvars - 2, joint.nvars - 1]
    projected = wg._integrate_out(joint, anc, channel(mix), ((anc[0], n),))
    p = projected.norm / joint.norm
    complement = WignerExpr(expr.modes, wg._integrate_out(joint, anc, channel(mix)).terms + _scaled(projected, -1.0))
    arms = [(projected, p), (complement, 1.0 - p)][:: -1 if click else 1]
    try:
        fail = wg._herald_branch(*arms[1])
    except ImprobableBranch:
        fail = None
    return wg._herald_branch(*arms[0]), fail


def _scaled(expr: WignerExpr, s: float) -> list:
    return [Term(t.weight * s, t.poly, t.mean, t.quad) for t in expr.terms]


@dataclass(frozen=True)
class PipelineResult:
    """The forward build's record: the success-branch state with its herald bookkeeping.  The engine's record is
    the plain (p, arms) of `sc._Prefix.arms` and `sc._Route.observe`."""

    state: Any  # GaussianState or WignerExpr
    success_prob: float = 1.0
    failure_state: Any = None
    failure_prob: float = 0.0
    gaussian_path: bool = True


def each(res: PipelineResult, step: Callable) -> PipelineResult:
    """Apply one state map to the success branch and, when it is tracked, the failure branch."""
    fail = None if res.failure_state is None else step(res.failure_state)
    return replace(res, state=step(res.state), failure_state=fail)


def modify(res: PipelineResult, mods) -> PipelineResult:
    """The modifications in order, one at a time: a map substituted, a herald conditioned (`herald`).  The first
    herald starts the failure branch, untracked below the floor; a later one leaves it untracked."""
    heralded = False
    for m in mods:
        if not m.heralded:
            f = sc._gaussian_step(m, res.state.modes)
            res = each(res, lambda s: ga.propagate(s, f) if res.gaussian_path else apply_symplectic(s, f))
            continue
        (state, p), fail = herald(res.state, m.mode, *sc._herald_args(m))
        fail = (None, 0.0) if heralded or fail is None else fail
        res = replace(res, state=state, success_prob=res.success_prob * p, failure_state=fail[0],
                      failure_prob=fail[1])
        heralded = True
    return res


@lru_cache(maxsize=8)
def prefix(inputs: tuple, input_mods: tuple, gaussian_path: bool, loss) -> PipelineResult:
    """The referee of `sc._Prefix.arms`: the inputs, each input-stage modification in turn (`modify`), then the
    uniform loss on each mode (`attenuate`)."""
    exprs = [s.gaussian() if gaussian_path else s.expr() for s in inputs]
    state = ga.tensor(exprs) if gaussian_path else wg.tensor_exprs(*exprs)
    res = modify(PipelineResult(state, gaussian_path=gaussian_path), input_mods)
    for mode in (1, 2) if loss is not None else ():
        res = each(res, lambda s: attenuate(s, mode, 1.0 - loss.total))
    return res


@dataclass(frozen=True)
class Built(PipelineResult):
    """A forward-built pipeline result, with the stage of its first herald: None, "input" or "output"."""

    herald_stage: str | None = None


def build_pipeline(config, phi: float | None = None) -> Built:
    """The forward build at one phase: the prefix, the MZI, the noise, then the output stage.

    Uniform loss on both modes commutes with the passive MZI.  The engine
    applies it first in the channel after the MZI on either path; here, on the
    Wigner path, where each loss is an attenuation, it sits in the prefix, ahead
    of the MZI, and on the Gaussian path it follows the MZI.  That placement is
    the referee's own check of the commutation.  This is the referee of the
    engine's prefix channel (`sc._Route.observe`) and of every read taken off it.
    """
    return output_stage(before_output(config, phi), config)


def input_mods(config) -> tuple:
    """The input-stage modifications of a config, in order: the key of its prefix record (`sc._prefix`)."""
    return tuple(m for m in config.modifications if m.stage == "input")


def gaussian_possible(config) -> bool:
    """Whether the forward build stays on Gaussian states: no Fock input and no herald."""
    return not any(s.kind == "fock" for s in config.inputs) and not any(m.heralded for m in config.modifications)


def uniform_loss(config):
    """The config's uniform loss, or None where it loses nothing."""
    loss = config.noise.loss
    return loss if loss is not None and loss.total > 0.0 else None


def before_output(config, phi: float | None = None) -> PipelineResult:
    """The forward build up to its output stage: the prefix (`prefix`), then the MZI and the noise."""
    phi = config.phi if phi is None else phi
    gaussian_path, loss, noise = gaussian_possible(config), uniform_loss(config), config.noise
    res = prefix(config.inputs, input_mods(config), gaussian_path, None if gaussian_path else loss)
    mzi = sym.SymplecticTransform(sym.mzi_matrix(phi))
    res = each(res, lambda s: ga.propagate(s, mzi) if gaussian_path else apply_symplectic(s, mzi))
    if gaussian_path and loss is not None:
        for m in (1, 2):
            res = each(res, lambda s: inject_thermal(s, m, 0.0, 1.0 - loss.total))
    for m in noise.thermal_modes if noise.has_thermal else ():
        res = each(res, lambda s: inject_thermal(s, m, noise.thermal_nbar, noise.thermal_eta)
                   if gaussian_path else attenuate(s, m, noise.thermal_eta, noise.thermal_nbar))
    return res


def output_stage(res: PipelineResult, config) -> Built:
    """The output-stage modifications of `config` in order on `res`, the state after the noise.

    The first herald of the pipeline starts the failure branch: an output
    herald behind an input-stage one leaves the failure branch untracked.
    """
    mods = [m for m in config.modifications if m.stage == "output"]
    heralds = [m.stage for m in (*input_mods(config), *mods) if m.heralded]
    out = modify(res, mods)
    if heralds[:1] == ["input"] and len(heralds) > 1:
        out = replace(out, failure_state=None, failure_prob=0.0)
    return Built(**{f.name: getattr(out, f.name) for f in fields(PipelineResult)},
                 herald_stage=heralds[0] if heralds else None)


PhiFunction = Callable[[float], float]


def _derivative(fn: PhiFunction, phi: float) -> float:
    return (fn(phi + DEFAULT_STEP) - fn(phi - DEFAULT_STEP)) / (2.0 * DEFAULT_STEP)


def _second_derivative_richardson(fn: PhiFunction, phi: float, g: float = 2e-3) -> tuple[float, float]:
    """Second derivative with two Richardson levels (kills g^2 and g^4 truncation), and its smallest step.

    The step shrinks until the plain second difference is stable, so sharply
    curved signals (bright-state parity fringes) stay inside their quadratic
    region.
    """
    f0 = fn(phi)

    def d2(step: float) -> float:
        return (fn(phi + step) - 2.0 * f0 + fn(phi - step)) / step**2

    for _ in range(8):
        a, b = d2(g), d2(g / 2.0)
        if abs(a - b) <= 1e-3 * max(abs(a), abs(b), 1e-300) or g <= 1e-6:
            break
        g /= 4.0
    c = d2(g / 4.0)
    r1 = (4.0 * b - a) / 3.0
    r2 = (4.0 * c - b) / 3.0
    return (16.0 * r2 - r1) / 15.0, g / 4.0


def phase_variance_error_prop(mean_fn: PhiFunction, var_fn: PhiFunction, phi: float) -> float:
    """Error propagation: Var(O) / |d<O>/dphi|^2, with the slope a central difference of mean_fn.

    A variance that is zero within rounding marks a symmetry point (parity at
    its optimum), where the ratio has a removable singularity whatever the
    resolved slope; it is evaluated as the limit Var''/(2 mean''^2) via
    Richardson second differences, never as a clamped zero over the slope.  A
    vanishing slope with non-vanishing variance is a genuinely bad operating
    point and raises SignalStationary, and so does a zero-variance point whose
    mean'' is at the rounding level of its differences (a flat signal) or
    whose variance does not curve up: no phase variance is 0 or negative.
    """
    h = DEFAULT_STEP
    f_plus, f_minus = mean_fn(phi + h), mean_fn(phi - h)
    slope = (f_plus - f_minus) / (2.0 * h)
    scale = max(abs(f_plus), abs(f_minus))
    # central differences cannot resolve slopes below the rounding noise of the samples
    noise = SLOPE_NOISE * scale / (2.0 * h)
    var = var_fn(phi)
    if abs(var) <= 1e-8 * max(1.0, scale):
        m2, g = _second_derivative_richardson(mean_fn, phi)
        if abs(m2) <= max(SLOPE_FLOOR, SLOPE_NOISE * scale / g**2):
            raise SignalStationary(f"signal flat to second order at phi={phi:.6g}")
        v2 = _second_derivative_richardson(var_fn, phi)[0]
        if v2 <= 0.0:
            raise SignalStationary(f"variance {var:.3e} not curved up at phi={phi:.6g}")
        return v2 / (2.0 * m2**2)
    noise_floor = max(SLOPE_FLOOR, noise)
    if abs(slope) > noise_floor:
        return var / slope**2
    raise SignalStationary(f"signal slope below {noise_floor:.0e} at phi={phi:.6g}")


@dataclass(frozen=True)
class BranchSet:
    """Complete set of probabilistic outcomes P_i(phi) for one detector."""

    probabilities: Sequence[PhiFunction]

    def values(self, phi: float) -> list[float]:
        vals = [float(p(phi)) for p in self.probabilities]
        s = sum(vals)
        if abs(s - 1.0) > 1e-9:
            raise ValueError(f"branch probabilities sum to {s:.12f}, not 1, at phi={phi:.6g}")
        return vals


def two_outcome(p: PhiFunction) -> BranchSet:
    """The {P, 1-P} branch pair of a binary detector."""
    return BranchSet((p, lambda phi: 1.0 - p(phi)))


def cfi(branches: BranchSet, phi: float) -> float:
    """Classical Fisher information sum_i P_i'^2 / P_i, with central differences of each P_i."""
    vals = branches.values(phi)
    total = 0.0
    for p_fn, p in zip(branches.probabilities, vals):
        if p <= SLOPE_FLOOR or p >= 1.0 + 1e-12:
            raise DegenerateBranch(f"branch probability {p:.3e} at phi={phi:.6g}")
        dp = _derivative(p_fn, phi)
        total += dp * dp / p
    return total


def probabilistic_cfi(
    success_prob: Union[float, PhiFunction],
    success_branches: Union[BranchSet, Sequence[BranchSet]],
    failure_branches: Union[BranchSet, Sequence[BranchSet], None],
    phi: float,
) -> float:
    """Herald-weighted CFI: P+ * CFI_success + (1-P+) * CFI_failure, plus the herald term.

    Each arm may carry several independent detectors (a sequence of BranchSets
    whose CFIs add).  The herald term P+'^2 / (P+ (1-P+)) enters only when the
    herald probability actually depends on phi: an input-stage herald, or none,
    has the same success probability at every phi, so its difference is 0.
    """

    def arm_cfi(branches) -> float:
        if branches is None:
            return 0.0
        sets = [branches] if isinstance(branches, BranchSet) else list(branches)
        return sum(cfi(bs, phi) for bs in sets)

    if callable(success_prob):
        p_plus = float(success_prob(phi))
        dp = _derivative(success_prob, phi)
    else:
        p_plus = float(success_prob)
        dp = 0.0
    if not 0.0 <= p_plus <= 1.0:
        raise ValueError(f"herald probability {p_plus:.3e} outside [0, 1]")
    total = p_plus * arm_cfi(success_branches) if p_plus > 0.0 else 0.0
    if p_plus < 1.0:
        total += (1.0 - p_plus) * arm_cfi(failure_branches)
    if abs(dp) > 0.0:
        if p_plus <= SLOPE_FLOOR or p_plus >= 1.0 - SLOPE_FLOOR:
            raise DegenerateBranch(f"herald probability {p_plus:.3e} saturated at phi={phi:.6g}")
        total += dp * dp / (p_plus * (1.0 - p_plus))
    return total


def _term_phi_derivative(t_minus: Term, t0: Term, t_plus: Term, h: float) -> Term:
    """Exact-in-X derivative of one poly x Gaussian term, with term data differenced in phi.

    d/dphi [w P exp(-(X-m)^T A (X-m))] folds into a single polynomial against
    the phi-centered Gaussian:  dw P + w dP + w P [ (X-m)^T A dQ A (X-m)
    + 2 (X-m)^T A dm ],  A = Q^{-1}.
    """
    nv = t0.nvars
    dw = (t_plus.weight - t_minus.weight) / (2.0 * h)
    dq = (t_plus.quad - t_minus.quad) / (2.0 * h)
    dm = (t_plus.mean - t_minus.mean) / (2.0 * h)
    dpoly = _poly_add(t_plus.poly, _poly_scale(t_minus.poly, -1.0))
    dpoly = _poly_scale(dpoly, 1.0 / (2.0 * h))
    a = np.linalg.inv(t0.quad)
    b = a @ dq @ a  # coefficient of the (X-m)(X-m) correction
    c = 2.0 * a @ dm  # coefficient of the linear (X-m) correction
    m = t0.mean

    def unit(i):
        return tuple(int(i == k) for k in range(nv))

    corr: dict = {(0,) * nv: float(m @ b @ m) - float(c @ m)}
    for i in range(nv):
        li = float(-2.0 * (b @ m)[i] + c[i])
        if li:
            corr[unit(i)] = corr.get(unit(i), 0.0) + li
        for j in range(nv):
            if b[i, j]:
                e = [0] * nv
                e[i] += 1
                e[j] += 1
                e = tuple(e)
                corr[e] = corr.get(e, 0.0) + b[i, j]
    poly = _poly_scale(t0.poly, dw)
    poly = _poly_add(poly, _poly_scale(dpoly, t0.weight))
    corr = _poly_prune(corr)
    if corr:
        poly = _poly_add(poly, _poly_scale(_poly_mul(t0.poly, corr), t0.weight))
    return Term(1.0, poly, t0.mean, t0.quad)


def _expr_phi_derivative(family: Callable[[float], WignerExpr], phi: float, h: float) -> WignerExpr:
    e_minus, e0, e_plus = family(phi - h), family(phi), family(phi + h)
    if not (len(e_minus.terms) == len(e0.terms) == len(e_plus.terms)):
        raise ValueError("family must produce structurally identical expressions across phi")
    terms = [
        _term_phi_derivative(tm, t0, tp, h) for tm, t0, tp in zip(e_minus.terms, e0.terms, e_plus.terms)
    ]
    return WignerExpr(e0.modes, terms)


def qfi_pure_wigner(family: Callable[[float], WignerExpr], phi: float) -> float:
    """QFI of a pure-state family: 2 (2 pi)^M Int (dW/dphi)^2."""
    w0 = family(phi)
    est.require_pure_wigner(w0)
    dw = _expr_phi_derivative(lambda p: family(p).normalize(), phi, DEFAULT_STEP)
    return 2.0 * (2.0 * math.pi) ** w0.modes * overlap(dw, dw)


def total_parity_information(
    branch_families: Sequence[tuple[PhiFunction, PhiFunction]], phi: float
) -> float:
    """Weighted parity information over heralded branches.

    Each entry is (probability(phi), parity_mean(phi)); contributes
    P * (dPi/dphi)^2 / (1 - Pi^2).  Raises SignalStationary when every branch
    is flat at phi.
    """
    total = 0.0
    any_slope = False
    for prob_fn, parity_fn in branch_families:
        p = float(prob_fn(phi)) if callable(prob_fn) else float(prob_fn)
        if p <= 0.0:
            continue
        pi0 = parity_fn(phi)
        dpi = _derivative(parity_fn, phi)
        if abs(dpi) <= SLOPE_FLOOR:
            continue
        any_slope = True
        denom = 1.0 - pi0**2
        if denom <= SLOPE_FLOOR:
            raise SignalStationary(f"parity saturated (|Pi| = 1) in a branch at phi={phi:.6g}")
        total += p * dpi * dpi / denom
    if not any_slope:
        raise SignalStationary(f"no branch carries parity slope at phi={phi:.6g}")
    return total


def circle_roots(p: np.ndarray) -> list[float]:
    """Angles in [0, 2 pi) of the roots on the unit circle of a polynomial (highest power first), each root near
    the circle taking two Newton steps of its own, stopped where the derivative is exactly 0."""
    dp = np.polyder(p)
    thetas = []
    for z in np.roots(p):
        if abs(abs(z) - 1.0) > 0.5:
            continue
        for _ in range(2):
            dz = np.polyval(dp, z)
            if dz == 0.0:
                break
            z = z - np.polyval(p, z) / dz
        if abs(abs(z) - 1.0) <= 1e-3:
            thetas.append(float(np.angle(z)) % (2.0 * math.pi))
    return thetas


def golden_minimize(fn: PhiFunction, lo: float, hi: float, tol: float = 1e-8) -> tuple[float, float]:
    """Golden-section minimization on [lo, hi]; returns (argmin, min)."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    x = (a + b) / 2.0
    return x, fn(x)


def forward_click_cfi(config, phi: float, h: float = 1e-3) -> float:
    """The click CFI of both modes and both herald arms, and the herald term, from five-point differences of the
    state built at each phase (`build_pipeline`); an outcome of probability at most SLOPE_FLOOR adds nothing."""
    built = [build_pipeline(config, phi + k * h) for k in (-2, -1, 0, 1, 2)]

    def slope(values: list) -> float:
        return (values[0] - 8.0 * values[1] + 8.0 * values[3] - values[4]) / (12.0 * h)

    def term(values: list) -> float:
        return slope(values) ** 2 / values[2] if values[2] > SLOPE_FLOOR else 0.0

    p = [r.success_prob for r in built]
    total = 0.0
    for arm, weight in (("state", p[2]), ("failure_state", 1.0 - p[2])):
        if getattr(built[2], arm) is None:
            continue
        for mode in (1, 2):
            clicks = [click_probability(getattr(r, arm), mode) for r in built]
            total += weight * (term(clicks) + term([1.0 - c for c in clicks]))
    return total + (term(p) + term([1.0 - q for q in p]) if p[0] != p[4] else 0.0)


def photon_number_distribution(expr: WignerExpr, mode: int, n_max: int = 40, m: int = 8192):
    """P(n) for n <= n_max of a mode (a row per grid point) from the whole circle of m contour points, read in
    slabs of 512 and clipped to [0, 1] as the engine reports it: the referee of the engine's contour, which reads
    half the circle and sizes it by its own tail bound."""
    reduced = marginal_mode(expr.normalize(), mode)
    ks, ns = np.arange(m), np.arange(n_max + 1)
    tks = np.exp(1j * math.pi * (2 * ks + 1) / m)
    gs = np.concatenate([wg._single_mode_g(reduced, (1.0 - t) / (1.0 + t)) for t in np.array_split(tks, -(-m // 512))], -1)
    return np.clip(np.real(2.0 / (1.0 + tks) * gs @ np.exp(-1j * math.pi * np.outer(2 * ks + 1, ns) / m)) / m, 0, 1)


def distribution_gap(a: np.ndarray, b: np.ndarray) -> float:
    """The largest |P_a(n) - P_b(n)| over the n that both photon-number distributions report."""
    n = min(a.shape[-1], b.shape[-1])
    return float(np.max(np.abs(a[..., :n] - b[..., :n])))


def counted(config, mode: int) -> tuple:
    """(herald probability, one-mode state of `mode`) of one T: the pipeline up to its output stage with the
    other arm traced out, then `mode`'s output-stage modifications on it as mode 1, the herald's success branch
    alone.  Raises ImprobableBranch below the renormalization floor."""
    res = before_output(config)
    state, prob = marginal_mode(res.state, mode), res.success_prob
    for m in (replace(m, mode=1) for m in config.modifications if m.stage == "output" and m.mode == mode):
        if m.heralded:
            (state, p), _ = herald(state, 1, *sc._herald_args(m))
            prob = res.success_prob * p
        else:
            state = apply_symplectic(state, sc._gaussian_step(m, 1))
    return prob, state


def counts_rows(config, trials: int, seed: int, t_grid) -> list:
    """The rows of `sc.simulate_counts`, one `config.with_values(T=T)` and one herald per grid point."""
    mod = next(m for m in config.modifications if m.heralded)
    added = int(mod.m) if (mod.op == "add" and isinstance(mod.m, int)) else 0
    rows = []
    for idx, T in enumerate(float(t) for t in t_grid):
        try:
            prob, state = counted(config.with_values(T=T), mod.mode)
        except ImprobableBranch:
            rows.append({"index": idx, "T": T, "kept": 0, "flag": "improbable herald branch"})
            continue
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(idx,)))
        kept = int(np.count_nonzero(rng.random(trials) < prob))
        theory = meas.intensity(state, 1)
        row = {"index": idx, "T": T, "herald_probability": prob, "kept": kept, "theory_mean": theory.mean}
        try:
            row["theory_snr"] = est.snr(theory, subtract_injected=added)
        except ValueError:
            pass
        if kept == 0:
            row["flag"] = "no kept measurements"
        else:
            row.update(sc._sample_stats(wg.photon_number_distribution(state).histogram(rng, kept), added))
        rows.append(row)
    return rows
