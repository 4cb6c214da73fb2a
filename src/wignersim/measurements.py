"""Detection-scheme expectation values and variances.

All operators are evaluated as symmetrically ordered phase-space integrals; the
intensity first and second moments therefore carry the ordering constants

    <n>   = (1/2) Int (x^2+p^2) W - 1/2
    <n^2> = (1/4) Int (x^2+p^2)^2 W - <n> - 1/2

and the intensity-difference second moment reduces to

    <(n_a - n_b)^2> = (1/4) Int (rho_a - rho_b)^2 W - 1/2,

where rho_k = x_k^2 + p_k^2 (the per-mode ordering constants cancel in the
difference except for the residual -1/2; pinned against the Fock oracle).

Every function accepts either a GaussianState or a WignerExpr.  Gaussian means
use the covariance shortcut directly; second moments go through the exact Wick
machinery, which on Gaussian inputs agrees with the shortcut to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .gaussian import GaussianState, mean_photon
from .wigner import WignerExpr, from_gaussian, marginal_mode, moment, project_fock_unnormalized

StateLike = Union[GaussianState, WignerExpr]

VARIANCE_CLAMP = -1e-10


@dataclass(frozen=True)
class MeasurementMoments:
    """First and second moment of a detection operator."""

    mean: float
    second_moment: float

    @property
    def variance(self) -> float:
        v = self.second_moment - self.mean**2
        if v < 0.0:
            if v < VARIANCE_CLAMP * max(1.0, abs(self.second_moment)):
                raise ValueError(f"variance {v:.3e} is negative beyond rounding")
            return 0.0
        return v


@dataclass(frozen=True)
class DetectionScheme:
    """A named detector: kind in {intensity, homodyne, parity, intensity_difference, click}."""

    kind: str
    mode: int = 1
    mode_b: int | None = None
    angle: float = 0.0

    KINDS = ("intensity", "homodyne", "parity", "intensity_difference", "click")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown detection kind {self.kind!r}")
        if self.kind == "intensity_difference" and (self.mode_b is None or self.mode_b == self.mode):
            raise ValueError("intensity difference needs two distinct modes")

    @property
    def label(self) -> str:
        if self.kind == "intensity_difference":
            return f"diff[{self.mode},{self.mode_b}]"
        if self.kind == "homodyne":
            return f"homodyne[{self.mode},{self.angle:g}]"
        return f"{self.kind}[{self.mode}]"


def _as_expr(state: StateLike) -> WignerExpr:
    return from_gaussian(state) if isinstance(state, GaussianState) else state


def _check_mode(state: StateLike, mode: int) -> None:
    n = state.modes
    if not 1 <= mode <= n:
        raise ValueError(f"mode {mode} out of range 1..{n}")


def _intensity_integrals(state: StateLike, expr: WignerExpr, mode: int) -> tuple[float, float]:
    """(<n>, Int rho^2 W) for rho = x_mode^2 + p_mode^2; <n> by the covariance shortcut on a GaussianState."""
    i = 2 * (mode - 1)
    if isinstance(state, GaussianState):
        mean = mean_photon(state, mode)
    else:
        mean = 0.5 * (moment(expr, {i: 2}) + moment(expr, {i + 1: 2})) - 0.5
    s2 = moment(expr, {i: 4}) + 2.0 * moment(expr, {i: 2, i + 1: 2}) + moment(expr, {i + 1: 4})
    return mean, s2


def intensity(state: StateLike, mode: int = 1) -> MeasurementMoments:
    """Photon-number (intensity) moments on one mode."""
    _check_mode(state, mode)
    mean, s2 = _intensity_integrals(state, _as_expr(state), mode)
    return MeasurementMoments(mean, 0.25 * s2 - mean - 0.5)


def homodyne(state: StateLike, mode: int = 1, angle: float = 0.0) -> MeasurementMoments:
    """Quadrature x cos(angle) + p sin(angle); already symmetrically ordered."""
    _check_mode(state, mode)
    i = 2 * (mode - 1)
    c, s = math.cos(angle), math.sin(angle)
    if isinstance(state, GaussianState):
        mean = c * state.mean[i] + s * state.mean[i + 1]
        u = np.array([c, s])
        var = float(u @ state.cov[i : i + 2, i : i + 2] @ u) / 2.0
        return MeasurementMoments(mean, var + mean**2)
    expr = state
    mean = c * moment(expr, {i: 1}) + s * moment(expr, {i + 1: 1})
    second = (
        c * c * moment(expr, {i: 2})
        + 2.0 * c * s * moment(expr, {i: 1, i + 1: 1})
        + s * s * moment(expr, {i + 1: 2})
    )
    return MeasurementMoments(mean, second)


def parity(state: StateLike, mode: int = 1) -> MeasurementMoments:
    """Photon-number parity: mean = pi * W(0,0) of the mode's marginal, second moment 1."""
    _check_mode(state, mode)
    expr = marginal_mode(_as_expr(state), mode)
    mean = math.pi * expr.evaluate((0.0, 0.0))
    return MeasurementMoments(mean, 1.0)


def intensity_difference(state: StateLike, mode_a: int, mode_b: int) -> MeasurementMoments:
    """Moments of n_a - n_b."""
    if mode_a == mode_b:
        raise ValueError("intensity difference requires two distinct modes")
    _check_mode(state, mode_a)
    _check_mode(state, mode_b)
    expr = _as_expr(state)
    na, sa2 = _intensity_integrals(state, expr, mode_a)
    nb, sb2 = _intensity_integrals(state, expr, mode_b)
    ia, ib = 2 * (mode_a - 1), 2 * (mode_b - 1)
    cross = (
        moment(expr, {ia: 2, ib: 2})
        + moment(expr, {ia: 2, ib + 1: 2})
        + moment(expr, {ia + 1: 2, ib: 2})
        + moment(expr, {ia + 1: 2, ib + 1: 2})
    )
    second = 0.25 * (sa2 - 2.0 * cross + sb2) - 0.5
    return MeasurementMoments(na - nb, second)


def click_probability(state: StateLike, mode: int = 1) -> float:
    """Probability the mode's detector sees one or more photons."""
    _check_mode(state, mode)
    expr = _as_expr(state).normalize()
    reduced = marginal_mode(expr, mode)
    p0 = project_fock_unnormalized(reduced, 1, 0).norm
    return min(max(1.0 - p0, 0.0), 1.0)


def measure(state: StateLike, scheme: DetectionScheme) -> MeasurementMoments:
    """Dispatch a DetectionScheme; click returns Bernoulli moments of the click indicator."""
    if scheme.kind == "intensity":
        return intensity(state, scheme.mode)
    if scheme.kind == "homodyne":
        return homodyne(state, scheme.mode, scheme.angle)
    if scheme.kind == "parity":
        return parity(state, scheme.mode)
    if scheme.kind == "intensity_difference":
        return intensity_difference(state, scheme.mode, scheme.mode_b)
    p = click_probability(state, scheme.mode)
    return MeasurementMoments(p, p)
