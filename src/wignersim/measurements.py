"""Detection-scheme expectation values and variances.

All operators are evaluated as symmetrically ordered phase-space integrals; the
intensity first and second moments therefore carry the ordering constants

    <n>   = (1/2) Int (x^2+p^2) W - 1/2
    <n^2> = (1/4) Int (x^2+p^2)^2 W - <n> - 1/2

and the intensity-difference second moment reduces to

    <(n_a - n_b)^2> = (1/4) Int (rho_a - rho_b)^2 W - 1/2,

where rho_k = x_k^2 + p_k^2 (the per-mode ordering constants cancel in the
difference except for the residual -1/2; pinned against the Fock oracle).

The polynomial detectors (intensity, homodyne, intensity difference) have one
moment interface, `polynomial_moments`: a scheme and a callable that maps
monomials to their moments give <O> and <O^2>.  The moments may be floats, or
arrays over phases or grid points, which the formulas broadcast over.  Every
detector function accepts a GaussianState, a WignerExpr or an AffineImage.  On
a GaussianState every moment is a closed form in the mean R and covariance
sigma, fourth-order moments by Isserlis' theorem.  A WignerExpr reads its
monomials through the exact Wick machinery (`wigner.moments`), and an
AffineImage, a Wigner expression seen through the Gaussian channel after the
MZI, in one conditioned Wick pass per term (`wigner.herald_read`).  Parity and
click are Gaussian kernels on one mode, not polynomials: the scenario reads
them as phase signals, and the kernel of a Gaussian mode with its first two
phi-derivatives is `kernel_jet`, batched over a stack of mode blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Union

import numpy as np

from .gaussian import GaussianState, mean_photon
from .wigner import AffineImage, WignerExpr, moments

StateLike = Union[GaussianState, WignerExpr, AffineImage]
# Detectors whose operator is a polynomial in the quadratures; parity and click are Gaussian kernels.
POLYNOMIAL_KINDS = ("intensity", "homodyne", "intensity_difference")

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


def _check_mode(state: StateLike, mode: int) -> None:
    n = state.modes
    if not 1 <= mode <= n:
        raise ValueError(f"mode {mode} out of range 1..{n}")


def _square_moments(state: GaussianState, idx: list[int]) -> np.ndarray:
    """E[X_i^2 X_j^2] over the quadratures idx, by Isserlis with covariance C = sigma / 2:

    C_ii C_jj + 2 C_ij^2 + mu_i^2 C_jj + mu_j^2 C_ii + 4 mu_i mu_j C_ij + mu_i^2 mu_j^2.
    """
    mu = state.mean[idx]
    c = state.cov[np.ix_(idx, idx)] / 2.0
    square = np.diag(c) + mu * mu  # E[X_i^2]
    return np.outer(square, square) + 2.0 * c * (c + 2.0 * np.outer(mu, mu))


def kernel_jet(mu, k, dmu, dk, d2mu, d2k) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """exp(-mu^T k^-1 mu) / sqrt(det k) and its first two phi-derivatives over a stack of mode blocks, as (value,
    slope, curvature).

    With k the mode covariance sigma the value is the parity; with k = sigma + I
    it is half the no-click probability (the vacuum overlap).  mu and its
    derivatives have shape (..., 2), k and its derivatives (..., 2, 2).  With
    value = exp(g), a = k^-1 mu and P = k^-1 k': g' = a^T k' a - 2 mu'^T a - tr P / 2,
    and with a' = k^-1 (mu' - k' a),
    g'' = 2 a'^T k' a + a^T k'' a - 2 mu''^T a - 2 mu'^T a' + (tr P^2 - tr k^-1 k'') / 2;
    the slope is value g' and the curvature value (g'' + g'^2).
    """
    det = k[..., 0, 0] * k[..., 1, 1] - k[..., 0, 1] * k[..., 1, 0]
    kinv = np.stack([k[..., 1, 1], -k[..., 0, 1], -k[..., 1, 0], k[..., 0, 0]], -1).reshape(k.shape)
    kinv = kinv / det[..., None, None]

    def dot(u, v):
        return np.einsum("...i,...i->...", u, v)

    def apply(m, v):
        return np.einsum("...ij,...j->...i", m, v)

    a = apply(kinv, mu)
    value = np.exp(-dot(mu, a)) / np.sqrt(det)
    dka = apply(dk, a)
    da = apply(kinv, dmu - dka)
    p = kinv @ dk
    g1 = dot(a, dka) - 2.0 * dot(dmu, a) - 0.5 * np.trace(p, axis1=-2, axis2=-1)
    g2 = (2.0 * dot(da, dka) + dot(a, apply(d2k, a)) - 2.0 * dot(d2mu, a) - 2.0 * dot(dmu, da)
          + 0.5 * (np.einsum("...ij,...ji->...", p, p) - np.einsum("...ij,...ji->...", kinv, d2k)))
    return value, value * g1, value * (g2 + g1 * g1)


def _reader(state) -> Callable:
    """The moments callable of a WignerExpr, or of any state with a `moments` method (an AffineImage)."""
    return partial(moments, state) if isinstance(state, WignerExpr) else state.moments


def _intensity_monomials(mode: int) -> list:
    """x^2, p^2, x^4, x^2 p^2, p^4 of one mode, as `_intensity_integrals` takes their moments."""
    i = 2 * (mode - 1)
    return [{i: 2}, {i + 1: 2}, {i: 4}, {i: 2, i + 1: 2}, {i + 1: 4}]


def _intensity_integrals(m: list) -> tuple[float, float]:
    """(<n>, Int rho^2 W) for rho = x_mode^2 + p_mode^2, from the moments of `_intensity_monomials`."""
    xx, pp, x4, x2p2, p4 = m
    return 0.5 * (xx + pp) - 0.5, x4 + 2.0 * x2p2 + p4


def polynomial_moments(scheme: DetectionScheme, moments: Callable) -> MeasurementMoments:
    """<O> and <O^2> of a polynomial detector from `moments`, which maps a list of monomials ({variable index:
    power}) to their moments, in one call; a parity or click scheme raises ValueError."""
    i = 2 * (scheme.mode - 1)
    if scheme.kind == "intensity":
        mean, s2 = _intensity_integrals(moments(_intensity_monomials(scheme.mode)))
        return MeasurementMoments(mean, 0.25 * s2 - mean - 0.5)
    if scheme.kind == "homodyne":
        c, s = math.cos(scheme.angle), math.sin(scheme.angle)
        x, p, xx, xp, pp = moments([{i: 1}, {i + 1: 1}, {i: 2}, {i: 1, i + 1: 1}, {i + 1: 2}])
        return MeasurementMoments(c * x + s * p, c * c * xx + 2.0 * c * s * xp + s * s * pp)
    if scheme.kind == "intensity_difference":
        j = 2 * (scheme.mode_b - 1)
        cross_monomials = [{i: 2, j: 2}, {i: 2, j + 1: 2}, {i + 1: 2, j: 2}, {i + 1: 2, j + 1: 2}]
        m = moments(_intensity_monomials(scheme.mode) + _intensity_monomials(scheme.mode_b) + cross_monomials)
        na, sa2 = _intensity_integrals(m[:5])
        nb, sb2 = _intensity_integrals(m[5:10])
        cross = m[10] + m[11] + m[12] + m[13]
        return MeasurementMoments(na - nb, 0.25 * (sa2 - 2.0 * cross + sb2) - 0.5)
    raise ValueError(f"{scheme.kind} is not a polynomial detector")


def intensity(state: StateLike, mode: int = 1) -> MeasurementMoments:
    """Photon-number (intensity) moments on one mode."""
    _check_mode(state, mode)
    if not isinstance(state, GaussianState):
        return polynomial_moments(DetectionScheme("intensity", mode), _reader(state))
    i = 2 * (mode - 1)
    mean, s2 = mean_photon(state, mode), float(_square_moments(state, [i, i + 1]).sum())
    return MeasurementMoments(mean, 0.25 * s2 - mean - 0.5)


def homodyne(state: StateLike, mode: int = 1, angle: float = 0.0) -> MeasurementMoments:
    """Quadrature x cos(angle) + p sin(angle); already symmetrically ordered."""
    _check_mode(state, mode)
    if not isinstance(state, GaussianState):
        return polynomial_moments(DetectionScheme("homodyne", mode, angle=angle), _reader(state))
    i = 2 * (mode - 1)
    c, s = math.cos(angle), math.sin(angle)
    mean = c * state.mean[i] + s * state.mean[i + 1]
    u = np.array([c, s])
    var = float(u @ state.cov[i : i + 2, i : i + 2] @ u) / 2.0
    return MeasurementMoments(mean, var + mean**2)


def intensity_difference(state: StateLike, mode_a: int, mode_b: int) -> MeasurementMoments:
    """Moments of n_a - n_b."""
    if mode_a == mode_b:
        raise ValueError("intensity difference requires two distinct modes")
    _check_mode(state, mode_a)
    _check_mode(state, mode_b)
    if not isinstance(state, GaussianState):
        return polynomial_moments(DetectionScheme("intensity_difference", mode_a, mode_b), _reader(state))
    ia, ib = 2 * (mode_a - 1), 2 * (mode_b - 1)
    # (rho_a - rho_b)^2 summed over the quadrature pairs, signs w_i w_j
    w = np.array([1.0, 1.0, -1.0, -1.0])
    s2 = float(w @ _square_moments(state, [ia, ia + 1, ib, ib + 1]) @ w)
    return MeasurementMoments(mean_photon(state, mode_a) - mean_photon(state, mode_b), 0.25 * s2 - 0.5)


def measure(state: StateLike, scheme: DetectionScheme) -> MeasurementMoments:
    """Dispatch a polynomial DetectionScheme; a parity or click scheme raises ValueError."""
    if scheme.kind == "intensity":
        return intensity(state, scheme.mode)
    if scheme.kind == "homodyne":
        return homodyne(state, scheme.mode, scheme.angle)
    if scheme.kind == "intensity_difference":
        return intensity_difference(state, scheme.mode, scheme.mode_b)
    raise ValueError(f"{scheme.kind} is not a polynomial detector")
