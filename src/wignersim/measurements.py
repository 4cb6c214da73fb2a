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
arrays over phases or grid points, which the formulas broadcast over.  A
WignerExpr reads its monomials through the exact Wick machinery
(`wigner.moments`), an AffineImage, a Wigner expression seen through the
Gaussian channel after the MZI, in one conditioned Wick pass per term
(`wigner.herald_read`).  A stack of Gaussian states has closed forms in its
means R and covariances sigma, fourth-order moments by Isserlis' theorem
(`gaussian_moments`); `intensity` takes a GaussianState as a stack of one.  Parity and
click are Gaussian kernels on one mode, not polynomials: the scenario reads
them as phase signals, and the kernel of a Gaussian mode with its first two
phi-derivatives is `kernel_jet`, batched over a stack of mode blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .gaussian import GaussianState, mean_photon
from .wigner import AffineImage, WignerExpr, moments

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


def _square_moments(mean: np.ndarray, cov: np.ndarray, idx: list[int]) -> np.ndarray:
    """E[X_i^2 X_j^2] over the quadratures idx, (n, k, k) over a stack, by Isserlis with covariance C = sigma / 2:

    C_ii C_jj + 2 C_ij^2 + mu_i^2 C_jj + mu_j^2 C_ii + 4 mu_i mu_j C_ij + mu_i^2 mu_j^2.
    """
    mu = mean[:, idx]
    c = cov[:, idx][:, :, idx] / 2.0
    square = np.diagonal(c, axis1=1, axis2=2) + mu * mu  # E[X_i^2]
    return square[:, :, None] * square[:, None, :] + 2.0 * c * (c + 2.0 * mu[:, :, None] * mu[:, None, :])


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


def gaussian_moments(scheme: DetectionScheme, mean: np.ndarray, cov: np.ndarray) -> MeasurementMoments:
    """<O> and <O^2> of a polynomial detector at each state of a stack, means (n, 2N) and covariances (n, 2N, 2N),
    as arrays over its leading axis, in closed form; a parity or click scheme raises ValueError."""
    i = 2 * (scheme.mode - 1)
    if scheme.kind == "intensity":
        n = mean_photon(mean, cov, scheme.mode)
        return MeasurementMoments(n, 0.25 * _square_moments(mean, cov, [i, i + 1]).sum(axis=(1, 2)) - n - 0.5)
    if scheme.kind == "homodyne":
        u = np.array([math.cos(scheme.angle), math.sin(scheme.angle)])  # x cos(angle) + p sin(angle)
        x = u[0] * mean[:, i] + u[1] * mean[:, i + 1]
        return MeasurementMoments(x, _quadratic(u, cov[:, i : i + 2, i : i + 2]) / 2.0 + x**2)
    if scheme.kind == "intensity_difference":
        j = 2 * (scheme.mode_b - 1)
        # (rho_a - rho_b)^2 summed over the quadrature pairs, signs w_i w_j
        s2 = _quadratic(np.array([1.0, 1.0, -1.0, -1.0]), _square_moments(mean, cov, [i, i + 1, j, j + 1]))
        n = mean_photon(mean, cov, scheme.mode) - mean_photon(mean, cov, scheme.mode_b)
        return MeasurementMoments(n, 0.25 * s2 - 0.5)
    raise ValueError(f"{scheme.kind} is not a polynomial detector")


def _quadratic(u: np.ndarray, m: np.ndarray) -> np.ndarray:
    """u^T m u for each matrix of a stack, one at a time, since BLAS rounds a single dot product differently."""
    return np.array([u @ mk @ u for mk in m])


def intensity(state: GaussianState | WignerExpr | AffineImage, mode: int = 1) -> MeasurementMoments:
    """Photon-number (intensity) moments on one mode."""
    if not 1 <= mode <= state.modes:
        raise ValueError(f"mode {mode} out of range 1..{state.modes}")
    scheme = DetectionScheme("intensity", mode)
    if isinstance(state, GaussianState):
        o = gaussian_moments(scheme, state.mean[None], state.cov[None])
        return MeasurementMoments(float(o.mean[0]), float(o.second_moment[0]))
    return polynomial_moments(scheme, partial(moments, state) if isinstance(state, WignerExpr) else state.moments)
