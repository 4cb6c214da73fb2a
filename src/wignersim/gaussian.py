"""Gaussian states: mean vector plus covariance matrix, their constructors, and propagation through a transform.

Covariance convention: sigma_ij = <R_i R_j + R_j R_i> - 2 <R_i><R_j>, so the vacuum
covariance is the identity and Var(x) = sigma_xx / 2.  The thermal state of true mean
photon number nbar has covariance (2 nbar + 1) I.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .symplectic import SymplecticTransform, omega

SYMMETRY_TOL = 1e-12
BONA_FIDE_TOL = 1e-9


def check_covariance(cov: np.ndarray, mean: np.ndarray | None = None) -> None:
    """Validate finiteness, symmetry, positive definiteness, and the sigma + i*Omega >= 0 condition of a
    covariance, or of every one of a stack (..., 2N, 2N) at once, and that the states' `mean`s, if given, are
    finite; a failure reports the worst of the stack."""
    if mean is not None and not np.all(np.isfinite(mean)):
        raise ValueError("mean contains non-finite entries")
    if cov.ndim < 2 or cov.shape[-2] != cov.shape[-1] or cov.shape[-1] % 2 != 0:
        raise ValueError(f"covariance must be square with even dimension, got {cov.shape}")
    if not np.all(np.isfinite(cov)):
        raise ValueError("covariance contains non-finite entries")
    asym = np.max(np.abs(cov - np.swapaxes(cov, -1, -2)))
    if asym > SYMMETRY_TOL:
        raise ValueError(f"covariance not symmetric (defect {asym:.3e})")
    low = np.min(np.linalg.eigvalsh(cov)[..., 0])
    if low <= 0.0:
        raise ValueError(f"covariance not positive definite (min eigenvalue {low:.3e})")
    herm = cov.astype(complex) + 1j * omega(cov.shape[-1] // 2)
    low = np.min(np.linalg.eigvalsh((herm + np.swapaxes(herm, -1, -2).conj()) / 2.0)[..., 0])
    if low < -BONA_FIDE_TOL:
        raise ValueError(f"state not bona fide: min eig of sigma + i Omega is {low:.3e}")


@dataclass(frozen=True)
class GaussianState:
    """Immutable N-mode Gaussian state."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim != 1 or mean.size % 2 != 0 or mean.size == 0:
            raise ValueError(f"mean must have positive even length, got shape {mean.shape}")
        if cov.shape != (mean.size, mean.size):
            raise ValueError("covariance shape does not match mean length")
        check_covariance(cov, mean)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        self.mean.setflags(write=False)
        self.cov.setflags(write=False)

    @property
    def modes(self) -> int:
        return self.mean.size // 2


def williamson(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(nu, S^{-1}): the symplectic eigenvalues, ascending, and S^{-1} with sigma = S diag(nu_1, nu_1, ...) S^T.

    With sigma = L L^T (Cholesky), i L^T Omega L is Hermitian with eigenvalues
    +-nu_k.  An eigenvector a + i b of +nu_k gives the orthonormal columns
    sqrt(2) (b, a) of an O with O^T L^T Omega L O = diag(nu_k) Omega, so
    S^{-1} = diag(nu)^{1/2} O^T L^{-1} is symplectic.  The Cholesky factor keeps
    nu of a squeezed state to ~1e-11 at r = 6, where sigma^{-1/2} from an
    eigendecomposition of sigma loses it to ~1e-7.
    """
    n = cov.shape[0] // 2
    l = np.linalg.cholesky(cov)
    nu, v = np.linalg.eigh(1j * (l.T @ omega(n) @ l))
    nu, v = nu[n:], v[:, n:]
    o = np.empty((2 * n, 2 * n))
    o[:, 0::2], o[:, 1::2] = v.imag, v.real
    return nu, (np.sqrt(2.0 * np.repeat(nu, 2))[:, None] * o.T) @ np.linalg.inv(l)


def vacuum_state(modes: int = 1) -> GaussianState:
    if modes < 1:
        raise ValueError("need at least one mode")
    return GaussianState(np.zeros(2 * modes), np.eye(2 * modes))


def coherent_state(alpha_mag: float, theta: float = 0.0) -> GaussianState:
    if alpha_mag < 0.0:
        raise ValueError(f"|alpha| must be >= 0, got {alpha_mag}")
    mean = math.sqrt(2.0) * np.array([alpha_mag * math.cos(theta), alpha_mag * math.sin(theta)])
    return GaussianState(mean, np.eye(2))


def thermal_state(nbar: float) -> GaussianState:
    """Thermal state of true mean photon number nbar; covariance (2 nbar + 1) I."""
    if nbar < 0.0:
        raise ValueError(f"mean photon number must be >= 0, got {nbar}")
    return GaussianState(np.zeros(2), (2.0 * nbar + 1.0) * np.eye(2))


def tensor(states: list[GaussianState]) -> GaussianState:
    """Product state: concatenated means, block-diagonal covariance."""
    if not states:
        raise ValueError("tensor requires at least one state")
    dim = sum(2 * s.modes for s in states)
    mean = np.concatenate([s.mean for s in states])
    cov = np.zeros((dim, dim))
    at = 0
    for s in states:
        d = 2 * s.modes
        cov[at : at + d, at : at + d] = s.cov
        at += d
    return GaussianState(mean, cov)


def propagate(state: GaussianState, f: SymplecticTransform) -> GaussianState:
    """Push a Gaussian state through an optical element: mean -> f mean + shift, cov -> f cov f^T."""
    if f.modes != state.modes:
        raise ValueError(f"dimension mismatch: transform has {f.modes} modes, state has {state.modes}")
    cov = f.matrix @ state.cov @ f.matrix.T
    return GaussianState(f.matrix @ state.mean + f.shift, (cov + cov.T) / 2.0)


@dataclass(frozen=True)
class LossSpec:
    """Uniform photon loss: internal loss fraction L plus detector efficiency D."""

    L: float = 0.0
    D: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.L <= 1.0:
            raise ValueError(f"internal loss must lie in [0, 1], got {self.L}")
        if not 0.0 <= self.D <= 1.0:
            raise ValueError(f"detector efficiency must lie in [0, 1], got {self.D}")

    @property
    def total(self) -> float:
        """Combined loss fraction 1 - D(1 - L)."""
        return 1.0 - self.D * (1.0 - self.L)


def mean_photon(mean: np.ndarray, cov: np.ndarray, mode: int) -> float | np.ndarray:
    """Mean photon number of one mode, (Tr sigma_mode / 2 + <x>^2 + <p>^2 - 1) / 2, of a state's mean and covariance
    or over the leading axis of a stack of them; a rounding-level negative value is 0."""
    if not 1 <= mode <= mean.shape[-1] // 2:
        raise ValueError(f"mode {mode} out of range 1..{mean.shape[-1] // 2}")
    i = 2 * (mode - 1)
    tr = cov[..., i, i] + cov[..., i + 1, i + 1]
    val = 0.5 * (tr / 2.0 + mean[..., i] ** 2 + mean[..., i + 1] ** 2 - 1.0)
    return np.where(val > -1e-12, np.maximum(val, 0.0), val)[()]


def total_mean_photon(state: GaussianState) -> float:
    return sum(mean_photon(state.mean, state.cov, k) for k in range(1, state.modes + 1))


def trig_image(trig: tuple, phis, order: int = 0, which=0) -> tuple:
    """((mean, cov), ...) at each of `phis` of Gaussian families of mean b + m_c cos(phi/2) + m_s sin(phi/2) and
    covariance S0 + S1 cos phi + S2 sin phi, given as ((b, m_c, m_s), (S0, S1, S2)) stacked on axis 1, each phase of
    family `which` (one, or one per phase), and their exact phi-derivatives up to `order` <= 2: mu'' = -(mu - b)/4
    and sigma'' = S0 - sigma.  Each entry is formed alone, so its bits do not depend on the stack."""
    (b, m_c, m_s), (s_0, s_1, s_2) = trig[0][:, which], trig[1][:, which]
    phis = np.asarray(phis)[:, None]
    ch, sh, cf, sf = np.cos(phis / 2.0), np.sin(phis / 2.0), np.cos(phis)[..., None], np.sin(phis)[..., None]
    mu, sigma = b + m_c * ch + m_s * sh, s_0 + s_1 * cf + s_2 * sf
    tangent = ((m_s * ch - m_c * sh) / 2.0, s_2 * cf - s_1 * sf) if order else None
    return ((mu, sigma), tangent, ((b - mu) / 4.0, s_0 - sigma) if order > 1 else None)[: order + 1]
