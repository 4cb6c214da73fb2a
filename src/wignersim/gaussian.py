"""Gaussian states: mean vector plus covariance matrix, and the channels that preserve them.

Covariance convention: sigma_ij = <R_i R_j + R_j R_i> - 2 <R_i><R_j>, so the vacuum
covariance is the identity and Var(x) = sigma_xx / 2.  The thermal state of true mean
photon number nbar has covariance (2 nbar + 1) I.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .symplectic import SymplecticTransform, embed, make_beam_splitter, make_squeezer, omega

SYMMETRY_TOL = 1e-12
BONA_FIDE_TOL = 1e-9


def check_covariance(cov: np.ndarray, tol: float = BONA_FIDE_TOL) -> None:
    """Validate symmetry, positive definiteness, and the sigma + i*Omega >= 0 condition."""
    n = cov.shape[0]
    if cov.ndim != 2 or cov.shape != (n, n) or n % 2 != 0:
        raise ValueError(f"covariance must be square with even dimension, got {cov.shape}")
    asym = np.max(np.abs(cov - cov.T))
    if asym > SYMMETRY_TOL:
        raise ValueError(f"covariance not symmetric (defect {asym:.3e})")
    eigs = np.linalg.eigvalsh(cov)
    if eigs[0] <= 0.0:
        raise ValueError(f"covariance not positive definite (min eigenvalue {eigs[0]:.3e})")
    herm = cov.astype(complex) + 1j * omega(n // 2)
    heigs = np.linalg.eigvalsh((herm + herm.conj().T) / 2.0)
    if heigs[0] < -tol:
        raise ValueError(f"state not bona fide: min eig of sigma + i Omega is {heigs[0]:.3e}")


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
        if not np.all(np.isfinite(mean)):
            raise ValueError("mean contains non-finite entries")
        if cov.shape != (mean.size, mean.size):
            raise ValueError("covariance shape does not match mean length")
        if not np.all(np.isfinite(cov)):
            raise ValueError("covariance contains non-finite entries")
        check_covariance(cov)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        self.mean.setflags(write=False)
        self.cov.setflags(write=False)

    @property
    def modes(self) -> int:
        return self.mean.size // 2


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


def squeezed_vacuum(r: float, theta: float = 0.0) -> GaussianState:
    return propagate(vacuum_state(1), make_squeezer(r, theta))


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


def apply_loss(state: GaussianState, spec: LossSpec) -> GaussianState:
    """Uniform loss on all modes: cov -> (1-L) cov + L I, mean -> sqrt(1-L) mean."""
    lt = spec.total
    cov = (1.0 - lt) * state.cov + lt * np.eye(2 * state.modes)
    return GaussianState(math.sqrt(1.0 - lt) * state.mean, cov)


def apply_loss_explicit(state: GaussianState, mode: int, eta: float) -> GaussianState:
    """Loss on one mode via a fictitious beam splitter of transmissivity eta and a traced vacuum ancilla."""
    return inject_thermal(state, mode, 0.0, eta)


def inject_thermal(state: GaussianState, mode: int, nbar_env: float, eta: float) -> GaussianState:
    """Mix one mode with a thermal ancilla of mean photon nbar_env on BS(eta), then drop the ancilla."""
    if not 1 <= mode <= state.modes:
        raise ValueError(f"mode {mode} out of range 1..{state.modes}")
    if nbar_env < 0.0:
        raise ValueError(f"environment photon number must be >= 0, got {nbar_env}")
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"transmissivity must lie in [0, 1], got {eta}")
    n = state.modes
    joint = tensor([state, thermal_state(nbar_env)])
    bs = embed(make_beam_splitter(eta), [mode, n + 1], n + 1)
    mixed = propagate(joint, bs)
    keep = np.arange(2 * n)
    return GaussianState(mixed.mean[keep], mixed.cov[np.ix_(keep, keep)])


def mean_photon(state: GaussianState, mode: int) -> float:
    """Mean photon number of one mode: (Tr sigma_mode / 2 + <x>^2 + <p>^2 - 1) / 2."""
    if not 1 <= mode <= state.modes:
        raise ValueError(f"mode {mode} out of range 1..{state.modes}")
    i = 2 * (mode - 1)
    tr = state.cov[i, i] + state.cov[i + 1, i + 1]
    val = 0.5 * (tr / 2.0 + state.mean[i] ** 2 + state.mean[i + 1] ** 2 - 1.0)
    return max(val, 0.0) if val > -1e-12 else val


def total_mean_photon(state: GaussianState) -> float:
    return sum(mean_photon(state, k) for k in range(1, state.modes + 1))
