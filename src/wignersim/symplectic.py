"""Symplectic transforms of linear optical elements.

Phase-space vectors are ordered (x1, p1, ..., xN, pN) with hbar = 1, so mode k
occupies rows 2k-2 and 2k-1 (0-based).  Every element is a 2Nx2N real matrix f
satisfying f @ Omega @ f.T = Omega; displacement additionally carries an affine
shift, which is the only way a linear-optics element can move the mean.  A
validated `SymplecticTransform` holds the squeezers and the displacement of a
configuration, placed on their modes by `embed`.  The beam splitter, the
balanced MZI and its phase derivative are plain matrices: every channel reads
them at many transmissivities or phases, where a validation each would cost
more than the product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

SYMPLECTIC_TOL = 1e-10


def omega(modes: int) -> np.ndarray:
    """Block-diagonal symplectic form, one ((0,1),(-1,0)) block per mode."""
    w = np.array([[0.0, 1.0], [-1.0, 0.0]])
    out = np.zeros((2 * modes, 2 * modes))
    for k in range(modes):
        out[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = w
    return out


@dataclass(frozen=True)
class SymplecticTransform:
    """A linear optical element: X -> matrix @ X + shift."""

    matrix: np.ndarray
    shift: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2 != 0 or m.shape[0] == 0:
            raise ValueError(f"matrix must be square with even dimension, got {m.shape}")
        s = self.shift
        s = np.zeros(m.shape[0]) if s is None else np.asarray(s, dtype=float)
        if s.shape != (m.shape[0],):
            raise ValueError(f"shift length {s.shape} does not match matrix dimension {m.shape[0]}")
        if not (np.all(np.isfinite(m)) and np.all(np.isfinite(s))):
            raise ValueError("matrix and shift must be finite")
        om = omega(m.shape[0] // 2)
        defect = np.max(np.abs(m @ om @ m.T - om))
        if defect > SYMPLECTIC_TOL:
            raise ValueError(f"matrix is not symplectic (defect {defect:.3e})")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "shift", s)
        self.matrix.setflags(write=False)
        self.shift.setflags(write=False)

    @property
    def modes(self) -> int:
        return self.matrix.shape[0] // 2


def beam_splitter_matrix(T) -> np.ndarray:
    """The two-mode beam splitter of transmissivity T in [0, 1] (input 1 keeps sqrt(T) of its amplitude), or for a
    vector of T a stack (len(T), 4, 4) of them."""
    t, rfl = np.sqrt(T), np.sqrt(1.0 - np.asarray(T))
    z = np.zeros_like(t)
    return np.moveaxis(np.array([[t, z, rfl, z], [z, t, z, rfl], [rfl, z, -t, z], [z, rfl, z, -t]]), (0, 1), (-2, -1))


def make_squeezer(r: float, theta: float = 0.0) -> SymplecticTransform:
    """Single-mode squeezer; theta = 0 stretches x by e^r and shrinks p by e^-r."""
    if r < 0.0:
        raise ValueError(f"squeezing parameter must be >= 0, got {r}")
    ch, sh = math.cosh(r), math.sinh(r)
    c, s = math.cos(theta), math.sin(theta)
    m = np.array([[ch + c * sh, s * sh], [s * sh, ch - c * sh]])
    return SymplecticTransform(m)


def make_two_mode_squeezer(r: float, theta: float = 0.0) -> SymplecticTransform:
    """Two-mode squeezer coupling modes 1 and 2."""
    if r < 0.0:
        raise ValueError(f"squeezing parameter must be >= 0, got {r}")
    ch = math.cosh(r)
    g = math.sinh(r) * math.cos(theta)
    d = math.sinh(r) * math.sin(theta)
    m = np.array(
        [
            [ch, 0.0, g, d],
            [0.0, ch, d, -g],
            [g, d, ch, 0.0],
            [d, -g, 0.0, ch],
        ]
    )
    return SymplecticTransform(m)


def make_displacement(alpha_mag: float, theta: float = 0.0) -> SymplecticTransform:
    """Displacement by amplitude |alpha| at phase angle theta (affine shift only)."""
    if alpha_mag < 0.0:
        raise ValueError(f"displacement magnitude must be >= 0, got {alpha_mag}")
    shift = math.sqrt(2.0) * np.array([alpha_mag * math.cos(theta), alpha_mag * math.sin(theta)])
    return SymplecticTransform(np.eye(2), shift)


def embed(part: SymplecticTransform, modes_acted: list[int], total_modes: int) -> SymplecticTransform:
    """Embed a transform acting on the given 1-based modes into an N-mode identity."""
    if len(modes_acted) != part.modes:
        raise ValueError("mode list length does not match transform size")
    if len(set(modes_acted)) != len(modes_acted):
        raise ValueError("mode list contains duplicates")
    for k in modes_acted:
        if not 1 <= k <= total_modes:
            raise ValueError(f"mode index {k} out of range 1..{total_modes}")
    rows = np.concatenate([[2 * (k - 1), 2 * k - 1] for k in modes_acted]).astype(int)
    m = np.eye(2 * total_modes)
    s = np.zeros(2 * total_modes)
    m[np.ix_(rows, rows)] = part.matrix
    s[rows] = part.shift
    return SymplecticTransform(m, s)


_BALANCED = beam_splitter_matrix(0.5)
# G = 2 M'(0) = BS J BS, J the quarter turn of the phase matrix (+ on mode 1, - on mode 2)
_GENERATOR = _BALANCED @ np.array([[0.0, -1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0],
                                   [0.0, 0.0, -1.0, 0.0]]) @ _BALANCED
_BALANCED.setflags(write=False)
_GENERATOR.setflags(write=False)


def mzi_matrix(phi) -> np.ndarray:
    """The balanced Mach-Zehnder (50/50 splitter, phase +phi/2 on mode 1 and -phi/2 on mode 2, 50/50 splitter),
    cos(phi/2) I + sin(phi/2) G, at one phase or at a stack of phases on a leading axis."""
    half = np.asarray(phi, dtype=float)[..., None, None] / 2.0
    return np.cos(half) * np.eye(4) + np.sin(half) * _GENERATOR


def mzi_phase_derivative(phi) -> np.ndarray:
    """d/dphi of `mzi_matrix`, (cos(phi/2) G - sin(phi/2) I) / 2, at one phase or at a stack of phases."""
    half = np.asarray(phi, dtype=float)[..., None, None] / 2.0
    return (np.cos(half) * _GENERATOR - np.sin(half) * np.eye(4)) / 2.0
