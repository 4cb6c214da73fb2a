"""Phase-variance and information metrics.

Benchmarks (SNL/HL), error propagation, classical and probabilistic Fisher
information, quantum Fisher information by two routes (Wigner integral, and one
Gaussian formula for pure and mixed states), the closed-form
coherent+squeezed-vacuum bounds, SNR, the weighted total parity
information for heralded branches, and the phase signal of a detector: exact
for a signal whose first two moments are trigonometric polynomials in phi
(`trig_signal`, from equispaced samples, with its stationary points from the
companion matrix of their condition), from the value, slope and curvature of a
+-1 or Bernoulli signal (`jet_phase_variance`, with `kernel_minima` refining a
batched grid to its stationary points), and golden section for any other
(`golden_minimize`).

The Gaussian QFI takes the family's exact tangent (dR, dsigma), and `cfi` an
exact slope of each outcome where the caller has one.  Error propagation, the
CFI of a Wigner state and the Wigner-integral QFI take central differences
with step 1e-5 on smooth O(1) quantities (means, probabilities, term data).
The Wigner-integral QFI differentiates each term's parameters and then
integrates exactly, rather than differencing whole Wigner values, which would
cancel catastrophically inside the squared integral; for a pure input to the
balanced MZI the scenario runner takes the QFI without any difference, as
Var(n1 - n2) after the first splitter, and keeps `qfi_pure_wigner` as the
library route and its check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

import numpy as np

from .errors import DegenerateBranch, PurityViolation, SignalStationary
from .gaussian import GaussianState, williamson
from .wigner import Term, WignerExpr, _poly_add, _poly_mul, _poly_prune, _poly_scale, overlap, purity

DEFAULT_STEP = 1e-5
SLOPE_FLOOR = 1e-12
# A slope below this many units of rounding of the signal's scale is noise.
SLOPE_NOISE = 32.0 * 2.3e-16
# A pair of Gaussian modes with nu_j nu_k - 1 at most this is pure; so is a state all of whose pairs are.
PURE_GAUSSIAN_TOL = 1e-9
# A Wigner family whose purity differs from 1 by more than this has no pure-state QFI.
PURE_WIGNER_TOL = 1e-6
# A photon-number variance at most this fraction of <n^2> is rounding: the state (a Fock state) has none.
SNR_VARIANCE_FLOOR = 1e-12
# Cells of a phase grid read per batched call, which bounds its arrays for a bright, fine-grained grid.
KERNEL_CHUNK = 4096

PhiFunction = Callable[[float], float]


def snl(n_total: float) -> float:
    """Shot-noise limit 1/<n>."""
    if n_total <= 0.0:
        raise ValueError("SNL requires positive total mean photon number")
    return 1.0 / n_total


def hl(n_total: float) -> float:
    """Heisenberg reference 1/<n>^2."""
    if n_total <= 0.0:
        raise ValueError("HL requires positive total mean photon number")
    return 1.0 / n_total**2


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


def binary_cfi(p: float, dp: float, phi: float) -> float:
    """CFI p'^2 / p + p'^2 / (1 - p) of a two-outcome detector, from one outcome's P = p and its exact slope dp.

    The first term is taken as p (p'/p)^2: for a p resolved to relative
    precision (the no-click probability at a bright port) it stays finite, and
    tends to 0, as p underflows.  The other outcome, 1 - p, must lie above
    SLOPE_FLOOR.
    """
    if 1.0 - p <= SLOPE_FLOOR:
        raise DegenerateBranch(f"branch probability {1.0 - p:.3e} at phi={phi:.6g}")
    return (p * (dp / p) ** 2 if p > 0.0 else 0.0) + dp * dp / (1.0 - p)


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


# ---------------------------------------------------------------------------
# Quantum Fisher information.
# ---------------------------------------------------------------------------


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


def require_pure_wigner(expr: WignerExpr) -> None:
    """Raise PurityViolation unless the expression's purity is 1 within PURE_WIGNER_TOL."""
    mu = purity(expr)
    if abs(mu - 1.0) > PURE_WIGNER_TOL:
        raise PurityViolation(f"purity {mu:.8f} differs from 1 beyond {PURE_WIGNER_TOL:g}")


def qfi_pure_wigner(family: Callable[[float], WignerExpr], phi: float) -> float:
    """QFI of a pure-state family: 2 (2 pi)^M Int (dW/dphi)^2."""
    w0 = family(phi)
    require_pure_wigner(w0)
    dw = _expr_phi_derivative(lambda p: family(p).normalize(), phi, DEFAULT_STEP)
    return 2.0 * (2.0 * math.pi) ** w0.modes * overlap(dw, dw)


def qfi_mixed_gaussian(state: GaussianState, dmean: np.ndarray, dcov: np.ndarray) -> float:
    """QFI of a Gaussian family, pure or mixed, at a state with exact tangent (dR, dsigma).

    In the Williamson basis sigma = S diag(nu_1, nu_1, ...) S^T the SLD equation
    is diagonal (Monras, arXiv:1303.3682; Safranek, Lee & Fuentes, NJP 17,
    073016 (2015)).  With P = S^{-1} dsigma S^{-T} and, on each 2x2 block P_jk,
    p_B = tr(P_jk B^T) / 2 for B in {I, J, Z, X},
    F = 2 dR^T sigma^{-1} dR
        + sum_jk [(p_I^2 + p_J^2) / (nu_j nu_k - 1) + (p_Z^2 + p_X^2) / (nu_j nu_k + 1)].
    A pair of pure modes (nu_j nu_k - 1 <= PURE_GAUSSIAN_TOL) drops its first
    term: no nu can fall below 1, so on a phase family its numerator vanishes.
    The prefactors fit this covariance convention (vacuum = I).
    """
    nu, s_inv = williamson(state.cov)
    n = state.modes
    u = s_inv @ dmean
    p = (s_inv @ dcov @ s_inv.T).reshape(n, 2, n, 2)
    a, b, c, d = p[:, 0, :, 0], p[:, 0, :, 1], p[:, 1, :, 0], p[:, 1, :, 1]
    nn = np.outer(nu, nu)
    mixed = nn - 1.0 > PURE_GAUSSIAN_TOL
    mean_term = 2.0 * float(np.sum(u * u / np.repeat(nu, 2)))
    squeeze_term = float(np.sum(((a - d) ** 2 + (b + c) ** 2) / (4.0 * (nn + 1.0))))
    rotation_term = float(np.sum(((a + d)[mixed] ** 2 + (b - c)[mixed] ** 2) / (4.0 * (nn[mixed] - 1.0))))
    return mean_term + squeeze_term + rotation_term


# ---------------------------------------------------------------------------
# Closed-form coherent + squeezed-vacuum bounds and optima.
# ---------------------------------------------------------------------------


def lossless_qcrb(alpha2: float, r: float) -> float:
    """QCRB for coherent + squeezed vacuum through the MZI."""
    if alpha2 < 0.0 or r < 0.0:
        raise ValueError("require alpha2 >= 0 and r >= 0")
    return 1.0 / (alpha2 * math.exp(2.0 * r) + math.sinh(r) ** 2)


def parity_min_variance(alpha2: float, r: float) -> float:
    return 1.0 / (alpha2 * math.exp(2.0 * r) + math.sinh(r) ** 2)


def homodyne_min_variance(alpha2: float, r: float) -> float:
    return 1.0 / (alpha2 * math.exp(2.0 * r))


def intensity_difference_min_variance(alpha2: float, r: float) -> float:
    num = math.exp(-2.0 * r) * (4.0 * alpha2 + (math.exp(2.0 * r) - 1.0) ** 2)
    return num / (math.cosh(2.0 * r) - 2.0 * alpha2 - 1.0) ** 2


def intensity_min_variance(alpha2: float, r: float) -> float:
    alpha = math.sqrt(alpha2)
    num = (
        4.0 * alpha2 * math.exp(-2.0 * r)
        + 2.0 * math.cosh(2.0 * r)
        + 4.0 * math.sqrt(2.0) * alpha * math.sinh(2.0 * r)
        - 2.0
    )
    return num / (math.cosh(2.0 * r) - 2.0 * alpha2 - 1.0) ** 2


def optimal_phase(kind: str, alpha2: float | None = None, r: float | None = None) -> float:
    """Published optimal operating phase per detection scheme."""
    if kind in ("parity", "homodyne"):
        return math.pi
    if kind == "intensity_difference":
        return math.pi / 2.0
    if kind == "intensity":
        if alpha2 is None or r is None:
            raise ValueError("intensity optimum needs alpha2 and r")
        return 2.0 * math.atan(2.0**0.25 * math.sqrt(math.sqrt(alpha2) / math.sinh(2.0 * r)))
    raise ValueError(f"unknown scheme kind {kind!r}")


def qcrb_closed_forms(kind: str, alpha_mag: float, r: float) -> float:
    """Dispatch the lossless closed-form bounds: kinds lossless, parity, homodyne,
    intensity_difference, intensity (minimum phase variances for the latter four)."""
    a2 = alpha_mag**2
    table = {
        "lossless": lambda: lossless_qcrb(a2, r),
        "parity": lambda: parity_min_variance(a2, r),
        "homodyne": lambda: homodyne_min_variance(a2, r),
        "intensity_difference": lambda: intensity_difference_min_variance(a2, r),
        "intensity": lambda: intensity_min_variance(a2, r),
    }
    if kind not in table:
        raise ValueError(f"unknown closed form {kind!r}; options: {sorted(table)}")
    return table[kind]()


def snr(moments, subtract_injected: int = 0) -> float:
    """Signal-to-noise ratio (mean - m) / std, with m the number of injected photons.

    A variance within SNR_VARIANCE_FLOOR of the second moment is zero, so the
    SNR of a Fock state is undefined rather than a ratio of rounding errors.
    """
    if subtract_injected < 0:
        raise ValueError("injected-photon count must be >= 0")
    var = moments.variance
    if var <= SNR_VARIANCE_FLOOR * abs(moments.second_moment):
        raise ValueError("SNR undefined for zero variance")
    return (moments.mean - subtract_injected) / math.sqrt(var)


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


def _trig(c: np.ndarray, theta: float) -> float:
    """sum_k c_k e^{i k theta} over k = -D..D, of a real trigonometric polynomial."""
    k = np.arange(len(c)) - (len(c) - 1) // 2
    return float(np.real(np.sum(c * np.exp(1j * k * theta))))


def _circle_roots(p: np.ndarray) -> list[float]:
    """Angles in [0, 2 pi) of the roots on the unit circle of a polynomial, highest power first.

    Roots from the companion matrix (`np.roots`) lose accuracy next to the
    roots near 0 and infinity that rounding-level leading or trailing
    coefficients put there, so each root near the circle takes two Newton steps.
    """
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


def trig_signal(samples: Sequence, rate: int) -> tuple[Callable, float, list[tuple[float, float]]]:
    """The phase variance V = Var / (d<O>/dphi)^2 of a trigonometric signal, the rounding level of its slope, and V at its stationary points.

    `samples` are a detector's moments (`mean`, `variance`, `second_moment`)
    at theta_j = 2 pi j / n, n = 4d + 1, with phi = rate * theta, where <O> is
    a trigonometric polynomial of degree <= d in theta and <O^2> one of
    degree <= 2d; the samples then fix both exactly.  With P_v(z) =
    z^{2d} Var and P_m(z) = z^d d<O>/dtheta on z = e^{i theta}, the phase
    variance is V = rate^2 P_v / P_m^2.  A dark fringe, a real zero of the
    slope where the variance vanishes too, is cancelled from both, (z - z0)
    from P_m and (z - z0)^2 from P_v, so that V keeps its limit
    Var''/(2 <O>''^2) there and is smooth nearby.

    Returns V over an array of phases, inf where it is not positive or where
    the reduced P_m (the slope, and at a dark fringe the curvature) is not
    above the rounding level of the slope; that level in phi; and (phi, V) in
    [0, 2 pi rate) at phi = 0, at the dark fringes and at the roots of
    P_v' P_m - 2 P_v P_m' on the unit circle (`_circle_roots`), where V is
    finite.  Raises SignalStationary when every slope coefficient is at
    rounding level.
    """
    n = len(samples)
    d = (n - 1) // 4
    mean = np.array([s.mean for s in samples])
    kv = np.arange(-2 * d, 2 * d + 1)
    dft = np.exp(-2j * math.pi * np.outer(kv, np.arange(n)) / n) / n  # row k: the coefficient of e^{i k theta}
    var_c = dft @ np.array([s.variance for s in samples])
    mean_c = (dft @ mean)[d : 3 * d + 1]  # k = -d..d; the higher ones are rounding
    slope_c = 1j * kv[d : 3 * d + 1] * mean_c
    # the rounding level of a slope in theta, and of a variance from <O^2> - <O>^2
    slope_noise = rate * max(SLOPE_FLOOR, SLOPE_NOISE * float(np.max(np.abs(mean))))
    var_noise = SLOPE_NOISE * max(1.0, max(abs(s.second_moment) for s in samples))
    if np.max(np.abs(slope_c)) <= slope_noise:
        raise SignalStationary("no searched phase gives a finite phase variance: the signal is flat in phi")
    # P_v and P_m with the highest power of z first, as np.roots and np.poly* take them
    p_v, p_m = var_c[::-1], slope_c[::-1]
    thetas = [0.0]
    for theta in _circle_roots(p_m):
        if abs(_trig(slope_c, theta)) > slope_noise or abs(_trig(var_c, theta)) > var_noise:
            continue
        z0 = np.array([1.0, -np.exp(1j * theta)])
        p_m, p_v = np.polydiv(p_m, z0)[0], np.polydiv(p_v, np.polymul(z0, z0))[0]
        thetas.append(theta)
    stationary = np.polysub(np.polymul(np.polyder(p_v), p_m), 2.0 * np.polymul(p_v, np.polyder(p_m)))
    thetas += _circle_roots(stationary)

    def variance(phi: np.ndarray) -> np.ndarray:
        z = np.exp(1j * np.asarray(phi) / rate)
        slope = np.polyval(p_m, z)
        resolved = np.abs(slope) > slope_noise
        v = rate**2 * np.real(np.polyval(p_v, z) / np.where(resolved, slope, 1.0) ** 2)
        return np.where(resolved & (v > 0.0), v, math.inf)

    values = variance(rate * np.array(thetas))
    points = [(_wrap(rate * t, 2.0 * math.pi * rate), float(v)) for t, v in zip(thetas, values) if math.isfinite(v)]
    return variance, slope_noise / rate, points


def _wrap(phi: float, period: float) -> float:
    """phi modulo the period, in [0, period): a root a rounding step below 0 or the period is at 0."""
    phi = phi % period
    return 0.0 if period - phi <= 4.0 * np.finfo(float).eps * period else float(phi)


def _signal_variance(m, m1, m2, bernoulli: bool) -> tuple:
    """Var and its first two phi-derivatives from the jet of <O>; <O^2> is 1 (a +-1 outcome) or <O> (Bernoulli)."""
    s, s1, s2 = (m, m1, m2) if bernoulli else (1.0, 0.0, 0.0)
    return s - m * m, s1 - 2.0 * m * m1, s2 - 2.0 * (m1 * m1 + m * m2)


def jet_phase_variance(m, m1, m2, var_noise, bernoulli: bool) -> np.ndarray:
    """Var / <O>'^2 from the jet (<O>, <O>', <O>'') of a +-1 or Bernoulli signal, over arrays.

    Where Var is at most `var_noise`, its rounding level, the point is a dark
    fringe, a zero of <O>', and V is the limit Var'' / (2 <O>''^2) there; for
    parity this is -<O> / <O>''.  Points with no resolvable slope or
    curvature, or a variance that does not curve up at a dark fringe, give inf.
    """
    var, _, var2 = _signal_variance(m, m1, m2, bernoulli)
    noise = np.maximum(SLOPE_FLOOR, SLOPE_NOISE * np.abs(m))
    dark = (np.abs(var) <= var_noise) & (np.abs(m2) > noise) & (var2 > 0.0)
    slope = ~dark & (np.abs(m1) > noise)
    v = np.full(np.shape(m), math.inf)
    np.divide(var, m1 * m1, out=v, where=slope)
    np.divide(var2, 2.0 * m2 * m2, out=v, where=dark)
    return v


def _illinois(f: Callable, a: np.ndarray, b: np.ndarray, fa: np.ndarray, fb: np.ndarray) -> np.ndarray:
    """Roots of f, one between each a and b where fa and fb differ in sign, by Illinois regula falsi over arrays.

    Each step replaces the end on the root's side by the secant point, and
    halves the value of the other end when that end is kept twice, so that it
    moves too; steps stop once none moves a root by more than a few ulps.
    """
    for _ in range(64):
        c = (a + b) / 2.0
        np.divide(a * fb - b * fa, fb - fa, out=c, where=fb != fa)
        done = np.abs(c - b) <= 4.0 * np.finfo(float).eps * np.maximum(np.abs(b), 1.0)
        if np.all(done):
            return c
        fc = f(c)
        flip = np.sign(fc) == -np.sign(fb)
        a, fa = np.where(flip, b, a), np.where(flip, fb, 0.5 * fa)
        b, fb = c, fc
    return b


def kernel_minima(jet: Callable, period: float, cells: int, bernoulli: bool) -> list[tuple[float, float]]:
    """(phi, V) at the stationary points of V = Var / <O>'^2 over one period of a +-1 or Bernoulli signal.

    `jet(phis)` returns <O>, <O>', <O>'' and the rounding level of Var at an
    array of phases.  It is read at the centres of `cells` equal cells over
    [0, period], KERNEL_CHUNK cells per call; with `cells` a multiple of 4 no
    centre falls on a multiple of pi, where symmetric signals have <O>' = 0.
    With theta' = <O>' / sqrt(Var), V = 1 / theta'^2, so the stationary points
    of V other than its poles are the zeros of N = Var' <O>' - 2 Var <O>'', as
    theta'' = -N / (2 Var^{3/2}).  Every cell where a resolvable <O>' changes
    sign is refined to the zero of <O>' (`_illinois`).  Where Var is at
    rounding level there, that zero is a dark fringe, and V is its exact limit
    (`jet_phase_variance`); otherwise it is a pole of V, where N keeps its sign
    and which splits its cell in two, since the mirror minima next to a nearly
    dark fringe may share one.  Every (half) cell with a resolvable slope
    where N changes sign is then refined to the zero of N, except within one
    cell of a dark fringe, where N vanishes to third order and Var / <O>'^2 is
    rounding over rounding.
    """
    step = period / cells

    def n_of(m, m1, m2) -> np.ndarray:
        var, var1, _ = _signal_variance(m, m1, m2, bernoulli)
        return var1 * m1 - 2.0 * var * m2

    sign_changes, brackets = [], []  # (lo, hi, f(lo), f(hi)) of <O>', and of N
    for start in range(0, cells, KERNEL_CHUNK):
        phi = step * (np.arange(start, min(start + KERNEL_CHUNK, cells) + 1) + 0.5)
        m, m1, m2, _ = jet(phi)
        nn = n_of(m, m1, m2)
        m1 = np.where(np.abs(m1) > np.maximum(SLOPE_FLOOR, SLOPE_NOISE * np.abs(m)), m1, 0.0)
        i = np.flatnonzero(m1[:-1] * m1[1:] < 0.0)
        sign_changes.append((phi[i], phi[i + 1], m1[i], m1[i + 1], nn[i], nn[i + 1]))
        j = np.flatnonzero((nn[:-1] * nn[1:] < 0.0) & (m1[:-1] * m1[1:] > 0.0))
        brackets.append((phi[j], phi[j + 1], nn[j], nn[j + 1]))
    lo, hi, f_lo, f_hi, n_lo, n_hi = (np.concatenate(c) for c in zip(*sign_changes))
    zeros = _illinois(lambda p: jet(p)[1], lo, hi, f_lo, f_hi)
    m, m1, m2, var_noise = jet(zeros)
    dark = np.abs(_signal_variance(m, m1, m2, bernoulli)[0]) <= var_noise
    fringes = zeros[dark]
    points = list(zip(fringes, jet_phase_variance(m, m1, m2, var_noise, bernoulli)[dark]))
    pole, n_pole = zeros[~dark], n_of(m, m1, m2)[~dark]
    brackets += [(lo[~dark], pole, n_lo[~dark], n_pole), (pole, hi[~dark], n_pole, n_hi[~dark])]
    lo, hi, f_lo, f_hi = (np.concatenate(c) for c in zip(*brackets))
    # the distance of each cell from each dark fringe, over the period
    apart = np.abs(((lo + hi)[:, None] / 2.0 - fringes + period / 2.0) % period - period / 2.0)
    keep = (f_lo * f_hi < 0.0) & ~np.any(apart < 1.5 * step, axis=1)
    roots = _illinois(lambda p: n_of(*jet(p)[:3]), lo[keep], hi[keep], f_lo[keep], f_hi[keep])
    points += zip(roots, jet_phase_variance(*jet(roots), bernoulli))
    return [(_wrap(r, period), float(v)) for r, v in points if math.isfinite(v)]


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



@dataclass
class EstimationReport:
    """Metrics for one parameter point."""

    phi: float
    phase_variance: dict = field(default_factory=dict)
    optimal_phi: dict = field(default_factory=dict)
    cfi: float | None = None
    qfi: float | None = None
    qcrb: float | None = None
    snl: float | None = None
    hl: float | None = None
    snr: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        out = {"phi": self.phi}
        for name in ("cfi", "qfi", "qcrb", "snl", "hl"):
            v = getattr(self, name)
            if v is not None:
                out[name] = v
        for label, v in sorted(self.phase_variance.items()):
            out[f"phase_variance.{label}"] = v
        for label, v in sorted(self.optimal_phi.items()):
            out[f"optimal_phi.{label}"] = v
        for label, v in sorted(self.snr.items()):
            out[f"snr.{label}"] = v
        for label, v in sorted(self.extras.items()):
            out[label] = v
        return out
