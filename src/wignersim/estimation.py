"""Phase-variance and information metrics.

Benchmarks (SNL/HL), error propagation, classical and probabilistic Fisher
information, quantum Fisher information by three routes (Wigner integral,
pure-Gaussian, mixed-Gaussian), the closed-form coherent+squeezed-vacuum
bounds, SNR, and the weighted total parity information for heralded branches.

Error propagation takes an exact slope d<O>/dphi where the caller has one: on
the scenario's prefix channel X = A(phi) Y + b + xi, a Gaussian family's
tangent (dR, dsigma) and a Wigner-state polynomial detector's slope both come
from dA/dphi.  The parity and click slopes there, the CFI, and the
QFI routes below take central differences with step 1e-5 on smooth O(1)
quantities (means, covariances, probabilities, term data).  The Wigner-integral
QFI differentiates each term's parameters and then integrates exactly, rather
than differencing whole Wigner values, which would cancel catastrophically
inside the squared integral; for a pure input to the balanced MZI the scenario
runner takes the QFI without any difference, as Var(n1 - n2) after the first
splitter, and keeps `qfi_pure_wigner` as the library route and its check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

import numpy as np

from .errors import DegenerateBranch, NumericalConditioning, PurityViolation, SignalStationary
from .gaussian import GaussianState
from .symplectic import omega
from .wigner import Term, WignerExpr, _poly_add, _poly_mul, _poly_prune, _poly_scale, overlap, purity

DEFAULT_STEP = 1e-5
SLOPE_FLOOR = 1e-12
# A slope below this many units of rounding of the signal's scale is noise.
SLOPE_NOISE = 32.0 * 2.3e-16
# Gaussian states at least this pure take the pure-state QFI formula.
PURE_GAUSSIAN_PURITY = 1.0 - 1e-9
# A Wigner family whose purity differs from 1 by more than this has no pure-state QFI.
PURE_WIGNER_TOL = 1e-6

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


def _derivative(fn: PhiFunction, phi: float, h: float) -> float:
    return (fn(phi + h) - fn(phi - h)) / (2.0 * h)


def _second_derivative_richardson(fn: PhiFunction, phi: float, g: float = 2e-3) -> float:
    """Second derivative with two Richardson levels (kills g^2 and g^4 truncation).

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
    return (16.0 * r2 - r1) / 15.0


def phase_variance_error_prop(
    mean_fn: PhiFunction,
    var_fn: PhiFunction,
    phi: float,
    h: float = DEFAULT_STEP,
    slope_fn: PhiFunction | None = None,
) -> float:
    """Error propagation: Var(O) / |d<O>/dphi|^2.

    The slope is slope_fn(phi), the exact d<O>/dphi, where the family has one,
    and otherwise the central difference of mean_fn with step h.

    A variance that is zero within rounding marks a symmetry point (parity at
    its optimum), where the ratio has a removable singularity whatever the
    resolved slope; it is evaluated as the limit Var''/(2 mean''^2) via
    Richardson second differences, never as a clamped zero over the slope.  A
    vanishing slope with non-vanishing variance is a genuinely bad operating
    point and raises SignalStationary.
    """
    if slope_fn is None:
        f_plus, f_minus = mean_fn(phi + h), mean_fn(phi - h)
        slope = (f_plus - f_minus) / (2.0 * h)
        scale = max(abs(f_plus), abs(f_minus))
        # central differences cannot resolve slopes below the rounding noise of the samples
        noise = SLOPE_NOISE * scale / (2.0 * h)
    else:
        slope, scale = slope_fn(phi), abs(mean_fn(phi))
        noise = SLOPE_NOISE * scale
    var = var_fn(phi)
    if abs(var) <= 1e-8 * max(1.0, scale):
        m2 = _second_derivative_richardson(mean_fn, phi)
        v2 = _second_derivative_richardson(var_fn, phi)
        if abs(m2) <= SLOPE_FLOOR:
            raise SignalStationary(f"signal flat to second order at phi={phi:.6g}")
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


def cfi(branches: BranchSet, phi: float, h: float = DEFAULT_STEP) -> float:
    """Classical Fisher information sum_i P_i'^2 / P_i."""
    vals = branches.values(phi)
    total = 0.0
    for p_fn, p in zip(branches.probabilities, vals):
        if p <= SLOPE_FLOOR or p >= 1.0 + 1e-12:
            raise DegenerateBranch(f"branch probability {p:.3e} at phi={phi:.6g}")
        dp = _derivative(p_fn, phi, h)
        total += dp * dp / p
    return total


def probabilistic_cfi(
    success_prob: Union[float, PhiFunction],
    success_branches: Union[BranchSet, Sequence[BranchSet]],
    failure_branches: Union[BranchSet, Sequence[BranchSet], None],
    phi: float,
    include_herald: bool = True,
    h: float = DEFAULT_STEP,
) -> float:
    """Herald-weighted CFI: P+ * CFI_success + (1-P+) * CFI_failure, plus the herald term.

    Each arm may carry several independent detectors (a sequence of BranchSets
    whose CFIs add).  The herald term P+'^2 / (P+ (1-P+)) enters only when the
    herald probability actually depends on phi; input-side heralds are
    phi-independent and contribute nothing.
    """

    def arm_cfi(branches) -> float:
        if branches is None:
            return 0.0
        sets = [branches] if isinstance(branches, BranchSet) else list(branches)
        return sum(cfi(bs, phi, h) for bs in sets)

    if callable(success_prob):
        p_plus = float(success_prob(phi))
        dp = _derivative(success_prob, phi, h)
    else:
        p_plus = float(success_prob)
        dp = 0.0
    if not 0.0 <= p_plus <= 1.0:
        raise ValueError(f"herald probability {p_plus:.3e} outside [0, 1]")
    total = p_plus * arm_cfi(success_branches) if p_plus > 0.0 else 0.0
    if p_plus < 1.0:
        total += (1.0 - p_plus) * arm_cfi(failure_branches)
    if include_herald and abs(dp) > 0.0:
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


def qfi_pure_wigner(family: Callable[[float], WignerExpr], phi: float, h: float = DEFAULT_STEP) -> float:
    """QFI of a pure-state family: 2 (2 pi)^M Int (dW/dphi)^2."""
    w0 = family(phi)
    require_pure_wigner(w0)
    dw = _expr_phi_derivative(lambda p: family(p).normalize(), phi, h)
    return 2.0 * (2.0 * math.pi) ** w0.modes * overlap(dw, dw)


def _family_mean_cov(family: Callable[[float], GaussianState], phi: float, h: float):
    s0 = family(phi)
    sp, sm = family(phi + h), family(phi - h)
    dmean = (sp.mean - sm.mean) / (2.0 * h)
    dcov = (sp.cov - sm.cov) / (2.0 * h)
    return s0, dmean, dcov


def qfi_pure_gaussian(family: Callable[[float], GaussianState], phi: float, h: float = DEFAULT_STEP) -> float:
    """QFI of a pure Gaussian family: 2 dR^T sigma^{-1} dR + (1/4) Tr[(dsigma sigma^{-1})^2].

    The prefactors fix the formula to this covariance convention (vacuum = I);
    they are pinned by the Wigner-integral route and the closed-form bound.
    """
    s0, dmean, dcov = _family_mean_cov(family, phi, h)
    sinv = np.linalg.inv(s0.cov)
    mean_term = 2.0 * float(dmean @ sinv @ dmean)
    a = dcov @ sinv
    return mean_term + 0.25 * float(np.trace(a @ a))


def gaussian_purity(state: GaussianState) -> float:
    """Purity prod_k 1 / (2 nu_k) over the symplectic eigenvalues nu_k of sigma / 2."""
    sympl_eigs = np.sort(np.abs(np.linalg.eigvals(1j * omega(state.modes) @ (state.cov / 2.0))))[::2]
    return float(np.prod(1.0 / (2.0 * sympl_eigs)))


def qfi_mixed_gaussian(family: Callable[[float], GaussianState], phi: float, h: float = DEFAULT_STEP) -> float:
    """QFI of a general (possibly mixed) Gaussian family.

    Solves the symmetric-logarithmic-derivative equation in vectorized form:
    F = 2 dR^T sigma^{-1} dR + (1/2) vec(dS)^T (S (x) S - (1/4) Omega (x) Omega)^{-1} vec(dS)
    with S = sigma/2.  The kernel is singular exactly on the pure manifold, so
    the solve is Tikhonov-regularized and checked for stability under
    epsilon -> epsilon/10; states at least PURE_GAUSSIAN_PURITY pure use the
    pure formula directly.
    """
    s0, dmean, dcov = _family_mean_cov(family, phi, h)
    if gaussian_purity(s0) >= PURE_GAUSSIAN_PURITY:
        return qfi_pure_gaussian(family, phi, h)
    n = s0.modes
    sinv = np.linalg.inv(s0.cov)
    mean_term = 2.0 * float(dmean @ sinv @ dmean)
    big = s0.cov / 2.0
    dbig = dcov / 2.0
    om = omega(n)
    kernel = np.kron(big, big) - 0.25 * np.kron(om, om)
    vec = dbig.reshape(-1)
    scale = np.linalg.norm(kernel, 2)
    eps = 1e-10 * scale

    def solve(e: float) -> float:
        y = np.linalg.solve(kernel + e * np.eye(kernel.shape[0]), vec)
        return 0.5 * float(vec @ y)

    f1, f2 = solve(eps), solve(eps / 10.0)
    if abs(f1 - f2) > 1e-6 * max(abs(f2), 1.0):
        raise NumericalConditioning(
            f"mixed-Gaussian QFI unstable under regularization: {f1:.10e} vs {f2:.10e}"
        )
    return mean_term + f2


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
    """Signal-to-noise ratio (mean - m) / std, with m the number of injected photons."""
    if subtract_injected < 0:
        raise ValueError("injected-photon count must be >= 0")
    var = moments.variance
    if var <= 0.0:
        raise ValueError("SNR undefined for zero variance")
    return (moments.mean - subtract_injected) / math.sqrt(var)


def total_parity_information(
    branch_families: Sequence[tuple[PhiFunction, PhiFunction]], phi: float, h: float = DEFAULT_STEP
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
        dpi = _derivative(parity_fn, phi, h)
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


def find_optimal_phase(
    variance_fn: PhiFunction, seed: float, window: float = 0.6, tol: float = 1e-8
) -> tuple[float, float]:
    """Minimize a phase-variance curve near a seeded optimum."""
    return golden_minimize(variance_fn, seed - window, seed + window, tol)


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
