"""Phase-variance and information metrics.

Benchmarks (SNL/HL), the CFI of a two-outcome detector from one outcome's
probability and its exact slope (`binary_cfi`), the Gaussian QFI (one formula
for pure and mixed states, fed the family's exact tangent (dR, dsigma)), the
purity tolerance of the Wigner route's QFI, the closed-form
coherent+squeezed-vacuum bounds, SNR, and the phase signal of a detector.  That signal is exact for a
signal whose first two moments are trigonometric polynomials in phi
(`trig_signal`, from equispaced samples, with its stationary points from the
companion matrix of their condition), and otherwise read from the jets of <O>
and Var (`jet_phase_variance`, with `kernel_minima` refining a batched grid to
its stationary points by a bracketed refinement, `_refine`, that reads a
window of phases in every bracket per batched call).  Both read a stack of
signals, a sweep block's, at once.  No metric takes a finite difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateBranch, SignalStationary
from .gaussian import williamson

SLOPE_FLOOR = 1e-12
# A slope below this many units of rounding of the signal's scale is noise.
SLOPE_NOISE = 32.0 * 2.3e-16
# A pair of Gaussian modes with nu_j nu_k - 1 at most this is pure; so is a state all of whose pairs are.
PURE_GAUSSIAN_TOL = 1e-9
# A Wigner family whose purity differs from 1 by more than this has no pure-state QFI.
PURE_WIGNER_TOL = 1e-6
# A photon-number variance at most this fraction of max(1, <n^2>) is rounding: the state (a Fock state) has none.
SNR_VARIANCE_FLOOR = 1e-12
# Cells of a phase grid read per batched call, which bounds its arrays for a bright, fine-grained grid.
KERNEL_CHUNK = 4096
# Phases `_refine` reads inside each bracket per round, and the most rounds it takes.
REFINE_WINDOW = 32
REFINE_ROUNDS = 64
_EVEN = np.arange(1, REFINE_WINDOW + 1) / (REFINE_WINDOW + 1)
# A window's offsets from its guess, in ulps, for phases in increasing order: the k-th on either side is
# k + (w / ulp)^growth_k, 1 to 6 ulps and then growing geometrically towards the bracket width w.
_K = np.concatenate([np.arange(REFINE_WINDOW // 2)[::-1], np.arange(REFINE_WINDOW // 2)])
_SIGN = np.repeat([-1.0, 1.0], REFINE_WINDOW // 2)
_GROWTH = np.maximum(_K - 5, 0) / (REFINE_WINDOW // 2 - 5)
_FOUR = np.arange(4)
_OFF_DIAGONAL = ~np.eye(4, dtype=bool)


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


def binary_cfi(p: float, dp: float, phi: float, d2p: float | None = None) -> float:
    """CFI p'^2 / p + p'^2 / (1 - p) of a two-outcome detector, from one outcome's P = p and its exact slope dp.

    The first term is taken as p (p'/p)^2: for a p resolved to relative
    precision (the no-click probability at a bright port) it stays finite, and
    tends to 0, as p underflows.  Given the curvature d2p of p, an outcome
    whose probability is at most SLOPE_FLOOR is a dark outcome where rounding
    leaves P'^2 / P unresolved: with its slope and curvature within
    SLOPE_FLOOR of 0 too it carries no information and adds 0, and with a
    slope that a quadratic zero that deep could have (P'^2 <= 4 P''
    SLOPE_FLOOR) it adds the limit 2 P''.  Otherwise the other outcome, 1 - p,
    must lie above SLOPE_FLOOR.
    """

    def dark(q: float, dq: float, d2q: float | None) -> float | None:
        if d2q is None or q > SLOPE_FLOOR:
            return None
        if max(abs(dq), abs(d2q)) <= SLOPE_FLOOR:
            return 0.0
        return 2.0 * d2q if d2q > 0.0 and dq * dq <= 4.0 * d2q * SLOPE_FLOOR else None

    total = dark(p, dp, d2p)
    if total is None:
        total = p * (dp / p) ** 2 if p > 0.0 else 0.0
    limit = dark(1.0 - p, -dp, None if d2p is None else -d2p)
    if limit is not None:
        return total + limit
    if 1.0 - p <= SLOPE_FLOOR:
        raise DegenerateBranch(f"branch probability {1.0 - p:.3e} at phi={phi:.6g}")
    return total + dp * dp / (1.0 - p)


# ---------------------------------------------------------------------------
# Quantum Fisher information.
# ---------------------------------------------------------------------------


def qfi_mixed_gaussian(cov: np.ndarray, dmean: np.ndarray, dcov: np.ndarray) -> tuple[float, bool]:
    """(QFI, whether every pair of modes is pure) of a Gaussian family of covariance sigma and tangent (dR, dsigma).

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
    nu, s_inv = williamson(cov)
    n = len(nu)
    u = s_inv @ dmean
    p = (s_inv @ dcov @ s_inv.T).reshape(n, 2, n, 2)
    a, b, c, d = p[:, 0, :, 0], p[:, 0, :, 1], p[:, 1, :, 0], p[:, 1, :, 1]
    nn = np.outer(nu, nu)
    mixed = nn - 1.0 > PURE_GAUSSIAN_TOL
    mean_term = 2.0 * float(np.sum(u * u / np.repeat(nu, 2)))
    squeeze_term = float(np.sum(((a - d) ** 2 + (b + c) ** 2) / (4.0 * (nn + 1.0))))
    rotation_term = float(np.sum(((a + d)[mixed] ** 2 + (b - c)[mixed] ** 2) / (4.0 * (nn[mixed] - 1.0))))
    return mean_term + squeeze_term + rotation_term, bool(nu[-1] ** 2 - 1.0 <= PURE_GAUSSIAN_TOL)


# ---------------------------------------------------------------------------
# Closed-form coherent + squeezed-vacuum bounds and optima.
# ---------------------------------------------------------------------------


def lossless_qcrb(alpha2: float, r: float) -> float:
    """QCRB for coherent + squeezed vacuum through the MZI."""
    if alpha2 < 0.0 or r < 0.0:
        raise ValueError("require alpha2 >= 0 and r >= 0")
    return 1.0 / (alpha2 * math.exp(2.0 * r) + math.sinh(r) ** 2)


def parity_min_variance(alpha2: float, r: float) -> float:
    return lossless_qcrb(alpha2, r)  # parity reaches the QCRB


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

    A variance at most SNR_VARIANCE_FLOOR max(1, <n^2>) is zero, as the ordering constants round absolutely:
    the SNR of a Fock state, or of a dark port, is undefined (DegenerateBranch), not a ratio of rounding errors.
    """
    if subtract_injected < 0:
        raise ValueError("injected-photon count must be >= 0")
    var = moments.variance
    if var <= SNR_VARIANCE_FLOOR * max(1.0, abs(moments.second_moment)):
        raise DegenerateBranch("SNR undefined for zero variance")
    return (moments.mean - subtract_injected) / math.sqrt(var)


def _trig(c: np.ndarray, theta: float) -> float:
    """sum_k c_k e^{i k theta} over k = -D..D, of a real trigonometric polynomial."""
    k = np.arange(len(c)) - (len(c) - 1) // 2
    return float(np.real(np.sum(c * np.exp(1j * k * theta))))


def _circle_roots(polys: list) -> list[list[float]]:
    """Angles in [0, 2 pi) of the roots on the unit circle of each of a list of polynomials, highest power first.

    The roots are the companion matrix's eigenvalues, as `np.roots` finds them, in one stacked call for the
    polynomials of one length and one span of nonzero coefficients.  They lose accuracy next to the roots near 0
    and infinity that rounding-level leading or trailing coefficients put there, so the roots near the circle take
    two Newton steps, all at once and each as it would alone; a root where the derivative is exactly 0 stays.
    """
    found, spans = [[] for _ in polys], {}
    for i, p in enumerate(polys):
        nonzero = np.flatnonzero(p)
        if len(nonzero) > 1:
            spans.setdefault((p.dtype, len(p), nonzero[0], nonzero[-1]), []).append(i)
    for (_, size, lo, hi), rows in spans.items():
        p = np.array([polys[i] for i in rows])
        companion = np.zeros((len(rows), hi - lo, hi - lo), p.dtype)
        companion[:, 1:, :-1] = np.eye(hi - lo - 1)
        companion[:, 0] = -p[:, lo + 1 : hi + 1] / p[:, lo : lo + 1]
        z = np.linalg.eigvals(companion)
        near = np.abs(np.abs(z) - 1.0) <= 0.5
        owner, z = np.nonzero(near)[0], z[near]
        # each root's polynomial and derivative as columns, which `np.polyval` evaluates root by root
        p = p[owner].T
        dp = p[:-1] * np.arange(size - 1, 0, -1)[:, None]
        for _ in range(2):
            dz = np.polyval(dp, z)
            z = np.where(dz == 0.0, z, z - np.polyval(p, z) / np.where(dz == 0.0, 1.0, dz))
        on = np.abs(np.abs(z) - 1.0) <= 1e-3
        for i, theta in zip(owner[on], np.angle(z[on]) % (2.0 * math.pi)):
            found[rows[i]].append(float(theta))
    return found


@cache
def _dft(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The wavenumbers k = -2d..2d of n = 4d + 1 equispaced samples and the DFT whose row k gives the coefficient of
    e^{i k theta} from them, read-only: every signal of n samples shares them."""
    kv = np.arange(n) - (n - 1) // 2
    dft = np.exp(-2j * math.pi * np.outer(kv, np.arange(n)) / n) / n
    kv.flags.writeable = dft.flags.writeable = False
    return kv, dft


def trig_signal(stack: Sequence, rate: int) -> list:
    """The phase variance V = Var / (d<O>/dphi)^2 of each of a stack of trigonometric signals, the rounding level of
    its slope, and V at its stationary points.

    Each entry of `stack` is a detector's moments (`mean`, `variance`,
    `second_moment`) at theta_j = 2 pi j / n, n = 4d + 1, with phi = rate *
    theta, where <O> is a trigonometric polynomial of degree <= d in theta
    and <O^2> one of degree <= 2d; the samples then fix both exactly.  With
    P_v(z) = z^{2d} Var and P_m(z) = z^d d<O>/dtheta on z = e^{i theta}, the
    phase variance is V = rate^2 P_v / P_m^2.  A dark fringe, a real zero of
    the slope where the variance vanishes too, is cancelled from both,
    (z - z0) from P_m and (z - z0)^2 from P_v, so that V keeps its limit
    Var''/(2 <O>''^2) there and is smooth nearby.

    Returns, per signal, V over an array of phases, inf where it is not
    positive or where the reduced P_m (the slope, and at a dark fringe the
    curvature) is not above the rounding level of the slope; that level in
    phi; and (phi, V) in [0, 2 pi rate) at phi = 0, at the dark fringes and
    at the roots of P_v' P_m - 2 P_v P_m' on the unit circle, where V is
    finite; or a SignalStationary when every slope coefficient is at rounding
    level.  The circle roots of every signal come from one call per stage
    (`_circle_roots`), and each signal's result is the one it gives alone.
    """
    runs = [_trig_stages(samples, rate) for samples in stack]
    found, polys = {}, {}  # by signal: its result, and the polynomial whose roots it waits on
    for i, run in enumerate(runs):
        try:
            polys[i] = next(run)
        except SignalStationary as exc:
            found[i] = exc
    while polys:
        for i, thetas in zip(list(polys), _circle_roots(list(polys.values()))):
            try:
                polys[i] = runs[i].send(thetas)
            except StopIteration as stop:
                found[i] = stop.value
                del polys[i]
    return [found[i] for i in range(len(runs))]


def _trig_stages(samples: Sequence, rate: int):
    """`trig_signal` of one signal, which yields each polynomial whose circle roots it needs and takes them back."""
    n = len(samples)
    d = (n - 1) // 4
    mean = np.array([s.mean for s in samples])
    kv, dft = _dft(n)
    var_c = dft @ np.array([s.variance for s in samples])
    mean_c = (dft @ mean)[d : 3 * d + 1]  # k = -d..d; the higher ones are rounding
    slope_c = 1j * kv[d : 3 * d + 1] * mean_c
    # the rounding level of a slope in theta, and of a variance from <O^2> - <O>^2
    slope_noise = rate * max(SLOPE_FLOOR, SLOPE_NOISE * float(np.max(np.abs(mean))))
    var_noise = SLOPE_NOISE * max(1.0, max(abs(s.second_moment) for s in samples))
    if np.max(np.abs(slope_c)) <= slope_noise:
        raise SignalStationary("no searched phase gives a finite phase variance: the signal is flat in phi")
    # P_v and P_m with the highest power of z first, as np.roots and np.polyval take them
    p_v, p_m = var_c[::-1], slope_c[::-1]
    thetas = [0.0]
    for theta in (yield p_m):
        if abs(_trig(slope_c, theta)) > slope_noise or abs(_trig(var_c, theta)) > var_noise:
            continue
        z0 = np.array([1.0, -np.exp(1j * theta)])
        p_m, p_v = np.polydiv(p_m, z0)[0], np.polydiv(p_v, np.convolve(z0, z0))[0]
        thetas.append(theta)
    if len(p_m) > 1:  # else every slope zero was a dark fringe, and V is constant (a single photon's intensity)
        dp_v, dp_m = p_v[:-1] * np.arange(len(p_v) - 1, 0, -1), p_m[:-1] * np.arange(len(p_m) - 1, 0, -1)
        thetas += yield np.convolve(dp_v, p_m) - 2.0 * np.convolve(p_v, dp_m)

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
    """phi modulo the period, in [0, period): a root a rounding step off 0 or the period is at 0."""
    phi = phi % period
    return 0.0 if min(phi, period - phi) <= 4.0 * np.finfo(float).eps * period else float(phi)


def jet_phase_variance(m, m1, m2, var, var1, var2, var_noise) -> np.ndarray:
    """Var / <O>'^2 from the jets (<O>, <O>', <O>'') and (Var, Var', Var'') of a signal, over arrays.

    Where Var is at most `var_noise`, its rounding level, the point is a dark
    fringe, a zero of <O>', and V is the limit Var'' / (2 <O>''^2) there; for
    parity this is -<O> / <O>''.  Points with no resolvable slope or
    curvature, a variance that does not curve up at a dark fringe, or a
    negative variance elsewhere, give inf.
    """
    noise = np.maximum(SLOPE_FLOOR, SLOPE_NOISE * np.abs(m))
    dark = (np.abs(var) <= var_noise) & (np.abs(m2) > noise) & (var2 > 0.0)
    slope = ~dark & (np.abs(m1) > noise) & (var > 0.0)
    v = np.full(np.shape(m), math.inf)
    np.divide(var, m1 * m1, out=v, where=slope)
    np.divide(var2, 2.0 * m2 * m2, out=v, where=dark)
    return v


def _refine(jet: Callable, f: Callable, x: np.ndarray, g: np.ndarray, which: np.ndarray) -> tuple:
    """Roots of f, one in each bracket [x1, x2] of four sorted phases x0 <= x1 < x2 <= x3, as read phases.

    `jet(phis, which)` returns a (q, n) stack of a stack of signals, `which` the signal of each phase; x is (k, 4),
    g (q, k, 4) the jet at x, `which` the signal of each bracket, and f(g, rows) maps the jets (q, m, ...) of the
    rows `rows` of x to (m, ...), with a sign change from x1 to x2.  Each round makes one jet call, at
    REFINE_WINDOW phases inside every live bracket, and keeps the sub-interval where f changes sign, with its two
    neighbours: an enclosure method after Alefeld, Potra & Shi, ACM TOMS 21, 327 (1995).  The
    phases sit around the inverse cubic interpolant phi(f) = 0 through the four points, at distances growing
    from one ulp to the bracket width, so that a guess off by e leaves a bracket a few e wide.  A bracket with
    no guess strictly inside it (four points with a repeated f have none), or that the last round did not
    halve, is spread evenly instead.  A bracket stops at 4 ulp (of its upper end at the start of the round),
    or at a phase where f is 0.  A phase where the jet is NaN (unresolved) counts as leaving the sign of
    f(x1), so that a bracket reaching into an unresolved stretch closes on its edge, a wall.  Returns the end
    of each final bracket where |f| is least (the resolved one, at a wall), the jet (q, k) read there, and
    whether the bracket closed on a wall.
    """
    slot, roots, jets, walls = np.arange(len(x)), np.empty(len(x)), np.empty(g.shape[:2]), np.zeros(len(x), bool)
    if not len(x):
        return roots, jets, walls
    y, halved = f(g, slot), np.ones(len(x), dtype=bool)
    for n in range(REFINE_ROUNDS):
        if not len(slot):
            break
        a, b = x[:, 1:2], x[:, 2:3]
        width, u = b - a, np.spacing(np.maximum(b, 1.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            lagrange = np.where(_OFF_DIAGONAL, y[:, None, :] / (y[:, None, :] - y[:, :, None]), 1.0).prod(2)
            r = (x * lagrange).sum(1)[:, None]
            window = r + u * _SIGN * ((width / u) ** _GROWTH + _K)
        guess = (r > a) & (r < b) & halved[:, None]
        window = np.where(guess, np.minimum(np.maximum(window, a), b), a + width * _EVEN)
        read = np.asarray(jet(window.ravel(), np.repeat(which[slot], REFINE_WINDOW))).reshape(len(g), len(slot), -1)
        xs = np.concatenate([x[:, :2], window, x[:, 2:]], 1)
        ys = np.concatenate([y[:, :2], f(read, slot), y[:, 2:]], 1)
        gs = np.concatenate([g[:, :, :2], read, g[:, :, 2:]], 2)
        # the first phase after x1 where f leaves the sign of f(x1), never 0, closes the new bracket
        at = ((ys[:, 2:-1] * np.sign(ys[:, 1:2]) <= 0.0) | np.isnan(ys[:, 2:-1])).argmax(1)[:, None] + _FOUR
        rows = np.arange(len(slot))[:, None]
        x, y, g = xs[rows, at], ys[rows, at], gs[:, rows, at]
        halved = x[:, 2] - x[:, 1] <= width[:, 0] / 2.0
        done = (x[:, 2] - x[:, 1] <= 4.0 * u[:, 0]) | (y[:, 2] == 0.0)
        if n == REFINE_ROUNDS - 1:
            done[:] = True
        if done.any():
            upper = np.abs(y[done, 2]) < np.abs(y[done, 1])
            roots[slot[done]] = np.where(upper, x[done, 2], x[done, 1])
            jets[:, slot[done]] = np.where(upper, g[:, done, 2], g[:, done, 1])
            walls[slot[done]] = np.isnan(y[done, 2])
            x, y, g, halved, slot = x[~done], y[~done], g[:, ~done], halved[~done], slot[~done]
    return roots, jets, walls


def kernel_minima(jet: Callable, period: float, cells: int, signals: int) -> list:
    """(phi, V) at the stationary points of V = Var / <O>'^2 over one period of each of a stack of signals.

    `jet(phis, which)` returns <O>, <O>', <O>'', Var, Var', Var'' and the
    rounding level of Var at an array of phases, `which` the signal of each,
    as a (7, n) stack, NaN where the signal is unresolved; the result is a
    list per signal, a single signal a stack of one.  It
    is read at the centres of `cells` equal cells over [0, period],
    KERNEL_CHUNK cells of every signal per call; with `cells` a
    multiple of 4 no centre falls on a multiple of pi, where symmetric signals
    have <O>' = 0.  With theta' = <O>' / sqrt(Var), V = 1 / theta'^2, so the
    stationary points of V other than its poles are the zeros of
    N = Var' <O>' - 2 Var <O>'', as theta'' = -N / (2 Var^{3/2}).  Every cell
    where a resolvable <O>' changes sign is refined to the zero of <O>'
    (`_refine`).  Where Var is at rounding level there, that zero is a dark
    fringe, and V is its exact limit (`jet_phase_variance`); otherwise it is a
    pole of V, where N keeps its sign and which splits its cell in two, since
    the mirror minima next to a nearly dark fringe may share one.  Every
    (half) cell with a resolvable slope where N changes sign is refined to the
    zero of N, except within one cell of a dark fringe of its signal, where N
    vanishes to third order and Var / <O>'^2 is rounding over rounding.  The
    whole cells of N are refined with the zeros of <O>', in the same jet calls,
    and the halves after them; the brackets of every signal share each call.
    A zero of <O>' that an unresolved stretch hides is read at that stretch's
    edge and kept as a fringe: V there is the least it reaches from that side.
    Each root is a phase the jet was read at, and V there comes from that jet;
    the grid's jets at the cell ends and the poles' jets are carried into the
    refinement, not read again.  No bracket meets another, so a signal's
    minima are those it gives alone, bit for bit.
    """
    step = period / cells

    def n_of(g: np.ndarray) -> np.ndarray:
        return g[4] * g[1] - 2.0 * g[3] * g[2]

    zeros, cells_n = [], []  # (phases, jets, signals) (k, 4) around each cell where <O>', and N, change sign
    for start in range(0, cells, KERNEL_CHUNK):
        phi = step * (np.arange(start, min(start + KERNEL_CHUNK, cells) + 1) + 0.5)
        g = np.asarray(jet(np.tile(phi, signals), np.repeat(np.arange(signals), len(phi))))
        g = g.reshape(-1, signals, len(phi))
        nn = n_of(g)
        m1 = np.where(np.abs(g[1]) > np.maximum(SLOPE_FLOOR, SLOPE_NOISE * np.abs(g[0])), g[1], 0.0)
        turns = m1[:, :-1] * m1[:, 1:]
        for rows, cells_at in ((zeros, turns < 0.0), (cells_n, (nn[:, :-1] * nn[:, 1:] < 0.0) & (turns > 0.0))):
            # each cell and its neighbours, the cell's own ends standing in for those past the chunk's
            s, c = np.nonzero(cells_at)
            i = np.minimum(np.maximum(c[:, None] - 1 + _FOUR, 0), len(phi) - 1)
            rows.append((phi[i], g[:, s[:, None], i], s))
    (x, g, w), (x_n, g_n, w_n) = ((np.concatenate(p), np.concatenate(j, 1), np.concatenate(s))
                                  for p, j, s in (zip(*zeros), zip(*cells_n)))

    def near(x: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Whether each cell's centre lies within 1.5 cells of a fringe of its own signal, over the period."""
        apart = np.abs(((x[:, 1] + x[:, 2])[:, None] / 2.0 - fringes + period / 2.0) % period - period / 2.0)
        return np.any((apart < 1.5 * step) & (w[:, None] == w_fringes), axis=1)

    k = len(x)
    roots, g_root, walls = _refine(jet, lambda g, rows: np.where((rows >= k)[:, None], n_of(g), g[1]),
                                   np.concatenate([x, x_n]), np.concatenate([g, g_n], 1), np.concatenate([w, w_n]))
    # a zero of <O>' behind a wall (a herald zero, say) is read at the wall's edge, like a dark fringe
    dark = (np.abs(g_root[3, :k]) <= g_root[6, :k]) | walls[:k]
    fringes, w_fringes = roots[:k][dark], w[dark]
    # a pole splits its cell: (x0, x1, pole, x2) and (x1, pole, x2, x3)
    x, g, w, pole, g_pole = x[~dark], g[:, ~dark], w[~dark], roots[:k][~dark, None], g_root[:, :k][:, ~dark, None]
    x = np.concatenate([np.concatenate([x[:, :2], pole, x[:, 2:3]], 1), np.concatenate([x[:, 1:2], pole, x[:, 2:]], 1)])
    g = np.concatenate([np.concatenate([g[:, :, :2], g_pole, g[:, :, 2:3]], 2),
                        np.concatenate([g[:, :, 1:2], g_pole, g[:, :, 2:]], 2)], 1)
    w, nn = np.concatenate([w, w]), n_of(g)
    # within a cell of a dark fringe N vanishes to third order, and Var / <O>'^2 is rounding over rounding
    keep = (nn[:, 1] * nn[:, 2] < 0.0) & ~near(x, w)
    halves, g_halves, _ = _refine(jet, lambda g, rows: n_of(g), x[keep], g[:, keep], w[keep])
    far = ~near(x_n, w_n)
    phis = np.concatenate([fringes, roots[k:][far], halves])
    variance = jet_phase_variance(*np.concatenate([g_root[:, :k][:, dark], g_root[:, k:][:, far], g_halves], 1))
    w = np.concatenate([w_fringes, w_n[far], w[keep]])
    return [[(_wrap(r, period), float(v)) for r, v in zip(phis[w == s], variance[w == s]) if math.isfinite(v)]
            for s in range(signals)]


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
