"""General Wigner representation: weighted sums of polynomial x Gaussian terms.

Every state in scope lives in this class: Gaussian states are a single constant
term, Fock states are Laguerre polynomials times a Gaussian, and heralded
addition/subtraction outputs stay inside the class because it is closed under
Gaussian channels, multiplication by Fock projectors, and partial
integration.  All moments and overlaps evaluate analytically through the
Gaussian moment recursion, walked once per monomial set into a cached
schedule (`_wick_plan`) read one degree at a time, so no quadrature is used.

Partial integration is one routine, `_integrate_out`: a marginal, a Fock
projection, every arm of a herald, a loss and a detected mode's photon-number
state each integrate some variables out of the image of an expression under
a Gaussian channel X = A Y + b + xi, against a product of Fock projectors or
not.  It conditions each term's joint (Y, X) Gaussian on the kept variables
and substitutes no polynomial, so a herald never expands its beam splitter, a
loss needs no ancilla, and no state map is substituted into a term.

An `AffineImage` is an expression seen through a Gaussian channel
X = A Y + b + xi without substituting the channel into its terms: a moment of
X, or a Gaussian kernel on one mode, conditions each term's joint (Y, X)
Gaussian and takes one Wick expectation of the term's own polynomial
(`kernel_densities`).  Seen through a herald's Fock projectors on ancilla
modes of X (`projector`), each projector is one more Gaussian kernel with a
Laguerre factor (`herald_read`); an unheralded read is the one product of no
projectors (`UNHERALDED`).  `AffineImage.state` gives the state of some
modes of X through a herald, every other variable integrated out once per
projector product: that one read serves both arms of an input-stage herald,
which share their products, and a detected mode.

Term convention: weight * poly(X) * exp(-(X - mean)^T quad^{-1} (X - mean)),
matching the Gaussian Wigner exponent used throughout, so quad equals the
covariance matrix sigma for Gaussian states and the per-variable covariance of
the Gaussian factor is quad / 2.

A grid expression (a stack of channels in `_integrate_out` makes one) holds a state
per grid point: its terms' means and quads carry a leading grid axis, weights and
coefficients may, and the routines broadcast; scalars keep their arithmetic bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import zip_longest
from typing import Iterable, Mapping

import numpy as np

from .errors import ContourTooLong, ImprobableBranch
from .gaussian import GaussianState
from .symplectic import SymplecticTransform

FOCK_CUTOFF = 64
IMPROBABLE_FLOOR = 1e-14
DEFAULT_NMAX = 40
CONTOUR_SLAB = 2048
# `photon_number_distribution`: the bound on each P(n)'s aliasing error, the longest contour, and the real
# widths, as fractions of the widest that converges, at which E[r^N] is read for the bound
CONTOUR_ALIAS = 2.0**-53
CONTOUR_MAX = 2**14
CONTOUR_WIDTHS = (1 / 64, 1 / 32, 1 / 16, 1 / 8, 1 / 4, 1 / 2, 3 / 4, 7 / 8, 15 / 16, 31 / 32, 63 / 64)
# The contour's rounding reaches some 1e-13 where a herald's terms cancel.  A multinomial draw spends a uniform
# on a category of rounding-level probability but none on an exact 0, so two reads of one distribution that agree
# to rounding draw the same histogram only once such probabilities are drawn as 0.
HISTOGRAM_FLOOR = 1e-12
WICK_PLANS = 128  # Wick schedules kept, one per monomial set (and shifts) of an expectation

Poly = dict  # exponent tuple over the 2N variables -> real coefficient


def _poly_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0.0) + ca * cb
    return out


def _poly_scale(a: Poly, s) -> Poly:
    return {e: c * s for e, c in a.items()}


def _poly_add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0.0) + c
    return out


def _nonzero(c) -> bool:  # at some grid point, for an array
    return bool(np.any(np.abs(c) > 0.0)) if isinstance(c, np.ndarray) else abs(c) > 0.0


def _poly_prune(a: Poly) -> Poly:
    return {e: c for e, c in a.items() if _nonzero(c)}


def _mv(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x for a matrix a and a vector x, either of them stacked along leading grid axes."""
    return (a @ x[..., None])[..., 0]


def _quadratic(x: np.ndarray, a: np.ndarray):
    """x^T a x, over any leading grid axes."""
    return (x[..., None, :] @ a @ x[..., :, None])[..., 0, 0]


def _const_poly(nvars: int, value=1.0) -> Poly:
    return {(0,) * nvars: value}


@lru_cache(maxsize=WICK_PLANS)
def _wick_plan(keys: tuple, shifts: tuple | None) -> tuple:
    """The recursion E[X^e] = m_i E[X^(e - 1_i)] + sum_j C_ij (e - 1_i)_j E[X^(e - 1_i - 1_j)], i the first
    variable of e, over the monomials `keys` (times X^e for each e of `shifts`), walked once: the rows after row 0
    (E[1]), each (i, row of e - 1_i, ((slot of C_ij (e - 1_i)_j, row of e - 1_i - 1_j) in increasing j)) after
    the rows it reads; the slots (i, j, k), an (S, 3) array; a function that builds, once, the levels by degree
    (whose rows read the two levels below only) as index arrays: rows, i, rows of e - 1_i, and per pair slot q the
    slots and rows of e - 1_i - 1_j of the rows with a q-th pair, which lead; and each key's row for each shift."""
    index, rows, slots, levels = {}, [], {}, {}

    def row(e: tuple) -> int:
        if e not in index and any(e):
            i = e.index(next(filter(None, e)))
            e1 = list(e)
            e1[i] -= 1
            pairs = []
            for j, ej in enumerate(e1):
                if ej:  # e - 1_i - 1_j, for a moment
                    e1[j] -= 1
                    pairs.append((slots.setdefault((i, j, ej), len(slots)), row(tuple(e1))))
                    e1[j] += 1
            rows.append((i, row(tuple(e1)), tuple(pairs)))
            levels.setdefault(sum(e), []).append(index.setdefault(e, len(rows)))  # filed after a row one degree lower
        return index.get(e, 0)

    out = (tuple(map(row, keys)),) if shifts is None else tuple(
        tuple(row(tuple(a + b for a, b in zip(ea, e))) for ea in keys) for e in shifts)

    @cache
    def arrays() -> tuple:  # on the first batched walk: the scalar walks, most of a plan's, read the rows only
        for d, level in levels.items():
            level.sort(key=lambda r: -len(rows[r - 1][2]))  # stable: for each q, the rows with a q-th pair lead
            i, r1, pairs = zip(*(rows[r - 1] for r in level))
            levels[d] = (np.array(level), np.array(i), np.array(r1),
                         [tuple(map(np.array, zip(*filter(None, col)))) for col in zip_longest(*pairs)])
        return tuple(levels.values())

    return tuple(rows), np.array(list(slots), dtype=int).reshape(-1, 3), arrays, out


def _gaussian_expectation(poly: Poly, mean: np.ndarray, cov: np.ndarray, shifts: list | None = None):
    """E[poly(X)] for X ~ N(mean, cov), exact via the Gaussian moment recursion.

    mean has shape (n,) and cov (n, n), or both carry the same trailing batch axes B, mean (n, *B) and cov
    (n, n, *B), to evaluate B Gaussians in one pass; the result then has shape B.  With `shifts`, a list of exponent
    tuples e, it returns the list of E[poly(X) X^e], all from one pass.  A call walks the cached schedule of its
    monomial set (`_wick_plan`) with the recursion's arithmetic: row by row on Python scalars for one Gaussian or
    a real batch of one, else level by level on one (rows + 1, *B) array, one product and one sum per pair slot.
    """
    rows, slots, levels, out = _wick_plan(tuple(poly), None if shifts is None else tuple(shifts))
    column = mean.shape[1:] == (1,) and not np.iscomplexobj(mean)  # Python's complex product can differ in a bit
    if mean.ndim == 1 or column:
        mean, cov = (mean[:, 0].tolist(), cov[..., 0].tolist()) if column else (mean.tolist(), cov.tolist())
        factors = [cov[i][j] * k for i, j, k in slots.tolist()]
        values = [1.0]
        for i, r1, pairs in rows:
            v = mean[i] * values[r1]
            for f, r2 in pairs:
                v += factors[f] * values[r2]
            values.append(v)
        values = np.array(values)[:, None] if column else values  # a batch's rows have shape (1,)
    else:
        factors = (cov[slots[:, 0], slots[:, 1]].T * slots[:, 2]).T
        values = np.ones((len(rows) + 1,) + mean.shape[1:], np.result_type(mean, cov))
        for level, i, r1, pairs in levels():
            v = mean[i] * values[r1]
            for f, r2 in pairs:
                v[: len(f)] += factors[f] * values[r2]
            values[level] = v
    sums = [sum(c * (values[r] if r else 1.0) for c, r in zip(poly.values(), part)) for part in out]
    return sums[0] if shifts is None else sums


def _affine_expectation(poly: Poly, lin: np.ndarray, const: np.ndarray, cov: np.ndarray) -> Poly:
    """E[poly(u)] for u = lin y + const + xi, xi ~ N(0, cov), as a poly in y.

    A variable with no noise and a one-monomial mean multiplies as a power of
    that monomial; the others go through the Gaussian moment recursion, whose
    means are affine polys in y.
    """
    nk = lin.shape[-1]
    # variables first, any grid axis last
    lin, cov, const = np.moveaxis(lin, (-2, -1), (0, 1)), np.moveaxis(cov, (-2, -1), (0, 1)), np.moveaxis(const, -1, 0)
    units = [tuple(int(j == k) for k in range(nk)) for j in range(nk)]
    rows = []
    for i in range(len(const)):
        row = {(0,) * nk: const[i], **{units[j]: lin[i, j] for j in range(nk) if _nonzero(lin[i, j])}}
        rows.append(_poly_prune(row) or _const_poly(nk, 0.0))
    fixed = {i for i, row in enumerate(rows) if len(row) == 1 and not np.any(cov[i])}
    powers = [(i, *next(iter(rows[i].items()))) for i in sorted(fixed)]
    rand = [i for i in range(len(rows)) if i not in fixed]
    cov = cov[np.ix_(rand, rand)]
    memo: dict[tuple, Poly] = {}

    def mom(e: tuple) -> Poly:
        if e in memo:
            return memo[e]
        i = next((k for k, v in enumerate(e) if v), -1)
        if i < 0:
            return _const_poly(nk)
        e1 = list(e)
        e1[i] -= 1
        e1t = tuple(e1)
        val = _poly_mul(rows[rand[i]], mom(e1t))
        for j, ej in enumerate(e1t):
            if ej and _nonzero(cov[i, j]):
                e2 = list(e1t)
                e2[j] -= 1
                val = _poly_add(val, _poly_scale(mom(tuple(e2)), cov[i, j] * ej))
        memo[e] = val
        return val

    result: Poly = {}
    for expo, coeff in poly.items():
        e_keep = (0,) * nk
        for i, e_row, c_row in powers:
            if expo[i]:
                e_keep = tuple(a + expo[i] * b for a, b in zip(e_keep, e_row))
                coeff *= c_row ** expo[i]
        for e, c in _poly_mul({e_keep: coeff}, mom(tuple(expo[i] for i in rand))).items():
            result[e] = result.get(e, 0.0) + c
    return _poly_prune(result)


@dataclass(frozen=True)
class Term:
    """One polynomial x Gaussian summand."""

    weight: float
    poly: Poly
    mean: np.ndarray
    quad: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        quad = np.asarray(self.quad, dtype=float)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "quad", quad)

    @property
    def nvars(self) -> int:
        return self.mean.shape[-1]

    def integral(self, shifts: list | None = None):
        """Analytic integral of this term over all variables; with `shifts`, the list of its integrals times X^e for
        each exponent tuple e, from one recursion.  Of a grid term, one per point."""
        mean, cov = self.mean, self.quad / 2.0
        if mean.ndim > 1:  # the grid axis moves last, where `_gaussian_expectation` takes batches
            mean, cov = np.moveaxis(mean, 0, -1), np.moveaxis(cov, 0, -1)
        wz = self.weight * (math.pi ** (self.nvars // 2) * np.sqrt(np.linalg.det(self.quad)))
        values = _gaussian_expectation(self.poly, mean, cov, shifts)
        real = [wz * (float(np.real(v)) if np.ndim(v) == 0 else np.real(v))
                for v in ([values] if shifts is None else values)]
        return real[0] if shifts is None else real


class WignerExpr:
    """Weighted sum of polynomial x Gaussian terms over 2N phase-space variables."""

    def __init__(self, modes: int, terms: list[Term]):
        self.modes = modes
        self.terms = terms
        self._norm: float | None = None

    @property
    def norm(self) -> float:
        """Integral over all variables, computed on first read and kept."""
        if self._norm is None:
            self._norm = sum(t.integral() for t in self.terms) if self.terms else 0.0
        return self._norm

    @property
    def nvars(self) -> int:
        return 2 * self.modes

    def normalize(self) -> "WignerExpr":
        """The expression divided by its norm, whose `norm` then reads 1.0 without a recursion."""
        if np.any(self.norm <= 0.0):
            raise ValueError(f"cannot normalize expression with integral {np.min(self.norm):.3e}")
        out = WignerExpr(self.modes, [Term(t.weight / self.norm, t.poly, t.mean, t.quad) for t in self.terms])
        out._norm = self.norm / self.norm  # 1.0 at each grid point
        return out

    def take(self, points) -> "WignerExpr":
        """A grid expression at some of its points (a mask or indices); a part without a grid axis stays."""
        def at(a, core: int):
            return a[points] if np.ndim(a) > core else a
        out = WignerExpr(self.modes, [Term(at(t.weight, 0), {e: at(c, 0) for e, c in t.poly.items()},
                                           at(t.mean, 1), at(t.quad, 2)) for t in self.terms])
        out._norm = None if self._norm is None else at(self._norm, 0)
        return out


def from_gaussian(state: GaussianState) -> WignerExpr:
    det = np.linalg.det(state.cov)
    if det <= 0.0:
        raise ValueError("singular covariance")
    w = 1.0 / (math.pi**state.modes * math.sqrt(det))
    term = Term(w, _const_poly(2 * state.modes), state.mean.copy(), state.cov.copy())
    return WignerExpr(state.modes, [term])


def _laguerre_poly_2d(n: int) -> Poly:
    """L_n(2(x^2+p^2)) expanded as a poly over (x, p)."""
    out: Poly = {}
    for k in range(n + 1):
        c = (-1) ** k * math.comb(n, k) * 2.0**k / math.factorial(k)
        for j in range(k + 1):
            e = (2 * j, 2 * (k - j))
            out[e] = out.get(e, 0.0) + c * math.comb(k, j)
    return out


def fock_wigner(n: int) -> WignerExpr:
    """Single-mode Fock state: (1/pi)(-1)^n L_n(2(x^2+p^2)) e^{-x^2-p^2}."""
    if n < 0:
        raise ValueError("photon number must be >= 0")
    if n > FOCK_CUTOFF:
        raise ValueError(f"photon number {n} above cutoff {FOCK_CUTOFF}")
    poly = _poly_scale(_laguerre_poly_2d(n), (-1.0) ** n)
    return WignerExpr(1, [Term(1.0 / math.pi, poly, np.zeros(2), np.eye(2))])


def tensor_exprs(a: WignerExpr, b: WignerExpr) -> WignerExpr:
    """Product state: concatenate variables (a's modes first)."""
    n = a.nvars + b.nvars
    terms = []
    for ta in a.terms:
        for tb in b.terms:
            poly = {}
            for ea, ca in ta.poly.items():
                for eb, cb in tb.poly.items():
                    poly[ea + eb] = ca * cb
            grid = np.broadcast_shapes(ta.mean.shape[:-1], tb.mean.shape[:-1])
            mean = np.concatenate([np.broadcast_to(t.mean, grid + t.mean.shape[-1:]) for t in (ta, tb)], -1)
            quad = np.zeros(grid + (n, n))
            quad[..., : a.nvars, : a.nvars] = ta.quad
            quad[..., a.nvars :, a.nvars :] = tb.quad
            terms.append(Term(ta.weight * tb.weight, poly, mean, quad))
    return WignerExpr(a.modes + b.modes, terms)


def _exponents(exponents: Mapping[int, int] | Iterable[int], nvars: int) -> tuple:
    """A full exponent tuple over nvars variables, from a tuple or a {0-based variable index: power} mapping."""
    if isinstance(exponents, Mapping):
        e = [0] * nvars
        for k, v in exponents.items():
            e[k] = v
        e = tuple(e)
    else:
        e = tuple(exponents)
    if len(e) != nvars:
        raise ValueError(f"exponent tuple has length {len(e)}, expected {nvars}")
    return e


def moments(expr: WignerExpr, monomials: list) -> list:
    """The integral of X^e against the expression for each monomial e, exact via Wick pairings, from one Wick pass
    per term.

    A monomial is either a full exponent tuple over the 2N variables or a mapping {variable index: power} with
    0-based variable indices.
    """
    shifts = [_exponents(e, expr.nvars) for e in monomials]
    totals = [0] * len(shifts)
    for t in expr.terms:
        totals = [acc + v for acc, v in zip(totals, t.integral(shifts=shifts))]
    return totals


# The herald of an unheralded read: one product, of no projectors, with sign 1.
UNHERALDED = ((1.0, ()),)


def projector(v: int, n: int, complement: bool = False) -> tuple:
    """2 pi F_n on the ancilla variables (v, v + 1), or 1 - 2 pi F_n, as signed products for `herald_read`."""
    return ((1.0, ()), (-1.0, ((v, n),))) if complement else ((1.0, ((v, n),)),)


class AffineImage:
    """The state of X = A Y + b + xi: Y distributed as a normalized expression, xi ~ N(0, noise) independent.

    The channel is never substituted into the expression's terms.  A moment of
    X conditions each term's Gaussian and leaves one Wick expectation of the
    term's own polynomial (`herald_read`).  `noise` is a covariance of the
    variables (sigma / 2 in the state convention).

    A `herald` (signed products of projectors on ancilla modes of X, as
    `herald_read` takes them) conditions X on the ancillas' outcome: every
    moment is then a `herald_read` of the projectors times the monomial, over
    `probability`, the read of the projectors alone, and `modes` counts the
    modes other than the ancillas.  With no herald the read is `UNHERALDED`
    and the probability 1.  `state` reads the same products, or another
    herald's, and also a stack of channels.
    """

    def __init__(self, expr: WignerExpr, a: np.ndarray, shift: np.ndarray, noise: np.ndarray,
                 herald: tuple | None = None):
        self.expr = expr
        self.a, self.shift, self.noise = a, shift, noise
        self.herald = herald
        self.modes = expr.modes - len({v for _, projectors in herald or () for v, _ in projectors})
        self._columns = self._probability = None
        self._parts = {}  # (kept variables, projectors) -> their integrated part

    def _read(self, monomials: list | None = None) -> np.ndarray:
        if self._columns is None:
            self._columns = kernel_columns((self.expr,))
        return herald_read(self._columns, self.a[None], self.shift, self.noise, self.herald or UNHERALDED,
                           monomials=monomials)[0]

    @property
    def probability(self) -> float:
        """The probability of the herald's outcome, 1 with no herald."""
        if self._probability is None:
            self._probability = float(self._read()[0, 0]) if self.herald else 1.0
        return self._probability

    def moments(self, monomials: list) -> list[float]:
        """E[X^e] for each monomial e (a tuple or a {variable index: power} mapping), from one read."""
        return [float(v[0, 0]) / self.probability for v in self._read(monomials=monomials)]

    def state(self, modes, herald: tuple | None = None) -> WignerExpr:
        """The state of the `modes` of X read through `herald` (the image's own by default), whose norm is the
        herald's probability times the expression's norm.

        Each signed product of projectors integrates every other variable of X, the ancillas' included, out of the
        expression's image (`_integrate_out`) once per image, and the parts' terms and norms add with its sign: an
        arm and its complement share their parts.  A stack of channels, one per grid point, gives a grid expression.
        """
        kept = [2 * m - 2 + i for m in modes for i in (0, 1)]
        others = [i for i in range(self.expr.nvars) if i not in kept]
        terms, norm = [], 0.0
        for sign, projectors in herald or self.herald or UNHERALDED:
            key = tuple(kept), projectors
            if key not in self._parts:
                self._parts[key] = _integrate_out(self.expr, others, (self.a, self.shift, self.noise), projectors)
            terms += [Term(sign * t.weight, t.poly, t.mean, t.quad) for t in self._parts[key].terms]
            norm = norm + sign * self._parts[key].norm
        out = WignerExpr(len(kept) // 2, terms)
        out._norm = norm
        return out


@dataclass(frozen=True)
class KernelColumn:
    """One term of a stack of expressions that share its Gaussian: the variable covariance quad / 2, the mean,
    det(pi quad), and the polynomials as coefficient columns {monomial: (len(exprs), 1) array}."""

    cov: np.ndarray
    mean: np.ndarray
    det: float
    poly: dict


def kernel_columns(exprs: tuple) -> list[KernelColumn]:
    """The `KernelColumn` of each term of expressions that share every term's Gaussian (W and its phase tangents)."""
    columns = []
    for terms in zip(*(e.terms for e in exprs)):
        t, keys = terms[0], set().union(*(u.poly for u in terms))
        poly = {e: np.array([[u.weight * u.poly.get(e, 0.0)] for u in terms]) for e in keys}
        columns.append(KernelColumn(t.quad / 2.0, t.mean, float(np.linalg.det(math.pi * t.quad)), poly))
    return columns


def kernel_densities(columns: list[KernelColumn], rows: np.ndarray, shift: np.ndarray, noise: np.ndarray,
                     blur: np.ndarray, kernel: list | None = None, factor: Poly | None = None,
                     monomials: list | None = None) -> tuple:
    """Int W(Y) E[N(0; V_g, blur) Q(V) V^e] dY under each expression of the columns, for V = B Y + c + eta with
    eta ~ N(0, noise), over a stack of B (k, d, n).

    V_g are the variables `kernel` of V (all of them if None), Q the polynomial `factor` (1 if None) and e each
    of `monomials` (as `moments` takes them, on variables outside V_g).  Under a term's Gaussian Y ~ N(m, Sigma),
    U = V_g + zeta with zeta ~ N(0, blur) has mean mu = B_g m + c_g and covariance S = Sigma_gg + blur, Sigma_gg
    = B_g Sigma B_g^T + noise_gg, and the term adds N(0; mu, S) times the Wick expectation of its polynomial
    times Q(V) V^e given U = 0: one recursion over (Y, V) for all the expressions and monomials.  Q comes
    smoothed by N(0, blur / 2) on V_g (`_projector_factor`), so V_g's conditional block enters less blur / 2,
    as 1/2 blur S^-1 (Sigma_gg - blur): a projector read near its zero then keeps its digits.  With neither a
    factor nor monomials only Y is conditioned, on V_g.  Returns the densities, (len(exprs), k) or
    (len(monomials), len(exprs), k), and the summed term magnitudes of the first expression, its rounding scale.
    """
    joint = factor is not None or monomials is not None
    if not joint and kernel is not None:
        rows, shift, noise = rows[:, kernel], shift[kernel], noise[kernel][:, kernel]
    d = rows.shape[1]
    if joint:
        g = np.arange(d) if kernel is None else np.asarray(kernel, dtype=int)
        factor = factor or {(0,) * d: 1.0}
        shifts = None if monomials is None else [(0,) * columns[0].mean.size + _exponents(e, d) for e in monomials]
    else:
        kernel_cov = noise + blur
    total = scale = 0.0
    norm = (2.0 * math.pi) ** ((len(g) if joint else d) / 2.0)
    for c in columns:
        n, k = c.mean.size, rows.shape[0]
        sb = c.cov @ np.swapaxes(rows, 1, 2)  # Sigma B^T
        mu = rows @ c.mean + shift
        if joint:  # Z = (Y, V), and its covariance with U
            cov = np.concatenate([np.concatenate([np.broadcast_to(c.cov, (k, n, n)), sb], 2),
                                  np.concatenate([np.swapaxes(sb, 1, 2), rows @ sb + noise], 2)], 1)
            mean, cross, mu = np.concatenate([np.broadcast_to(c.mean, (k, n)), mu], 1), cov[:, :, n + g], mu[:, g]
            s_inv = np.linalg.inv(cross[:, n + g] + blur)
            poly = {ey + eq: cy * cq for ey, cy in c.poly.items() for eq, cq in factor.items()}
        else:
            cov, mean, cross, poly, shifts = c.cov, c.mean, sb, c.poly, None
            s_inv = np.linalg.inv(rows @ sb + kernel_cov)
        gain = cross @ s_inv
        cond = cov - gain @ np.swapaxes(cross, 1, 2)
        if joint:
            excess = 0.5 * blur @ s_inv @ (cross[:, n + g] - blur)
            cond[:, (n + g)[:, None], n + g] = (excess + np.swapaxes(excess, 1, 2)) / 2.0
        cond = cond.transpose(1, 2, 0)
        expectation = np.asarray(_gaussian_expectation(poly, (mean - (gain @ mu[..., None])[..., 0]).T, cond, shifts))
        z = np.sqrt(c.det * np.linalg.det(s_inv)) / norm
        part = z * np.exp(-0.5 * np.einsum("ki,kij,kj->k", mu, s_inv, mu)) * expectation
        total, scale = total + part, scale + np.abs(part[..., 0, :])
    return total, scale


@lru_cache(maxsize=None)
def _projector_factor(nvars: int, projectors: tuple) -> Poly:
    """prod 2 pi (-1)^n L_n(2 (x^2 + p^2)) over the projectors (v, n) on the variables (x, p) = (v, v + 1), each
    smoothed by N(0, I/4) as `kernel_densities` takes a factor: with the kernel N(0, I/2) on each pair, the
    product of the projectors 2 pi F_n.  Smoothed, a projector with n > 0 has no constant term."""
    out = _const_poly(nvars)
    for v, n in projectors:
        lag = _affine_expectation(_poly_scale(_laguerre_poly_2d(n), 2.0 * math.pi * (-1.0) ** n), np.eye(2),
                                  np.zeros(2), 0.25 * np.eye(2))
        out = _poly_mul(out, {tuple(e[i - v] if v <= i <= v + 1 else 0 for i in range(nvars)): c
                              for e, c in lag.items()})
    return out


def herald_read(columns: list[KernelColumn], rows: np.ndarray, shift: np.ndarray, noise: np.ndarray, herald: tuple,
                kernel: list | None = (), blur: np.ndarray | None = None, monomials: list | None = None) -> tuple:
    """`kernel_densities` of a detector's kernel on `kernel` (covariance `blur`; None: all of V, with no
    projector) and its `monomials`, times a herald.

    The herald is a sum of signed products (sign, ((v, n), ...)) of Fock projectors 2 pi F_n, each on the
    variables v, v + 1 of V (an ancilla mode): a Fock-n herald is one product, a click herald 1 - 2 pi F_0 two,
    and a failure arm the unheralded read minus the success read.  Each projector is one more Gaussian kernel,
    N(0, I/2), and its Laguerre polynomial one more factor.  Returns the summed densities and term magnitudes.
    """
    total = size = 0.0
    blur = np.zeros((0, 0)) if blur is None else blur
    for sign, projectors in herald:
        g, cov, factor = None if kernel is None else list(kernel), blur, None
        if projectors:
            g += [v + i for v, _ in projectors for i in (0, 1)]
            cov = 0.5 * np.eye(len(g))
            cov[: len(blur), : len(blur)] = blur
            factor = _projector_factor(rows.shape[1], projectors)
        densities, scale = kernel_densities(columns, rows, shift, noise, cov, g, factor, monomials)
        total, size = total + sign * densities, size + scale
    return total, size


def phase_tangent(expr: WignerExpr, h: np.ndarray) -> WignerExpr:
    """W' = -(hY).grad W: Int W f(A(phi) Y + ...) has phi-derivative Int W' f(A(phi) Y + ...) when A' = A h, tr h = 0.

    (The flow Y -> e^{eps h} Y has Jacobian 1.)  Each term keeps its Gaussian; its polynomial P becomes
    sum_i (hY)_i (2 P (Q^-1 (Y - m))_i - dP/dY_i)."""
    n, terms = expr.nvars, []
    unit = [tuple(r) for r in np.eye(n, dtype=int).tolist()]
    for t in expr.terms:
        g, poly = np.linalg.inv(t.quad), {}
        for i in range(n):
            pull = _poly_prune({**{unit[j]: 2.0 * g[i, j] for j in range(n)}, (0,) * n: -2.0 * (g @ t.mean)[i]})
            grad = {tuple(a - b for a, b in zip(e, unit[i])): -c * e[i] for e, c in t.poly.items() if e[i]}
            hy = {unit[j]: h[i, j] for j in range(n) if h[i, j]}
            poly = _poly_add(poly, _poly_mul(hy, _poly_add(_poly_mul(t.poly, pull), grad)))
        terms.append(Term(t.weight, _poly_prune(poly), t.mean, t.quad))
    return WignerExpr(expr.modes, terms)


def _integrate_out(expr: WignerExpr, var_indices: list[int], f=None, projectors: tuple = ()) -> WignerExpr:
    """Integrate the variables `var_indices` (0-based) of X = A Y + b + xi out of the image of `expr` (Y).

    The channel f is None (the identity), a `SymplecticTransform` (no noise) or a triple (A, b, C), C the
    covariance of xi (sigma / 2 in the state convention), any of them stacked along a leading grid axis, which
    gives a grid expression.  The integrand carries the product of the `projectors` (v, n), each 2 pi F_n on
    the variables v, v + 1 of X, which are integrated out.  No polynomial is substituted: each term's joint
    (Y, X) Gaussian is conditioned once.  X ~ N(A m + b, S), S = A Sigma A^T + C, takes each projector as one
    more Gaussian factor (the Gaussian-product rule); given the kept variables x, X_v = m_v + B (x - m_k) +
    nu, and given X, Y = G X + g + eta with G = A^-1 (I - C S^-1), which keeps a noiseless variable's map
    exact (a singular A, a transmissivity of 0, takes G = Sigma A^T S^-1).  So Y and the projectors' X_p are
    affine in x plus a fixed noise, and the new polynomial is one moment recursion with poly-valued means
    over P(Y) L(X_p) (`_affine_expectation`).
    """
    out = sorted(var_indices)
    n = expr.nvars
    keep = [i for i in range(n) if i not in out]
    if isinstance(f, SymplecticTransform):
        f = (f.matrix, f.shift, 0.0)
    a, shift, noise = (np.eye(n), np.zeros(n), 0.0) if f is None else f
    if a.shape[-2:] != (n, n):
        raise ValueError(f"dimension mismatch: the channel maps {a.shape[-1]} variables, the expression has {n}")
    noise = np.broadcast_to(noise, (n, n)) if np.ndim(noise) == 0 else noise
    proj = [v + i for v, _ in projectors for i in (0, 1)]
    lag = {(): 1.0}  # prod (-1)^n L_n(2 (x^2 + p^2)) over the projectors' variables, in order
    for v, m in projectors:
        if not 0 <= m <= FOCK_CUTOFF:
            raise ValueError(f"Fock projector order must lie in 0..{FOCK_CUTOFF}")
        if v % 2 or v not in out or v + 1 not in out:
            raise ValueError(f"a Fock projector acts on the two variables of one mode integrated out, got {v}")
        lag = {ea + eb: ca * (-1.0) ** m * cb for ea, ca in lag.items() for eb, cb in _laguerre_poly_2d(m).items()}
    a2 = np.zeros((n, n))
    a2[proj, proj] = 1.0
    singular = not np.all(np.linalg.det(a))
    inverse = None if singular else np.linalg.inv(a)
    new_terms = []
    for t in expr.terms:
        sigma = t.quad / 2.0
        mean, s = _mv(a, t.mean) + shift, a @ sigma @ np.swapaxes(a, -1, -2) + noise
        s = (s + np.swapaxes(s, -1, -2)) / 2.0  # the covariance of X
        if singular:  # Y = G X + g + eta given X
            gain = np.swapaxes(np.linalg.solve(s, a @ sigma), -1, -2)
            offset, spread = t.mean - _mv(gain, mean), sigma - gain @ a @ sigma
        else:
            share = np.swapaxes(np.linalg.solve(s, noise), -1, -2)  # C S^-1
            gain, offset = inverse - inverse @ share, _mv(inverse, _mv(share, mean) - shift)
            spread = inverse @ (noise - share @ noise) @ np.swapaxes(inverse, -1, -2)
        weight, poly, quad = t.weight, t.poly, 2.0 * s
        if np.any(noise):  # the density's Jacobian, 1 for a noiseless map, which is symplectic
            weight = weight * np.sqrt(np.linalg.det(t.quad) / np.linalg.det(quad))
        if projectors:  # 2 pi F_n = 2 (-1)^n L_n(2 (x^2 + p^2)) exp(-x^2 - p^2)
            quad, mean, gamma = _gaussian_product(np.linalg.inv(quad), mean, a2, np.zeros(n))
            # `math.exp` on a scalar, whose last bit numpy's can differ in
            weight = weight * (2.0 ** len(projectors) * (math.exp(-gamma) if np.ndim(gamma) == 0 else np.exp(-gamma)))
            poly = {ea + eb: ca * cb for ea, ca in poly.items() for eb, cb in lag.items()}
        precision = np.linalg.inv(quad)
        a_vv, a_vk = precision[..., out, :][..., out], precision[..., out, :][..., keep]
        b = -np.linalg.solve(a_vv, a_vk)
        # the polynomial's variables u = (Y, X_p) = read X + (g, 0) + (eta, 0)
        read = np.concatenate([gain, np.broadcast_to(np.eye(n)[proj], gain.shape[:-2] + (len(proj), n))], -2)
        nv, lin = read[..., out], read[..., keep] + read[..., out] @ b
        const = np.pad(offset, [(0, 0)] * (offset.ndim - 1) + [(0, len(proj))])
        const = const + _mv(nv, mean[..., out] - _mv(b, mean[..., keep]))
        cov = nv @ (np.linalg.inv(a_vv) / 2.0) @ np.swapaxes(nv, -1, -2)
        cov = cov + np.pad(spread, [(0, 0)] * (spread.ndim - 2) + [(0, len(proj))] * 2)
        poly = _affine_expectation(poly, lin, const, cov)
        if poly:
            z = math.pi ** (len(out) / 2.0) / np.sqrt(np.linalg.det(a_vv))
            new_terms.append(Term(weight * z, poly, mean[..., keep], quad[..., keep, :][..., keep]))
    return WignerExpr(expr.modes - len(out) // 2, new_terms)


def marginal_mode(expr: WignerExpr, mode: int) -> WignerExpr:
    """Reduce to a single mode by integrating out all others."""
    if not 1 <= mode <= expr.modes:
        raise ValueError(f"mode {mode} out of range 1..{expr.modes}")
    if expr.modes == 1:
        return expr
    drop = [i for i in range(expr.nvars) if i // 2 != mode - 1]
    return _integrate_out(expr, drop)


def _gaussian_product(a1: np.ndarray, m1: np.ndarray, a2: np.ndarray, m2: np.ndarray):
    """Gaussian-product rule in precision form.

    exp(-(X-m1)^T a1 (X-m1)) exp(-(X-m2)^T a2 (X-m2)) = exp(-gamma) exp(-(X-m3)^T a3 (X-m3))
    with a3 = a1 + a2 and a3 m3 = a1 m1 + a2 m2.  a2 may be singular (a factor
    on some variables only).  Returns (a3^{-1} symmetrized, m3, gamma).
    """
    a3 = a1 + a2
    quad3 = np.linalg.inv(a3)
    m3 = np.linalg.solve(a3, (_mv(a1, m1) + _mv(a2, m2))[..., None])[..., 0]
    gamma = _quadratic(m1, a1) + _quadratic(m2, a2) - _quadratic(m3, a3)
    return (quad3 + np.swapaxes(quad3, -1, -2)) / 2.0, m3, gamma


def _herald_branch(reduced: WignerExpr, prob: float) -> tuple[WignerExpr, float]:
    """Renormalize one herald outcome and clamp its probability; raise ImprobableBranch below the floor.

    On a grid the points below the floor leave the state instead: its grid is the points of prob >= the floor."""
    if np.ndim(prob):
        reduced = reduced.take(prob >= IMPROBABLE_FLOOR)
    elif prob < IMPROBABLE_FLOOR:
        raise ImprobableBranch(prob)
    prob = np.clip(prob, 0.0, 1.0)
    return reduced.normalize() if reduced.terms else reduced, prob


def _single_mode_g(expr1: WignerExpr, s: np.ndarray) -> np.ndarray:
    """Integral of exp(-s (x^2+p^2)) against a normalized single-mode expression, for each s (a row per grid point)."""
    total = 0.0
    for t in expr1.terms:
        # a + s I = V diag(lam + s) V^T: the Gaussian-product rule in the eigenbasis of a, for every s at once
        lam, v = np.linalg.eigh(np.linalg.inv(t.quad))
        det_sqrt = np.sqrt(lam[..., 0, None] + s) * np.sqrt(lam[..., 1, None] + s)  # in the right half plane
        inv = 1.0 / (lam[..., :, None] + s)  # (..., 2, B)
        vm = _mv(np.swapaxes(v, -1, -2), t.mean)
        quad_s = np.einsum("...ik,...jk,...kb->...ijb", v, v, inv)
        m_s = v @ ((vm * lam)[..., :, None] * inv)
        gamma = ((vm**2 * lam)[..., None, :] @ (s * inv))[..., 0, :]
        if t.mean.ndim > 1:  # B then leads the grid axis, along which the weight and coefficients lie
            m_s, quad_s, gamma, det_sqrt = np.moveaxis(m_s, 0, -1), np.moveaxis(quad_s, 0, -1), gamma.T, det_sqrt.T
        epoly = _gaussian_expectation(t.poly, m_s, quad_s / 2.0)
        total = total + t.weight * np.exp(-gamma) * math.pi / det_sqrt * epoly
    return np.transpose(total)


@dataclass(frozen=True)
class PhotonNumberDistribution:
    """P(n) for n = 0..n_max plus the truncated tail mass; of a grid expression, a row of each per grid point."""

    probs: np.ndarray
    n_max: int
    tail: float

    def histogram(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """The counts of n = 0..n_max among `size` draws, in one multinomial draw; a P(n) below HISTOGRAM_FLOOR
        is drawn as 0."""
        p = np.where(self.probs < HISTOGRAM_FLOOR, 0.0, self.probs)
        return rng.multinomial(size, p / p.sum())


@lru_cache(maxsize=4)
def _inverse_dft(m: int, n_max: int) -> np.ndarray:
    """exp(-i pi (2k + 1) n / m), k < m / 2, n <= n_max: the read-only inversion of `photon_number_distribution`."""
    ks, ns = np.arange(m // 2), np.arange(n_max + 1)
    matrix = np.exp(-1j * math.pi * np.outer(2 * ks + 1, ns) / m)
    matrix.flags.writeable = False
    return matrix


def _contour_length(reduced: WignerExpr, n_max: int) -> int:
    """The least power of two m >= n_max + 1 whose aliasing bound min_r M(r) r^-m is at most CONTOUR_ALIAS.

    M(r) = E[r^N] = 2 / (1 + r) G((1 - r) / (1 + r)) is one read of G at the real widths s = -f min(1, lam),
    f in CONTOUR_WIDTHS and lam the least precision eigenvalue of the terms (at any grid point), so r stays below
    the radius of convergence min (1 + lam) / (1 - lam); a width whose M overflows or is not positive is dropped.
    On a grid m is the largest a point needs."""
    lam = min(1.0, min(float(np.min(1.0 / np.linalg.eigvalsh(t.quad)[..., -1])) for t in reduced.terms))
    s = -lam * np.array(CONTOUR_WIDTHS)
    r = (1.0 - s) / (1.0 + s)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        log_m = np.log(2.0 / (1.0 + r) * _single_mode_g(reduced, s))
        need = np.nan_to_num((log_m - math.log(CONTOUR_ALIAS)) / np.log(r), nan=np.inf, posinf=np.inf)
    need = float(np.max(np.min(need, -1)))
    if not need <= CONTOUR_MAX:
        raise ContourTooLong(f"the photon-number tail bound needs a contour of {need:.3g} points, above the cap "
                             f"of {CONTOUR_MAX}")
    return 1 << max(1, math.ceil(math.log2(max(n_max + 1, need))))


def photon_number_distribution(expr: WignerExpr, mode: int, n_max: int = DEFAULT_NMAX) -> PhotonNumberDistribution:
    """P(n) for n = 0..n_max via exact contour extraction from the generating function.

    sum_n P(n) t^n = 2 / (1 + t) G((1 - t) / (1 + t)), G(s) the integral of exp(-s (x^2 + p^2)) against the
    mode's Wigner function, is read at the m points t_k = exp(i pi (2k + 1) / m) (off t = -1, where G has a
    removable singularity) and Fourier-inverted.  The m points alias P(n) with P(n + m), P(n + 2m), ..., whose
    sum is at most P(N >= m) <= E[r^N] r^-m (Markov) for every r > 1 below the radius of convergence:
    `_contour_length` takes the least m whose bound is at most CONTOUR_ALIAS, and raises ContourTooLong above
    CONTOUR_MAX points.  W is real, so t_(m-1-k) = conj(t_k) reads conj(G) and P(n) = (2 / m) Re sum_(k < m/2)
    of G(t_k) exp(-i pi (2k + 1) n / m): half the circle is read.  This is the same integral as a Fock
    projector's read (`_integrate_out`) but stays numerically exact at large n, where the expanded Laguerre
    route loses precision to cancellation.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    reduced = marginal_mode(expr.normalize(), mode)
    m = _contour_length(reduced, n_max)
    tks = np.exp(1j * math.pi * (2 * np.arange(m // 2) + 1) / m)
    # a grid's contour runs in slabs of about CONTOUR_SLAB points, which bound each Wick schedule row's array
    slabs = np.array_split((1.0 - tks) / (1.0 + tks), -(-np.size(expr.norm) * (m // 2) // CONTOUR_SLAB))
    gs = 2.0 / (1.0 + tks) * np.concatenate([_single_mode_g(reduced, s) for s in slabs], -1)
    probs = np.real(gs @ _inverse_dft(m, n_max)) * (2.0 / m)
    if probs.min() < -1e-9 or probs.max() > 1.0 + 1e-9:
        raise ValueError(f"distribution outside [0,1]: range [{probs.min():.3e}, {probs.max():.3e}]")
    probs = np.clip(probs, 0.0, 1.0)
    return PhotonNumberDistribution(probs, n_max, np.clip(1.0 - probs.sum(-1), 0.0, 1.0))


def overlap(a: WignerExpr, b: WignerExpr) -> float:
    """Integral of the product of two expressions over all variables."""
    precisions = [np.linalg.inv(t.quad) for t in b.terms]
    total = 0.0
    for t1 in a.terms:
        a1 = np.linalg.inv(t1.quad)
        for t2, a2 in zip(b.terms, precisions):
            quad3, m3, gamma = _gaussian_product(a1, t1.mean, a2, t2.mean)
            prod = Term(t1.weight * t2.weight * math.exp(-gamma), _poly_mul(t1.poly, t2.poly), m3, quad3)
            total += prod.integral()
    return total


def purity(expr: WignerExpr) -> float:
    """(2 pi)^N * integral of W^2 over the squared norm."""
    return (2.0 * math.pi) ** expr.modes * overlap(expr, expr) / expr.norm**2

