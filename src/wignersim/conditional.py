"""Heralded photon addition and subtraction.

Addition and subtraction are intrinsically nondeterministic: every operation
here returns a HeraldedState carrying its success probability, and the pure
creation/annihilation-operator treatment exists only as the T -> 1 (or r -> 0)
limit of these models, where that probability vanishes.

Mode bookkeeping: the ancilla enters as beam-splitter (or two-mode squeezer)
input 1 and the signal as input 2, matching the element conventions in `symplectic`; the
herald detector sits on the ancilla output, so the signal keeps sqrt(T) of its
amplitude (up to sign).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


from .gaussian import vacuum_state
from .symplectic import SymplecticTransform, embed, make_beam_splitter, make_two_mode_squeezer
from .wigner import Term, WignerExpr, _herald_branch, _integrate_out, fock_wigner, from_gaussian, tensor_exprs

M_CUTOFF = 8


@dataclass(frozen=True)
class HeraldedState:
    """A post-measurement state, its herald probability, and which branch it is."""

    state: WignerExpr
    probability: float
    branch: str  # "success" or "failure"
    label: str


def coupling_transform(coupling: tuple) -> SymplecticTransform:
    """The two-mode transform of a herald's coupling, ("BS", T) or ("SPDC", r, theta): ancilla first, signal second."""
    kind, x, *theta = coupling
    return make_beam_splitter(x) if kind == "BS" else make_two_mode_squeezer(x, *theta)


def _herald(
    expr: WignerExpr,
    mode: int,
    coupling: tuple,
    ancilla: int,
    n: int,
    click: bool = False,
    only: str | None = None,
) -> tuple[HeraldedState | None, HeraldedState | None]:
    """The one herald operation: mix a Fock ancilla into `mode`, project the ancilla output once.

    `coupling` is ("BS", T) or ("SPDC", r, theta); the ancilla |ancilla> is
    coupling input 1 and the signal input 2.  The mix is never substituted
    into the joint state: each branch conditions the joint's Gaussians on the
    signal (`_integrate_out` through the mix).  Projecting on Fock n gives one
    branch, its complement (projector 1 - 2 pi F_n) the other: the projection
    succeeds for a Fock herald, while a click herald (n = 0) succeeds on the
    complement.  The projected branch is checked first.  Returns (success,
    failure); with `only` set to one of them, the other is neither built nor
    checked and comes back as None.
    """
    kind, x, *_ = coupling
    m = ancilla or n
    if not click and not 1 <= m <= M_CUTOFF:
        raise ValueError(f"photon count m must lie in 1..{M_CUTOFF}, got {m}")
    if not 1 <= mode <= expr.modes:
        raise ValueError(f"mode {mode} out of range 1..{expr.modes}")
    via = f"{kind}({'T' if kind == 'BS' else 'r'}={x:g})"
    verb = "add" if ancilla or kind == "SPDC" else "subtract"
    labels = {
        "success": f"subtract via {via}, click herald" if click else f"{verb} {m} via {via}, Fock {n} herald",
        "failure": f"no click on {via} herald" if click else f"failed to {verb} {m} via {via}",
    }
    joint = tensor_exprs(expr, fock_wigner(ancilla) if ancilla else from_gaussian(vacuum_state(1)))
    anc = joint._var_indices(joint.modes)
    mix = embed(coupling_transform(coupling), [joint.modes, mode], joint.modes)
    projected = _integrate_out(joint, anc, mix, ((anc[0], n),))
    p = projected.norm / joint.norm
    roles = ("failure", "success") if click else ("success", "failure")
    out = {}
    if only in (None, roles[0]):
        out[roles[0]] = _herald_branch(projected, p)
    if only in (None, roles[1]):
        negated = [Term(-t.weight, t.poly, t.mean, t.quad) for t in projected.terms]
        complement = WignerExpr(expr.modes, _integrate_out(joint, anc, mix).terms + negated)
        out[roles[1]] = _herald_branch(complement, 1.0 - p)
    return tuple(HeraldedState(*out[b], b, labels[b]) if b in out else None for b in ("success", "failure"))


def add_photons_bs(expr: WignerExpr, mode: int, m: int, T: float) -> HeraldedState:
    """Add m photons: Fock-m ancilla on BS(T), heralded by zero photons on the ancilla output."""
    return _herald(expr, mode, ("BS", T), m, 0, only="success")[0]


def add_photons_bs_branches(expr: WignerExpr, mode: int, m: int, T: float) -> tuple[HeraldedState, HeraldedState]:
    """Matched success/failure pair for the beam-splitter addition herald."""
    return _herald(expr, mode, ("BS", T), m, 0)


def add_photon_spdc(expr: WignerExpr, mode: int, r: float, theta: float = 0.0, m: int = 1) -> HeraldedState:
    """Add m photons by two-mode squeezing with a vacuum ancilla, heralded on m ancilla photons."""
    return _herald(expr, mode, ("SPDC", r, theta), 0, m, only="success")[0]


def add_photon_spdc_branches(
    expr: WignerExpr, mode: int, r: float, theta: float = 0.0, m: int = 1
) -> tuple[HeraldedState, HeraldedState]:
    """Matched success/failure pair for the SPDC addition herald."""
    return _herald(expr, mode, ("SPDC", r, theta), 0, m)


def subtract_photons(expr: WignerExpr, mode: int, m: int, T: float) -> HeraldedState:
    """Subtract m photons: vacuum ancilla on BS(T), heralded by m photons on the ancilla output."""
    return _herald(expr, mode, ("BS", T), 0, m, only="success")[0]


def failure_branch(expr: WignerExpr, mode: int, m: int, T: float) -> HeraldedState:
    """Complement of subtract_photons: the herald saw anything other than exactly m photons."""
    return _herald(expr, mode, ("BS", T), 0, m, only="failure")[1]


def subtract_branches(expr: WignerExpr, mode: int, m: int, T: float) -> tuple[HeraldedState, HeraldedState]:
    """Matched success/failure pair for an m-photon subtraction herald."""
    return _herald(expr, mode, ("BS", T), 0, m)


def subtract_click(expr: WignerExpr, mode: int, T: float) -> HeraldedState:
    """Subtraction heralded by a click (any photon number) on the ancilla output."""
    return _herald(expr, mode, ("BS", T), 0, 0, click=True, only="success")[0]


def subtract_click_branches(expr: WignerExpr, mode: int, T: float) -> tuple[HeraldedState, HeraldedState]:
    """Click-heralded subtraction together with its no-click complement."""
    return _herald(expr, mode, ("BS", T), 0, 0, click=True)


# ---------------------------------------------------------------------------
# Closed-form reference statistics for the heralded models.
# ---------------------------------------------------------------------------


def _laguerre(n: int, x: float) -> float:
    """Laguerre polynomial L_n(x), by the recurrence of scipy.special.eval_laguerre (same bits)."""
    if n == 0:
        return 1.0
    d = -x
    p = d + 1.0
    for k in range(1, n):
        d = -x / (k + 1.0) * p + (k / (k + 1.0)) * d
        p = p + d
    return p


def spacs_mean_n(alpha2: float, m: int, T: float) -> float:
    """Mean photon number of the m-photon-added coherent state (BS model)."""
    if alpha2 < 0.0 or not 0.0 <= T <= 1.0 or m < 0:
        raise ValueError("require alpha2 >= 0, 0 <= T <= 1, m >= 0")
    y = -T * alpha2
    if m == 0:
        return T * alpha2
    return T * alpha2 + 2.0 * m - m * _laguerre(m - 1, y) / _laguerre(m, y)


def spacs_second_moment(alpha2: float, m: int, T: float) -> float:
    """Second moment of the photon number of the m-photon-added coherent state."""
    if alpha2 < 0.0 or not 0.0 <= T <= 1.0 or m < 0:
        raise ValueError("require alpha2 >= 0, 0 <= T <= 1, m >= 0")
    y = -T * alpha2
    num = (
        (m + 2) * (m + 1) * _laguerre(m + 2, y)
        - 3.0 * (m + 1) * _laguerre(m + 1, y)
        + _laguerre(m, y)
    )
    return num / _laguerre(m, y)


def spacs_prob(alpha2: float, m: int, T: float) -> float:
    """Success probability of adding m photons to a coherent state."""
    if alpha2 < 0.0 or not 0.0 <= T <= 1.0 or m < 1:
        raise ValueError("require alpha2 >= 0, 0 <= T <= 1, m >= 1")
    return (1.0 - T) ** m * math.exp(alpha2 * (T - 1.0)) * _laguerre(m, -T * alpha2)


def spacs_snr(alpha2: float, m: int, T: float) -> float:
    """SNR of the m-photon-added coherent state with the injected m photons subtracted off."""
    mean = spacs_mean_n(alpha2, m, T)
    var = spacs_second_moment(alpha2, m, T) - mean**2
    return (mean - m) / math.sqrt(var)


def thermal_snr(nbar: float) -> float:
    """SNR of a plain thermal state of mean photon number nbar."""
    if nbar <= 0.0:
        raise ValueError("thermal SNR requires nbar > 0")
    return nbar / math.sqrt(nbar**2 + nbar)


def spsts_mean_n(nbar: float, m: int, T: float) -> float:
    """Mean photon number of the m-photon-subtracted thermal state."""
    if nbar < 0.0 or not 0.0 <= T <= 1.0 or m < 0:
        raise ValueError("require nbar >= 0, 0 <= T <= 1, m >= 0")
    return (m + 1) * nbar * T / (nbar * (1.0 - T) + 1.0)


def spsts_prob(nbar: float, m: int, T: float) -> float:
    """Probability of heralding exactly m photons subtracted from a thermal state."""
    if nbar < 0.0 or not 0.0 <= T <= 1.0 or m < 0:
        raise ValueError("require nbar >= 0, 0 <= T <= 1, m >= 0")
    x = nbar * (1.0 - T)
    return x**m / (x + 1.0) ** (m + 1)


def spsts_snr(nbar: float, m: int, T: float) -> float:
    """SNR of the m-photon-subtracted thermal state: sqrt(T(m+1)) times the thermal SNR."""
    return math.sqrt(T * (m + 1)) * thermal_snr(nbar)


def _mzi_arm_mean(nbar: float, phi: float) -> float:
    """Thermal mean photon number reaching the subtraction arm of the MZI at phase phi."""
    return nbar * math.cos(phi / 2.0) ** 2


def mzi_sub_prob_m(nbar: float, m: int, T: float, phi: float) -> float:
    """Herald probability for m-photon subtraction at the MZI output (thermal + vacuum input)."""
    return spsts_prob(_mzi_arm_mean(nbar, phi), m, T)


def mzi_sub_prob_click(nbar: float, T: float, phi: float) -> float:
    """Click-herald probability for subtraction at the MZI output."""
    x = _mzi_arm_mean(nbar, phi) * (1.0 - T)
    return 1.0 - 1.0 / (x + 1.0)


def mzi_sub_mean_n(nbar: float, m: int, T: float, phi: float) -> float:
    """Post-herald mean photon number for m-photon subtraction at the MZI output."""
    return spsts_mean_n(_mzi_arm_mean(nbar, phi), m, T)


def mzi_sub_mean_click(nbar: float, T: float, phi: float) -> float:
    """Post-herald mean photon number for click-heralded subtraction at the MZI output."""
    ntil = _mzi_arm_mean(nbar, phi)
    x = ntil * (1.0 - T)
    return T * ntil * (x + 2.0) / (x + 1.0)


def mzi_sub_snr(nbar: float, m: int, T: float, phi: float) -> float:
    """SNR of the m-subtracted MZI output: sqrt(T(m+1)) times the plain MZI-output thermal SNR."""
    return math.sqrt(T * (m + 1)) * thermal_snr(_mzi_arm_mean(nbar, phi))

