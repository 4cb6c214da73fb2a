"""Closed-form reference statistics of heralded photon addition and subtraction.

A herald is nondeterministic: the scenario reads it as one more ancilla mode
through the coupling (`scenario._herald_args`), against the detector's Fock
projector (`wigner.projector`), and weighs each outcome by its probability.
The pure creation/annihilation-operator treatment exists only as the T -> 1
(or r -> 0) limit of these models, where that probability vanishes.  The
formulas below are those models' exact statistics for coherent and thermal
inputs, which the tests and the benchmark check the engine against.
"""

from __future__ import annotations

import math

M_CUTOFF = 8  # the largest photon number a herald adds or subtracts


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

