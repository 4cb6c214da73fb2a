import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
# the benchmark's scenario points (perfbench/workloads.py), shared with the tests
sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))

import reference
from wignersim import estimation as est
from wignersim import gaussian as ga
from wignersim import symplectic as sym


@pytest.fixture(scope="session")
def mzi_coh_sqz():
    """Family builder: coherent + squeezed vacuum through the balanced MZI."""

    def make(alpha2: float, r: float, L: float = 0.0):
        alpha = math.sqrt(alpha2)

        def family(phi: float) -> ga.GaussianState:
            squeezed = ga.propagate(ga.vacuum_state(), sym.make_squeezer(r, 0.0))
            state = ga.tensor([ga.coherent_state(alpha, 0.0), squeezed])
            out = ga.propagate(state, sym.SymplecticTransform(sym.mzi_matrix(phi)))
            if L > 0.0:
                out = reference.lossy(out, L)
            return out

        return family

    return make


@pytest.fixture(scope="session")
def trig_slope():
    """|d<O>/dphi| of a polynomial detector that the phase signal of `est.trig_signal` implies, sqrt(Var / V).

    `moments(phi)` gives the detector's moments on a phi-family whose <O> is a
    trigonometric polynomial of degree d in phi / rate, sampled at n = 4d + 1 phases.
    """

    def slope(moments, phi: float, rate: int, n: int) -> float:
        variance = est.trig_signal([moments(2.0 * math.pi * rate * j / n) for j in range(n)], rate)[0]
        return math.sqrt(moments(phi).variance / variance(np.array([phi]))[0])

    return slope


@pytest.fixture(scope="session")
def gaussian_qfi():
    """QFI of a Gaussian phi-family by `qfi_mixed_gaussian`, its tangent taken by central differences of step h."""

    def qfi(family, phi: float, h: float = 1e-5) -> float:
        plus, minus = family(phi + h), family(phi - h)
        tangent = (plus.mean - minus.mean) / (2 * h), (plus.cov - minus.cov) / (2 * h)
        return est.qfi_mixed_gaussian(family(phi), *tangent)[0]

    return qfi
