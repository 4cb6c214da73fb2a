import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
# the benchmark's scenario points (perfbench/workloads.py), shared with the tests
sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))

from wignersim import gaussian as ga
from wignersim import symplectic as sym


@pytest.fixture(scope="session")
def mzi_coh_sqz():
    """Family builder: coherent + squeezed vacuum through the balanced MZI."""

    def make(alpha2: float, r: float, L: float = 0.0):
        alpha = math.sqrt(alpha2)

        def family(phi: float) -> ga.GaussianState:
            state = ga.tensor([ga.coherent_state(alpha, 0.0), ga.squeezed_vacuum(r, 0.0)])
            out = ga.propagate(state, sym.make_mzi(phi))
            if L > 0.0:
                out = ga.apply_loss(out, ga.LossSpec(L=L, D=1.0))
            return out

        return family

    return make
