"""Phase-space engine for Gaussian and polynomial-Gaussian Wigner states in MZI optics."""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DegenerateBranch,
    ImprobableBranch,
    SignalStationary,
)
from . import conditional, estimation, gaussian, measurements, scenario, symplectic, wigner

__all__ = [
    "__version__",
    "conditional",
    "estimation",
    "gaussian",
    "measurements",
    "scenario",
    "symplectic",
    "wigner",
    "ConfigError",
    "DegenerateBranch",
    "ImprobableBranch",
    "SignalStationary",
]
