"""Exception types shared across the engine: each is an `Error`, which `cli.main` reports with exit 2.  A public
function's check of its own arguments raises ValueError instead, which no config reaches."""


class Error(Exception):
    """The base of the engine's typed errors."""


class ImprobableBranch(Error, RuntimeError):
    """Raised when a heralded branch has probability below the renormalization floor."""

    def __init__(self, probability: float, message: str = ""):
        self.probability = probability  # raw: rounding can put it below 0, which the message reads as 0
        super().__init__(message or f"herald probability {max(probability, 0.0):.3e} below renormalization floor")


class SignalStationary(Error, RuntimeError):
    """Error propagation requested at a point where the signal has no usable slope."""


class DegenerateBranch(Error, RuntimeError):
    """A degenerate point: a Fisher-information branch probability too close to 0 or 1 to differentiate, or the
    SNR of a state with no photon-number variance (a Fock state)."""


class NumericalBreakdown(Error, ValueError):
    """A computed quantity left its range beyond rounding: a negative variance, a norm <= 0, a probability
    outside [0, 1], a noise stage after the MZI that is not completely positive."""


class ConfigError(Error, ValueError):
    """Scenario configuration failed validation; carries the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class ContourTooLong(Error, ValueError):
    """A photon-number distribution whose proven tail bound needs a contour longer than the engine's cap."""
