"""Exception types shared across the engine."""


class ImprobableBranch(RuntimeError):
    """Raised when a heralded branch has probability below the renormalization floor."""

    def __init__(self, probability: float, message: str = ""):
        self.probability = probability
        super().__init__(message or f"herald probability {probability:.3e} below renormalization floor")


class SignalStationary(RuntimeError):
    """Error propagation requested at a point where the signal has no usable slope."""


class DegenerateBranch(RuntimeError):
    """A Fisher-information branch probability is too close to 0 or 1 to differentiate."""


class PurityViolation(RuntimeError):
    """A pure-state-only formula was applied to a mixed state."""


class ConfigError(ValueError):
    """Scenario configuration failed validation; carries the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")
