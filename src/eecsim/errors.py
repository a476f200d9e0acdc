"""Exception types shared across the package."""


class ParameterError(ValueError):
    """A physical/model parameter violates its documented constraints."""


class ConfigError(ValueError):
    """A scenario configuration document is malformed or inconsistent."""


class QuadratureError(RuntimeError):
    """Numerical integration failed to reach the requested tolerance.

    Attributes:
        achieved: best relative difference observed between refinements,
            or ``None`` when the integral is structurally divergent.
    """

    def __init__(self, message: str, achieved: float | None = None):
        super().__init__(message)
        self.achieved = achieved


class UnservableError(RuntimeError):
    """The congestion-adjusted deployment leaves essentially no line-of-sight
    worker mass, so the edge tier cannot serve requests, or none at a rank
    a command needs."""

    def __init__(self, message: str, diagnostic: dict | None = None):
        super().__init__(message)
        self.diagnostic = dict(diagnostic or {})
