"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Fields do not share a grid or have the wrong shape."""


class ParameterError(ValueError):
    """A scalar parameter is out of its admissible range."""


class DegenerateFieldError(ValueError):
    """An operation received a zero field where a nonzero one is required."""


class HypothesisViolationError(ParameterError):
    """Noise-basis parameters violate the summability hypothesis."""


class AliasingError(ParameterError):
    """More noise modes requested than the grid can resolve."""


class BlowUpError(RuntimeError):
    """A trajectory produced a non-finite field.

    Carries the step index at which the blow-up was detected, for a sample
    of an ensemble block the sample's index, and `diagnostics`, the named
    scalars of the state before the blow-up step (empty when there was
    none, as for a refused start); the message ends with them.
    """

    def __init__(self, step: int, message: str = "", *, sample: int | None = None,
                 diagnostics: dict | None = None):
        self.step = step
        self.sample = sample
        self.diagnostics = dict(diagnostics or {})
        where = "" if sample is None else f" of sample {sample}"
        last = ", ".join(f"{name}={value:.6g}" for name, value in self.diagnostics.items())
        context = f" (last finite diagnostics: {last})" if last else ""
        super().__init__(message or f"non-finite field at step {step}{where}{context}")

    def __reduce__(self):
        # the default would call __init__ with args, which hold only the message
        return type(self), (self.step, str(self)), vars(self)


class ConfigError(ValueError):
    """A run configuration failed schema or constraint validation."""
