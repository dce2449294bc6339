"""Shared exception types. The CLI maps each class to a distinct exit code."""


class DimensionError(ValueError):
    """Tensor shapes incompatible with the requested kernel."""


class ConfigError(ValueError):
    """Bad configuration: unknown key, bad value, inconsistent settings."""


class FormatError(ValueError):
    """Malformed external bytes (image or checkpoint stream)."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class NonFiniteError(ArithmeticError):
    """A loss or parameter went NaN/Inf (or overflows float32 storage); the message names where."""


class DetachedParameterError(RuntimeError):
    """A parameter's .data no longer views the optimizer's arena, so its update would be lost."""
