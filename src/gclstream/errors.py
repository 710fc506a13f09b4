"""Error types shared across the engine.

Kept deliberately small: configuration problems and numerical failures need
distinct exit codes at the CLI (1 and 2 respectively), everything else is a
plain ValueError.
"""

import numpy as np


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration (CLI exit code 1)."""


class ShapeError(ValueError):
    """Array dimensions, or a count, do not match the contract."""


def check_shape(snap: dict, key: str, shape) -> np.ndarray:
    """``snap[key]`` as an array; ShapeError unless its shape is ``shape``."""
    value = np.asarray(snap[key])
    if value.shape != tuple(shape):
        raise ShapeError(f"{key} has shape {value.shape}, not {tuple(shape)}")
    return value


class NotSolvedError(RuntimeError):
    """Router used before solve(); call solve() after accumulating."""


class NumericalError(RuntimeError):
    """Numerical failure — factorization breakdown, non-finite gradients
    (CLI exit code 2)."""
