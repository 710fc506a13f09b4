"""Error types shared across the engine, and the checks of a config
field's type and of an array's shape and dtype that raise them.

Kept deliberately small: configuration problems and numerical failures need
distinct exit codes at the CLI (1 and 2 respectively), everything else is a
plain ValueError.
"""

import dataclasses
from numbers import Integral, Real

import numpy as np


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration (CLI exit code 1)."""


_TYPES = {"int": Integral, "float": Real, "str": str, "bool": bool}


def check_fields(config, prefix: str = "") -> None:
    """ConfigError naming the first field of the config dataclass whose
    value does not have its annotated type."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if not _has_type(value, f.type):
            raise ConfigError(f"{prefix}{f.name}={value!r} does not have "
                              f"type {f.type}")


def _has_type(value, kind) -> bool:
    """Whether ``value`` fits the string annotation ``kind``: a scalar (a
    bool is no number), ``X | None``, ``tuple[X, ...]`` or the nested
    ``StreamConfig``, which checks its own fields. TypeError on any other
    annotation, so a new field cannot skip the check unseen."""
    if not isinstance(kind, str):
        raise TypeError(f"annotation {kind!r} is not a string; the config "
                        "module needs `from __future__ import annotations`")
    if kind == "StreamConfig":
        return True
    if kind.endswith(" | None") and value is None:
        return True
    kind = kind.removesuffix(" | None")
    if kind.startswith("tuple[") and kind.endswith(", ...]"):
        return isinstance(value, (list, tuple)) and all(
            _has_type(v, kind[len("tuple["):-len(", ...]")]) for v in value)
    if kind not in _TYPES:
        raise TypeError(f"check_fields cannot check annotation {kind!r}")
    return isinstance(value, _TYPES[kind]) and (
        isinstance(value, bool) == (kind == "bool"))


class ShapeError(ValueError):
    """Array dimensions, a dtype or a count do not match the contract."""


def check_shape(snap: dict, key: str, shape, kind=np.float64) -> np.ndarray:
    """``snap[key]`` as an array; ShapeError unless its shape is ``shape`` (a
    None length matches any) and its dtype ``kind`` (str: of any length)."""
    value, shape, want = np.asarray(snap[key]), tuple(shape), np.dtype(kind)
    if len(value.shape) != len(shape) or any(
            n not in (m, None) for m, n in zip(value.shape, shape)):
        raise ShapeError(f"{key} has shape {value.shape}, not {shape}")
    if value.dtype != want and not value.dtype.kind == want.kind == "U":
        raise ShapeError(f"{key} has dtype {value.dtype}, not {want.name}")
    return value


class NotSolvedError(RuntimeError):
    """Router used before solve(); call solve() after accumulating."""


class NumericalError(RuntimeError):
    """Numerical failure — factorization breakdown, non-finite gradients
    (CLI exit code 2)."""
