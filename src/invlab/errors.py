"""Exception hierarchy shared by every module, the two argument checks and the integer test.

Each exception carries a short machine-readable ``code`` and an optional
``context`` dict; the CLI serializes failures as ``{code, message, context}``.
There are five classes, one per kind of fault:

- `InvlabError` (``error``): the base class, never raised by itself;
- `InvalidParameterError` (``invalid-parameter``): an argument is refused, by
  its value or by its shape;
- `DivergenceError` (``divergence``): a computation became non-finite;
- `ConfigError` (``config-error``): a config key or CLI flag is refused;
- `FormatError` (``format-error``): a dataset or model file is malformed.

A bad value goes through `require`, and an array of the wrong shape through
`require_shape`; both end as ``invalid-parameter`` and name the argument in
``context["field"]``, and so does every rejected argument in the package: no
other module builds an InvalidParameterError, and a shape fault
`require_shape` cannot express is a `require` call. An argument that must be
an integer is tested by `is_int`, the package's one integer rule: a Python or
NumPy integer, never a bool; `keep_ints` then stores such a field as a Python int.
"""

from __future__ import annotations

import numpy as np


class InvlabError(Exception):
    """Base class; ``code`` is a short kebab-case identifier."""

    code = "error"

    def __init__(self, message: str, **context):
        super().__init__(message)
        self.context = context

    def to_json_dict(self) -> dict:
        return {"code": self.code, "message": str(self), "context": self.context}


class InvalidParameterError(InvlabError):
    code = "invalid-parameter"


class DivergenceError(InvlabError):
    code = "divergence"


class ConfigError(InvlabError):
    code = "config-error"


class FormatError(InvlabError):
    code = "format-error"


def require(ok: bool, field: str, value, need: str) -> None:
    """InvalidParameterError naming `field` unless ok: the one form of a range check."""
    if not ok:
        raise InvalidParameterError(f"{field} must be {need}, got {value!r}", field=field)


def require_shape(x, shape: tuple, name: str) -> np.ndarray:
    """x as a float64 array; InvalidParameterError naming `name` unless its shape is `shape`."""
    x = np.asarray(x, dtype=np.float64)
    # an inline test, not a `require` call: this runs on every denoiser eval and pullback
    if x.shape != shape:
        raise InvalidParameterError(f"{name} has shape {x.shape}, expected {shape}", field=name)
    return x


def is_int(x) -> bool:
    """A Python or NumPy integer, not a bool: the one integer test of every check."""
    return type(x) is int or isinstance(x, np.integer)


def keep_ints(obj, *names) -> None:
    """Store checked integer fields of a frozen dataclass as Python ints, as a JSON config
    gives them, so that a size computed from them cannot overflow NumPy's fixed width."""
    for name in names:
        object.__setattr__(obj, name, int(getattr(obj, name)))
