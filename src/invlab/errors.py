"""Exception hierarchy shared by every module, its argument checks and the config type rule.

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
an integer is tested by `is_int`, the package's one integer rule: a Python or NumPy
integer, never a bool, that str() can write. Every config dataclass first calls
`check_fields`, which types each field from its annotation, from JSON or Python alike.
A refusal message writes the refused value through `shown`, which gives a value past
100 characters, or one repr cannot write, as its type and size.
"""

from __future__ import annotations

import sys
from typing import Union, get_args, get_origin, get_type_hints

import numpy as np

_INT_BOUND = 10 ** sys.get_int_max_str_digits() if sys.get_int_max_str_digits() else float("inf")
_SHOWN_CHARS = 100  # the longest repr a refusal message repeats


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


def shown(value) -> str:
    """value as a refusal message writes it: its repr up to _SHOWN_CHARS characters, and past
    that, or where repr fails, its type and size, so that no message repeats a large value."""
    try:
        text = repr(value)
    except (ValueError, RecursionError):  # an integer str() cannot write, bare or held, or a
        text = ""  # value nested almost as deep as the JSON parser goes
    if 0 < len(text) <= _SHOWN_CHARS:
        return text
    if type(value) is int:
        return f"an integer of {value.bit_length()} bits"
    if isinstance(value, np.ndarray):
        return f"an array of shape {value.shape}"
    if isinstance(value, (str, list, tuple, dict)):
        return f"a {type(value).__name__} of length {len(value)}"
    return f"a value of type {type(value).__name__}"


def require(ok: bool, field: str, value, need: str) -> None:
    """InvalidParameterError naming `field` unless ok: the one form of a range check."""
    if not ok:
        raise InvalidParameterError(f"{field} must be {need}, got {shown(value)}", field=field)


def require_shape(x, shape: tuple, name: str) -> np.ndarray:
    """x as a float64 array; InvalidParameterError naming `name` unless its shape is `shape`."""
    x = np.asarray(x, dtype=np.float64)
    # an inline test, not a `require` call: this runs on every denoiser eval and pullback
    if x.shape != shape:
        raise InvalidParameterError(f"{name} has shape {x.shape}, expected {shape}", field=name)
    return x


def is_int(x) -> bool:
    """A Python or NumPy integer, not a bool, that str() can write: the one integer test."""
    return type(x) is int and -_INT_BOUND < x < _INT_BOUND or isinstance(x, np.integer)


def check_fields(obj) -> None:
    """Store each field of the dataclass `obj` in its annotation's one form, or refuse it by
    name: an `int` is `is_int`, kept as a Python int; a `float` is an integer or a float, kept
    as a Python float; `Optional[X]` is None or an X; `tuple[X, ...]` a tuple or list of X,
    kept as a tuple, a bad element named `field[i]`; a bool, a str or a section is exactly
    that type. So no size overflows a fixed width, and a config's JSON echo loads back."""
    for name, tp in get_type_hints(type(obj)).items():
        object.__setattr__(obj, name, _typed(tp, getattr(obj, name), name))


def _typed(tp, value, field: str):
    if get_origin(tp) is Union:  # Optional[X]
        return None if value is None else _typed(get_args(tp)[0], value, field)
    if get_origin(tp) is tuple:  # tuple[X, ...]
        require(isinstance(value, (tuple, list)), field, value, "a tuple or a list")
        return tuple(_typed(get_args(tp)[0], v, f"{field}[{i}]") for i, v in enumerate(value))
    if tp is int:
        require(is_int(value), field, value, "an integer")
        return int(value)
    if tp is float:
        require(is_int(value) or isinstance(value, (float, np.floating)), field, value,
                "a real number")
        try:
            return float(value)
        except OverflowError:
            raise InvalidParameterError(f"{field} must be a real number, got an integer too "
                                        "large for a float", field=field) from None
    require(type(value) is tp, field, value, f"a {tp.__name__}")  # a bool: True or False
    return value
