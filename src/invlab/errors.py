"""Exception hierarchy shared by every module.

Each exception carries a short machine-readable ``code`` and an optional
``context`` dict; the CLI serializes failures as ``{code, message, context}``.
"""

from __future__ import annotations


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


def require(ok: bool, field: str, value, need: str) -> None:
    """InvalidParameterError naming `field` unless ok: the one form of a range check."""
    if not ok:
        raise InvalidParameterError(f"{field} must be {need}, got {value!r}", field=field)


class OrderingError(InvlabError):
    code = "ordering-error"


class BoundsError(InvlabError):
    code = "bounds-error"


class DimensionError(InvlabError):
    code = "dimension-error"


class InvalidInputError(InvlabError):
    code = "invalid-input"


class TrainingFailureError(InvlabError):
    code = "training-failure"


class DivergenceError(InvlabError):
    code = "divergence"


class FitError(InvlabError):
    code = "fit-error"


class GridMismatchError(InvlabError):
    code = "grid-mismatch"


class ConfigError(InvlabError):
    code = "config-error"


class FormatError(InvlabError):
    code = "format-error"
