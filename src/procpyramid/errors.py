"""Exception types for unrecoverable input problems, and the rules JSON input fields must meet."""

from __future__ import annotations

import json


class PyramidError(Exception):
    """Base class for fatal errors; carries a short machine-readable code."""

    code = "FATAL"

    def __init__(self, message: str, code: str | None = None):
        super().__init__(message)
        if code is not None:
            self.code = code


class ManifestError(PyramidError):
    """The bundle manifest is malformed or internally inconsistent."""

    code = "MANIFEST"


class ModelParseError(PyramidError):
    """A model file cannot be parsed into a process model."""

    code = "MODEL-PARSE"


class TemplateError(PyramidError):
    """A reference template file is malformed."""

    code = "TEMPLATE"


class EmptyTimelineError(PyramidError):
    """A timeline grid was requested for an empty offset table."""

    code = "EMPTY-TIMELINE"


class UnknownSeedError(PyramidError):
    """An impact seed matches neither a milestone nor a model."""

    code = "UNKNOWN-SEED"


def read_json(text: str, error: type[PyramidError], what: str) -> object:
    """The value of JSON input text; text the decoder refuses raises `error`."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # beyond JSONDecodeError: deep nesting, integers over sys.get_int_max_str_digits()
        raise error(f"{what} is not valid JSON ({exc})")


def is_text(value: object) -> bool:
    return isinstance(value, str) and value != ""


def is_name(value: object) -> bool:  # more than whitespace
    return isinstance(value, str) and value.strip() != ""


def is_names(value: object) -> bool:
    return isinstance(value, list) and all(map(is_name, value))


def is_int(value: object, least: int = 0) -> bool:  # a bool is not one
    return isinstance(value, int) and not isinstance(value, bool) and value >= least
