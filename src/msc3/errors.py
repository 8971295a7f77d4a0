"""Exception types shared across the package, and a JSON reader raising them."""

import json


class Msc3Error(Exception):
    """Base class for all msc3-specific errors."""


class FormatError(Msc3Error):
    """A file does not match its declared binary or text layout.

    offset is the byte position where decoding failed, when known.
    """

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class ValidationError(Msc3Error):
    """Input data is structurally well-formed but violates a value constraint."""


class DegenerateInputError(Msc3Error):
    """The input carries no usable signal (e.g. every slice is zero)."""


class ConvergenceError(Msc3Error):
    """An iterative solver exhausted its iteration budget.

    residual is the last observed residual norm.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class NoGapError(Msc3Error):
    """The marginal vector has no detectable gap, so no cluster can be seeded.

    Carries the marginal vector d so callers can still report diagnostics.
    """

    def __init__(self, message, d=None):
        super().__init__(message)
        self.d = d


def load_json(text, what, schema):
    """Parse strict RFC 8259 JSON (str or bytes) and check it against a schema.

    A schema is int or float (float also takes int, neither takes a bool),
    [item schema] for an array, or {key: schema} for an object holding at
    least those keys. Raises FormatError when text is not JSON (NaN and
    Infinity included) and ValidationError on a missing or mistyped key.
    """
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except (ValueError, RecursionError) as e:
        raise FormatError(f"{what} is not valid JSON: {e}") from None
    _check(doc, schema, what)
    return doc


def _reject_constant(name):
    raise ValueError(f"{name} is not a JSON number")


def _check(value, schema, path):
    kinds = type(schema) if isinstance(schema, (dict, list)) else (int, schema)
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ValidationError(f"{path} has the wrong type ({type(value).__name__})")
    if isinstance(schema, dict):
        for key, sub in schema.items():
            if key not in value:
                raise ValidationError(f"{path} has no key {key!r}")
            _check(value[key], sub, f"{path}.{key}")
    elif isinstance(schema, list):
        for i, item in enumerate(value):
            _check(item, schema[0], f"{path}[{i}]")
