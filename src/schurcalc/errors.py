"""Shared exception types and the shape checks for JSON payloads."""

from typing import Mapping


class BoundExceededError(RuntimeError):
    """An enumeration or size bound would be exceeded."""


class WindowExceededError(BoundExceededError):
    """A weight or twist falls outside the materialized window."""


class InvariantError(RuntimeError):
    """An internal consistency check failed.

    Raised when a quantity the library computes two ways disagrees with
    itself. Indicates a bug, not bad input.
    """


def expect_mapping(value, what: str) -> Mapping:
    """Return a decoded JSON value if it is an object; raise TypeError if not."""
    if not isinstance(value, Mapping):
        raise TypeError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def is_int(value) -> bool:
    """True for an int that is not a bool, which is a subclass of int."""
    return value.__class__ is int or isinstance(value, int) and not isinstance(value, bool)


def check_int(value, what: str, low: int | None = None, high: int | None = None) -> int:
    """Return an int argument within low..high, an end given as None left open.

    The one check of an int argument: a bool or any other type raises
    TypeError, a value below low ValueError and one above high
    BoundExceededError, each text naming what and the value, or the
    value's bit length where str() refuses an int of that many digits. No
    text is built unless it is raised.
    """
    if value.__class__ is not int and not is_int(value):
        raise TypeError(f"the {what} {value!r} must be an int, not {type(value).__name__}")
    if low is not None and value < low:
        raise ValueError(f"{_named(what, value)} must be at least {low}")
    if high is not None and value > high:
        raise BoundExceededError(f"{_named(what, value)} must be at most {high}")
    return value


def _named(what: str, value: int) -> str:
    try:
        return f"the {what} {value}"
    except ValueError:  # past sys.get_int_max_str_digits()
        sign = "a negative" if value < 0 else "an"
        return f"the {what}, {sign} int of {value.bit_length()} bits,"


def expect_ints(values, what: str) -> tuple[int, ...]:
    """Return the entries as a tuple; a float, string or bool raises TypeError."""
    values = tuple(values)
    for value in values:
        if not is_int(value):
            raise TypeError(f"{what} must be ints, got {value!r}")
    return values


def expect_int(value, what: str) -> int:
    """Return a decoded JSON value if it is an integer; raise TypeError if not.

    JSON true and false decode to bool, a subclass of int, and are refused.
    """
    if not is_int(value):
        raise TypeError(f"{what} must be a JSON integer, got {type(value).__name__}")
    return value
