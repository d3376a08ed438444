"""Exception types and input type rules shared across the package."""

import functools
import gc
import json
import sys
from itertools import chain

__all__ = ["ValidationError", "UnreachableFluxError", "NumericError"]


class ValidationError(ValueError):
    """An input or domain object violates its structural contract."""


class UnreachableFluxError(ValidationError):
    """The requested zero-coupling point cannot be reached with the given junction energy.

    ``required_energy_scale`` is the factor by which the Josephson energy
    would have to grow for the target inverse-inductance ratio to become
    reachable.
    """

    def __init__(self, message: str, required_energy_scale: float | None = None):
        super().__init__(message)
        self.required_energy_scale = required_energy_scale


class NumericError(RuntimeError):
    """A numeric routine failed to converge to its required tolerance."""


# bool is an int subclass; JSON true/false must pass as neither an index nor a number
def _is_index(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _not_finite(key: str, value) -> str | None:
    """The message for a number that is inf, nan or an integer beyond the float range, else None."""
    return None if abs(value) <= sys.float_info.max else f"{key} must be finite, got {value!r}"


def _int_pairs(entries) -> list[int] | None:
    """Whole-list test: every entry is a list or tuple of two ints; their endpoints, in order, or None."""
    if not set(map(type, entries)) <= {list, tuple} or not set(map(len, entries)) <= {2}:
        return None
    flat = list(chain.from_iterable(entries))
    # type() is int excludes bool, which JSON true/false decode to
    return flat if set(map(type, flat)) <= {int} else None


def _collector_paused(fn):
    """``fn`` with the cyclic collector paused for the whole call, the caller's collector state restored on every exit.

    A reader decodes JSON and converts it under one pause: a decoded JSON value holds no reference cycle, so a
    collection meanwhile frees nothing, and its frame, with the decoded value, is gone before the collector resumes.
    """

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


def _load_json(text: str, what: str):
    """``json.loads(text)``; each way it can fail is a one-line ValidationError that names ``what``.  Each reader
    that calls it holds the cyclic collector paused from decode through conversion (see :func:`_collector_paused`)."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed {what} at byte offset {exc.pos}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:  # an integer past the int-string limit, or arrays nested too deep
        raise ValidationError(f"{what} cannot be decoded: {exc}") from None
