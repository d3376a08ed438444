"""Deterministic number formatting for emitted CSV/JSON artifacts."""

from __future__ import annotations

import json
from collections.abc import Sequence

import numpy as np

__all__ = ["fmt17", "json_float", "dumps_17g", "distribution_rows"]


def fmt17(x: float) -> str:
    """Render a float at 17 significant digits (lossless round-trip)."""
    return format(float(x), ".17g")


def json_float(x: float) -> str:
    """:func:`fmt17` as a JSON number, but ``-0.0`` for negative zero: ``-0`` would load as the integer 0."""
    return "-0.0" if repr(float(x)) == "-0.0" else fmt17(x)


def _digits_before(k: int) -> int:
    """Characters of ``str(0) ... str(k - 1)``: one per number, one more per number past each power of ten."""
    total, power = k, 10
    while power < k:
        total += k - power
        power *= 10
    return total


class _StepRows(Sequence):
    """The rows of distribution.csv: ``rows(step, dist)`` formats one step, ``keep(dist)`` stores the next one.

    As a sequence it holds the kept steps, ``self[k]`` formatted on each read.
    See :func:`distribution_rows`.
    """

    def __init__(self, value: str, zero: str, kept: list):
        self._value, self._zero, self._kept = value, zero, kept

    def __call__(self, step, dist):
        return self._texts(step, *_live_window(dist))

    def keep(self, dist) -> None:
        lo, window = _live_window(dist)
        self._kept.append((len(self._kept), lo, window.copy()))

    def __len__(self) -> int:
        return len(self._kept)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return _StepRows(self._value, self._zero, self._kept[k])
        return "".join(self._texts(*self._kept[k]))

    def _texts(self, step, lo, window):
        hi = lo + window.shape[0]
        lo_digits, hi_digits = _digits_before(lo), _digits_before(hi)
        prefix = f"{step},"
        return (
            ("" if step else "step,node,probability\n") + self._zero[: 4 * lo + lo_digits].replace("\t", prefix),
            self._value[8 * lo + lo_digits : 8 * hi + hi_digits].replace("\t", prefix) % tuple(window.tolist()),
            self._zero[4 * hi + hi_digits :].replace("\t", prefix),
        )


def _live_window(dist):
    """``(lo, p[lo:hi])``: the values from the first to the last that is not +0.0, or ``(n, p[n:])`` if none is."""
    p = np.asarray(dist, dtype=float)
    live = (p != 0) | np.signbit(p)
    lo, hi = (int(live.argmax()), p.shape[0] - int(live[::-1].argmax())) if live.any() else (p.shape[0],) * 2
    return lo, p[lo:hi]


def distribution_rows(n: int) -> _StepRows:
    """The ``step,node,probability`` rows of an n-node distribution.csv, one step at a time.

    ``rows(step, dist)`` returns one step's rows as three texts: the zero rows
    before the step's live window, the window's rows, and the zero rows after
    it; the window runs from the first to the last value that is not +0.0
    (``-0.0`` and NaN fall in it).  Step 0's first text starts with the
    header, so the file is every step's texts in order.

    ``rows.keep(dist)`` stores the next step (numbered from 0) as a float64
    copy of its live window only, 8 bytes per live node, and no text.  ``rows``
    is then a sequence over the kept steps: ``rows[k]`` is step k's whole text,
    formatted when it is read, and ``rows[a:b]`` holds steps a to b - 1 under
    their own numbers, so ``"".join(rows)`` is the file.

    The ``%``-template of the n nodes and its zero body, where every value
    reads ``0``, are built once, here.  Each step fills only the window's rows
    of the template, in C, and cuts the others from the zero body: node k's
    row is ``digits(k) + 8`` characters in the template and ``digits(k) + 4``
    in the zero body, so the cuts are computed, not searched.
    ``"%.17g" % x`` renders the same digits as :func:`fmt17`.
    """
    value = ("\t%d,%%.17g\n" * n) % tuple(range(n))
    return _StepRows(value, value.replace(",%.17g\n", ",0\n"), [])


def dumps_17g(payload: dict) -> str:
    """A non-empty flat dict laid out as ``json.dumps(payload, indent=2)``, floats at 17 significant digits.

    The stock encoder hard-codes repr() for floats, so each entry is written
    here: floats by :func:`json_float`, keys and all other values by ``json.dumps``.
    """
    items = payload.items()
    entries = (f"  {json.dumps(k)}: {json_float(v) if isinstance(v, float) else json.dumps(v)}" for k, v in items)
    return "{\n" + ",\n".join(entries) + "\n}"
