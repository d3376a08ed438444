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
    """:func:`fmt17` as a JSON number that loads back as a float: ``1.0`` and ``-0.0``, not ``1`` and ``-0``."""
    text = fmt17(x)
    return text if "." in text or "e" in text else text + ".0"


def _digits_before(k: int) -> int:
    """Characters of ``str(0) ... str(k - 1)``: one per number, one more per number past each power of ten."""
    total, power = k, 10
    while power < k:
        total += k - power
        power *= 10
    return total


class _StepRows(Sequence):
    """The rows of distribution.csv: ``keep(dist)`` stores the next step, and as a sequence it holds the kept steps,
    ``self[k]`` formatted on each read.  See :func:`distribution_rows`.
    """

    def __init__(self, value: str, zero: str, kept: list):
        self._value, self._zero, self._kept = value, zero, kept

    def keep(self, dist) -> None:
        p = np.asarray(dist, dtype=float)
        lo, hi = _live_span(p)
        self._kept.append((len(self._kept), lo, p[lo:hi].copy()))

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


def _live_span(a: np.ndarray) -> tuple[int, int]:
    """``(lo, hi)``: from the first to past the last element of a float64 or complex128 array that is not all zero
    bits, so -0.0 and NaN are live; ``(n, n)`` if none is."""
    live = a.view(np.uint64).reshape(a.shape[0], a.itemsize // 8).any(axis=1)  # one word per float64, two per complex
    n = live.shape[0]
    return (int(live.argmax()), n - int(live[::-1].argmax())) if live.any() else (n, n)


def distribution_rows(n: int) -> _StepRows:
    """The ``step,node,probability`` rows of an n-node distribution.csv, one step at a time.

    ``rows.keep(dist)`` stores the next step (numbered from 0) as a float64
    copy of its live window only, 8 bytes per live node, and no text; the
    window runs from the first to the last value that is not +0.0 (``-0.0``
    and NaN fall in it).  ``rows`` is then a sequence over the kept steps:
    ``rows[k]`` is step k's whole text, formatted when it is read, and
    ``rows[a:b]`` holds steps a to b - 1 under their own numbers.  Step 0's
    text starts with the header, so ``"".join(rows)`` is the file.

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
