"""Deterministic number formatting for emitted CSV/JSON artifacts."""

from __future__ import annotations

import json

import numpy as np

__all__ = ["fmt17", "dumps_17g", "distribution_rows"]


def fmt17(x: float) -> str:
    """Render a float at 17 significant digits (lossless round-trip)."""
    return format(float(x), ".17g")


def distribution_rows(n: int):
    """``rows(step, dist)``: one step's ``step,node,probability`` rows of an n-node distribution.csv.

    Step 0's text starts with the header, so the file is the steps' texts in
    order.  The ``%``-template of the n nodes is built once, here; each call
    fills it in C, and ``"%.17g" % x`` renders the same digits as :func:`fmt17`.
    """
    body = "".join(f"\t{node},%.17g\n" for node in range(n))
    return lambda step, dist: ("" if step else "step,node,probability\n") + body.replace("\t", f"{step},") % tuple(
        np.asarray(dist, dtype=float).tolist()
    )


def dumps_17g(payload: dict) -> str:
    """A non-empty flat dict laid out as ``json.dumps(payload, indent=2)``, floats at 17 significant digits.

    The stock encoder hard-codes repr() for floats, so each entry is written
    here: floats by :func:`fmt17`, keys and all other values by ``json.dumps``.
    """
    entries = (f"  {json.dumps(k)}: {fmt17(v) if isinstance(v, float) else json.dumps(v)}" for k, v in payload.items())
    return "{\n" + ",\n".join(entries) + "\n}"
