"""Deterministic number formatting for emitted CSV/JSON artifacts."""

from __future__ import annotations

import json

import numpy as np

__all__ = ["fmt17", "dumps_17g", "distribution_csv"]


def fmt17(x: float) -> str:
    """Render a float at 17 significant digits (lossless round-trip)."""
    return format(float(x), ".17g")


def distribution_csv(distributions) -> str:
    """distribution.csv text: header, then a ``step,node,probability`` row per node, step-major.

    ``distributions`` holds one equal-length probability vector per recorded
    step, at least one.  Each step fills one ``%``-template in C;
    ``"%.17g" % x`` renders the same digits as :func:`fmt17`.
    """
    body = "".join(f"\n{node},%.17g" for node in range(len(distributions[0])))
    parts = ["step,node,probability"]
    for step, dist in enumerate(distributions):
        parts.append(body.replace("\n", f"\n{step},") % tuple(np.asarray(dist, dtype=float).tolist()))
    parts.append("\n")
    return "".join(parts)


def dumps_17g(payload: dict) -> str:
    """A non-empty flat dict laid out as ``json.dumps(payload, indent=2)``, floats at 17 significant digits.

    The stock encoder hard-codes repr() for floats, so each entry is written
    here: floats by :func:`fmt17`, keys and all other values by ``json.dumps``.
    """
    entries = (f"  {json.dumps(k)}: {fmt17(v) if isinstance(v, float) else json.dumps(v)}" for k, v in payload.items())
    return "{\n" + ",\n".join(entries) + "\n}"
