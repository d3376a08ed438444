"""Deterministic number formatting for emitted CSV/JSON artifacts."""

from __future__ import annotations

import json
import re

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


def dumps_17g(payload) -> str:
    """json.dumps with every float rendered at 17 significant digits.

    The stock encoder hard-codes repr() for floats, so floats are
    swapped for sentinel strings first and substituted back afterwards.
    """
    floats: list[float] = []

    def stash(obj):
        if isinstance(obj, float):
            floats.append(obj)
            return f"\x00{len(floats) - 1}\x00"
        if isinstance(obj, dict):
            return {k: stash(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [stash(v) for v in obj]
        return obj

    text = json.dumps(stash(payload), indent=2)
    # the NUL sentinel is escaped to \u0000 in the encoded text
    return re.sub(r'"\\u0000(\d+)\\u0000"', lambda m: fmt17(floats[int(m.group(1))]), text)
