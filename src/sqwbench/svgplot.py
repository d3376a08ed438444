"""Dependency-free SVG bar plots for probability distributions."""

from __future__ import annotations

__all__ = ["distribution_svg"]

_WIDTH = 720
_HEIGHT = 400
_MARGIN_LEFT = 56
_MARGIN_RIGHT = 16
_MARGIN_TOP = 36
_MARGIN_BOTTOM = 44


def _f(x: float) -> str:
    return format(x, ".2f")


def _text(x, y, size: int, anchor: str, body) -> str:
    return f'<text x="{x}" y="{y}" font-family="sans-serif" font-size="{size}" text-anchor="{anchor}">{body}</text>'


def distribution_svg(probabilities, title: str = "") -> str:
    """Render node-occupation probabilities as an SVG bar chart."""
    probs = [float(p) for p in probabilities]
    n = len(probs)
    if n == 0:
        raise ValueError("need at least one probability")
    top = max(max(probs), 1e-12)
    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
    bar_w = plot_w / n

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(_text(_WIDTH // 2, 22, 14, "middle", title))
    # axes
    x0 = _MARGIN_LEFT
    y0 = _HEIGHT - _MARGIN_BOTTOM
    parts.append(
        f'<path d="M {_f(x0)} {_f(_MARGIN_TOP)} L {_f(x0)} {_f(y0)} L {_f(x0 + plot_w)} {_f(y0)}" '
        f'stroke="black" fill="none" stroke-width="1"/>'
    )
    # y-axis labels: 0 and max
    parts.append(_text(_f(x0 - 6), _f(y0 + 4), 11, "end", 0))
    parts.append(_text(_f(x0 - 6), _f(_MARGIN_TOP + 4), 11, "end", f"{top:.3g}"))
    # x-axis labels: first, middle, last node
    for node in sorted({0, (n - 1) // 2, n - 1}):
        parts.append(_text(_f(x0 + (node + 0.5) * bar_w), _f(y0 + 16), 11, "middle", node))
    for node, p in enumerate(probs):
        h = plot_h * p / top
        if h <= 0.0:
            continue
        x = x0 + node * bar_w
        parts.append(
            f'<rect x="{_f(x)}" y="{_f(y0 - h)}" width="{_f(max(bar_w - 0.5, 0.5))}" '
            f'height="{_f(h)}" fill="#4878a8"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
