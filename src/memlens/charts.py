"""Minimal self-contained SVG line charts.

One polyline per labelled series over shared axes, with an optional
logarithmic y scale.  The output is a plain SVG string with no external
references, so the charts render anywhere and diff cleanly.
"""

from __future__ import annotations

import math

from ._jsontext import _SURROGATE

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH, _HEIGHT, _LINEAR_TICKS = 640, 420, 5
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 62, 18, 34, 46
# The least value whose log10 is finite, the smallest subnormal: a log
# scale's floor and ticks go no lower.
_TINY = 5e-324

# str.translate table from plain text to SVG character data.  XML 1.0
# allows no C0 control character but tab, newline and carriage return, not
# even as a character reference, so each of the others becomes U+FFFD.
_SVG_TEXT = {**dict.fromkeys({*range(0x20)} - {0x9, 0xA, 0xD}, "\ufffd"),
             ord("&"): "&amp;", ord("<"): "&lt;", ord(">"): "&gt;"}


def _svg_text(text: str) -> str:
    """Plain text as SVG character data; a lone surrogate, which UTF-8
    cannot write, becomes U+FFFD too."""
    return _SURROGATE.sub("\ufffd", text).translate(_SVG_TEXT)


def _fmt(v: float) -> str:
    return f"{v:.4g}"


def _span(lo: float, hi: float):
    """(lo, hi) with a nonzero span: an empty range widens by one, or out to
    zero where adding one is lost to rounding (|lo| >= 2^53)."""
    if hi <= lo:
        hi = lo + 1.0
    if hi <= lo:
        lo, hi = min(lo, 0.0), max(hi, 0.0)
    return lo, hi


def _linear_ticks(lo: float, hi: float):
    step = (hi - lo) / (_LINEAR_TICKS - 1)
    return [lo + i * step for i in range(_LINEAR_TICKS)]


def _log_ticks(lo: float, hi: float):
    lo_e = math.floor(math.log10(lo))
    hi_e = min(math.ceil(math.log10(hi)), 308)     # 10.0 ** 309 overflows
    step = max(1, (hi_e - lo_e) // 7)
    return [max(10.0 ** e, _TINY) for e in range(lo_e, hi_e + 1, step)]


def line_chart(series, title: str = "", x_label: str = "",
               y_label: str = "", log_y: bool = False) -> str:
    """Render labelled (xs, ys) series as an SVG line chart.

    series is an iterable of (label, xs, ys) triples; the labels, title
    and axis labels are plain text, escaped here.  With log_y, zero
    or negative values are clamped to one decade below the smallest
    positive value, or to the smallest subnormal, so plateaus at exact
    zero remain visible.
    """
    series = [(_svg_text(str(label)), [float(x) for x in xs],
               [float(y) for y in ys]) for label, xs, ys in series]
    if not series or any(len(xs) != len(ys) or not xs for _, xs, ys in series):
        raise ValueError("series must be nonempty (label, xs, ys) triples")

    all_x = [x for _, xs, _ in series for x in xs]
    all_y = [y for _, _, ys in series for y in ys]
    x_lo, x_hi = _span(min(all_x), max(all_x))

    if log_y:
        positive = [y for y in all_y if y > 0]
        floor = max(min(positive) / 10.0, _TINY) if positive else 0.1
        all_y = [max(y, floor) for y in all_y]
        y_lo, y_hi = min(all_y), max(all_y)
        if y_hi <= y_lo:
            # A decade above, or below where the decade above overflows.
            y_lo, y_hi = (y_lo, y_lo * 10.0) if y_lo * 10.0 < math.inf else (y_lo / 10.0, y_lo)
        ticks_y = _log_ticks(y_lo, y_hi)
        y_lo = min(y_lo, ticks_y[0])
        y_hi = max(y_hi, ticks_y[-1])

        def sy(y):
            y = max(y, floor)
            frac = ((math.log10(y) - math.log10(y_lo))
                    / (math.log10(y_hi) - math.log10(y_lo)))
            return _HEIGHT - _MARGIN_B - frac * (_HEIGHT - _MARGIN_T - _MARGIN_B)
    else:
        y_lo, y_hi = _span(min(all_y), max(all_y))
        ticks_y = _linear_ticks(y_lo, y_hi)

        def sy(y):
            frac = (y - y_lo) / (y_hi - y_lo)
            return _HEIGHT - _MARGIN_B - frac * (_HEIGHT - _MARGIN_T - _MARGIN_B)

    def sx(x):
        frac = (x - x_lo) / (x_hi - x_lo)
        return _MARGIN_L + frac * (_WIDTH - _MARGIN_L - _MARGIN_R)

    title, x_label, y_label = map(_svg_text, (title, x_label, y_label))
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
             f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
             f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>']
    if title:
        parts.append(f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="14">{title}</text>')

    x0, y0 = _MARGIN_L, _HEIGHT - _MARGIN_B
    x1, y1 = _WIDTH - _MARGIN_R, _MARGIN_T
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" '
                 f'stroke="black"/>')
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" '
                 f'stroke="black"/>')

    for tx in _linear_ticks(x_lo, x_hi):
        px = sx(tx)
        parts.append(f'<line x1="{px:.1f}" y1="{y0}" x2="{px:.1f}" '
                     f'y2="{y0 + 4}" stroke="black"/>')
        parts.append(f'<text x="{px:.1f}" y="{y0 + 17}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{_fmt(tx)}</text>')
    for ty in ticks_y:
        py = sy(ty)
        parts.append(f'<line x1="{x0 - 4}" y1="{py:.1f}" x2="{x0}" '
                     f'y2="{py:.1f}" stroke="black"/>')
        parts.append(f'<text x="{x0 - 7}" y="{py + 4:.1f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{_fmt(ty)}</text>')

    if x_label:
        parts.append(f'<text x="{(x0 + x1) / 2:.1f}" y="{_HEIGHT - 10}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="12">{x_label}</text>')
    if y_label:
        parts.append(f'<text x="16" y="{(y0 + y1) / 2:.1f}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="12" transform="rotate(-90 16 '
                     f'{(y0 + y1) / 2:.1f})">{y_label}</text>')

    for idx, (label, xs, ys) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        points = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{points}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        ly = _MARGIN_T + 14 * idx + 4
        lx = _WIDTH - _MARGIN_R - 130
        parts.append(f'<line x1="{lx}" y1="{ly}" x2="{lx + 22}" y2="{ly}" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{lx + 27}" y="{ly + 4}" '
                     f'font-family="sans-serif" font-size="11">{label}</text>')

    parts.append("</svg>")
    return "\n".join(parts)
