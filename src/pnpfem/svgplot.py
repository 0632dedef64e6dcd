"""Minimal SVG 1.1 line charts for diagnostics time series (no plotting deps)."""

_WIDTH, _HEIGHT = 640, 400
_MARGIN = 56
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")


def _ticks(lo, hi, count=5):
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    return [lo + span * k / (count - 1) for k in range(count)]


def write_line_chart(path, title, xlabel, series):
    """Write a line chart.

    Parameters
    ----------
    series : list of (label, xs, ys)
        One polyline per entry; axes are fitted to the union of the data.
    """
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    if not xs_all:
        raise ValueError("no data to plot")
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        pad = abs(y_lo) * 1e-3 + 1e-12
        y_lo, y_hi = y_lo - pad, y_hi + pad

    w, h, m = _WIDTH, _HEIGHT, _MARGIN

    def px(x):
        return m + (x - x_lo) / (x_hi - x_lo) * (w - 2 * m)

    def py(y):
        return h - m - (y - y_lo) / (y_hi - y_lo) * (h - 2 * m)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{w}" height="{h}" viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<text x="{w / 2}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
        f'<rect x="{m}" y="{m}" width="{w - 2 * m}" height="{h - 2 * m}" '
        f'fill="none" stroke="#444"/>',
    ]
    parts += [f'<text x="{px(t):.1f}" y="{h - m + 18}" text-anchor="middle" '
              f'font-family="sans-serif" font-size="10">{t:.4g}</text>'
              for t in _ticks(x_lo, x_hi)]
    parts += [f'<text x="{m - 6}" y="{py(t):.1f}" text-anchor="end" '
              f'font-family="sans-serif" font-size="10">{t:.4g}</text>'
              for t in _ticks(y_lo, y_hi)]
    parts.append(f'<text x="{w / 2}" y="{h - 8}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="12">{xlabel}</text>')
    for s, (label, xs, ys) in enumerate(series):
        color = _COLORS[s % len(_COLORS)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts += [f'<polyline points="{pts}" fill="none" stroke="{color}" '
                  f'stroke-width="1.5"/>',
                  f'<text x="{w - m - 4}" y="{m + 16 + 14 * s}" '
                  f'text-anchor="end" font-family="sans-serif" '
                  f'font-size="11" fill="{color}">{label}</text>']
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(parts) + "\n")
