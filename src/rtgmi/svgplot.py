"""Minimal self-contained SVG line plots.

Good enough for rate and error curves; not a plotting library.  Everything is
laid out in a fixed 720x480 viewport with a 10-tick linear axis on each side.
"""

import html
import math

WIDTH = 720
HEIGHT = 480
MARGIN_L = 72
MARGIN_R = 24
MARGIN_T = 40
MARGIN_B = 56
PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _escape(text) -> str:
    """Text with &, < and > as entities: the bytes of
    xml.sax.saxutils.escape, whose import brings urllib, http.client, ssl
    and email along."""
    return html.escape(str(text), quote=False)


def _nice_ticks(lo, hi, n=6):
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return [0.0, 1.0]
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / max(n - 1, 1)))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if span / (step * mult) <= n - 1:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + step * 1e-9:
        ticks.append(round(t, 12))
        t += step
    return ticks or [lo, hi]


def _fmt(v):
    if v == int(v) and abs(v) < 1e6:
        return str(int(v))
    return f"{v:g}"


class LinePlot:
    def __init__(self, title="", xlabel="", ylabel=""):
        self.title = title
        self.xlabel = xlabel
        self.ylabel = ylabel
        self.series = []   # (label, xs, ys)

    def add(self, label, xs, ys):
        xs = [float(v) for v in xs]
        ys = [float(v) for v in ys]
        if len(xs) != len(ys):
            raise ValueError("x and y lengths differ")
        self.series.append((label, xs, ys))

    def _bounds(self):
        xs = [v for _, sx, _ in self.series for v in sx if math.isfinite(v)]
        ys = [v for _, _, sy in self.series for v in sy if math.isfinite(v)]
        if not xs or not ys:
            return 0.0, 1.0, 0.0, 1.0
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
        if x1 == x0:
            x1 = x0 + 1.0
        if y1 == y0:
            y1 = y0 + 1.0
        pad = 0.04 * (y1 - y0)
        return x0, x1, y0 - pad, y1 + pad

    def render(self):
        x0, x1, y0, y1 = self._bounds()
        pw = WIDTH - MARGIN_L - MARGIN_R
        ph = HEIGHT - MARGIN_T - MARGIN_B

        def sx(v):
            return MARGIN_L + (v - x0) / (x1 - x0) * pw

        def sy(v):
            return MARGIN_T + ph - (v - y0) / (y1 - y0) * ph

        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
            f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{pw}" height="{ph}" '
            f'fill="none" stroke="#333" stroke-width="1"/>',
        ]
        font = 'font-family="sans-serif" font-size="12"'
        for t in _nice_ticks(x0, x1):
            if not x0 <= t <= x1:
                continue
            px = sx(t)
            parts.append(f'<line x1="{px:.2f}" y1="{MARGIN_T}" x2="{px:.2f}" '
                         f'y2="{MARGIN_T + ph}" stroke="#ddd"/>')
            parts.append(f'<text x="{px:.2f}" y="{MARGIN_T + ph + 18}" {font} '
                         f'text-anchor="middle">{_fmt(t)}</text>')
        for t in _nice_ticks(y0, y1):
            if not y0 <= t <= y1:
                continue
            py = sy(t)
            parts.append(f'<line x1="{MARGIN_L}" y1="{py:.2f}" '
                         f'x2="{MARGIN_L + pw}" y2="{py:.2f}" stroke="#ddd"/>')
            parts.append(f'<text x="{MARGIN_L - 8}" y="{py + 4:.2f}" {font} '
                         f'text-anchor="end">{_fmt(t)}</text>')
        for i, (label, xs, ys) in enumerate(self.series):
            color = PALETTE[i % len(PALETTE)]
            pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}"
                           for a, b in zip(xs, ys)
                           if math.isfinite(a) and math.isfinite(b))
            if pts:
                parts.append(f'<polyline points="{pts}" fill="none" '
                             f'stroke="{color}" stroke-width="1.8"/>')
            ly = MARGIN_T + 16 + 18 * i
            parts.append(f'<line x1="{MARGIN_L + pw - 150}" y1="{ly - 4}" '
                         f'x2="{MARGIN_L + pw - 126}" y2="{ly - 4}" '
                         f'stroke="{color}" stroke-width="1.8"/>')
            parts.append(f'<text x="{MARGIN_L + pw - 120}" y="{ly}" {font}>'
                         f'{_escape(label)}</text>')
        if self.title:
            parts.append(f'<text x="{WIDTH / 2}" y="24" {font} '
                         f'font-size="15" text-anchor="middle">'
                         f'{_escape(self.title)}</text>')
        if self.xlabel:
            parts.append(f'<text x="{MARGIN_L + pw / 2}" y="{HEIGHT - 16}" '
                         f'{font} text-anchor="middle">'
                         f'{_escape(self.xlabel)}</text>')
        if self.ylabel:
            parts.append(f'<text x="18" y="{MARGIN_T + ph / 2}" {font} '
                         f'text-anchor="middle" transform="rotate(-90 18 '
                         f'{MARGIN_T + ph / 2})">{_escape(self.ylabel)}</text>')
        parts.append("</svg>")
        return "\n".join(parts) + "\n"
