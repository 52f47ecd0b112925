"""Plot artifacts: CSV samples of the piecewise-linear graph and small SVGs.

CSV is the canonical artifact (exact kink rows plus float samples); SVG
rendering is a convenience for quick looks and stays dependency-free.  Both
graphs of a tropical polynomial sample SAMPLES equal steps of omega from 0
to one past the largest kink; both SVGs are SIZE pixels square and draw
the data PAD pixels inside their edges.
"""

from __future__ import annotations

import io
from fractions import Fraction

from .tropical import NewtonPolygon, TropicalPoly, tropical_roots

SAMPLES = 200
SIZE = 360
PAD = 30  # pixels between the data box and each edge of an SVG


def _roots_and_hi(p: TropicalPoly):
    """The min-plus roots of p and the end of the sampled range, one past
    the largest kink (2 when there is none)."""
    roots = tropical_roots(p).roots
    return roots, (roots[-1].omega if roots else Fraction(1)) + 1


def tropical_csv(p: TropicalPoly) -> str:
    """CSV with float samples of min_i(alpha_i + k_i w) and exact kink rows."""
    roots, hi = _roots_and_hi(p)
    out = io.StringIO()
    out.write("kind,omega,value,exact_omega,multiplicity\n")
    for j in range(SAMPLES + 1):
        w = hi * j / SAMPLES
        out.write(f"sample,{float(w)},{float(p(w))},,\n")
    for root in roots:
        out.write(f"kink,{float(root.omega)},{float(p(root.omega))},"
                  f"{root.omega},{root.multiplicity}\n")
    return out.getvalue()


def _svg(curve, stroke: str, dots, width, bottom, height) -> str:
    """A SIZE-pixel square SVG: the polyline through the data points `curve`
    in the `stroke` style, then a dot and label per (u, v, color, label) of
    `dots`.  The data box [0, width] x [bottom, bottom + height] fills the
    square less PAD pixels on each side."""
    def px(u, v):
        return (PAD + float(u / width) * (SIZE - 2 * PAD),
                SIZE - PAD - float((v - bottom) / height) * (SIZE - 2 * PAD))

    pts = " ".join("{:.2f},{:.2f}".format(*px(u, v)) for u, v in curve)
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" '
             f'viewBox="0 0 {SIZE} {SIZE}"><rect width="{SIZE}" height="{SIZE}" fill="white"/>'
             f'<polyline points="{pts}" fill="none" {stroke}/>']
    for u, v, color, label in dots:
        x, y = px(u, v)
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" fill="{color}"/>'
                     f'<text x="{x + 6:.2f}" y="{y - 6:.2f}" font-size="11">{label}</text>')
    parts.append("</svg>")
    return "".join(parts)


def tropical_svg(p: TropicalPoly) -> str:
    """Piecewise-linear graph of the tropical polynomial with kinks marked."""
    roots, hi = _roots_and_hi(p)
    ws = [hi * j / SAMPLES for j in range(SAMPLES + 1)]
    vs = [p(w) for w in ws]
    vlo, vhi = min(vs), max(vs)
    dots = [(r.omega, p(r.omega), "red", f"{r.omega} (x{r.multiplicity})") for r in roots]
    return _svg(zip(ws, vs), 'stroke="black" stroke-width="1.5"', dots,
                hi, vlo, (vhi - vlo) or Fraction(1))


def polygon_svg(np_: NewtonPolygon) -> str:
    """Coefficient valuations with the lower convex hull highlighted."""
    finite = [(i, Fraction(o.value)) for i, o in np_.points if o.is_finite]
    hull = set(np_.hull)
    dots = [(i, a, "red" if (i, a) in hull else "black", f"({i}, {a})") for i, a in finite]
    top = max((a for _, a in finite), default=Fraction(1)) or Fraction(1)
    return _svg(np_.hull, 'stroke="steelblue" stroke-width="2"', dots, Fraction(np_.n), 0, top)
