"""Plot artifacts: CSV samples of the piecewise-linear graph and small SVGs.

CSV is the canonical artifact (exact kink rows plus float samples); SVG
rendering is a convenience for quick looks and stays dependency-free.  Both
graphs of a tropical polynomial sample SAMPLES equal steps of omega from 0
to one past the largest kink; both SVGs are SIZE pixels square.
"""

from __future__ import annotations

import io
from fractions import Fraction

from .tropical import NewtonPolygon, TropicalPoly, tropical_roots

SAMPLES = 200
SIZE = 360


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


_SVG_HEADER = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" '
               f'height="{SIZE}" viewBox="0 0 {SIZE} {SIZE}">'
               f'<rect width="{SIZE}" height="{SIZE}" fill="white"/>')


def tropical_svg(p: TropicalPoly) -> str:
    """Piecewise-linear graph of the tropical polynomial with kinks marked."""
    roots, hi = _roots_and_hi(p)
    ws = [hi * j / SAMPLES for j in range(SAMPLES + 1)]
    vs = [p(w) for w in ws]
    vlo, vhi = min(vs), max(vs)
    span = (vhi - vlo) or Fraction(1)
    pad = 30

    def x(w):
        return pad + float(w / hi) * (SIZE - 2 * pad)

    def y(v):
        return SIZE - pad - float((v - vlo) / span) * (SIZE - 2 * pad)

    pts = " ".join(f"{x(w):.2f},{y(v):.2f}" for w, v in zip(ws, vs))
    parts = [_SVG_HEADER,
             f'<polyline points="{pts}" fill="none" stroke="black" stroke-width="1.5"/>']
    for root in roots:
        parts.append(f'<circle cx="{x(root.omega):.2f}" cy="{y(p(root.omega)):.2f}" '
                     f'r="4" fill="red"/>')
        parts.append(f'<text x="{x(root.omega) + 6:.2f}" y="{y(p(root.omega)) - 6:.2f}" '
                     f'font-size="11">{root.omega} (x{root.multiplicity})</text>')
    parts.append("</svg>")
    return "".join(parts)


def polygon_svg(np_: NewtonPolygon) -> str:
    """Coefficient valuations with the lower convex hull highlighted."""
    finite = [(i, Fraction(o.value)) for i, o in np_.points if o.is_finite]
    xmax = np_.n
    ymax = max((a for _, a in finite), default=Fraction(1)) or Fraction(1)
    pad = 30

    def x(i):
        return pad + float(Fraction(i, xmax)) * (SIZE - 2 * pad)

    def y(a):
        return SIZE - pad - float(a / ymax) * (SIZE - 2 * pad)

    parts = [_SVG_HEADER]
    hull_pts = " ".join(f"{x(i):.2f},{y(a):.2f}" for i, a in np_.hull)
    parts.append(f'<polyline points="{hull_pts}" fill="none" stroke="steelblue" '
                 f'stroke-width="2"/>')
    hull_set = set(np_.hull)
    for i, a in finite:
        color = "red" if (i, a) in hull_set else "black"
        parts.append(f'<circle cx="{x(i):.2f}" cy="{y(a):.2f}" r="4" fill="{color}"/>')
        parts.append(f'<text x="{x(i) + 6:.2f}" y="{y(a) - 6:.2f}" '
                     f'font-size="11">({i}, {a})</text>')
    parts.append("</svg>")
    return "".join(parts)
