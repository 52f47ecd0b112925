"""Numerical Jordan structure of a float matrix, on the standard library alone:
weyr_structure reads it by staircase deflation on the singular values of _svd."""

from __future__ import annotations

import cmath
import math
from collections import namedtuple

from . import WEYR_TOL

JordanStructure = namedtuple("JordanStructure", "eigenvalue partition rank_sequence")
JordanStructure.__doc__ = """The Jordan blocks of `eigenvalue`, a complex: `partition` holds their
sizes, largest first, and `rank_sequence` is n followed by the numerical rank
at each deflation level.  A named tuple, not an exact._Frozen value type as in
the other layers, so that the jordan command loads neither exact nor fractions."""


class WeyrAmbiguityError(RuntimeError):
    """Numerical rank decision was not clean at the given tolerance."""

    def __init__(self, message: str, gaps):
        super().__init__(message)
        self.gaps = gaps


# a column below 2^-485 of the largest entry has squares within 53 bits of
# the subnormal range, so its direction is rounding debris: it reads 0, and
# no rotation pairs it with another column
_DEBRIS = 2.0 ** -970


def _svd(rows) -> list[tuple[float, list[complex]]]:
    """(sigma, v) pairs of a square complex matrix A, largest sigma first: its
    singular values and unit right singular vectors (v = 0 where sigma = 0).
    One-sided Jacobi on the columns of A^H, scaled by a power of two (so
    squares do not underflow), leaves column i equal to sigma_i v_i; it stops
    after a sweep without a rotation, or after 60."""
    moduli = [abs(z) for row in rows for z in row]
    if not all(map(math.isfinite, moduli)):
        raise ValueError("matrix entries must be finite")
    e = math.frexp(max(moduli))[1]
    cols = [[complex(math.ldexp(z.real, -e), -math.ldexp(z.imag, -e)) for z in row]
            for row in rows]
    n = len(cols)
    for _ in range(60):
        # fsum rounds alike on every Python; sum() is compensated from 3.12 on
        norms = [math.fsum(z.real * z.real + z.imag * z.imag for z in col) for col in cols]
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                if min(norms[p], norms[q]) < _DEBRIS:
                    continue
                x, y = cols[p], cols[q]
                g = sum(a.conjugate() * b for a, b in zip(x, y))
                if abs(g) <= 1e-15 * math.sqrt(norms[p]) * math.sqrt(norms[q]):
                    continue
                rotated = True
                zeta = (norms[q] - norms[p]) / (2 * abs(g))
                tan = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
                cos = 1 / math.hypot(1.0, tan)
                sp, sq = cos * tan * g.conjugate() / abs(g), cos * tan * g / abs(g)
                cols[p] = [cos * a - sp * b for a, b in zip(x, y)]
                cols[q] = [sq * a + cos * b for a, b in zip(x, y)]
                norms[p] = max(norms[p] - tan * abs(g), 0.0)
                norms[q] = max(norms[q] + tan * abs(g), 0.0)
        if not rotated:
            break
    norms = [math.sqrt(v) if v >= _DEBRIS else 0.0 for v in norms]
    return sorted(((math.ldexp(s, e), [z / s for z in col] if s else [0j] * n)
                   for s, col in zip(norms, cols)), key=lambda pair: -pair[0])


def weyr_structure(matrix, eigenvalue: complex, tol: float = WEYR_TOL) -> JordanStructure:
    """Recover the Jordan block partition of `eigenvalue` by staircase deflation.

    The nullity w_k of A_k counts the blocks of size >= k, where A_1 = M -
    lambda I and A_{k+1} = V^H A_k V for V the right singular vectors (by
    _svd, O(n^3) Python steps each) of A_k off its numerical kernel; it stops
    at w_k = 0 or after n levels.  Every level is thresholded at tol *
    max(sigma_max(M - lambda I), |lambda|), or at tol if both are 0, so a
    numerically scalar M = lambda I has n blocks of size 1.  Raises
    WeyrAmbiguityError, with the gap around the threshold at each level
    (None for a side with no singular value), if w ever increases, and
    ValueError unless `matrix`, any nested sequence of numbers, is square,
    non-empty and finite, tol is finite and positive and lambda finite.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if not cmath.isfinite(eigenvalue):
        raise ValueError(f"eigenvalue must be finite, got {eigenvalue}")
    try:
        rows = [[complex(x) for x in row] for row in matrix]
    except TypeError:
        raise ValueError("matrix must be square") from None
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    a = [[x - eigenvalue * (i == j) for j, x in enumerate(r)] for i, r in enumerate(rows)]
    pairs = _svd(a)
    threshold = tol * (max(pairs[0][0], abs(eigenvalue)) or 1.0)

    ranks, gaps, w = [n], [], []
    while True:
        r = sum(s > threshold for s, _ in pairs)
        gaps.append((pairs[r][0] if r < len(pairs) else None, pairs[r - 1][0] if r else None))
        w.append(len(pairs) - r)
        ranks.append(r)
        if not w[-1] or len(w) == n:
            break
        v = [vec for _, vec in pairs[:r]]
        av = [[sum(x * y for x, y in zip(row, vec)) for vec in v] for row in a]
        a = [[sum(x.conjugate() * y for x, y in zip(u, col)) for col in zip(*av)] for u in v]
        pairs = _svd(a) if a else []

    if any(w1 < w2 for w1, w2 in zip(w, w[1:])):
        raise WeyrAmbiguityError(
            f"tolerance ambiguity: rank sequence {ranks} is not a Weyr profile",
            tuple(gaps))
    partition = tuple(sum(x >= j for x in w) for j in range(1, w[0] + 1))
    return JordanStructure(complex(eigenvalue), partition, tuple(ranks))
