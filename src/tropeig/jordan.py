"""Jordan forms, their nontrivial perturbation families, and Weyr detection.

The catalog enumerates, for every nilpotent Jordan structure of dimension
2..4, a perturbation matrix restricted to a one-complex-parameter direction
together with the splitting report its tropicalization must produce.  Generic
directions draw integer slopes from a seeded RNG and are *verified* generic
by checking that every characteristic coefficient attains its expected
valuation (a random direction is generic with probability one, but exact
arithmetic lets us check rather than hope).  Non-generic constraints are
enforced by construction: either entries are pinned to zero, or one slope is
solved for exactly so that a coefficient cancels identically.

A template entry is the constant 0 or 1 or a signed sum of placeholder names
such as "d21" or "d22-d11"; _terms is the one reader of that syntax.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .charpoly import CharPoly, PolyMatrix, charpoly_traces
from .exact import EC_ONE, EC_ZERO, ExactComplex, ec
from .models import Family, _report
from .poly import ScalarPoly
# tropical_roots is not called here; the binding stays importable for the
# benchmark's tracer, which patches it (perfbench/tests/test_harness.py)
from .tropical import tropical_roots  # noqa: F401

DEFAULT_SEED = 0
WEYR_TOL = 1e-8  # weyr_structure's default relative rank threshold


def partitions(n: int):
    """All partitions of n in non-increasing order, largest-first ordering."""

    def gen(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    yield from gen(n, n)


def validate_partition(p: Sequence[int]) -> Tuple[int, ...]:
    p = tuple(int(x) for x in p)
    if not p or any(x < 1 for x in p) or list(p) != sorted(p, reverse=True):
        raise ValueError(f"not a partition: {p}")
    return p


# ---------------------------------------------------------------------------
# perturbation catalog
# ---------------------------------------------------------------------------

_TEMPLATES: Dict[Tuple[int, ...], list] = {
    (1, 1): [["-d22", "d12"],
             ["d21", "d22"]],
    (2,): [[0, 1],
           ["d21", 0]],
    (1, 1, 1): [["d11", "d12", "d13"],
                ["d21", "-d11-d33", "d23"],
                ["d31", "d32", "d33"]],
    (2, 1): [[0, 1, 0],
             ["d21", "-d33", "d23"],
             ["d31", 0, "d33"]],
    (3,): [[0, 1, 0],
           [0, 0, 1],
           ["d31", "d32", 0]],
    (1, 1, 1, 1): [["d11", "d12", "d13", "d14"],
                   ["d21", "d22-d11", "d23", "d24"],
                   ["d31", "d32", "-d44-d22", "d34"],
                   ["d41", "d42", "d43", "d44"]],
    (2, 1, 1): [[0, 1, 0, 0],
                ["d21", 0, "d23", "d24"],
                ["d31", 0, "-d44", "d34"],
                ["d41", 0, "d43", "d44"]],
    (2, 2): [[0, 1, 0, 0],
             ["d21", 0, "d23", "d24"],
             ["d31", 0, "-d44", 1],
             ["d41", 0, "d43", "d44"]],
    (3, 1): [[0, 1, 0, 0],
             [0, 0, 1, 0],
             ["d31", "d32", "-d44", "d34"],
             ["d41", "d42", 0, "d44"]],
    (4,): [[0, 1, 0, 0],
           [0, 0, 1, 0],
           [0, 0, 0, 1],
           ["d41", "d42", "d43", 0]],
}


def _terms(entry) -> List[Tuple[str, int]]:
    """The (name, sign) pairs of a template entry; a constant has none."""
    if not isinstance(entry, str):
        return []
    return [(part[1:], -1) if part[0] == "-" else (part, 1)
            for part in entry.replace("-", "+-").split("+") if part]


def _placeholders(template) -> Tuple[str, ...]:
    """Sorted placeholder names of a template; the catalog draws slopes in
    this order, so it fixes which direction a seed produces."""
    return tuple(sorted({name for row in template for entry in row
                         for name, _ in _terms(entry)}))


def build_direction_matrix(template: Sequence[Sequence],
                           direction: Dict[str, object]) -> PolyMatrix:
    """Instantiate a template on a one-parameter line: an entry becomes the
    signed sum of its placeholders' slopes in ``direction`` times t, and the
    constants 0 and 1 stay.  Raises ValueError naming a placeholder with no
    slope."""
    constants = {0: ScalarPoly.zero(), 1: ScalarPoly.const(1)}

    def build(entry) -> ScalarPoly:
        if not isinstance(entry, str):
            return constants[entry]
        slopes = []
        for name, sign in _terms(entry):
            if name not in direction:
                raise ValueError(f"no direction assigned for placeholder '{name}'")
            slopes.append(direction[name] if sign > 0 else -direction[name])
        return ScalarPoly({1: sum(slopes[1:], slopes[0])})

    return PolyMatrix([[build(x) for x in row] for row in template])


@dataclass(frozen=True)
class _FamilySpec:
    partition: Tuple[int, ...]
    constraint: str  # "generic" names the generic direction
    # valuation ord(a_i) for i = 0..n; None means identically zero
    alpha: Tuple[Optional[int], ...]
    roots: Tuple[Tuple[Fraction, int], ...]
    zero_roots: int
    zeros: Tuple[str, ...] = ()            # placeholders pinned to 0
    fixed: Tuple[Tuple[str, int], ...] = ()  # placeholders pinned to a value
    # solve placeholder so that the t^power part of a_i cancels exactly
    solve: Tuple[Tuple[str, int, int], ...] = ()  # (var, i, power)


_CATALOG_SPECS: Dict[int, List[_FamilySpec]] = {
    2: [
        _FamilySpec((1, 1), "generic", (0, None, 2), ((Fraction(1), 2),), 0),
        _FamilySpec((1, 1), "unlifting", (0, None, None), (), 2,
                    solve=(("d21", 2, 2),)),
        _FamilySpec((2,), "generic", (0, None, 1), ((Fraction(1, 2), 2),), 0),
    ],
    3: [
        _FamilySpec((1, 1, 1), "generic", (0, None, 2, 3), ((Fraction(1), 3),), 0),
        _FamilySpec((1, 1, 1), "q=0", (0, None, 2, None), ((Fraction(1), 2),), 1,
                    zeros=("d11", "d33", "d13", "d31")),
        _FamilySpec((1, 1, 1), "p=q=0", (0, None, None, None), (), 3,
                    zeros=("d11", "d13", "d21", "d23", "d31", "d32", "d33"),
                    fixed=(("d12", 1),)),
        _FamilySpec((2, 1), "generic", (0, None, 1, 2),
                    ((Fraction(1, 2), 2), (Fraction(1), 1)), 0),
        _FamilySpec((2, 1), "d21=0", (0, None, 2, 2), ((Fraction(2, 3), 3),), 0,
                    zeros=("d21",)),
        _FamilySpec((2, 1), "d21=0,q=0", (0, None, 2, None), ((Fraction(1), 2),), 1,
                    zeros=("d21", "d31")),
        _FamilySpec((2, 1), "q=0", (0, None, 1, None), ((Fraction(1, 2), 2),), 1,
                    solve=(("d31", 3, 2),)),
        _FamilySpec((3,), "generic", (0, None, 1, 1), ((Fraction(1, 3), 3),), 0),
        _FamilySpec((3,), "d31=0", (0, None, 1, None), ((Fraction(1, 2), 2),), 1,
                    zeros=("d31",)),
    ],
    4: [
        _FamilySpec((1, 1, 1, 1), "generic", (0, None, 2, 3, 4), ((Fraction(1), 4),), 0),
        _FamilySpec((1, 1, 1, 1), "r=0", (0, None, None, 3, 4), ((Fraction(1), 4),), 0,
                    solve=(("d12", 2, 2),)),
        _FamilySpec((1, 1, 1, 1), "p=0", (0, None, 2, None, 4), ((Fraction(1), 4),), 0,
                    solve=(("d12", 3, 3),)),
        _FamilySpec((1, 1, 1, 1), "q=0", (0, None, 2, 3, None), ((Fraction(1), 3),), 1,
                    solve=(("d14", 4, 4),)),
        _FamilySpec((1, 1, 1, 1), "p=q=0", (0, None, 2, None, None), ((Fraction(1), 2),), 2,
                    zeros=("d11", "d13", "d14", "d22", "d23", "d24",
                           "d31", "d32", "d41", "d42", "d43", "d44"),
                    fixed=(("d12", 1), ("d21", 1), ("d34", 1))),
        _FamilySpec((2, 1, 1), "generic", (0, None, 1, 2, 3),
                    ((Fraction(1, 2), 2), (Fraction(1), 2)), 0),
        _FamilySpec((2, 1, 1), "d21=0", (0, None, 2, 2, 3),
                    ((Fraction(2, 3), 3), (Fraction(1), 1)), 0, zeros=("d21",)),
        _FamilySpec((2, 1, 1), "p=0", (0, None, 1, None, 3),
                    ((Fraction(1, 2), 2), (Fraction(1), 2)), 0, solve=(("d24", 3, 2),)),
        _FamilySpec((2, 1, 1), "q=0", (0, None, 1, 2, None),
                    ((Fraction(1, 2), 2), (Fraction(1), 1)), 1, solve=(("d34", 4, 3),)),
        _FamilySpec((2, 2), "generic", (0, None, 1, 2, 2), ((Fraction(1, 2), 4),), 0),
        _FamilySpec((2, 2), "d21=d43=0", (0, None, 2, 2, 2), ((Fraction(1, 2), 4),), 0,
                    zeros=("d21", "d43")),
        _FamilySpec((2, 2), "p=0", (0, None, 1, 2, 3),
                    ((Fraction(1, 2), 2), (Fraction(1), 2)), 0, solve=(("d23", 4, 2),)),
        _FamilySpec((2, 2), "d21=d43=0,p=0", (0, None, 2, 2, 3),
                    ((Fraction(2, 3), 3), (Fraction(1), 1)), 0, zeros=("d21", "d43", "d23")),
        _FamilySpec((2, 2), "p=q=0", (0, None, 1, 2, None),
                    ((Fraction(1, 2), 2), (Fraction(1), 1)), 1,
                    zeros=("d24", "d44"),
                    fixed=(("d21", 1), ("d43", 1), ("d23", 1), ("d41", 1), ("d31", 1))),
        _FamilySpec((3, 1), "generic", (0, None, 1, 1, 2),
                    ((Fraction(1, 3), 3), (Fraction(1), 1)), 0),
        _FamilySpec((3, 1), "q=0", (0, None, 1, 1, None), ((Fraction(1, 3), 3),), 1,
                    solve=(("d34", 4, 2),)),
        _FamilySpec((3, 1), "d31=0", (0, None, 1, 2, 2), ((Fraction(1, 2), 4),), 0,
                    zeros=("d31",)),
        _FamilySpec((3, 1), "d32=0", (0, None, 2, 1, 2),
                    ((Fraction(1, 3), 3), (Fraction(1), 1)), 0, zeros=("d32",)),
        _FamilySpec((3, 1), "d31=0,q=0", (0, None, 1, 2, None),
                    ((Fraction(1, 2), 2), (Fraction(1), 1)), 1, zeros=("d31", "d41")),
        _FamilySpec((4,), "generic", (0, None, 1, 1, 1), ((Fraction(1, 4), 4),), 0),
        _FamilySpec((4,), "d41=0", (0, None, 1, 1, None), ((Fraction(1, 3), 3),), 1,
                    zeros=("d41",)),
        _FamilySpec((4,), "only d43", (0, None, 1, None, None), ((Fraction(1, 2), 2),), 2,
                    zeros=("d41", "d42")),
    ],
}


def _alpha_matches(cp: CharPoly, alpha) -> bool:
    for coeff, want in zip(cp.coeffs, alpha):
        o = coeff.ord()
        if want is None:
            if not o.is_infinite:
                return False
        elif not (o.is_finite and o.value == want):
            return False
    return True


def _solve_linear(template, direction, var, i, power) -> Optional[ExactComplex]:
    """Exact value of `var` cancelling the t^power part of a_i, if unique.

    Every `solve` variable occupies a single matrix position (diagonal
    placeholders such as d11 may fill two, but are never solved for), and a
    determinant is affine in any one entry, so a_i is affine in that slope;
    two evaluations determine the line.
    """
    def coeff(value):
        m = build_direction_matrix(template, dict(direction, **{var: value}))
        return charpoly_traces(m).coefficient(i).coefficient(power)

    c0, c1 = coeff(EC_ZERO), coeff(EC_ONE)
    slope = c1 - c0
    if not slope:
        return None
    return -c0 / slope


def _draw_family(spec: _FamilySpec, rng: random.Random) -> Family:
    template = _TEMPLATES[spec.partition]
    names = _placeholders(template)
    pinned = dict(spec.fixed)
    nonzero_pool = [k for k in range(-9, 10) if k != 0]
    for _ in range(500):
        direction = {}
        for nm in names:
            if nm in spec.zeros:
                direction[nm] = EC_ZERO
            elif nm in pinned:
                direction[nm] = ec(pinned[nm])
            else:
                direction[nm] = ec(rng.choice(nonzero_pool))
        ok = True
        for var, i, power in spec.solve:
            val = _solve_linear(template, direction, var, i, power)
            if val is None:
                ok = False
                break
            direction[var] = val
        if not ok:
            continue
        matrix = build_direction_matrix(template, direction)
        cp = charpoly_traces(matrix)
        if not _alpha_matches(cp, spec.alpha):
            continue
        expected = _report(spec.roots, spec.zero_roots)
        label = ",".join(str(s) for s in spec.partition)
        return Family(f"H[{label}] {spec.constraint}", matrix, expected,
                      {"partition": spec.partition, "constraint": spec.constraint,
                       "generic": spec.constraint == "generic", "direction": direction,
                       "coeff_orders": spec.alpha},
                      known_charpoly=cp)
    raise RuntimeError(
        f"could not realize family {spec.partition} '{spec.constraint}'")


def catalog_families(n: int, seed: int = DEFAULT_SEED) -> List[Family]:
    """All perturbation families for nilpotent structures of dimension n."""
    if n not in _CATALOG_SPECS:
        raise ValueError(f"catalog covers n in {{2, 3, 4}}, got {n}")
    rng = random.Random(seed)
    return [_draw_family(spec, rng) for spec in _CATALOG_SPECS[n]]


# ---------------------------------------------------------------------------
# numerical Jordan structure via rank sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JordanStructure:
    eigenvalue: complex
    partition: Tuple[int, ...]
    rank_sequence: Tuple[int, ...]


class WeyrAmbiguityError(RuntimeError):
    """Numerical rank decision was not clean at the given tolerance."""

    def __init__(self, message: str, gaps):
        super().__init__(message)
        self.gaps = gaps


def _svd(rows) -> List[Tuple[float, List[complex]]]:
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
        norms = [sum(z.real * z.real + z.imag * z.imag for z in col) for col in cols]
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
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
    # a column below 2^-485 of the largest entry has squares within 53 bits of
    # the subnormal range, so its direction is rounding debris: it reads 0
    norms = [math.sqrt(v) if v >= 2.0 ** -970 else 0.0 for v in norms]
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
