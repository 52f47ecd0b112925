"""Jordan forms and their nontrivial perturbation families.

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
such as "d21" or "d22-d11"; _terms is the one reader of that syntax, and the
catalog reads each of its templates once, at import (_PARSED).
"""

from __future__ import annotations

import random
from collections.abc import Iterator, Sequence
from fractions import Fraction

from . import DEFAULT_SEED
from .charpoly import CharPoly, PolyMatrix, charpoly_traces
from .exact import EC_ZERO, ExactComplex, _fill, _Frozen, ec
from .poly import ScalarPoly, _poly
from .tropical import Family, _report
# tropical_roots and weyr_structure are not called here; the benchmark reads
# both bindings here (perfbench/layers.py, perfbench/tests/test_harness.py)
from .tropical import tropical_roots  # noqa: F401
from .weyr import weyr_structure  # noqa: F401


def validate_partition(p: Sequence[int]) -> tuple[int, ...]:
    p = tuple(int(x) for x in p)
    if not p or any(x < 1 for x in p) or list(p) != sorted(p, reverse=True):
        raise ValueError(f"not a partition: {p}")
    return p


# ---------------------------------------------------------------------------
# perturbation catalog
# ---------------------------------------------------------------------------

_TEMPLATES: dict[tuple[int, ...], list] = {
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


def _terms(entry) -> list[tuple[str, int]]:
    """The (name, sign) pairs of a template entry; a constant has none."""
    if not isinstance(entry, str):
        return []
    return [(part[1:], -1) if part[0] == "-" else (part, 1)
            for part in entry.replace("-", "+-").split("+") if part]


def _placeholders(template) -> tuple[str, ...]:
    """Sorted placeholder names of a template; the catalog draws slopes in
    this order, so it fixes which direction a seed produces."""
    return tuple(sorted({name for row in template for entry in row
                         for name, _ in _terms(entry)}))


_CONSTANTS = {0: ScalarPoly.zero(), 1: ScalarPoly.const(1)}


def _parse(template) -> tuple[tuple, ...]:
    """The rows of a template with each entry read: a constant as its
    ScalarPoly, a placeholder sum as the tuple of its (name, sign) pairs."""
    return tuple(tuple(tuple(_terms(x)) if isinstance(x, str) else _CONSTANTS[x] for x in row)
                 for row in template)


def _entries(parsed, direction) -> list[list[ScalarPoly]]:
    """The entries of a parsed template on the line ``direction``; see
    build_direction_matrix."""
    rows = []
    for row in parsed:
        out = []
        for entry in row:
            if entry.__class__ is not tuple:  # a constant
                out.append(entry)
                continue
            total = None
            for name, sign in entry:
                if name not in direction:
                    raise ValueError(f"no direction assigned for placeholder '{name}'")
                slope = direction[name] if sign > 0 else -direction[name]
                total = slope if total is None else total + slope
            total = ExactComplex.from_value(total)
            out.append(_poly({1: total} if total else {}, None))
        rows.append(out)
    return rows


def build_direction_matrix(template: Sequence[Sequence],
                           direction: dict[str, object]) -> PolyMatrix:
    """Instantiate a template on a one-parameter line: an entry becomes the
    signed sum of its placeholders' slopes in ``direction`` times t, and the
    constants 0 and 1 stay.  Raises ValueError naming a placeholder with no
    slope."""
    return PolyMatrix(_entries(_parse(template), direction))


# each catalog template read once: its parsed rows and its placeholder names
_PARSED = {p: (_parse(t), _placeholders(t)) for p, t in _TEMPLATES.items()}


class _FamilySpec(_Frozen):
    """``constraint`` "generic" names the generic direction.  ``alpha`` holds
    the valuations ord(a_i) for i = 0..n; None means identically zero, and the
    trailing Nones count the flat branches.  ``zeros`` lists the placeholders
    pinned to 0 and ``fixed`` those pinned to a value; ``solve`` = (var, i,
    power) solves placeholder var so that the t^power part of a_i cancels
    exactly."""

    __slots__ = ("partition", "constraint", "alpha", "roots", "zeros", "fixed", "solve")

    def __init__(self, partition: tuple[int, ...], constraint: str,
                 alpha: tuple[int | None, ...], roots: tuple[tuple[Fraction, int], ...],
                 zeros: tuple[str, ...] = (), fixed: tuple[tuple[str, int], ...] = (),
                 solve: tuple[str, int, int] | None = None):
        _fill(self, partition, constraint, alpha, roots, zeros, fixed, solve)


_CATALOG_SPECS: dict[int, list[_FamilySpec]] = {
    2: [
        _FamilySpec((1, 1), "generic", (0, None, 2), ((Fraction(1), 2),)),
        _FamilySpec((1, 1), "unlifting", (0, None, None), (),
                    solve=("d21", 2, 2)),
        _FamilySpec((2,), "generic", (0, None, 1), ((Fraction(1, 2), 2),)),
    ],
    3: [
        _FamilySpec((1, 1, 1), "generic", (0, None, 2, 3), ((Fraction(1), 3),)),
        _FamilySpec((1, 1, 1), "q=0", (0, None, 2, None), ((Fraction(1), 2),),
                    zeros=("d11", "d33", "d13", "d31")),
        _FamilySpec((1, 1, 1), "p=q=0", (0, None, None, None), (),
                    zeros=("d11", "d13", "d21", "d23", "d31", "d32", "d33"),
                    fixed=(("d12", 1),)),
        _FamilySpec((2, 1), "generic", (0, None, 1, 2),
                    ((Fraction(1, 2), 2), (Fraction(1), 1))),
        _FamilySpec((2, 1), "d21=0", (0, None, 2, 2), ((Fraction(2, 3), 3),),
                    zeros=("d21",)),
        _FamilySpec((2, 1), "d21=0,q=0", (0, None, 2, None), ((Fraction(1), 2),),
                    zeros=("d21", "d31")),
        _FamilySpec((2, 1), "q=0", (0, None, 1, None), ((Fraction(1, 2), 2),),
                    solve=("d31", 3, 2)),
        _FamilySpec((3,), "generic", (0, None, 1, 1), ((Fraction(1, 3), 3),)),
        _FamilySpec((3,), "d31=0", (0, None, 1, None), ((Fraction(1, 2), 2),),
                    zeros=("d31",)),
    ],
    4: [
        _FamilySpec((1, 1, 1, 1), "generic", (0, None, 2, 3, 4), ((Fraction(1), 4),)),
        _FamilySpec((1, 1, 1, 1), "r=0", (0, None, None, 3, 4), ((Fraction(1), 4),),
                    solve=("d12", 2, 2)),
        _FamilySpec((1, 1, 1, 1), "p=0", (0, None, 2, None, 4), ((Fraction(1), 4),),
                    solve=("d12", 3, 3)),
        _FamilySpec((1, 1, 1, 1), "q=0", (0, None, 2, 3, None), ((Fraction(1), 3),),
                    solve=("d14", 4, 4)),
        _FamilySpec((1, 1, 1, 1), "p=q=0", (0, None, 2, None, None), ((Fraction(1), 2),),
                    zeros=("d11", "d13", "d14", "d22", "d23", "d24",
                           "d31", "d32", "d41", "d42", "d43", "d44"),
                    fixed=(("d12", 1), ("d21", 1), ("d34", 1))),
        _FamilySpec((2, 1, 1), "generic", (0, None, 1, 2, 3),
                    ((Fraction(1, 2), 2), (Fraction(1), 2))),
        _FamilySpec((2, 1, 1), "d21=0", (0, None, 2, 2, 3),
                    ((Fraction(2, 3), 3), (Fraction(1), 1)), zeros=("d21",)),
        _FamilySpec((2, 1, 1), "p=0", (0, None, 1, None, 3),
                    ((Fraction(1, 2), 2), (Fraction(1), 2)), solve=("d24", 3, 2)),
        _FamilySpec((2, 1, 1), "q=0", (0, None, 1, 2, None),
                    ((Fraction(1, 2), 2), (Fraction(1), 1)), solve=("d34", 4, 3)),
        _FamilySpec((2, 2), "generic", (0, None, 1, 2, 2), ((Fraction(1, 2), 4),)),
        _FamilySpec((2, 2), "d21=d43=0", (0, None, 2, 2, 2), ((Fraction(1, 2), 4),),
                    zeros=("d21", "d43")),
        _FamilySpec((2, 2), "p=0", (0, None, 1, 2, 3),
                    ((Fraction(1, 2), 2), (Fraction(1), 2)), solve=("d23", 4, 2)),
        _FamilySpec((2, 2), "d21=d43=0,p=0", (0, None, 2, 2, 3),
                    ((Fraction(2, 3), 3), (Fraction(1), 1)), zeros=("d21", "d43", "d23")),
        _FamilySpec((2, 2), "p=q=0", (0, None, 1, 2, None),
                    ((Fraction(1, 2), 2), (Fraction(1), 1)),
                    zeros=("d24", "d44"),
                    fixed=(("d21", 1), ("d43", 1), ("d23", 1), ("d41", 1), ("d31", 1))),
        _FamilySpec((3, 1), "generic", (0, None, 1, 1, 2),
                    ((Fraction(1, 3), 3), (Fraction(1), 1))),
        _FamilySpec((3, 1), "q=0", (0, None, 1, 1, None), ((Fraction(1, 3), 3),),
                    solve=("d34", 4, 2)),
        _FamilySpec((3, 1), "d31=0", (0, None, 1, 2, 2), ((Fraction(1, 2), 4),),
                    zeros=("d31",)),
        _FamilySpec((3, 1), "d32=0", (0, None, 2, 1, 2),
                    ((Fraction(1, 3), 3), (Fraction(1), 1)), zeros=("d32",)),
        _FamilySpec((3, 1), "d31=0,q=0", (0, None, 1, 2, None),
                    ((Fraction(1, 2), 2), (Fraction(1), 1)), zeros=("d31", "d41")),
        _FamilySpec((4,), "generic", (0, None, 1, 1, 1), ((Fraction(1, 4), 4),)),
        _FamilySpec((4,), "d41=0", (0, None, 1, 1, None), ((Fraction(1, 3), 3),),
                    zeros=("d41",)),
        _FamilySpec((4,), "only d43", (0, None, 1, None, None), ((Fraction(1, 2), 2),),
                    zeros=("d41", "d42")),
    ],
}


class RealizationError(RuntimeError):
    """No seeded draw of a catalog family met its valuation constraints."""


def _alpha_matches(cp: CharPoly, alpha) -> bool:
    for coeff, want in zip(cp.coeffs, alpha):
        o = coeff.ord()
        if want is None:
            if not o.is_infinite:
                return False
        elif not (o.is_finite and o.value == want):
            return False
    return True


def _solve_linear(parsed, direction, var, i, power) -> ExactComplex | None:
    """The exact value of `var` that cancels the t^power part of a_i, if
    unique, for a parsed template (_parse) and the other slopes in
    ``direction``.

    One charpoly holds both numbers the solve needs.  The matrix is built
    with var at 0, and every entry that holds var gains sign t^(K+1), with
    K = n + 1: var stands for t^K.  Without that marker each entry has
    t-degree at most 1, so a_i has t-degree at most i < K.  If a_i is affine
    in var, a_i = A + var B, it reads A + t^K B, with A below t^K and t^K B
    below t^(2K): the t^power part of A and the t^(K+power) part of t^K B
    give v = -A_power / B_power.  A determinant is affine in each entry, so
    a var that fills one position passes; one that fills two (the diagonal
    d11 of (1, 1, 1)) may leave a term at t^(2K) or above, and then a_i is
    not affine in var and ValueError is raised.
    """
    k = len(parsed) + 1
    rows = _entries(parsed, dict(direction, **{var: EC_ZERO}))
    for r, row in enumerate(parsed):
        for c, entry in enumerate(row):
            if entry.__class__ is tuple:
                for name, sign in entry:
                    if name == var:
                        rows[r][c] = rows[r][c] + ScalarPoly.monomial(k + 1, sign)
    a_i = charpoly_traces(PolyMatrix(rows)).coefficient(i)
    if a_i.degree() >= 2 * k:
        raise ValueError(f"a_{i} is not affine in {var}")
    slope = a_i.coefficient(k + power)
    if not slope:
        return None
    return -a_i.coefficient(power) / slope


def _draw_family(spec: _FamilySpec, rng: random.Random) -> Family:
    parsed, names = _PARSED[spec.partition]
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
        if spec.solve:
            v = _solve_linear(parsed, direction, *spec.solve)
            if v is None:
                continue
            direction[spec.solve[0]] = v
        matrix = PolyMatrix(_entries(parsed, direction))
        cp = charpoly_traces(matrix)
        if not _alpha_matches(cp, spec.alpha):
            continue
        flat = next(k for k, a in enumerate(reversed(spec.alpha)) if a is not None)
        expected = _report(spec.roots, flat)
        label = ",".join(str(s) for s in spec.partition)
        return Family(f"H[{label}] {spec.constraint}", matrix, expected,
                      {"partition": spec.partition, "constraint": spec.constraint,
                       "generic": spec.constraint == "generic", "direction": direction,
                       "coeff_orders": spec.alpha},
                      known_charpoly=cp)
    raise RealizationError(
        f"could not realize family {spec.partition} '{spec.constraint}'")


def _draw_catalog(n: int, seed: int) -> Iterator[Family]:
    """The families of catalog_families, each drawn only when asked for: a
    caller that stops early draws the same families, and no later one."""
    if n not in _CATALOG_SPECS:
        raise ValueError(f"catalog covers n in {{2, 3, 4}}, got {n}")
    rng = random.Random(seed)
    for spec in _CATALOG_SPECS[n]:
        yield _draw_family(spec, rng)


def catalog_families(n: int, seed: int = DEFAULT_SEED) -> list[Family]:
    """All perturbation families for nilpotent structures of dimension n."""
    return list(_draw_catalog(n, seed))
