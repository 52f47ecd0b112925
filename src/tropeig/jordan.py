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
such as "d21" or "d22-d11"; _terms is the one reader of that syntax.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import DEFAULT_SEED
from .charpoly import CharPoly, PolyMatrix, charpoly_traces
from .exact import EC_ONE, EC_ZERO, ExactComplex, ec
from .poly import ScalarPoly
from .tropical import Family, _report
# tropical_roots and weyr_structure are not called here; the benchmark reads
# both bindings here (perfbench/layers.py, perfbench/tests/test_harness.py)
from .tropical import tropical_roots  # noqa: F401
from .weyr import weyr_structure  # noqa: F401


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
    # valuation ord(a_i) for i = 0..n; None means identically zero, and the
    # trailing Nones count the flat branches
    alpha: Tuple[Optional[int], ...]
    roots: Tuple[Tuple[Fraction, int], ...]
    zeros: Tuple[str, ...] = ()            # placeholders pinned to 0
    fixed: Tuple[Tuple[str, int], ...] = ()  # placeholders pinned to a value
    # solve placeholder var so that the t^power part of a_i cancels exactly
    solve: Optional[Tuple[str, int, int]] = None  # (var, i, power)


_CATALOG_SPECS: Dict[int, List[_FamilySpec]] = {
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


def _solve_linear(template, direction, var, i, power
                  ) -> Optional[Tuple[ExactComplex, CharPoly]]:
    """(v, charpoly) for the exact value v of `var` that cancels the t^power
    part of a_i, if unique, and the charpoly of the matrix with var = v.

    Every `solve` variable occupies a single matrix position (diagonal
    placeholders such as d11 may fill two, but are never solved for), and a
    determinant is affine in any one entry, so every coefficient of the
    charpoly is affine in that slope: the charpolys cp0, cp1 at 0 and 1
    determine the line, and the charpoly at v is cp0 + v (cp1 - cp0).
    """
    cp0, cp1 = (charpoly_traces(build_direction_matrix(template, dict(direction, **{var: x})))
                for x in (EC_ZERO, EC_ONE))
    c0 = cp0.coefficient(i).coefficient(power)
    slope = cp1.coefficient(i).coefficient(power) - c0
    if not slope:
        return None
    v = -c0 / slope
    return v, CharPoly([p0 + (p1 - p0).scale(v) for p0, p1 in zip(cp0.coeffs, cp1.coeffs)])


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
        if spec.solve:
            solved = _solve_linear(template, direction, *spec.solve)
            if solved is None:
                continue
            direction[spec.solve[0]], cp = solved
        matrix = build_direction_matrix(template, direction)
        if not spec.solve:
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


def catalog_families(n: int, seed: int = DEFAULT_SEED) -> List[Family]:
    """All perturbation families for nilpotent structures of dimension n."""
    if n not in _CATALOG_SPECS:
        raise ValueError(f"catalog covers n in {{2, 3, 4}}, got {n}")
    rng = random.Random(seed)
    return [_draw_family(spec, rng) for spec in _CATALOG_SPECS[n]]
