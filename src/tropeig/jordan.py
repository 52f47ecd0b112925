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
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .charpoly import CharPoly, PolyMatrix, build_direction_matrix, charpoly_traces
from .exact import EC_ONE, EC_ZERO, ExactComplex, ec
from .models import Family
# tropical_roots is not called here; the binding stays importable for the
# benchmark's tracer, which patches it (perfbench/tests/test_harness.py)
from .tropical import SplittingReport, TropicalRoot, tropical_roots  # noqa: F401

DEFAULT_SEED = 0


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


def jordan_matrix(partition: Sequence[int], lam=0) -> PolyMatrix:
    """Block-diagonal Jordan matrix with eigenvalue lam."""
    partition = validate_partition(partition)
    lam = ExactComplex.from_value(lam)
    n = sum(partition)
    rows = [[EC_ZERO] * n for _ in range(n)]
    offset = 0
    for size in partition:
        for k in range(size):
            rows[offset + k][offset + k] = lam
            if k + 1 < size:
                rows[offset + k][offset + k + 1] = EC_ONE
        offset += size
    return PolyMatrix(rows)


# ---------------------------------------------------------------------------
# perturbation catalog
# ---------------------------------------------------------------------------

_TEMPLATES: Dict[Tuple[int, ...], list] = {
    (1, 1): [["-d22", "d12"],
             ["d21", "d22"]],
    (2,): [[0, 1],
           ["d21", 0]],
    (1, 1, 1): [["d11", "d12", "d13"],
                ["d21", [("d11", -1), ("d33", -1)], "d23"],
                ["d31", "d32", "d33"]],
    (2, 1): [[0, 1, 0],
             ["d21", "-d33", "d23"],
             ["d31", 0, "d33"]],
    (3,): [[0, 1, 0],
           [0, 0, 1],
           ["d31", "d32", 0]],
    (1, 1, 1, 1): [["d11", "d12", "d13", "d14"],
                   ["d21", [("d22", 1), ("d11", -1)], "d23", "d24"],
                   ["d31", "d32", [("d44", -1), ("d22", -1)], "d34"],
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

def _placeholders(template) -> Tuple[str, ...]:
    """Sorted placeholder names of a template; the catalog draws slopes in
    this order, so it fixes which direction a seed produces."""
    names = set()
    for row in template:
        for entry in row:
            if isinstance(entry, str):
                names.add(entry.lstrip("-"))
            elif isinstance(entry, (list, tuple)):
                names.update(name for name, _ in entry)
    return tuple(sorted(names))


@dataclass(frozen=True)
class _FamilySpec:
    partition: Tuple[int, ...]
    constraint: str
    generic: bool
    # valuation ord(a_i) for i = 0..n; None means identically zero
    alpha: Tuple[Optional[int], ...]
    roots: Tuple[Tuple[Fraction, int], ...]
    zero_roots: int
    zeros: Tuple[str, ...] = ()            # placeholders pinned to 0
    fixed: Tuple[Tuple[str, int], ...] = ()  # placeholders pinned to a value
    # solve placeholder so that the t^power part of a_i cancels exactly
    solve: Tuple[Tuple[str, int, int], ...] = ()  # (var, i, power)


def _fr(p, q=1):
    return Fraction(p, q)


_CATALOG_SPECS: Dict[int, List[_FamilySpec]] = {
    2: [
        _FamilySpec((1, 1), "generic", True, (0, None, 2), ((_fr(1), 2),), 0),
        _FamilySpec((1, 1), "unlifting", False, (0, None, None), (), 2,
                    solve=(("d21", 2, 2),)),
        _FamilySpec((2,), "generic", True, (0, None, 1), ((_fr(1, 2), 2),), 0),
    ],
    3: [
        _FamilySpec((1, 1, 1), "generic", True, (0, None, 2, 3), ((_fr(1), 3),), 0),
        _FamilySpec((1, 1, 1), "q=0", False, (0, None, 2, None), ((_fr(1), 2),), 1,
                    zeros=("d11", "d33", "d13", "d31")),
        _FamilySpec((1, 1, 1), "p=q=0", False, (0, None, None, None), (), 3,
                    zeros=("d11", "d13", "d21", "d23", "d31", "d32", "d33"),
                    fixed=(("d12", 1),)),
        _FamilySpec((2, 1), "generic", True, (0, None, 1, 2),
                    ((_fr(1, 2), 2), (_fr(1), 1)), 0),
        _FamilySpec((2, 1), "d21=0", False, (0, None, 2, 2), ((_fr(2, 3), 3),), 0,
                    zeros=("d21",)),
        _FamilySpec((2, 1), "d21=0,q=0", False, (0, None, 2, None), ((_fr(1), 2),), 1,
                    zeros=("d21", "d31")),
        _FamilySpec((2, 1), "q=0", False, (0, None, 1, None), ((_fr(1, 2), 2),), 1,
                    solve=(("d31", 3, 2),)),
        _FamilySpec((3,), "generic", True, (0, None, 1, 1), ((_fr(1, 3), 3),), 0),
        _FamilySpec((3,), "d31=0", False, (0, None, 1, None), ((_fr(1, 2), 2),), 1,
                    zeros=("d31",)),
    ],
    4: [
        _FamilySpec((1, 1, 1, 1), "generic", True, (0, None, 2, 3, 4), ((_fr(1), 4),), 0),
        _FamilySpec((1, 1, 1, 1), "r=0", False, (0, None, None, 3, 4), ((_fr(1), 4),), 0,
                    solve=(("d12", 2, 2),)),
        _FamilySpec((1, 1, 1, 1), "p=0", False, (0, None, 2, None, 4), ((_fr(1), 4),), 0,
                    solve=(("d12", 3, 3),)),
        _FamilySpec((1, 1, 1, 1), "q=0", False, (0, None, 2, 3, None), ((_fr(1), 3),), 1,
                    solve=(("d14", 4, 4),)),
        _FamilySpec((1, 1, 1, 1), "p=q=0", False, (0, None, 2, None, None), ((_fr(1), 2),), 2,
                    zeros=("d11", "d13", "d14", "d22", "d23", "d24",
                           "d31", "d32", "d41", "d42", "d43", "d44"),
                    fixed=(("d12", 1), ("d21", 1), ("d34", 1))),
        _FamilySpec((2, 1, 1), "generic", True, (0, None, 1, 2, 3),
                    ((_fr(1, 2), 2), (_fr(1), 2)), 0),
        _FamilySpec((2, 1, 1), "d21=0", False, (0, None, 2, 2, 3),
                    ((_fr(2, 3), 3), (_fr(1), 1)), 0, zeros=("d21",)),
        _FamilySpec((2, 1, 1), "p=0", False, (0, None, 1, None, 3),
                    ((_fr(1, 2), 2), (_fr(1), 2)), 0, solve=(("d24", 3, 2),)),
        _FamilySpec((2, 1, 1), "q=0", False, (0, None, 1, 2, None),
                    ((_fr(1, 2), 2), (_fr(1), 1)), 1, solve=(("d34", 4, 3),)),
        _FamilySpec((2, 2), "generic", True, (0, None, 1, 2, 2), ((_fr(1, 2), 4),), 0),
        _FamilySpec((2, 2), "d21=d43=0", False, (0, None, 2, 2, 2), ((_fr(1, 2), 4),), 0,
                    zeros=("d21", "d43")),
        _FamilySpec((2, 2), "p=0", False, (0, None, 1, 2, 3),
                    ((_fr(1, 2), 2), (_fr(1), 2)), 0, solve=(("d23", 4, 2),)),
        _FamilySpec((2, 2), "d21=d43=0,p=0", False, (0, None, 2, 2, 3),
                    ((_fr(2, 3), 3), (_fr(1), 1)), 0, zeros=("d21", "d43", "d23")),
        _FamilySpec((2, 2), "p=q=0", False, (0, None, 1, 2, None),
                    ((_fr(1, 2), 2), (_fr(1), 1)), 1,
                    zeros=("d24", "d44"),
                    fixed=(("d21", 1), ("d43", 1), ("d23", 1), ("d41", 1), ("d31", 1))),
        _FamilySpec((3, 1), "generic", True, (0, None, 1, 1, 2),
                    ((_fr(1, 3), 3), (_fr(1), 1)), 0),
        _FamilySpec((3, 1), "q=0", False, (0, None, 1, 1, None), ((_fr(1, 3), 3),), 1,
                    solve=(("d34", 4, 2),)),
        _FamilySpec((3, 1), "d31=0", False, (0, None, 1, 2, 2), ((_fr(1, 2), 4),), 0,
                    zeros=("d31",)),
        _FamilySpec((3, 1), "d32=0", False, (0, None, 2, 1, 2),
                    ((_fr(1, 3), 3), (_fr(1), 1)), 0, zeros=("d32",)),
        _FamilySpec((3, 1), "d31=0,q=0", False, (0, None, 1, 2, None),
                    ((_fr(1, 2), 2), (_fr(1), 1)), 1, zeros=("d31", "d41")),
        _FamilySpec((4,), "generic", True, (0, None, 1, 1, 1), ((_fr(1, 4), 4),), 0),
        _FamilySpec((4,), "d41=0", False, (0, None, 1, 1, None), ((_fr(1, 3), 3),), 1,
                    zeros=("d41",)),
        _FamilySpec((4,), "only d43", False, (0, None, 1, None, None), ((_fr(1, 2), 2),), 2,
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


def _coeff_composite(cp: CharPoly, i: int, power: int) -> ExactComplex:
    return cp.coefficient(i).coefficient(power)


def _solve_linear(template, direction, var, i, power) -> Optional[ExactComplex]:
    """Exact value of `var` cancelling the t^power part of a_i, if unique.

    Every placeholder occupies a single matrix position, so each
    characteristic coefficient is affine in each slope; two evaluations
    determine the line.
    """
    d0 = dict(direction, **{var: EC_ZERO})
    c0 = _coeff_composite(charpoly_traces(build_direction_matrix(template, d0)), i, power)
    d1 = dict(direction, **{var: EC_ONE})
    c1 = _coeff_composite(charpoly_traces(build_direction_matrix(template, d1)), i, power)
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
        expected = SplittingReport(
            tuple(TropicalRoot(w, m) for w, m in spec.roots), spec.zero_roots)
        label = ",".join(str(s) for s in spec.partition)
        return Family(f"H[{label}] {spec.constraint}", matrix, expected,
                      {"partition": spec.partition, "constraint": spec.constraint,
                       "generic": spec.generic, "direction": direction,
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


def weyr_structure(matrix, eigenvalue: complex, tol: float = 1e-8) -> JordanStructure:
    """Recover the Jordan block partition of `eigenvalue` from rank decay.

    rank((M - lambda I)^(k-1)) - rank((M - lambda I)^k) counts the blocks of
    size >= k.  Ranks are numerical: singular values of every power are
    thresholded at tol * sigma_max(M - lambda I).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    m = np.asarray(matrix, dtype=complex)
    n = m.shape[0]
    if m.shape != (n, n):
        raise ValueError("matrix must be square")
    shifted = m - eigenvalue * np.eye(n)
    base_sv = np.linalg.svd(shifted, compute_uv=False)
    threshold = tol * (base_sv[0] if base_sv.size and base_sv[0] > 0 else 1.0)

    ranks = [n]
    gaps = []
    power = np.eye(n, dtype=complex)
    for _ in range(1, n + 1):
        power = power @ shifted
        sv = np.linalg.svd(power, compute_uv=False)
        above = sv[sv > threshold]
        below = sv[sv <= threshold]
        gaps.append((float(below[0]) if below.size else 0.0,
                     float(above[-1]) if above.size else float("inf")))
        ranks.append(int(above.size))
        if ranks[-1] == ranks[-2]:
            break

    diffs = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))]
    if any(d < 0 for d in diffs) or any(d1 < d2 for d1, d2 in zip(diffs, diffs[1:])):
        raise WeyrAmbiguityError(
            f"tolerance ambiguity: rank sequence {ranks} is not a Weyr profile",
            tuple(gaps))
    partition = []
    for size in range(len(diffs), 0, -1):
        count = diffs[size - 1] - (diffs[size] if size < len(diffs) else 0)
        partition.extend([size] * count)
    partition = tuple(sorted((s for s in partition if s > 0), reverse=True))
    return JordanStructure(complex(eigenvalue), partition, tuple(ranks))
