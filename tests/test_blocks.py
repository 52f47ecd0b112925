"""Irreducible diagonal blocks (charpoly._blocks) and the float checks'
deflation of repeated block factors (Family.deflation, numeric), on planted
block triangular matrices."""

from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from reference import sympy_poly
from tropeig import numeric, tropical
from tropeig.charpoly import CharPoly, PolyMatrix, _blocks, charpoly_direct, charpoly_traces
from tropeig.exact import ExactComplex
from tropeig.jordan import catalog_families
from tropeig.models import hatano_nelson
from tropeig.numeric import braid_loop, fit_exponents
from tropeig.poly import ScalarPoly
from tropeig.tropical import Family, SplittingReport, TropicalRoot, tropical_roots

# nonzero Gaussian integers of parts in [-3, 3]: blocks of one kind take
# distinct ones, so that their eigenvalues stay apart
GAUSS = [ExactComplex(a, b) for a in range(-3, 4) for b in range(-3, 4) if a or b]
SMALL = [ExactComplex(0), ExactComplex(1), ExactComplex(0, -1), ExactComplex(Fraction(1, 2), 2)]


def linear(c0, c1) -> ScalarPoly:
    return ScalarPoly({0: c0, 1: c1})


# kind: (size, the irreducible block from its parameter c and extras x, y,
# and the (omega, multiplicity) or "flat" that one copy adds to the report)
KINDS = {
    "simple": (1, lambda c, x, y: [[linear(c, x)]], (Fraction(0), 1)),
    "linear": (1, lambda c, x, y: [[linear(0, c)]], (Fraction(1), 1)),
    "flat": (1, lambda c, x, y: [[0]], "flat"),
    "ep2": (2, lambda c, x, y: [[linear(0, x), 1], [linear(0, c), linear(0, y)]],
            (Fraction(1, 2), 2)),
    "ep3": (3, lambda c, x, y: [[linear(0, x), 1, 0], [0, 0, 1], [linear(0, c), 0, 0]],
            (Fraction(1, 3), 3)),
}


@st.composite
def planted(draw):
    """(matrix, its blocks as sorted index tuples, the true report, the
    (degree, multiplicity) of every repeated block that is no flat zero).

    Distinct blocks, some repeated, are coupled strictly one way by degree-1
    entries in a drawn block order, and the matrix is conjugated by a drawn
    permutation."""
    pool = iter(draw(st.permutations(GAUSS)))
    copies, n, deflated = [], 0, []
    for kind in draw(st.lists(st.sampled_from(sorted(KINDS)), min_size=1, max_size=3)):
        size, build, adds = KINDS[kind]
        block = build(next(pool), draw(st.sampled_from(SMALL)), draw(st.sampled_from(SMALL)))
        m = draw(st.integers(1, max(1, min(3, (9 - n) // size))))
        copies += [(block, adds)] * m
        n += m * size
        if m > 1 and adds != "flat":  # each draw takes its own c, so blocks differ
            deflated.append((size, m))
    copies = draw(st.permutations(copies))
    rows = [[0] * n for _ in range(n)]
    starts, k = [], 0
    for block, _ in copies:
        starts.append(k)
        for i, row in enumerate(block):
            rows[k + i][k:k + len(row)] = row
        k += len(block)
    for a, (block, _) in enumerate(copies):
        for i in range(starts[a], starts[a] + len(block)):
            for j in range(starts[a] + len(block), n):
                if draw(st.booleans()):
                    rows[i][j] = linear(draw(st.sampled_from(SMALL)),
                                        draw(st.sampled_from(GAUSS)))
    perm = draw(st.permutations(range(n)))
    matrix = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            matrix[perm[i]][perm[j]] = rows[i][j]
    blocks = sorted(tuple(sorted(perm[k + i] for i in range(len(block))))
                    for k, (block, _) in zip(starts, copies))
    mult, zeros = {}, 0
    for _, adds in copies:
        if adds == "flat":
            zeros += 1
        else:
            mult[adds[0]] = mult.get(adds[0], 0) + adds[1]
    truth = SplittingReport(tuple(TropicalRoot(w, k) for w, k in mult.items()), zeros)
    return PolyMatrix(matrix), blocks, truth, sorted(deflated)


def product(a: CharPoly, b: CharPoly) -> CharPoly:
    out = [ScalarPoly.zero()] * (a.n + b.n + 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] = out[i + j] + x * y
    return CharPoly(out)


class TestBlocks:
    def test_open_chain_blocks(self):
        m = hatano_nelson(5, "obc").matrix
        # sites 0-1 and 2-3 pair up, site 4 hangs off the end; every pair
        # feeds the one before it, so the last site comes first
        assert _blocks(m) == [[4], [2, 3], [0, 1]]

    def test_unknown_entry_counts_as_nonzero(self):
        t = ScalarPoly.t()
        assert _blocks(PolyMatrix([[0, 0], [t, 0]])) == [[1], [0]]
        assert _blocks(PolyMatrix([[0, ScalarPoly.zero(2)], [t, 0]])) == [[0, 1]]

    def test_block_order_is_upper_triangular(self):
        m = hatano_nelson(8, "obc").matrix
        where = {i: b for b, block in enumerate(_blocks(m)) for i in block}
        assert all(where[i] <= where[j] for i in range(m.n) for j in range(m.n) if m[i, j])

    def test_blocks_are_computed_only_on_demand(self):
        fams = [f for n in (2, 3, 4) for f in catalog_families(n)] + [hatano_nelson(8, "obc")]
        for fam in fams:
            tropical_roots(fam.charpoly)
            assert "deflation" not in fam.__dict__, fam.name
        fit_exponents(fams[-1])
        # four equal blocks: the kept part is one of them, so its charpoly is f
        cp, ((f, m),) = fams[-1].__dict__["deflation"]
        assert cp == f and (f.n, m) == (2, 4)

    def test_deflation_is_computed_once(self, monkeypatch):
        calls = []

        def counted(m):
            calls.append(m.n)
            return charpoly_direct(m)

        # every module that binds charpoly_direct by name
        for module in (tropical, numeric):
            monkeypatch.setattr(module, "charpoly_direct", counted)
        fam = hatano_nelson(5, "obc")
        fit_exponents(fam)
        # the three blocks [4], [2, 3] and [0, 1], then the kept part [2, 3, 4]
        assert calls == [1, 2, 2, 3]
        braid_loop(fam)
        fit_exponents(fam)
        assert calls == [1, 2, 2, 3]

    @pytest.mark.parametrize("roots, zeros, diagnostics", [
        # the copies' branches count toward the prediction as the solved ones do
        (((Fraction(1, 3), 8),), 0, ("predicted root 1/3 x8 is no slope of the Newton polygon",)),
        (((Fraction(1, 2), 2),), 0, ("predicted root 1/2 x2: 8 edge roots",
                                     "8 moving roots, the prediction accounts for 2")),
    ])
    def test_wrong_prediction_counts_the_copies(self, roots, zeros, diagnostics):
        fam = hatano_nelson(8, "obc")
        wrong = Family(fam.name, fam.realization,
                       SplittingReport(tuple(TropicalRoot(w, m) for w, m in roots), zeros))
        res = fit_exponents(wrong)
        assert not res.passed and res.deflated == ((2, 4),)
        assert res.diagnostics == diagnostics


@settings(max_examples=60, deadline=None)
@given(planted())
def test_planted_blocks_deflate(case):
    matrix, blocks, truth, deflated = case
    fam = Family("planted", matrix, truth)
    # the recovered blocks are the planted ones, and their charpolys
    # multiply to the whole matrix's
    parts = _blocks(matrix)
    assert sorted(map(tuple, parts)) == blocks
    whole = reduce(product, [charpoly_direct(PolyMatrix([[matrix[i, j] for j in b] for i in b]))
                             for b in parts])
    assert whole == charpoly_direct(matrix) == charpoly_traces(matrix) == fam.charpoly
    # the solved charpoly, times m - 1 more copies of each factor, is too
    cp, factors = fam.deflation
    assert reduce(product, [cp] + [f for f, m in factors for _ in range(m - 1)]) == whole
    assert tropical_roots(fam.charpoly) == truth
    # the checks pass with one copy of each repeated block, and the braid
    # closes in the predicted cycles
    fit = fit_exponents(fam)
    assert fit.passed, fit.diagnostics
    assert sorted(fit.deflated) == deflated
    assert braid_loop(fam).cycle_lengths == truth.predicted_cycle_lengths()
    # a wrong planted expectation fails: one exponent moved off every slope
    if truth.roots:
        first = truth.roots[0]
        moved = TropicalRoot(first.omega + Fraction(1, 7), first.multiplicity)
        wrong = SplittingReport((moved,) + truth.roots[1:], truth.zero_root_count)
        assert not fit_exponents(Family("wrong", matrix, wrong)).passed


@settings(max_examples=4, deadline=None)
@given(planted())
def test_planted_charpoly_against_sympy(case):
    sympy = pytest.importorskip("sympy")
    matrix = case[0]
    t, lam = sympy.symbols("t lam")
    theirs = sympy.Matrix([[sympy_poly(sympy, x, t) for x in row] for row in matrix.rows])
    theirs = theirs.charpoly(lam).all_coeffs()
    for ours, other in zip(charpoly_direct(matrix).coeffs, theirs, strict=True):
        assert sympy.expand(sympy_poly(sympy, ours, t) - other) == 0
