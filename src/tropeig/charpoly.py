"""Exact characteristic polynomials of matrices with polynomial entries.

Two algorithms are provided and cross-checked against each other:

* ``charpoly_traces`` -- Newton-identity recursion on the power sums
  s_k = tr(M^k).  The only divisions are by the integers 1..n, which are
  exact over the rationals (and would *not* be valid over a general ring).
* ``charpoly_direct`` -- Berkowitz' division-free expansion of
  det(lambda*I - M).

Both return the monic coefficient vector a_0..a_n of

    det(lambda*I - M) = a_0 lambda^n + a_1 lambda^(n-1) + ... + a_n,

with each a_i a ScalarPoly in the perturbation variable.

Both run on an integer kernel rather than on ScalarPoly/ExactComplex
objects.  On entry the matrix is scaled by D, the lcm of the one common
denominator each ExactComplex coefficient stores, so that D*M has entries in
Z[i][t] or, when M holds one surd sqrt(rad), in Z[i, sqrt(rad)][t].  The
truncation is decided once, in the same walk over M that collects the
denominators and radicands: a_0 is exact, a_1 = -tr M is known below the
smallest truncation order on the diagonal, and every a_k with k >= 2 below
the smallest order anywhere in M.  That is what joining both operands'
orders at every product and sum gives (a zero times a truncated entry stays
truncated), and as exponents are non-negative, computing with the known
terms exactly and dropping the unknown ones once at the end equals cutting
them at every step.

Kronecker substitution.  The kernel substitutes t -> 2^bits, so a kernel
entry is one Python int per component: (re, im) over Z[i], or
(re, im, sre, sim) for re + im*i + (sre + sim*i)*sqrt(rad), and zero is
None.  Polynomial products become 4 (or 16) big-int products.  Every ring
operation commutes with the substitution, so only the final coefficients
need to fit: each a_k is read back as balanced base-2^bits digits, which is
exact while every component lies in [-2^(bits-1), 2^(bits-1)).  Packing
and reading back split a long entry in halves and recurse, so a dense
t-degree d costs O(log d) passes over the big integer, and each run of zero
digits is skipped with one shift, so a sparse t-degree is never expanded.

The digit bound.  With w = isqrt(rad) + 1 (so w^2 > rad) let N_ij be the
norm sum_e |re| + |im| + w (|sre| + |sim|) of entry (i, j) of D*M,
rho_i = ceil(sqrt(sum_j N_ij^2)) the 2-norm of row i's norms, rounded up,
and rho = ceil(sum_i rho_i / n).  Every component of a_k is at most
e_k(rho_1..rho_n) <= C(n, k) rho^k.  Proof sketch: fix an embedding
sqrt(rad) -> +-sqrt(rad) and a t with |t| = 1.  Each entry then has modulus
at most N_ij, so by Hadamard's inequality each principal k x k minor has
modulus at most the product of its rows' rho_i, and a_k, a signed sum of
these minors, at most e_k(rho).  A coefficient in t of a polynomial is at
most its largest modulus on the unit circle, so both embeddings of each
coefficient of a_k are at most e_k(rho) in modulus; their half-sum and
half-difference are x and y sqrt(rad) of the coefficient x + y sqrt(rad),
so every component is too.  Maclaurin's inequality gives
e_k(rho) <= C(n, k) (sum rho_i / n)^k (Goldstein and Graham 1974 bound
polynomial determinants this way).  bits is two more than the bit length
of n max_k C(n, k) rho^k; the factor n covers the traces' sums k a_k.  As
rho_i is at most row i's sum of norms, this is never wider than the width
from the largest row sum, and it costs O(1) big-int operations per entry.

Sparsity.  A polynomial crosses the kernel boundary, both ways, as the list
of its nonzero (exponent, coefficient) terms, the form ScalarPoly stores, and
a row as the list of its nonzero (column, entry) pairs.  Berkowitz keeps only
the nonzeros of v, forms every A v product by scattering them through the
trailing block's nonzeros, kept as column lists that each level extends by
one row, and combines the nonzero items with the nonzero coefficients of the
trailing block's polynomial only, so a chain costs O(n) kernel dot products.
The traces recursion forms only the half powers M^1..M^h, h = ceil(n/2),
each row by row from the nonzeros, and reads the upper power sums off pairs
of them:
tr(M^(h+j)) = sum_(i,c) (M^h)[i, c] (M^j)[c, i] for j = 1..n-h, so it needs
h - 1 matrix products instead of n - 1.

The coefficients of D*M's characteristic polynomial are algebraic integers,
so the traces recursion divides k a_k by k exactly: it unpacks each sum,
checks and divides every coefficient, and packs the quotient again (it
raises if a division ever would not be exact); the quotient's terms are kept,
so no a_k is read back twice.  On exit (``_from_kernel``) each coefficient of
a_k of D*M is read as integer numerators over D^k and reduced straight into
an ExactComplex, with no Fraction in between, and the ScalarPolys and the
CharPoly are built without the public constructors' checks, which terms in
this form always pass.  A matrix mixing two radicands is rejected with the
same ValueError as ExactComplex.
"""

from __future__ import annotations

from math import comb, isqrt, lcm

from .exact import EC_ONE, _canonical, _Frozen, _new, _set
from .poly import ScalarPoly, _poly


class PolyMatrix(_Frozen):
    """Square matrix of ScalarPoly entries, immutable after construction.

    A container for the characteristic-polynomial algorithms, not a matrix
    algebra: builders fill the entries directly.
    """

    __slots__ = ("rows", "n")

    def __init__(self, rows: tuple[tuple[ScalarPoly, ...], ...]):  # any square nested sequence
        n = len(rows)
        if n < 1 or any(len(r) != n for r in rows):
            raise ValueError("matrix must be square and non-empty")
        _set(self, "rows", tuple(tuple(ScalarPoly.from_value(x) for x in row) for row in rows))
        _set(self, "n", n)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __repr__(self):
        return f"PolyMatrix(n={self.n})"


class CharPoly(_Frozen):
    """Monic degree-n polynomial in lambda with ScalarPoly coefficients."""

    __slots__ = ("coeffs", "n")

    def __init__(self, coeffs: tuple[ScalarPoly, ...]):
        coeffs = tuple(ScalarPoly.from_value(c) for c in coeffs)
        if len(coeffs) < 2 or coeffs[0].trunc is not None or coeffs[0].terms != {0: EC_ONE}:
            raise ValueError("coefficients must start with the constant 1")
        _set(self, "coeffs", coeffs)
        _set(self, "n", len(coeffs) - 1)

    def coefficient(self, i: int) -> ScalarPoly:
        """a_i, the coefficient of lambda^(n-i)."""
        return self.coeffs[i]

    def trailing_zero_count(self) -> int:
        """Number of identically-zero coefficients a_n, a_{n-1}, ...

        Counts only exact zeros; a truncated-away coefficient does not count.
        """
        k = 0
        for i in range(self.n, 0, -1):
            if self.coeffs[i].is_zero():
                k += 1
            else:
                break
        return k

    # direct, as ScalarPoly's: n follows from coeffs
    def __eq__(self, other):
        if other.__class__ is not CharPoly:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"CharPoly(n={self.n})"


def charpoly_traces(m: PolyMatrix) -> CharPoly:
    """Characteristic polynomial via power sums and Newton's identities."""
    rows, rad, den, bits, orders = _to_kernel(m)
    n = len(rows)
    h = (n + 1) // 2
    powers = [None, rows]  # powers[k] = M^k for k <= h
    for _ in range(h - 1):
        powers.append([_row_times(row, rows, rad) for row in powers[-1]])
    s = [None]  # s[k] = tr(M^k)
    for power in powers[1:]:
        s.append(_sum([x for i, row in enumerate(power) for j, x in row if j == i]))
    for j in range(1, n - h + 1):
        # tr(M^(h+j)) = sum over i, c of (M^h)[i, c] (M^j)[c, i]
        lookup = [dict(row) for row in powers[j]]
        s.append(_dot([(x, y) for i, row in enumerate(powers[h]) for c, x in row
                       if (y := lookup[c].get(i))], rad))
    one = (1, 0, 0, 0) if rad else (1, 0)
    a, terms = [one], [[(0, one)]]  # a_k packed, and as the terms _from_kernel reads
    for k in range(1, n + 1):
        # k a_k = -(s_k + a_1 s_(k-1) + ... + a_(k-1) s_1)
        total = _dot([(x, y) for x, y in zip(a, s[k:0:-1]) if x and y], rad)
        terms.append(_div_exact(_unpack(total, bits), -k))
        a.append(_pack(terms[-1], bits))
    return _from_kernel(terms, orders, rad, den)


def charpoly_direct(m: PolyMatrix) -> CharPoly:
    """Characteristic polynomial via the Berkowitz division-free expansion."""
    rows, rad, den, bits, orders = _to_kernel(m)
    coeffs = [_unpack(x, bits) for x in _berkowitz(rows, rad)]
    return _from_kernel(coeffs, orders, rad, den)


def _berkowitz(rows, rad) -> list:
    """det(lambda I - A) for sparse kernel rows, built up from the trailing
    1x1 block: level i borders the block A[i+1:, i+1:] with row and column i.
    Indices stay absolute and v keeps only its nonzeros, keyed by row.  The
    column lists hold the rows of the trailing block only, row i joining them
    once level i is done, so A v scatters v through them with no filter."""
    n = len(rows)
    one = (1, 0, 0, 0) if rad else (1, 0)
    cols = [[] for _ in range(n)]  # cols[c]: the (row, entry) pairs of rows below i
    prev = [one]  # det of the empty block
    for i in range(n - 1, -1, -1):
        size = n - i
        top, r = None, []  # -A[i, i] and -A[i, i+1:]
        for c, x in rows[i]:
            if c == i:
                top = tuple(-y for y in x)
            elif c > i:
                r.append((c, tuple(-y for y in x)))
        items = [one, top]
        v = dict(cols[i])  # A[i+1:, i]
        for k in range(2, size + 1):
            if not v:
                items += [None] * (size + 1 - k)
                break
            items.append(_dot([(x, v[c]) for c, x in r if c in v], rad))
            if k < size:
                acc = {}
                for c, y in v.items():
                    for j, x in cols[c]:
                        acc.setdefault(j, []).append((x, y))
                v = {j: x for j, pairs in acc.items() if (x := _dot(pairs, rad))}
        # Toeplitz step: out[p + q] += items[p] * prev[q] over nonzero pairs
        nonzero = [(p, x) for p, x in enumerate(items) if x]
        terms = [[] for _ in range(size + 1)]
        for q, y in enumerate(prev):
            if y:
                for p, x in nonzero:
                    if p + q > size:
                        break
                    terms[p + q].append((x, y))
        prev = [_dot(t, rad) if t else None for t in terms]
        for c, x in rows[i]:  # row i joins the trailing block of level i - 1
            cols[c].append((i, x))
    return prev


def _blocks(m: PolyMatrix) -> list:
    """The index lists of m's irreducible diagonal blocks, in rising order
    within each block and in an order of blocks that makes m block upper
    triangular: no nonzero entry (i, j) has i's block after j's.  The blocks
    are the strongly connected components of the nonzero pattern, where an
    unknown O(t^k) entry counts as nonzero (Tarjan 1972, iteratively).  det
    is multiplicative on a block triangular matrix, so the blocks'
    charpolys multiply to m's.  Tarjan's algorithm closes a component only
    after every component it reaches, so the blocks come out in reverse."""
    succ = [[j for j, p in enumerate(row) if j != i and (p.terms or p.trunc is not None)]
            for i, row in enumerate(m.rows)]
    index, low, on_stack = [None] * m.n, [0] * m.n, [False] * m.n
    stack, out, count = [], [], 0
    for root in range(m.n):
        if index[root] is not None:
            continue
        work = [(root, None)]
        while work:
            v, edges = work[-1]
            if edges is None:  # first visit
                index[v] = low[v] = count
                count += 1
                stack.append(v)
                on_stack[v] = True
                edges = iter(succ[v])
                work[-1] = (v, edges)
            for w in edges:
                if index[w] is None:
                    work.append((w, None))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    k = stack.index(v)
                    block = stack[k:]
                    del stack[k:]
                    for w in block:
                        on_stack[w] = False
                    out.append(sorted(block))
    return out[::-1]


# -- integer kernel (see the module docstring) --------------------------------

_PLAIN = 32  # terms or digits that _pack and _unpack handle in one plain loop


def _to_kernel(m: PolyMatrix):
    """(rows, rad, den, bits, orders): the known terms of den * M packed at
    2^bits, each row the list of its nonzero (column, entry) pairs in column
    order, and the truncation order of each a_k, None where exact."""
    dens, rads, diag, off = {1}, set(), [], []  # diag, off: orders on and off the diagonal
    nonzero = [[] for _ in m.rows]
    for i, row in enumerate(m.rows):
        for j, p in enumerate(row):
            if p.trunc is not None:
                (diag if j == i else off).append(p.trunc)
            if p.terms:
                nonzero[i].append((j, p))
                for c in p.terms.values():
                    dens.add(c.den)
                    if c.rad:
                        rads.add(c.rad)
    den = lcm(*dens)
    if len(rads) > 1:
        first, second = sorted(rads)[:2]
        raise ValueError(f"mixed radicands {first} and {second}")
    rad = rads.pop() if rads else 0
    w = isqrt(rad) + 1  # w^2 > rad keeps the norm submultiplicative

    def scaled(c):
        k = den // c.den
        return (c.nre * k, c.nim * k, c.nsre * k, c.nsim * k) if rad else (c.nre * k, c.nim * k)

    def norm(c):
        return abs(c[0]) + abs(c[1]) + (w * (abs(c[2]) + abs(c[3])) if rad else 0)

    sparse = [[(j, [(e, scaled(c)) for e, c in p.terms.items()]) for j, p in row]
              for row in nonzero]
    # rho_i, the 2-norm of row i's entry norms rounded up, and their mean,
    # rounded up (see the module docstring)
    n, total = m.n, 0
    for row in sparse:
        square = sum(sum(norm(c) for _, c in terms) ** 2 for _, terms in row)
        root = isqrt(square)
        total += root + (root * root < square)
    rho = -(-total // n)
    bound = n * max(comb(n, k) * rho ** k for k in range(n + 1))
    bits = bound.bit_length() + 2
    rows = [[(j, _pack(terms, bits)) for j, terms in row] for row in sparse]
    orders = [None, min(diag, default=None)] + [min(diag + off, default=None)] * (n - 1)
    return rows, rad, den, bits, orders


def _from_kernel(coeffs, orders, rad, den) -> CharPoly:
    """CharPoly of M from the kernel coefficients a_k of den * M: a_k / den^k,
    cut at its truncation order, each built straight from its integers."""
    out = []
    for k, (poly, trunc) in enumerate(zip(coeffs, orders)):
        dk = den ** k
        terms = {e: _canonical(*c, dk, rad) if rad else _canonical(*c, 0, 0, dk, 0)
                 for e, c in poly if trunc is None or e < trunc}
        out.append(_poly(terms, trunc))
    cp = _new(CharPoly)  # a_0 is the constant 1, as CharPoly checks
    _set(cp, "coeffs", tuple(out))
    _set(cp, "n", len(out) - 1)
    return cp


def _pack(terms, bits):
    """Kernel entry of (exponent, coefficient tuple) pairs, None if there are
    none.  More than _PLAIN terms are sorted and packed half by half
    (_pack_halves)."""
    if not terms:
        return None
    if len(terms) > _PLAIN:
        return _pack_halves(sorted(terms), bits, 0)
    packed = [0] * len(terms[0][1])
    for e, c in terms:
        shift = bits * e
        for i, x in enumerate(c):
            packed[i] += x << shift
    return tuple(packed)


def _pack_halves(terms, bits, low) -> tuple:
    """_pack of terms in rising exponent order, all at least low, divided by
    2^(bits low).  The upper half is packed relative to its own lowest
    exponent and shifted into place once, so a dense degree d costs O(log d)
    passes of big-int shifts and additions rather than d shifts of the whole
    entry."""
    if len(terms) <= _PLAIN:
        return _pack([(e - low, c) for e, c in terms], bits)
    mid = len(terms) // 2
    e = terms[mid][0]
    return tuple(x + (y << bits * (e - low)) for x, y in
                 zip(_pack_halves(terms[:mid], bits, low), _pack_halves(terms[mid:], bits, e)))


def _unpack(p, bits) -> list:
    """Nonzero (exponent, coefficient tuple) pairs of a kernel entry in rising
    exponent order, read as balanced base-2^bits digits; exact while every
    component lies in [-2^(bits-1), 2^(bits-1)).  A component of more than
    _PLAIN digits loses its low run of zero digits with one shift and is
    then cut into chunks (_chunks); each chunk is read digit by digit, and
    each run of zero digits is skipped with one shift."""
    if p is None:
        return []
    base, half, coeffs, plain = 1 << bits, 1 << (bits - 1), {}, bits * _PLAIN
    for i, x in enumerate(p):
        low = 0
        if x.bit_length() > plain:
            low = ((x & -x).bit_length() - 1) // bits
            x >>= bits * low
        for e, x in _chunks(x, bits, low, [half], []) if x.bit_length() > plain else ((low, x),):
            while x:
                d = x & (base - 1)
                if not d:  # skip the run of zero digits
                    run = ((x & -x).bit_length() - 1) // bits
                    x, e = x >> bits * run, e + run
                    continue
                if d >= half:
                    d -= base
                coeffs.setdefault(e, [0] * len(p))[i] = d
                x = (x - d) >> bits
                e += 1
    return [(e, tuple(c)) for e, c in sorted(coeffs.items())]


def _chunks(x, bits, e, offs, out) -> list:
    """out extended by nonzero (exponent, chunk) pairs in rising exponent
    order, each chunk under 2^(bits (_PLAIN + 1)) in size, such that
    x 2^(bits e) is the sum of chunk 2^(bits exponent).

    x splits at m = 2^j digits, fewer than it has.  Its low m digits, each at
    least -2^(bits-1), sum to low in [-off, 2^(bits m) - off), where
    off = offs[j] has all m digits equal to 2^(bits-1); so
    low = ((x + off) mod 2^(bits m)) - off, and (x - low) / 2^(bits m) holds
    the rest.  Both halves recurse, and a zero one adds no chunk, so a dense
    entry of d digits costs O(log d) passes of big-int additions and shifts."""
    size = x.bit_length() // bits
    if size <= _PLAIN:
        if x:
            out.append((e, x))
        return out
    j = (size - 1).bit_length() - 1  # 2^j < size
    while len(offs) <= j:  # offs[k] doubled: 2^(k+1) digits of 2^(bits-1)
        off = offs[-1]
        offs.append(off + (off << (bits << (len(offs) - 1))))
    width, off = bits << j, offs[j]
    low = ((x + off) & ((1 << width) - 1)) - off
    _chunks(low, bits, e, offs, out)
    return _chunks((x - low) >> width, bits, e + (1 << j), offs, out)


def _div_exact(p, k: int):
    """p / k for (exponent, coefficient) pairs whose components are all multiples of k."""
    for _, c in p:
        for x in c:
            if x % k:
                raise ArithmeticError(f"traces recursion: {x} is not divisible by {k}")
    return [(e, tuple(x // k for x in c)) for e, c in p]


def _sum(entries):
    """Sum of kernel entries, None if it is zero."""
    out = tuple(map(sum, zip(*entries)))
    return out if any(out) else None


def _dot(pairs, rad):
    """Sum of a * b over (a, b) pairs of kernel entries, None if it is zero.
    Over Z[i, sqrt(rad)], x + y sqrt(rad) is stored as (re x, im x, re y, im y)."""
    if rad:
        c0 = c1 = c2 = c3 = r0 = r1 = 0
        for (a0, a1, a2, a3), (b0, b1, b2, b3) in pairs:
            c0 += a0 * b0 - a1 * b1
            c1 += a0 * b1 + a1 * b0
            r0 += a2 * b2 - a3 * b3
            r1 += a2 * b3 + a3 * b2
            c2 += a0 * b2 - a1 * b3 + a2 * b0 - a3 * b1
            c3 += a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0
        out = (c0 + rad * r0, c1 + rad * r1, c2, c3)
    else:
        re = im = 0
        for (ar, ai), (br, bi) in pairs:
            re += ar * br - ai * bi
            im += ar * bi + ai * br
        out = (re, im)
    return out if any(out) else None


def _row_times(row, rows, rad) -> list:
    """row * M for a sparse row and the sparse rows of M."""
    acc = {}
    for c, x in row:
        for j, y in rows[c]:
            acc.setdefault(j, []).append((x, y))
    out = ((j, _dot(pairs, rad)) for j, pairs in acc.items())
    return [(j, x) for j, x in out if x]
