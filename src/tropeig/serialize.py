"""JSON documents: exact types, reports, families and `jordan`'s float matrices.

All rationals travel as strings ("3/4", "2") so nothing is lost to floats;
complex exact scalars carry optional radical fields only when the radical
part is nonzero.  Parsers raise ParseError with a JSON-path pointer to the
offending element, and each imports the type it builds; the writers only
read attributes, so ParseError, dumps and the writers load no other layer.
No other module knows a document's shape, and no reader runs an algorithm.
"""

from __future__ import annotations

import json
import sys

# CPython's default limit on the digits int(str) reads
# (sys.int_info.default_max_str_digits); a decimal exponent may imply no more
MAX_DIGITS = 4300
# the square-free check on a radicand is trial division up to its square root
MAX_RADICAND = 2 ** 32


class ParseError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def check_exponent(text: str, path: str) -> None:
    """Refuse a decimal number whose exponent, with its mantissa's digits,
    implies more than MAX_DIGITS digits: Fraction("1e3000000") builds all
    three million of them, and str() of the result fails."""
    try:
        float(text)
    except ValueError:  # not a decimal number; the caller's reader decides
        return
    mantissa, e, exp = text.lower().partition("e")
    if e and sum(map(str.isdigit, mantissa)) + abs(int(exp)) > MAX_DIGITS:
        raise ParseError(path, f"a number with exponent {exp.strip()} has more than "
                               f"{MAX_DIGITS} digits")


def parse_frac(s, path: str) -> int | Fraction:
    """Read a rational; an integer-only string, such as "-3", comes back as an
    int, which ExactComplex takes without building a Fraction."""
    text = str(s)
    digits = text[1:] if text[:1] in "+-" else text
    integer = digits.isascii() and digits.isdigit()
    if not integer:  # an integer-only string has no exponent to check
        check_exponent(text, path)
    try:
        if integer:
            return int(text)
        from fractions import Fraction
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(path, f"not a rational: {s!r} ({exc})") from None


def _count(x, least: int, path: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int) or x < least:
        raise ParseError(path, f"expected an int >= {least}, got {x!r}")
    return x


# -- scalars -----------------------------------------------------------------

def exact_to_json(c: ExactComplex) -> dict:
    out = {"re": str(c.re), "im": str(c.im)}
    if c.rad:
        out.update({"sre": str(c.sre), "sim": str(c.sim), "rad": c.rad})
    return out


def exact_from_json(obj, path: str) -> ExactComplex:
    from .exact import ExactComplex
    if not isinstance(obj, dict):
        raise ParseError(path, "expected an object with re/im fields")
    re = parse_frac(obj.get("re", 0), f"{path}.re")
    im = parse_frac(obj.get("im", 0), f"{path}.im")
    if "rad" in obj or "sre" in obj or "sim" in obj:
        sre = parse_frac(obj.get("sre", 0), f"{path}.sre")
        sim = parse_frac(obj.get("sim", 0), f"{path}.sim")
        rad = obj.get("rad", 0)
        if isinstance(rad, bool) or not isinstance(rad, int):
            raise ParseError(f"{path}.rad", "radicand must be an integer")
        if rad >= MAX_RADICAND:
            raise ParseError(f"{path}.rad", f"radicand must be below 2^32, got {rad}")
        try:
            return ExactComplex(re, im, sre, sim, rad)
        except ValueError as exc:  # not square-free
            raise ParseError(f"{path}.rad", str(exc)) from None
    return ExactComplex(re, im)


# -- polynomials -------------------------------------------------------------

def scalarpoly_to_json(p: ScalarPoly):
    terms = [dict(exp=e, **exact_to_json(c)) for e, c in sorted(p.terms.items())]
    if p.trunc is None:
        return terms
    return {"terms": terms, "trunc": p.trunc}


def scalarpoly_from_json(obj, path: str) -> ScalarPoly:
    from .poly import ScalarPoly
    trunc = None
    if isinstance(obj, dict):
        if "terms" not in obj:
            raise ParseError(path, "expected 'terms' in polynomial object")
        trunc = obj.get("trunc")
        if trunc is not None:
            trunc = _count(trunc, 0, f"{path}.trunc")
        obj = obj["terms"]
    if not isinstance(obj, list):
        raise ParseError(path, "expected a term array")
    terms = {}
    for k, item in enumerate(obj):
        tpath = f"{path}[{k}]"
        if not isinstance(item, dict) or "exp" not in item:
            raise ParseError(tpath, "term needs an 'exp' field")
        exp = _count(item["exp"], 0, f"{tpath}.exp")
        if exp in terms:
            raise ParseError(f"{tpath}.exp", f"repeated exponent {exp}")
        terms[exp] = exact_from_json(item, tpath)
    return ScalarPoly(terms, trunc)


def polymatrix_to_json(m: PolyMatrix) -> dict:
    return {"n": m.n,
            "entries": [[scalarpoly_to_json(x) for x in row] for row in m.rows]}


def _square_rows(entries, path: str, read_entry) -> list:
    """The rows of a non-empty square array; read_entry(x, path) reads each element."""
    if not isinstance(entries, list) or not entries:
        raise ParseError(path, "expected a non-empty row array")
    rows = []
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != len(entries):
            raise ParseError(f"{path}[{i}]", "matrix must be square")
        rows.append([read_entry(x, f"{path}[{i}][{j}]") for j, x in enumerate(row)])
    return rows


def polymatrix_from_json(obj, path: str = "$") -> PolyMatrix:
    from .charpoly import PolyMatrix
    if not isinstance(obj, dict) or "entries" not in obj:
        raise ParseError(path, "expected an object with an 'entries' field")
    rows = _square_rows(obj["entries"], f"{path}.entries", scalarpoly_from_json)
    if "n" in obj and _count(obj["n"], 1, f"{path}.n") != len(rows):
        raise ParseError(f"{path}.n", f"declared n={obj['n']} but found {len(rows)} rows")
    return PolyMatrix(rows)


def charpoly_to_json(c: CharPoly) -> dict:
    return {"n": c.n, "coeffs": [scalarpoly_to_json(x) for x in c.coeffs]}


def charpoly_from_json(obj, path: str = "$") -> CharPoly:
    from .charpoly import CharPoly
    if not isinstance(obj, dict) or "coeffs" not in obj:
        raise ParseError(path, "expected an object with a 'coeffs' field")
    if not isinstance(obj["coeffs"], list):
        raise ParseError(f"{path}.coeffs", f"expected an array, got {obj['coeffs']!r}")
    coeffs = [scalarpoly_from_json(x, f"{path}.coeffs[{i}]")
              for i, x in enumerate(obj["coeffs"])]
    try:
        cp = CharPoly(coeffs)
    except ValueError as exc:
        raise ParseError(f"{path}.coeffs", str(exc)) from None
    if "n" in obj and _count(obj["n"], 1, f"{path}.n") != cp.n:
        raise ParseError(f"{path}.n", f"declared n={obj['n']} but degree is {cp.n}")
    return cp


def _complex_entry(x, path: str) -> complex:
    parts = x if isinstance(x, list) and len(x) == 2 else [x]
    # no bool, NaN or inf, and no int beyond the float range (json.loads reads all)
    if all(type(v) in (int, float) and abs(v) <= sys.float_info.max for v in parts):
        return complex(*parts)
    raise ParseError(path, "entries are finite numbers or [re, im] pairs")


def numeric_matrix_from_json(obj, path: str = "$") -> list:
    """A square float matrix as complex rows: a row array or {"entries": rows}."""
    if isinstance(obj, dict):
        obj, path = obj.get("entries"), f"{path}.entries"
    return _square_rows(obj, path, _complex_entry)


# -- reports -----------------------------------------------------------------

def _root_to_json(r: TropicalRoot) -> dict:
    return {"omega": str(r.omega), "mult": r.multiplicity}


def report_to_json(r: SplittingReport) -> dict:
    return {"roots": [_root_to_json(x) for x in r.roots],
            "zero_roots": r.zero_root_count,
            "undetermined": r.undetermined}


def report_from_json(obj, path: str = "$") -> SplittingReport:
    from .tropical import SplittingReport, TropicalRoot
    if not isinstance(obj, dict) or "roots" not in obj:
        raise ParseError(path, "expected an object with a 'roots' field")
    if not isinstance(obj["roots"], list):
        raise ParseError(f"{path}.roots", f"expected an array, got {obj['roots']!r}")
    undetermined = obj.get("undetermined", False)
    if not isinstance(undetermined, bool):
        raise ParseError(f"{path}.undetermined", f"expected true or false, got {undetermined!r}")
    roots = {}
    for i, item in enumerate(obj["roots"]):
        rpath = f"{path}.roots[{i}]"
        if not isinstance(item, dict) or "omega" not in item or "mult" not in item:
            raise ParseError(rpath, "root needs 'omega' and 'mult'")
        omega = parse_frac(item["omega"], f"{rpath}.omega")
        if omega < 0:
            raise ParseError(f"{rpath}.omega", f"expected omega >= 0, got {omega}")
        if omega in roots:
            raise ParseError(f"{rpath}.omega", f"repeated omega {omega}")
        roots[omega] = TropicalRoot(omega, _count(item["mult"], 1, f"{rpath}.mult"))
    zero = obj.get("zero_roots", 0)
    if zero is None and not undetermined:
        raise ParseError(f"{path}.zero_roots", "null needs undetermined: true")
    if zero is not None:
        zero = _count(zero, 0, f"{path}.zero_roots")
    return SplittingReport(tuple(roots.values()), zero, undetermined)


def polygon_to_json(np_: NewtonPolygon) -> dict:
    def ord_json(o: Ord):
        if o.is_finite:
            return str(o.value)
        if o.is_infinite:
            return None
        return f">={o.value}"

    return {"points": [[i, ord_json(o)] for i, o in np_.points],
            "hull": [[i, str(a)] for i, a in np_.hull],
            "undetermined": np_.undetermined}


def tropical_to_json(p: TropicalPoly) -> dict:
    return {"terms": [{"slope": k, "intercept": str(a)} for k, a in p.terms],
            "undetermined": p.undetermined}


def verification_to_json(v: VerificationResult) -> dict:
    """The check's verdict; ``deflated`` appears only when a block factor
    repeated, so that every other document keeps its shape."""
    out = {"pass": v.passed,
           "zero_tracks": v.zero_tracks,
           "clusters": [{"exponent": c.exponent,
                         "size": c.size,
                         "matched": None if c.matched is None else _root_to_json(c.matched),
                         "distance": c.distance,
                         "edge": [exact_to_json(x) for x in c.edge],
                         "rate": c.rate} for c in v.clusters],
           "diagnostics": list(v.diagnostics)}
    if v.deflated:
        out["deflated"] = [{"degree": d, "multiplicity": m} for d, m in v.deflated]
    return out


def braid_to_json(b: BraidPermutation) -> dict:
    return {"permutation": list(b.permutation),
            "cycle_lengths": list(b.cycle_lengths)}


def jordan_structure_to_json(j: JordanStructure) -> dict:
    return {"eigenvalue": [j.eigenvalue.real, j.eigenvalue.imag],
            "partition": list(j.partition),
            "rank_sequence": list(j.rank_sequence)}


def family_to_json(f: Family) -> dict:
    """A catalog family: its Jordan structure, constraint and direction."""
    p = f.parameters
    return {"partition": list(p["partition"]),
            "constraint": p["constraint"],
            "generic": p["generic"],
            "matrix": polymatrix_to_json(f.matrix),
            "expected": report_to_json(f.expected),
            "direction": {k: exact_to_json(v) for k, v in sorted(p["direction"].items())}}


def family_document_to_json(f: Family) -> dict:
    """A model family as `example` writes it, less the provenance."""
    realization = ({"matrix": polymatrix_to_json(f.matrix)} if f.matrix is not None
                   else {"charpoly": charpoly_to_json(f.charpoly)})
    return {"name": f.name, "parameters": {k: str(v) for k, v in f.parameters.items()},
            **realization,
            "expected": report_to_json(f.expected), "annotations": list(f.annotations)}


def family_document_from_json(obj, path: str = "$"):
    """(name or None, the "matrix" or the "charpoly", expected report or None)."""
    if not isinstance(obj, dict):
        raise ParseError(path, "family file must be a JSON object")
    if "matrix" in obj and "charpoly" in obj:
        raise ParseError(path, "family file holds both 'matrix' and 'charpoly'; give one")
    if "matrix" in obj:
        realization = polymatrix_from_json(obj["matrix"], f"{path}.matrix")
    elif "charpoly" in obj:
        realization = charpoly_from_json(obj["charpoly"], f"{path}.charpoly")
    else:
        raise ParseError(path, "family file needs 'matrix' or 'charpoly'")
    expected = (report_from_json(obj["expected"], f"{path}.expected") if "expected" in obj
                else None)
    name = obj.get("name")
    if name is not None and not isinstance(name, str):
        raise ParseError(f"{path}.name", f"expected a string, got {name!r}")
    return name, realization, expected


def dumps(obj) -> str:
    """Canonical serialization: stable key order, stable whitespace."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
