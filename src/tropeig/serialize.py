"""JSON encoding of the exact types.

All rationals travel as strings ("3/4", "2") so nothing is lost to floats;
complex exact scalars carry optional radical fields only when the radical
part is nonzero.  Parsers raise ParseError with a JSON-path pointer to the
offending element, and each imports the type it builds; the writers only
read attributes, so ParseError, dumps and the writers load no other layer.
"""

from __future__ import annotations

import json


class ParseError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def parse_frac(s, path: str) -> Fraction:
    from fractions import Fraction
    try:
        return Fraction(str(s))
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


def polymatrix_from_json(obj, path: str = "$") -> PolyMatrix:
    from .charpoly import PolyMatrix
    if not isinstance(obj, dict) or "entries" not in obj:
        raise ParseError(path, "expected an object with an 'entries' field")
    entries = obj["entries"]
    if not isinstance(entries, list) or not entries:
        raise ParseError(f"{path}.entries", "expected a non-empty row array")
    rows = []
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != len(entries):
            raise ParseError(f"{path}.entries[{i}]", "matrix must be square")
        rows.append([scalarpoly_from_json(x, f"{path}.entries[{i}][{j}]")
                     for j, x in enumerate(row)])
    if "n" in obj and _count(obj["n"], 1, f"{path}.n") != len(rows):
        raise ParseError(f"{path}.n", f"declared n={obj['n']} but found {len(rows)} rows")
    return PolyMatrix(rows)


def charpoly_to_json(c: CharPoly) -> dict:
    return {"n": c.n, "coeffs": [scalarpoly_to_json(x) for x in c.coeffs]}


def charpoly_from_json(obj, path: str = "$") -> CharPoly:
    from .charpoly import CharPoly
    if not isinstance(obj, dict) or "coeffs" not in obj:
        raise ParseError(path, "expected an object with a 'coeffs' field")
    coeffs = [scalarpoly_from_json(x, f"{path}.coeffs[{i}]")
              for i, x in enumerate(obj["coeffs"])]
    try:
        cp = CharPoly(coeffs)
    except ValueError as exc:
        raise ParseError(f"{path}.coeffs", str(exc)) from None
    if "n" in obj and _count(obj["n"], 1, f"{path}.n") != cp.n:
        raise ParseError(f"{path}.n", f"declared n={obj['n']} but degree is {cp.n}")
    return cp


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
    return {"pass": v.passed,
            "zero_tracks": v.zero_tracks,
            "clusters": [{"exponent": c.exponent,
                          "size": c.size,
                          "matched": None if c.matched is None else _root_to_json(c.matched),
                          "distance": c.distance,
                          "edge": [exact_to_json(x) for x in c.edge],
                          "rate": c.rate} for c in v.clusters],
            "diagnostics": list(v.diagnostics)}


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


def dumps(obj) -> str:
    """Canonical serialization: stable key order, stable whitespace."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
