"""The contract the immutable value types of every layer share: read-only
fields, equality and hashing over the field tuple, the dataclass repr, and
copy and pickle round trips."""

import copy
import pickle
from fractions import Fraction

import pytest

from tropeig.charpoly import CharPoly, PolyMatrix, charpoly_direct
from tropeig.exact import ec
from tropeig.jordan import _FamilySpec
from tropeig.numeric import BraidPermutation, ClusterFit, VerificationResult
from tropeig.poly import Ord, ScalarPoly
from tropeig.tropical import (Family, NewtonPolygon, SplittingReport, TropicalPoly,
                              TropicalRoot)


def _matrix():
    return PolyMatrix([[0, 1], [ScalarPoly.t(), 0]])


def _report():
    return SplittingReport((TropicalRoot(Fraction(1, 2), 2),), 0)


def _cluster():
    return ClusterFit(0.5, 2, TropicalRoot(Fraction(1, 2), 2), 1e-3, 0.25, (ec(1), ec(0, -1)))


# (build, its fields in order, its own repr or None for the dataclass form)
CASES = {
    "Ord": (lambda: Ord.finite(2), ("kind", "value"), "2"),
    "ScalarPoly": (lambda: ScalarPoly({1: ec(1, 2), 3: ec(1)}, 3), ("terms", "trunc"),
                   "((1+2i))*t^1 + O(t^3)"),
    "PolyMatrix": (_matrix, ("rows", "n"), "PolyMatrix(n=2)"),
    "CharPoly": (lambda: CharPoly([1, 0, -ScalarPoly.t()]), ("coeffs", "n"), "CharPoly(n=2)"),
    "TropicalPoly": (lambda: TropicalPoly(((2, 0), (0, 1), (0, 2)), (1,)),
                     ("terms", "undetermined_slopes"), None),
    "NewtonPolygon": (lambda: NewtonPolygon(((0, Ord.finite(0)), (1, Ord.infinite()),
                                             (2, Ord.finite(1)))),
                      ("points", "hull", "undetermined"), None),
    "TropicalRoot": (lambda: TropicalRoot(Fraction(1, 2), 2), ("omega", "multiplicity"), None),
    "SplittingReport": (_report, ("roots", "zero_root_count", "undetermined"), None),
    "Family": (lambda: Family("sqrt", _matrix(), _report(), {"k": 1}, ("note",),
                              known_charpoly=charpoly_direct(_matrix())),
               ("name", "realization", "expected", "parameters", "annotations"), None),
    "_FamilySpec": (lambda: _FamilySpec((2,), "generic", (0, None, 1), ((Fraction(1, 2), 2),),
                                        zeros=("d21",), solve=("d21", 2, 2)),
                    ("partition", "constraint", "alpha", "roots", "zeros", "fixed", "solve",
                     "expected"),
                    None),
    "ClusterFit": (_cluster, ("exponent", "size", "matched", "distance", "rate", "edge"), None),
    "VerificationResult": (lambda: VerificationResult((_cluster(),), 0, True, ("note",),
                                                      ((2, 2),)),
                           ("clusters", "zero_tracks", "passed", "diagnostics", "deflated"),
                           None),
    "BraidPermutation": (lambda: BraidPermutation((1, 0, 2)),
                         ("permutation", "cycle_lengths"), None),
}


@pytest.mark.parametrize("name", CASES)
def test_value_type_contract(name):
    build, fields, own_repr = CASES[name]
    x, y = build(), build()
    assert type(x).__name__ == name
    for field in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(x, field, None)
    with pytest.raises(AttributeError):
        delattr(x, fields[0])
    values = tuple(getattr(x, f) for f in fields)
    assert x == y and not x != y
    assert x != values  # equal fields do not make a tuple equal
    if name == "Family":  # its parameters are a dict
        with pytest.raises(TypeError, match="unhashable"):
            hash(x)
    else:
        assert hash(x) == hash(y)
    dataclass_repr = f"{name}({', '.join(f'{f}={v!r}' for f, v in zip(fields, values))})"
    assert repr(x) == (own_repr or dataclass_repr)
    for clone in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(clone) is type(x) and clone == x


def test_family_keeps_its_charpoly_cache_and_a_fresh_parameters_dict():
    m, report = _matrix(), _report()
    a, b = Family("a", m, report), Family("b", m, report)
    assert a.parameters == {} and a.parameters is not b.parameters
    assert "charpoly" not in a.__dict__
    assert a.charpoly == charpoly_direct(m) and a.__dict__["charpoly"] is a.charpoly
    seeded = CASES["Family"][0]()
    assert pickle.loads(pickle.dumps(seeded)).__dict__["charpoly"] == seeded.charpoly


@pytest.mark.parametrize("name", [name for name in CASES if name != "Family"])
def test_values_have_no_instance_dict(name):
    x = CASES[name][0]()
    assert not hasattr(x, "__dict__")
