"""tropeig: exact leading-exponent analysis of non-Hermitian degeneracies.

The pipeline: build a matrix whose entries are exact polynomials in a
perturbation parameter, take its characteristic polynomial, tropicalize the
coefficient valuations, and read the eigenvalue splitting exponents and
multiplicities off the Newton polygon.  A numerical layer cross-checks the
predictions by exponent fitting, braid tracking, and Jordan-structure
detection.

Importing tropeig loads no layer: each name in __all__ imports its module on
first use (PEP 562), so a CLI command compiles only the layers it runs.  The
defaults below, which the layers and the CLI parser share, are written here
alone.
"""

__version__ = "0.1.0"

DEFAULT_SEED = 0  # catalog_families' RNG seed
WEYR_TOL = 1e-8  # weyr_structure's relative rank threshold
MATCH_TOL = 0.05  # largest gap between a measured and a predicted exponent
# the scaled-root check's points: t = GRID_T0 * e^(i GRID_PHASE), and
# CHECK_DECADES decades below
GRID_T0, GRID_PHASE, CHECK_DECADES = 1e-6, 0.0, 2
# braid loop radius and steps, the shortest step 2*pi / (BRAID_STEPS *
# 2^BRAID_HALVINGS); a radius of 1e-3 encloses a second degeneracy of some
# catalog families (H[2,1,1] generic, seed 0, has one at |t| = 1.29e-4)
BRAID_EPS0, BRAID_STEPS, BRAID_HALVINGS = 1e-6, 96, 14

_EXPORTS = {
    "exact": ("EC_I", "EC_ONE", "EC_ZERO", "ExactComplex", "ec"),
    "poly": ("Ord", "ScalarPoly", "cos_series", "sin_series"),
    "charpoly": ("CharPoly", "PolyMatrix", "charpoly_direct", "charpoly_traces"),
    "tropical": ("Family", "NewtonPolygon", "SplittingReport", "TropicalPoly", "TropicalRoot",
                 "newton_polygon", "tropical_roots", "tropicalize"),
    "jordan": ("build_direction_matrix", "catalog_families"),
    "weyr": ("JordanStructure", "WeyrAmbiguityError", "weyr_structure"),
    "numeric": ("BraidPermutation", "LoopDegeneracyError", "UndeterminedError",
                "VerificationResult", "aberth_roots", "braid_loop", "fit_exponents"),
    "models": ("build_example", "cavity_dynamical", "circuit_laplacian",
               "default_families", "effective_liouvillian_example", "example_names",
               "hatano_nelson", "lieb", "torus_knot"),
}
_MODULE = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE)


def __getattr__(name):
    if name not in _MODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    globals()[name] = getattr(importlib.import_module(f".{_MODULE[name]}", __name__), name)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__})
