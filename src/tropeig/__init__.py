"""tropeig: exact leading-exponent analysis of non-Hermitian degeneracies.

The pipeline: build a matrix whose entries are exact polynomials in a
perturbation parameter, take its characteristic polynomial, tropicalize the
coefficient valuations, and read the eigenvalue splitting exponents and
multiplicities off the Newton polygon.  A numerical layer cross-checks the
predictions by exponent fitting, braid tracking, and Jordan-structure
detection.
"""

__version__ = "0.1.0"

from .exact import EC_I, EC_ONE, EC_ZERO, ExactComplex, ec
from .poly import Ord, ScalarPoly, cos_series, sin_series
from .charpoly import CharPoly, PolyMatrix, charpoly_direct, charpoly_traces
from .tropical import (NewtonPolygon, SplittingReport, TropicalPoly,
                       TropicalRoot, newton_polygon, tropical_roots,
                       tropicalize)
from .jordan import (JordanStructure, WeyrAmbiguityError, build_direction_matrix,
                     catalog_families, partitions, weyr_structure)
from .numeric import (BraidPermutation, LoopDegeneracyError, SampleGrid,
                      VerificationResult, aberth_roots, braid_loop, fit_exponents)
from .models import (Family, build_example, cavity_dynamical,
                     circuit_laplacian, default_families,
                     effective_liouvillian_example, example_names,
                     hatano_nelson, lieb, torus_knot)

__all__ = [
    "EC_I", "EC_ONE", "EC_ZERO", "ExactComplex", "ec",
    "Ord", "ScalarPoly", "cos_series", "sin_series",
    "CharPoly", "PolyMatrix", "build_direction_matrix", "charpoly_direct", "charpoly_traces",
    "NewtonPolygon", "SplittingReport", "TropicalPoly", "TropicalRoot", "newton_polygon",
    "tropical_roots", "tropicalize",
    "JordanStructure", "WeyrAmbiguityError", "catalog_families", "partitions",
    "weyr_structure",
    "BraidPermutation", "LoopDegeneracyError", "SampleGrid", "VerificationResult",
    "aberth_roots", "braid_loop", "fit_exponents",
    "Family", "build_example", "cavity_dynamical", "circuit_laplacian", "default_families",
    "effective_liouvillian_example", "example_names", "hatano_nelson", "lieb", "torus_knot",
]
