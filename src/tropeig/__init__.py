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
from .charpoly import (CharPoly, PolyMatrix, build_direction_matrix,
                       charpoly_direct, charpoly_traces, companion_matrix,
                       substitute_direction, traceless_shift)
from .tropical import (NewtonPolygon, SplittingReport, TropicalPoly,
                       TropicalRoot, newton_polygon, tropical_product,
                       tropical_roots, tropicalize)
from .jordan import (JordanStructure, WeyrAmbiguityError, catalog_families,
                     jordan_matrix, partitions, weyr_structure)
from .numeric import (BraidPermutation, LoopDegeneracyError, SampleGrid,
                      VerificationResult, aberth_roots, braid_loop,
                      cardano_roots, charpoly_roots_at, eigenvalues_at,
                      fit_exponents, numeric_ord)
from .models import (Family, build_example, cavity_dynamical,
                     circuit_laplacian, default_families, dissipator,
                     effective_liouvillian_example, example_names,
                     hatano_nelson, lieb, lieb_hamiltonian,
                     lindblad_liouvillian, liouvillian_from_nonhermitian,
                     torus_knot)

__all__ = [name for name in dir() if not name.startswith("_")]
