import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from tropeig.charpoly import CharPoly, PolyMatrix, charpoly_direct, charpoly_traces
from tropeig.exact import EC_I, ExactComplex, ec
from tropeig.jordan import jordan_matrix, weyr_structure
from tropeig.models import (GAMMA_EP, MU_EP, Family, build_example,
                            cavity_dynamical, circuit_laplacian, circuit_matrix,
                            default_families, dissipator, effective_hamiltonian,
                            effective_liouvillian_example,
                            effective_liouvillian_matrix, example_names,
                            hatano_nelson, lieb, lieb_degeneracy_points,
                            lieb_hamiltonian, lindblad_liouvillian,
                            liouvillian_from_nonhermitian, torus_knot)
from tropeig.numeric import fit_exponents, numeric_ord
from tropeig.poly import ScalarPoly
from tropeig.serialize import polymatrix_from_json
from tropeig.tropical import tropical_roots, tropicalize


def analysis(fam: Family):
    return fam.charpoly, tropical_roots(fam.charpoly)


def roots_set(report):
    return {(r.omega, r.multiplicity) for r in report.roots}


class TestGoldenReports:
    def test_every_family_matches_expectation(self):
        fams = list(default_families())
        fams += [torus_knot(2, 3), torus_knot(3, 2), torus_knot(3, 2, "kx_only"),
                 hatano_nelson(6, "obc"), hatano_nelson(7, "obc"),
                 hatano_nelson(4, "unidirectional"), hatano_nelson(7, "unidirectional")]
        for fam in fams:
            _, report = analysis(fam)
            assert report == fam.expected, fam.name


class TestTorusKnot:
    def test_23_linear(self):
        _, report = analysis(torus_knot(2, 3))
        assert roots_set(report) == {(Fraction(3, 2), 2)}

    def test_32_linear(self):
        _, report = analysis(torus_knot(3, 2))
        assert roots_set(report) == {(Fraction(2, 3), 3)}

    def test_kx_only_has_no_nonzero_root(self):
        _, report = analysis(torus_knot(3, 2, "kx_only"))
        assert all(r.omega == 0 for r in report.roots)
        assert report.zero_root_count == 0

    def test_corner_entry_binomial(self):
        fam = torus_knot(2, 2, "kx_only", ky=1)
        corner = fam.realization[1, 0]
        # (t + i)^2 = t^2 + 2i t - 1
        assert corner.coefficient(0) == ec(-1)
        assert corner.coefficient(1) == ec(0, 2)
        assert corner.coefficient(2) == ec(1)

    def test_validation(self):
        with pytest.raises(ValueError):
            torus_knot(0, 1)
        with pytest.raises(ValueError):
            torus_knot(2, 2, "kx_only", ky=0)


class TestCavity:
    def test_d12_charpoly(self):
        cp, report = analysis(cavity_dynamical("d12"))
        # lambda^3 - g^2 lambda - 2 g (constant checked against a float
        # determinant; only its valuation matters for the splitting)
        assert cp.coefficient(1) == ScalarPoly.zero()
        assert cp.coefficient(2) == ScalarPoly.monomial(2, -1)
        assert cp.coefficient(3) == ScalarPoly.monomial(1, -2)
        assert roots_set(report) == {(Fraction(1, 3), 3)}

    def test_d22_ep31_charpoly(self):
        cp, report = analysis(cavity_dynamical("d22_ep31"))
        # lambda^4 - g/2 lambda^3 - g^2 lambda^2 + (g^3 - 4g)/2 lambda + g^2
        assert cp.coefficient(1) == ScalarPoly.monomial(1, Fraction(-1, 2))
        assert cp.coefficient(2) == ScalarPoly.monomial(2, -1)
        assert cp.coefficient(3) == ScalarPoly({1: -2, 3: Fraction(1, 2)})
        assert cp.coefficient(4) == ScalarPoly.monomial(2)
        assert roots_set(report) == {(Fraction(1, 3), 3), (Fraction(1), 1)}

    def test_d22_ep4(self):
        _, report = analysis(cavity_dynamical("d22_ep4"))
        assert roots_set(report) == {(Fraction(1, 4), 4)}

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            cavity_dynamical("d13")


class TestCircuit:
    def test_critical_couplings(self):
        # gamma_EP solves g^2 = g + 1; mu_EP = (gamma_EP - 1) / 2
        assert GAMMA_EP * GAMMA_EP == GAMMA_EP + 1
        assert MU_EP * 2 == GAMMA_EP - 1

    def test_matrix_reproduces_charpoly_epsilon(self):
        assert charpoly_direct(circuit_matrix("epsilon")) == \
            circuit_laplacian("epsilon").realization

    def test_matrix_reproduces_charpoly_gamma(self):
        assert charpoly_direct(circuit_matrix("gamma_detune")) == \
            circuit_laplacian("gamma_detune").realization

    def test_epsilon_family(self):
        _, report = analysis(circuit_laplacian("epsilon"))
        assert roots_set(report) == {(Fraction(1, 6), 6)}
        assert report.zero_root_count == 0

    def test_gamma_detune_family(self):
        _, report = analysis(circuit_laplacian("gamma_detune"))
        assert roots_set(report) == {(Fraction(1, 4), 4)}
        assert report.zero_root_count == 2

    def test_unperturbed_point_is_sixfold_degenerate(self):
        eigs = np.linalg.eigvals(circuit_matrix("epsilon").to_array(0.0))
        # defective 6-fold zero: numerical eigenvalues scatter like eps^(1/6)
        assert np.max(np.abs(eigs)) < 1e-2


class TestHatanoNelson:
    @pytest.mark.parametrize("L", [2, 3, 4, 5, 6, 7])
    def test_obc_charpoly_factorizes(self, L):
        gamma1 = Fraction(1)
        cp = charpoly_direct(hatano_nelson(L, "obc", gamma1=gamma1).realization)
        factor = CharPoly([ScalarPoly.const(1), ScalarPoly.zero(),
                           ScalarPoly({1: ec(-2 * gamma1), 2: ec(-1)})])
        prod = [ScalarPoly.const(1)]
        for _ in range(L // 2):
            new = [ScalarPoly.zero()] * (len(prod) + 2)
            for i, c in enumerate(prod):
                for j, f in enumerate(factor.coeffs):
                    new[i + j] = new[i + j] + c * f
            prod = new
        prod += [ScalarPoly.zero()] * (L % 2)
        assert list(cp.coeffs) == prod

    @pytest.mark.parametrize("L", [2, 3, 4, 5, 6, 7])
    def test_unidirectional_charpoly(self, L):
        t1 = t2 = Fraction(-1)
        cp = charpoly_direct(hatano_nelson(L, "unidirectional", t1=t1, t2=t2).realization)
        coeff = -(2 ** (L - 1)) * t1 ** (L // 2) * t2 ** ((L - 1) // 2)
        for i in range(1, L):
            assert cp.coefficient(i).is_zero()
        assert cp.coefficient(L) == ScalarPoly.monomial(1, ec(coeff))

    def test_obc_reports(self):
        for L in (4, 5, 6, 7):
            _, report = analysis(hatano_nelson(L, "obc"))
            assert roots_set(report) == {(Fraction(1, 2), 2 * (L // 2))}
            assert report.zero_root_count == L % 2

    def test_unidirectional_reports(self):
        for L in (4, 5, 6, 7):
            _, report = analysis(hatano_nelson(L, "unidirectional"))
            assert roots_set(report) == {(Fraction(1, L), L)}

    def test_validation(self):
        with pytest.raises(ValueError):
            hatano_nelson(1, "obc")
        with pytest.raises(ValueError):
            hatano_nelson(4, "obc", gamma1=0)
        with pytest.raises(ValueError):
            hatano_nelson(4, "pbc")


class TestLieb:
    def test_path_reports(self):
        for path, want, zeros in (("arccot_antidiag", {(Fraction(1, 2), 2)}, 1),
                                  ("pi_antidiag", {(Fraction(1, 2), 2)}, 1),
                                  ("pi_diag", {(Fraction(1), 2)}, 1)):
            _, report = analysis(lieb(path))
            assert roots_set(report) == want
            assert report.zero_root_count == zeros

    def test_flat_band_coefficient_exactly_zero(self):
        fam = lieb("arccot_antidiag")
        assert fam.realization.coefficient(3).is_zero()

    def test_dispersive_coefficient_leading_terms(self):
        eps = Fraction(3, 2)
        # antidiagonal paths disperse like -2*eps*delta, the diagonal one
        # like -2*delta^2 (with opposite sign bookkeeping in the charpoly)
        arccot = lieb("arccot_antidiag", eps=eps).realization.coefficient(2)
        assert arccot.coefficient(1) == ec(-2 * eps)
        pi_anti = lieb("pi_antidiag", eps=eps).realization.coefficient(2)
        assert pi_anti.coefficient(1) == ec(2 * eps)
        pi_diag = lieb("pi_diag", eps=eps).realization.coefficient(2)
        assert pi_diag.coefficient(1) == ExactComplex()
        assert pi_diag.coefficient(2) == ec(-2)

    def test_charpoly_matches_numeric_hamiltonian_on_path(self):
        # the exact series must agree with the numeric Bloch matrix along the
        # perturbed momentum path
        eps = 1.5
        a = 2 * math.atan2(2, eps)
        fam = lieb("arccot_antidiag", eps=Fraction(3, 2), series_order=10)
        for delta in (0.05, 0.01):
            h = lieb_hamiltonian(-(a - delta), a - delta, eps)
            exact = fam.realization.coefficient(2).evaluate(delta)
            # coefficient of lambda is minus the squared dispersive energy
            e2 = sorted(abs(x) for x in np.linalg.eigvals(h))[-1] ** 2
            assert abs(abs(exact) - e2) < 5e-5

    def test_numeric_ord_of_path_coefficient(self):
        fam = lieb("pi_antidiag", eps=Fraction(3, 2))
        coeff = fam.realization.coefficient(2)
        samples = [(t, coeff.evaluate(t)) for t in [10 ** (-k / 2) for k in range(2, 13)]]
        assert numeric_ord(samples).rational == Fraction(1)

    def test_undetermined_when_series_too_short(self):
        fam = lieb("pi_diag", series_order=2)
        assert fam.expected.undetermined
        assert tropical_roots(tropicalize(fam.realization)).undetermined

    def test_weyr_at_degeneracies(self):
        pts = lieb_degeneracy_points(1.5)
        ep3 = weyr_structure(lieb_hamiltonian(*pts["arccot"], 1.5), 0.0, tol=1e-8)
        assert ep3.partition == (3,)
        ep21 = weyr_structure(lieb_hamiltonian(*pts["pi"], 1.5), 0.0, tol=1e-8)
        assert ep21.partition == (2, 1)


class TestLindblad:
    def test_closed_system_spectrum(self):
        h = np.array([[1.0, 0.3], [0.3, 2.0]])
        liou = lindblad_liouvillian(h, [])
        eps = np.linalg.eigvals(h)
        want = sorted((-1j * (a - b) for a in eps for b in eps),
                      key=lambda z: (z.real, z.imag))
        got = sorted(np.linalg.eigvals(liou), key=lambda z: (round(z.real, 9), z.imag))
        assert np.allclose(got, want)

    def test_amplitude_damping_spectrum(self):
        omega, rate = 1.3, 0.4
        h = np.diag([0.0, omega])
        sigma_minus = np.array([[0, 1], [0, 0]], dtype=complex)
        liou = lindblad_liouvillian(h, [(sigma_minus, rate)])
        got = sorted(np.linalg.eigvals(liou), key=lambda z: (round(z.real, 9), z.imag))
        want = sorted([0, -rate, -rate / 2 + 1j * omega, -rate / 2 - 1j * omega],
                      key=lambda z: (round(z.real, 9), z.imag))
        assert np.allclose(got, want)

    def test_dissipator_is_the_jump_contribution(self):
        # the non-Hermitian drift absorbs -i/2 rate L+L, so the full
        # generator decomposes as closed part + rate * D[L]
        h = np.diag([0.0, 1.0])
        op = np.array([[0, 1], [0, 0]], dtype=complex)
        direct = lindblad_liouvillian(h, [(op, 0.7)])
        base = lindblad_liouvillian(h, [])
        assert np.allclose(direct, base + 0.7 * dissipator(op))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            lindblad_liouvillian(np.eye(2), [(np.eye(3), 1.0)])

    def test_jump_free_jordan_block_structure(self):
        for n, want in ((2, (3, 1)), (3, (5, 3, 1)), (4, (7, 5, 3, 1))):
            eps0 = 0.4 + 0.7j
            h = jordan_matrix((n,), 0).to_array(0.0) + eps0 * np.eye(n)
            liou = liouvillian_from_nonhermitian(h)
            got = weyr_structure(liou, 2 * eps0.imag, tol=1e-8)
            assert got.partition == want


class TestFamily:
    def test_matrix_charpoly_is_expanded_once(self):
        fam = hatano_nelson(4, "obc")
        assert fam.matrix is fam.realization
        assert fam.charpoly == charpoly_direct(fam.realization)
        assert fam.charpoly is fam.charpoly

    def test_charpoly_realization_is_the_charpoly(self):
        fam = cavity_dynamical("d22_ep4")
        assert fam.matrix is None
        assert fam.charpoly is fam.realization

    def test_known_charpoly_is_used(self):
        m = torus_knot(3, 2).realization
        cp = charpoly_traces(m)
        assert Family("known", m, known_charpoly=cp).charpoly is cp


class TestEffectiveLiouvillian:
    def test_hamiltonian_is_ep3(self):
        h, gamma3 = effective_hamiltonian()
        arr = np.array([[x.to_complex() for x in row] for row in h])
        lam = -1j * float(gamma3) / 2
        assert weyr_structure(arr, lam, tol=1e-8).partition == (3,)

    def test_all_eigenvalues_coincide_without_dissipation(self, eff_liouvillian):
        gamma3 = eff_liouvillian.parameters["gamma3"]
        m = effective_liouvillian_matrix(recenter=False)
        eigs = np.linalg.eigvals(m.to_array(0.0))
        # defective 9x9: numerical scatter is large but centered on -gamma3
        assert np.max(np.abs(eigs + float(gamma3))) < 1e-2

    @pytest.mark.parametrize("case", ["default", "shifted", "not_recentered"])
    def test_matrix_matches_stored_reference(self, case):
        # reference matrices were written by the entry-by-entry Kronecker
        # construction that PolyMatrix.kron replaced
        path = Path(__file__).parent / "golden" / "effective_liouvillian_matrices.json"
        ref = json.loads(path.read_text())[case]
        kwargs = {k: Fraction(v) if isinstance(v, str) else v
                  for k, v in ref["arguments"].items()}
        assert effective_liouvillian_matrix(**kwargs) == polymatrix_from_json(ref["matrix"])

    def test_tropicalization_terms(self, eff_liouvillian):
        poly = tropicalize(eff_liouvillian.realization)
        assert poly.terms == ((9, Fraction(0)), (8, Fraction(1)), (7, Fraction(1)),
                              (6, Fraction(1)), (5, Fraction(1)), (4, Fraction(1)),
                              (3, Fraction(2)), (2, Fraction(2)), (1, Fraction(2)),
                              (0, Fraction(3)))

    def test_roots(self, eff_liouvillian):
        report = tropical_roots(eff_liouvillian.realization)
        assert roots_set(report) == {(Fraction(1, 5), 5), (Fraction(1, 3), 3),
                                     (Fraction(1), 1)}
        assert report.zero_root_count == 0

    def test_charpoly_consistent_with_numeric_eigensolver(self, eff_liouvillian):
        m = effective_liouvillian_matrix(recenter=True)
        gamma = 0.37
        arr = m.to_array(gamma)
        for lam in np.linalg.eigvals(arr):
            assert abs(eff_liouvillian.realization.evaluate(lam, gamma)) < 1e-6

    def test_choice_independence(self):
        # a different exact rational tuning must give the same report
        fam = effective_liouvillian_example(gamma2=Fraction(2), gamma4=Fraction(7, 2))
        assert roots_set(tropical_roots(fam.realization)) == \
            {(Fraction(1, 5), 5), (Fraction(1, 3), 3), (Fraction(1), 1)}


class TestRegistry:
    def test_names_stable(self):
        assert "hatano_nelson" in example_names()
        assert "effective_liouvillian" in example_names()

    def test_build_with_params(self):
        fam = build_example("hatano_nelson", L=6, regime="obc")
        assert fam.parameters["L"] == 6

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown example"):
            build_example("nope")

    def test_default_families_all_fit(self):
        for fam in default_families():
            assert fit_exponents(fam).passed, fam.name
