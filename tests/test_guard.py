"""One guard: every guarded entry point admits exactly its predicted count.

Each row is a call taking guard=, the number of enumerands its largest
enumeration lists, and the words of the GuardError that names them.  One
below the count the call raises before listing anything; at the count it
returns what the default guard returns; and a warm memo changes neither.
"""

import pytest

from quivercount.families import (banana_graph, banana_quiver, cycle_graph, cycle_quiver,
                                  jordan_quiver, path_quiver)
from quivercount.finite_algebra import make_prime_field, make_truncated
from quivercount.genfun import (a_genfun, check_duality, check_recursion, convolve, psi_char,
                                q_eulerian, r_d_via_convolution, r_genfun)
from quivercount.gl import gl_classes
from quivercount.multigraph import GUARD, GuardError, strict_filtrations
from quivercount.repenum import (a_count, a_preproj, counterexample_counts, fourier_fiber_count,
                                 m_count, m_preproj, stabilizer_order, toric_ai_orbit_count)
from quivercount.toric import a_d_polynomial, r_d_on_components, r_d_polynomial
from oracles import (connected_spanning_subgraphs, enumerate_group, gl_elements, mat_identity,
                     preproj_orbit_partition)

F2, F3, F5 = make_prime_field(2), make_prime_field(3), make_prime_field(5)
K2F2, K3F2 = make_truncated(F2, 2), make_truncated(F2, 3)
C3 = cycle_graph(3)

CASES = {
    # subset sums: 2^m terms
    "connected_spanning_subgraphs": (lambda g: list(connected_spanning_subgraphs(C3, g)), 8,
                                     "2^3 = 8 subsets"),
    "convolve": (lambda g: convolve(psi_char(1), psi_char(0), g)(C3), 8,
                 "2^3 = 8 convolution terms"),
    "check_recursion": (lambda g: check_recursion(banana_graph(2), g), 4,
                        "2^2 = 4 recursion terms"),
    "subset_b1": (lambda g: C3.subset_b1(C3.edge_ids(), g), 8, "2^3 = 8 subsets"),
    # strict filtrations: Fubini(m)
    "strict_filtrations": (lambda g: list(strict_filtrations([1, 2, 3], g)), 13,
                           "Fubini(3) = 13"),
    "r_genfun": (lambda g: r_genfun(C3, g), 13, "Fubini(3) = 13"),
    "check_duality_R": (lambda g: check_duality(C3, "R", g), 13, "Fubini(3) = 13"),
    # transform steps: max(d-1, 1) * m * 2^m
    "r_d_polynomial": (lambda g: r_d_polynomial(C3, 4, g), 72, "72 transform steps"),
    "a_d_polynomial": (lambda g: a_d_polynomial(C3, 1, g), 24, "24 transform steps"),
    "r_d_on_components": (lambda g: r_d_on_components(C3, 3, g), 48, "48 transform steps"),
    "r_d_via_convolution": (lambda g: r_d_via_convolution(C3, 3, g), 48, "48 transform steps"),
    "a_genfun": (lambda g: a_genfun(C3, g), 96, "96 transform steps"),
    "check_duality_A": (lambda g: check_duality(C3, "A", g), 96, "96 transform steps"),
    "q_eulerian": (lambda g: q_eulerian(4, g), 192, "192 transform steps"),
    # candidate Frobenius forms: p^dim
    "find_frobenius_form": (lambda g: make_truncated(F2, 3).find_frobenius_form(g), 8,
                            "p^dim = 2^3 = 8 candidate forms"),
    # the oracles' GL scan: |R|^(n^2) matrices, memoized or not
    "gl_elements": (lambda g: gl_elements(F2, 2, g), 16, "GL_2 over fq(2): 16 matrices"),
    "enumerate_group_gl_scan": (lambda g: list(enumerate_group(path_quiver(2), F2, (2, 1), g)),
                                16, "GL_2 over fq(2): 16 matrices"),
    # the classes of GL_n and of all of M_n over a field: their number,
    # charged before the canonical forms are listed, memoized or not
    "gl_classes": (lambda g: gl_classes(F2, 2, g), 3, "GL_2 over fq(2): 3 classes"),
    "gl_classes_whole": (lambda g: gl_classes(F2, 2, g, whole=True), 6,
                         "M_2 over fq(2): 6 classes"),
    "m_count_gl_scan": (lambda g: m_count(path_quiver(2), F2, (2, 1), g), 3,
                        "GL_2 over fq(2): 3 classes"),
    "m_preproj_gl_scan": (lambda g: m_preproj(path_quiver(2), F3, (2, 0), g), 8,
                          "GL_2 over fq(3): 8 classes"),
    # over a local ring #classes(GL_n(k)) (M_n(k)) x |m|^(n^2) fibre points,
    # after the residue field's classes; each commutant solved over k then
    # charges its p^dim points, at most |k|^(n^2) <= |m|^(n^2)
    "gl_classes_whole_lifted": (lambda g: gl_classes(K2F2, 2, g, whole=True), 96,
                                "M_2 over kd(fq(2),2): 6 x 16 = 96 fibre points"),
    "gl_classes_lifted": (lambda g: gl_classes(K2F2, 2, g), 48,
                          "GL_2 over kd(fq(2),2): 3 x 16 = 48 fibre points"),
    # the oracle that lists G: |G| elements
    "enumerate_group": (lambda g: list(enumerate_group(path_quiver(2), F3, (1, 1), g)), 4,
                        "|G| = 4 group elements"),
    # the units of End(x) among its p^dim points: I over F_2 at rank 2
    # commutes with all of M_2(F_2)
    "stabilizer_order": (lambda g: stabilizer_order({1: mat_identity(F2, 2)}, jordan_quiver(),
                                                    F2, (2,), g), 16,
                         "p^4 = 16 points of End(x)"),
    # group averages: arrow solves, contraction terms, class tuples, points
    "m_count_arrow_table": (lambda g: m_count(path_quiver(2), F5, (1, 1), g), 16,
                            "16 arrow solves"),
    "a_count_arrow_table": (lambda g: a_count(path_quiver(2), F3, (1, 1), g), 4,
                            "4 arrow solves"),
    "m_count_contraction": (lambda g: m_count(cycle_quiver(3), F5, (1, 1, 1), g), 64,
                            "64 terms in one contraction step"),
    "m_preproj_class_tuples": (lambda g: m_preproj(path_quiver(2), F5, (1, 1), g), 16,
                               "16 class tuples"),
    "a_preproj_class_tuples": (lambda g: a_preproj(path_quiver(2), F3, (1, 1), g), 4,
                               "4 class tuples"),
    "m_preproj_half": (lambda g: m_preproj(banana_quiver(2), F3, (1, 1), g), 9,
                       "p^2 = 9 points"),
    # the Fourier identity: the p^dim points of V, then the class sum over the
    # M_alpha_v (p^8 = 256 for Kronecker at (2,2) over F_2, not its 65536
    # doubled points; 4 x 4 arrow solves for A2 at (1,1) over k_2(F_2))
    "fourier_fiber_count": (lambda g: fourier_fiber_count(path_quiver(2), K2F2, (1, 1), g), 16,
                            "16 arrow solves"),
    "fourier_fiber_count_kronecker": (
        lambda g: fourier_fiber_count(banana_quiver(2), F2, (2, 2), g), 256,
        "p^8 = 256 points"),
    # whole spaces of the oracles
    "preproj_orbit_partition": (lambda g: preproj_orbit_partition(path_quiver(2), K2F2,
                                                                  (1, 1), g), 16, "16 points"),
    "toric_ai_orbit_count": (lambda g: toric_ai_orbit_count(cycle_quiver(3), K2F2, guard=g),
                             64, "|R|^3 = 64 points"),
    "toric_ai_orbit_count_units": (lambda g: toric_ai_orbit_count(path_quiver(2), K3F2, guard=g),
                                   16, "|R^x|^2 = 16 unit tuples"),
    # one F_p rank per line of the maximal ideal of sqz(F_2, 1)[eps], the
    # call's largest charge
    "counterexample_counts": (lambda g: counterexample_counts(1, 2, g), 7, "7 line ranks"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_guard_admits_exactly_the_predicted_count(name):
    call, count, names = CASES[name]
    for _ in range(2):      # the second round runs on warm memos
        with pytest.raises(GuardError) as refused:
            call(count - 1)
        assert names in str(refused.value) and str(count) in str(refused.value)
        assert call(count) == call(GUARD)
