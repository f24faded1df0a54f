"""Exact counting of locally free quiver representations over finite
commutative algebras.

Counting polynomials and rational generating functions for rank-one
representations over truncated polynomial rings, a convolution calculus
of graph invariants with an inversion identity, finite commutative
algebras by structure constants, and brute-force group-average engines
that cross-validate every closed form.  All arithmetic is exact.
"""

from .cyclotomic import cyclotomic_polynomial
from .families import (all_connected_multigraphs, banana_graph, banana_quiver,
                       cycle_graph, cycle_quiver, jordan_quiver, loops_graph,
                       path_graph, path_quiver, point_graph,
                       random_connected_multigraph)
from .finite_algebra import (FiniteAlgebra, make_dual_numbers, make_field,
                             make_field_ext, make_prime_field,
                             make_square_zero, make_truncated, ring_from_spec,
                             truncated_generator)
from .genfun import (GraphChar, a_genfun, check_duality, check_recursion,
                     convolve, cvector_of_filtration, psi_char,
                     psi_inverse_char, q_eulerian, r_d_char,
                     r_d_via_convolution, r_genfun, r_of_cvector)
from .multigraph import GuardError, Multigraph, Quiver, strict_filtrations
from .polynomials import QPoly, QTPoly
from .ratfun import RatQT
from .repenum import (a_count, a_preproj, counterexample_counts, double_quiver,
                      fourier_fiber_count, m_count, m_preproj,
                      stabilizer_order, toric_ai_orbit_count, toric_point)
from .toric import (a_d_cyclic_closed_form, a_d_polynomial, r_d_polynomial,
                    toric_type_orbit_data)

__version__ = "0.1.0"
