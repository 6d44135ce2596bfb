"""msvkit: exact computations with matrix Schubert varieties.

Partial permutations and their diagram combinatorics (``perm``), exact sparse
polynomial arithmetic over a ring that owns its coefficient field and its
antidiagonal term order (``poly``), Schubert determinantal ideals with
Groebner verification of their antidiagonal initial ideals (``detideal``),
the recursive complete intersection classifier with an independent
minimal-generator-count oracle (``ci``), pivot-localization verification
(``frlab``), and a command-line front end (``cli``).
"""

from .perm import (Cell, PartialPermutation, all_permutations, coxeter_length,
                   delete_row_col, diagram, essential_set, extend_to_permutation,
                   identity, rank_at, render_one_line, submatrix_w)
from .poly import (Polynomial, PolyRing, antidiagonal_monomial, buchberger, minor,
                   normal_form, normal_forms, s_polynomial, saturate)
from .detideal import (MonomialIdeal, SchubertIdeal, antidiagonal_ideal,
                       fulton_generators, is_nonzerodivisor_on_monomial_quotient,
                       monomial_codim, monomial_quotient_membership, verify_groebner)
from .ci import (CIReport, is_complete_intersection, minimal_generator_count,
                 necessary_condition)
from .frlab import (LocalizationSetup, NoPivotError, build_localization, find_pivot,
                    localization_sample, primed_ideal, verify_all, verify_localization_identity,
                    verify_pivot_initial_ideal, verify_pivot_minors,
                    verify_pivot_nonzerodivisor, verify_pivot_window)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
