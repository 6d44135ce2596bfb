"""Helpers that only the test suite uses: direct checks and small
re-derivations that the package itself has no call for.

``is_reduced_groebner_basis`` runs the certification contract on a given
list, ``colon_by_variable`` forms (J : c) for a monomial ideal J and a
variable c, ``column_row`` inverts a partial permutation at one column, and
``zero_cells`` lists the rank-0 cells of a diagram.
"""
from typing import Optional, Sequence

from msvkit.detideal import MonomialIdeal
from msvkit.perm import Cell, Diagram, PartialPermutation
from msvkit.poly import (GroebnerCertificationError, Monomial, Polynomial, _certify_basis,
                         monomial_divides, monomial_quotient)


def is_reduced_groebner_basis(basis: Sequence[Polynomial]) -> bool:
    """Check the reduced-Groebner contract of ``certified()`` directly: monic,
    sorted, auto-reduced, and every S-pair reduces to zero."""
    if not basis:
        return True
    try:
        _certify_basis(basis[0].ring, (), tuple(basis))
    except GroebnerCertificationError:
        return False
    return True


def colon_by_variable(J: MonomialIdeal, c: Monomial) -> MonomialIdeal:
    """The colon ideal (J : c) for a single variable c."""
    if J.ring.monomial_degree(c) != 1:
        raise ValueError("expected a single variable")
    gens = [monomial_quotient(m, c) if monomial_divides(c, m) else m for m in J.gens]
    return MonomialIdeal.from_monomials(J.ring, gens)


def column_row(w: PartialPermutation, j: int) -> Optional[int]:
    """The row whose 1 sits in column ``j`` of w, or None."""
    if not 1 <= j <= w.cols:
        raise ValueError(f"column {j} outside [1, {w.cols}]")
    for i, v in enumerate(w.assignment, start=1):
        if v == j:
            return i
    return None


def zero_cells(d: Diagram) -> tuple[Cell, ...]:
    """The cells of rank 0 of a diagram, row-major."""
    return tuple(c for c in d.sorted_cells() if d.ranks[c] == 0)
