"""The change of variables at the pivot, term by term: the test oracle for the
localization polynomials that ``msvkit.frlab`` builds as minors.

``pivot_substitution`` multiplies out a binomial image for every variable of
every term, and ``strip_pivot_factor`` divides the pivot power out again.
Neither knows that the results are minors, so the two routes share nothing
but the ring.
"""
from typing import Optional

from msvkit.poly import Polynomial, monomial_quotient


def pivot_substitution(f: Polynomial, p0: int, q0: int, sign: int,
                       images: Optional[dict] = None) -> Polynomial:
    """c^d f(x[p,q] + sign c^{-1} x[p,q0] x[p0,q]) for f of total degree d and
    c = x[p0,q0], the substitution applied to the variables off the pivot's
    row and column only.  Term by term, each variable off the row and column
    becomes c*x[p,q] + sign*x[p,q0]*x[p0,q], each variable on them becomes
    c*x, and a term of degree e < d gains c^(d-e).  ``sign = -1`` writes the
    primed variables in the original ones; ``sign = 1`` writes the original
    variables in the primed ones.

    ``images`` maps each cell to its image, a term list, and is filled as
    cells are met; a caller rewriting many polynomials at one pivot and sign
    passes the same dict to every call, so each image is built once.  The
    images of a term's variables are multiplied out as term lists and added
    into one term dict.

    At the pivot c = x[1,3] of 35142, the primed variable x'[2,1] cleared
    is the first cleared generator, and the two signs undo each other up to
    a power of c:

    >>> from msvkit.frlab import build_localization, primed_ideal
    >>> from msvkit.perm import PartialPermutation
    >>> setup = build_localization(PartialPermutation.from_one_line("35142"))
    >>> p0, q0 = setup.c_cell
    >>> cleared = pivot_substitution(setup.ring.variable(2, 1), p0, q0, -1)
    >>> str(cleared), cleared == primed_ideal(setup)[2][0]
    ('x[1,3]*x[2,1] - x[1,1]*x[2,3]', True)
    >>> str(pivot_substitution(cleared, p0, q0, 1))
    'x[1,3]^3*x[2,1]'
    """
    ring = f.ring
    field = ring.field
    axpy = field.axpy
    degree = f.total_degree()
    if images is None:
        images = {}
    one = ring.monomial({})
    total: dict = {}
    for m, coeff in f.terms():
        term = ((one, coeff),)
        used = 0
        for i, j, e in ring.grid_support(m):
            image = images.get((i, j))
            if image is None:
                image = ((ring.monomial([((p0, q0), 1), ((i, j), 1)]), 1),)
                if i != p0 and j != q0:
                    image += ((ring.monomial({(i, q0): 1, (p0, j): 1}), field.coeff(sign)),)
                images[(i, j)] = image
            for _ in range(e):
                product: dict = {}
                for u, cu in term:
                    axpy(product, image, cu, u)
                term = tuple(product.items())
            used += e
        axpy(total, term, 1, ring.monomial({(p0, q0): degree - used}))
    return Polynomial(ring, total)


def strip_pivot_factor(f: Polynomial, p0: int, q0: int) -> Polynomial:
    """f divided by the largest power of x[p0,q0] dividing every term."""
    ring = f.ring
    excess = min(sum(e for i, j, e in ring.grid_support(m) if (i, j) == (p0, q0))
                 for m, _ in f.terms())
    if not excess:
        return f
    factor = ring.monomial({(p0, q0): excess})
    return ring.polynomial((monomial_quotient(m, factor), co) for m, co in f.terms())
