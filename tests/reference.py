"""Helpers that only the test suite uses: direct checks and small
re-derivations that the package itself has no call for.

``is_reduced_groebner_basis`` runs the certification contract on a given
list, ``colon_by_variable`` forms (J : c) for a monomial ideal J and a
variable c, ``column_row`` inverts a partial permutation at one column, and
``zero_cells`` lists the rank-0 cells of a diagram.  ``_parse_polynomial``
is the recursive-descent parser that ``PolyRing.parse`` replaced, kept as
the reference that the parser is checked against.
"""
import re
from fractions import Fraction
from typing import Optional, Sequence

from msvkit.detideal import MonomialIdeal
from msvkit.perm import Cell, Diagram, PartialPermutation
from msvkit.poly import (GroebnerCertificationError, Monomial, Polynomial, PolyRing,
                         _certify_basis, monomial_divides, monomial_mul, monomial_quotient)


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


_TOKEN = re.compile(r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_]\w*)|(?P<op>[\[\],*^+\-/]))")


def _parse_polynomial(ring: PolyRing, text: str) -> "Polynomial":
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ValueError(f"unexpected character {text[pos]!r} in polynomial")
            break
        tokens.append(m.group().strip())
        pos = m.end()
    idx = 0

    def peek() -> Optional[str]:
        return tokens[idx] if idx < len(tokens) else None

    def take(expected: Optional[str] = None) -> str:
        nonlocal idx
        if idx >= len(tokens):
            raise ValueError("unexpected end of polynomial")
        tok = tokens[idx]
        if expected is not None and tok != expected:
            raise ValueError(f"expected {expected!r}, found {tok!r}")
        idx += 1
        return tok

    def parse_factor():
        tok = take()
        if tok.isdigit():
            value = int(tok)
            if peek() == "/":
                take("/")
                den = take()
                if not den.isdigit():
                    raise ValueError("malformed fraction coefficient")
                return Fraction(value, int(den)), ring.one_monomial()
            return value, ring.one_monomial()
        if tok == "x":
            take("[")
            i = int(take())
            take(",")
            j = int(take())
            take("]")
            exp = 1
            if peek() == "^":
                take("^")
                exp = int(take())
            return 1, ring.monomial({(int(i), int(j)): exp})
        raise ValueError(f"unexpected token {tok!r} in polynomial")

    def parse_term():
        coeff, mono = parse_factor()
        while peek() == "*":
            take("*")
            c2, m2 = parse_factor()
            coeff = coeff * c2
            mono = monomial_mul(mono, m2)
        return coeff, mono

    terms = []
    sign = 1
    if peek() in ("+", "-"):
        sign = -1 if take() == "-" else 1
    while True:
        coeff, mono = parse_term()
        terms.append((mono, sign * coeff))
        nxt = peek()
        if nxt is None:
            break
        if nxt not in ("+", "-"):
            raise ValueError(f"expected '+' or '-', found {nxt!r}")
        sign = -1 if take() == "-" else 1
    return ring.polynomial(terms)
