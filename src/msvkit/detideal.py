"""Schubert determinantal ideals and their antidiagonal initial ideals.

For a (partial) permutation w, the defining ideal of its matrix Schubert
variety is generated by the minors of size r+1 in each upper-left p x q
corner, where r is the rank of w's own p x q corner and (p, q) runs over the
essential set (equivalently over the whole diagram).  These are the Fulton
generators; each is recorded with its site, the (rows, cols) of its minor,
and graded Nakayama selects a minimal generating set among them.  Their
antidiagonal terms generate the initial ideal under any antidiagonal term
order; ``verify_groebner`` checks that statement on a concrete w by running
Buchberger and comparing monomial ideals.

Coefficients never appear here: the linear algebra of the Nakayama
selection is ``poly.independent``, and the module reaches the polynomial
engine only through ``poly``'s public functions.

The module also carries the monomial-ideal utilities needed elsewhere:
codimension of a squarefree monomial ideal by exact minimum vertex cover,
membership of a polynomial in a monomial ideal, and the variable
nonzerodivisor test on a squarefree quotient.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .perm import PartialPermutation, diagram, essential_set
from .poly import (Monomial, Polynomial, PolyRing, antidiagonal_monomial, buchberger,
                   independent, minor, monomial_divides, monomial_quotient, normal_forms)


# ---------------------------------------------------------------------------
# Monomial ideals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal presented by its minimal generating set.

    Generators are stored sorted by (degree, term order); no generator divides
    another.  A monomial belongs to the ideal iff some generator divides it.
    """

    ring: PolyRing
    gens: tuple

    @classmethod
    def from_monomials(cls, ring: PolyRing, monomials: Iterable[Monomial]) -> "MonomialIdeal":
        kept: list[Monomial] = []
        for m in _by_degree(ring, set(monomials)):
            if not any(monomial_divides(g, m) for g in kept):
                kept.append(m)
        return cls(ring, tuple(kept))

    @classmethod
    def from_minimal_generators(cls, ring: PolyRing,
                                monomials: Iterable[Monomial]) -> "MonomialIdeal":
        """The ideal of monomials none of which divides another, which the
        caller vouches for: they are sorted but not minimalized."""
        return cls(ring, _by_degree(ring, monomials))

    @property
    def is_zero(self) -> bool:
        return not self.gens

    def contains_monomial(self, m: Monomial) -> bool:
        return any(monomial_divides(g, m) for g in self.gens)

    def is_squarefree(self) -> bool:
        degree, support = self.ring.monomial_degree, self.ring.support
        return all(degree(m) == len(support(m)) for m in self.gens)

    def rendered(self) -> tuple[str, ...]:
        return tuple(self.ring.render_monomial(m) for m in self.gens)

    def __contains__(self, m) -> bool:
        return self.contains_monomial(m)


def _by_degree(ring: PolyRing, monomials: Iterable[Monomial]) -> tuple:
    """The monomials in the order of ``MonomialIdeal.gens``: by degree, then
    by the term order."""
    return tuple(sorted(monomials, key=lambda m: (ring.monomial_degree(m), m)))


def monomial_quotient_membership(f: Polynomial, gens: Sequence[Monomial]) -> bool:
    """True iff every term of f is divisible by some generator, i.e. f lies in
    the monomial ideal they generate.  The zero polynomial is a member."""
    return all(any(monomial_divides(g, m) for g in gens) for m in f.monomials())


def _check_variable(ring: PolyRing, c: Monomial):
    if ring.monomial_degree(c) != 1:
        raise ValueError("expected a single variable")


def is_nonzerodivisor_on_monomial_quotient(c: Monomial, J: MonomialIdeal) -> bool:
    """Whether the variable c is a nonzerodivisor on the quotient by the
    squarefree monomial ideal J: every minimal generator divisible by c must
    stay in J after dividing c out (squarefree minimality makes any such
    generator a witness that c kills a nonzero class)."""
    _check_variable(J.ring, c)
    if not J.is_squarefree():
        raise ValueError("nonzerodivisor test requires a squarefree ideal")
    return all(J.contains_monomial(monomial_quotient(m, c))
               for m in J.gens if monomial_divides(c, m))


def monomial_codim(J: MonomialIdeal) -> int:
    """Height of a squarefree monomial ideal: the minimum number of variables
    meeting the support of every minimal generator, found by exact
    branch-and-bound vertex cover."""
    if not J.is_squarefree():
        raise ValueError("codimension via vertex cover requires a squarefree ideal")
    if J.is_zero:
        return 0
    supports = [J.ring.support(m) for m in J.gens]
    if not all(supports):
        raise ValueError("the unit ideal has no height")

    def greedy_cover(remaining: list[frozenset]) -> int:
        count = 0
        remaining = list(remaining)
        while remaining:
            counts: dict[int, int] = {}
            for s in remaining:
                for v in s:
                    counts[v] = counts.get(v, 0) + 1
            best_v = max(sorted(counts), key=lambda v: counts[v])
            remaining = [s for s in remaining if best_v not in s]
            count += 1
        return count

    def packing_bound(remaining: list[frozenset]) -> int:
        used: set[int] = set()
        count = 0
        for s in sorted(remaining, key=len):
            if not (s & used):
                used |= s
                count += 1
        return count

    best = greedy_cover(supports)

    def search(remaining: list[frozenset], chosen: int):
        nonlocal best
        if not remaining:
            best = min(best, chosen)
            return
        if chosen + packing_bound(remaining) >= best:
            return
        pivot = min(remaining, key=len)
        for v in sorted(pivot):
            search([s for s in remaining if v not in s], chosen + 1)

    search(supports, 0)
    return best


# ---------------------------------------------------------------------------
# Fulton generators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SchubertIdeal:
    """The Schubert determinantal ideal of a (partial) permutation.

    ``cells`` are the chosen (cell, rank) pairs.  ``raw_generators`` lists
    every minor of size r+1 over them in canonical order (cells row-major;
    within a cell, row subsets then column subsets lexicographic);
    ``generators`` is the minimal generating subset selected by graded
    Nakayama, so its length is the minimal number of generators of the
    ideal, and ``sites`` holds the (rows, cols) of each of its minors.
    """

    ring: PolyRing
    cells: tuple
    generators: tuple
    sites: tuple
    raw_generators: tuple


def _minor_sites(cell_ranks: Iterable) -> Iterator[tuple]:
    """(rows, cols) of the Fulton minors over the (cell, rank) pairs, in the
    canonical order of ``SchubertIdeal.raw_generators``."""
    for cell, r in cell_ranks:
        for rows in itertools.combinations(range(1, cell.p + 1), r + 1):
            for cols in itertools.combinations(range(1, cell.q + 1), r + 1):
                yield rows, cols


def fulton_generators(w: PartialPermutation, ring: Optional[PolyRing] = None, *,
                      cells: str = "essential") -> SchubertIdeal:
    """All defining minors of the matrix Schubert variety of ``w``.

    ``cells`` selects whether minors are taken over the essential set (the
    default) or over the whole diagram; both generate the same ideal.
    """
    if cells not in ("essential", "diagram"):
        raise ValueError("cells must be 'essential' or 'diagram'")
    if ring is None:
        ring = PolyRing(w.rows, w.cols)
    elif ring.rows < w.rows or ring.cols < w.cols:
        raise ValueError("ring grid too small for this permutation")
    if cells == "essential":
        cell_ranks = essential_set(w)
    else:
        d = diagram(w)
        cell_ranks = tuple((c, d.ranks[c]) for c in d.sorted_cells())
    sites = list(_minor_sites(cell_ranks))
    raw = [minor(ring, rows, cols) for rows, cols in sites]
    kept, _ = graded_minimal_generators(ring, raw)
    return SchubertIdeal(ring=ring, cells=cell_ranks,
                         generators=tuple(raw[i] for i in kept),
                         sites=tuple(sites[i] for i in kept), raw_generators=tuple(raw))


def antidiagonal_ideal(w: PartialPermutation, ring: Optional[PolyRing] = None) -> MonomialIdeal:
    """The monomial ideal generated by the antidiagonal terms of all Fulton
    minors over the essential set, minimalized.  Its generators are squarefree
    by construction (an antidiagonal multiplies distinct variables)."""
    if ring is None:
        ring = PolyRing(w.rows, w.cols)
    return MonomialIdeal.from_monomials(
        ring, (antidiagonal_monomial(ring, rows, cols)
               for rows, cols in _minor_sites(essential_set(w))))


# ---------------------------------------------------------------------------
# Graded Nakayama: minimal generators of a homogeneous ideal
# ---------------------------------------------------------------------------

def graded_minimal_generators(ring: PolyRing, gens: Sequence[Polynomial]
                              ) -> tuple[tuple[int, ...], int]:
    """Select a minimal generating subset of homogeneous ``gens`` and return
    (kept indices, minimal number of generators).

    Degree by degree, in index order, a generator of degree d is kept iff its
    image in (I/mI)_d is linearly independent of the generators of degree d
    already kept, so the count is the vector-space dimension of I/mI (graded
    Nakayama).  That space is I_d / J_d for J the ideal of the generators of
    degree < d, which the kept ones of degree < d already generate.  The
    normal form against the reduced Groebner basis of J is a linear map on
    degree-d forms whose kernel is exactly J_d, so the degree-d generators
    are reduced to their normal forms and ``independent`` keeps those
    outside the span of the ones before them: the selection is exact, with
    ranks over the ring's field (Kreuzer-Robbiano, Computational Commutative
    Algebra 2, on minimal homogeneous generators).

    The generators that are variables lie in J for every d > 1 and form a
    reduced Groebner basis by themselves, so every other generator is
    reduced against them once (``normal_forms`` erases their multiples), and
    ``buchberger`` runs only on the kept reduced generators that are nonzero,
    and not at all when none are.  In degree 1, J holds no variable, so the
    linear generators enter as they are.
    """
    degrees: list[int] = []
    for g in gens:
        if g.is_zero or g.ring != ring:
            raise ValueError("generators must be nonzero elements of the ring")
        if not g.is_homogeneous():
            raise ValueError("graded selection requires homogeneous generators")
        degrees.append(ring.monomial_degree(g.leading_monomial()))
    is_variable = [degrees[idx] == 1 and len(g) == 1 for idx, g in enumerate(gens)]
    others = [idx for idx in range(len(gens)) if not is_variable[idx]]
    reduced = dict(zip(others, normal_forms(
        [gens[idx] for idx in others],
        [g for idx, g in enumerate(gens) if is_variable[idx]])))
    kept: list[int] = []
    for d in sorted(set(degrees)):
        lower = [reduced[idx] for idx in kept if reduced.get(idx)]
        basis = buchberger(lower) if lower else ()
        indices = [idx for idx in range(len(gens)) if degrees[idx] == d]
        rows = [gens[idx] if d == 1 else reduced[idx] for idx in indices]
        kept += [indices[k] for k in independent(normal_forms(rows, basis))]
    return tuple(kept), len(kept)


# ---------------------------------------------------------------------------
# Groebner verification of the antidiagonal initial ideal
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroebnerReport:
    """Outcome of comparing in(I_w) with the antidiagonal ideal."""

    w: PartialPermutation
    match: bool
    gb_leading: MonomialIdeal
    antidiagonal: MonomialIdeal
    basis: tuple

    def to_json(self) -> dict:
        return {
            "w": self.w.to_json(),
            "match": self.match,
            "gb_leading": list(self.gb_leading.rendered()),
            "antidiagonal": list(self.antidiagonal.rendered()),
        }


def verify_groebner(w: PartialPermutation, ring: Optional[PolyRing] = None) -> GroebnerReport:
    """Check that the Fulton generators are a Groebner basis: the leading
    monomials of a reduced Groebner basis of the ideal must generate exactly
    the antidiagonal ideal."""
    schubert = fulton_generators(w, ring)
    ring = schubert.ring
    basis = buchberger(schubert.generators)
    # the leads of a reduced basis are already minimal generators
    lead = MonomialIdeal.from_minimal_generators(ring, (g.leading_monomial() for g in basis))
    anti = antidiagonal_ideal(w, ring)
    return GroebnerReport(w=w, match=lead.gens == anti.gens,
                          gb_leading=lead, antidiagonal=anti, basis=basis)
