"""Symbolic verification of the pivot-localization machinery at desk scale.

For a permutation w whose essential set has a positive-rank cell, there is a
distinguished pivot entry c = x[i0, w(i0)], where i0 is the smallest row such
that some positive-rank essential cell lies strictly southeast of (i0, w(i0)).
This module verifies, by exact computation, the chain of facts that make the
pivot useful:

* the window fact: every cell northwest of the pivot is a rank-0 diagram
  cell, and the pivot is the only nonzero entry of w in its window;
* minor membership: any minor of the full generic matrix whose leading
  (antidiagonal) term is divisible by c lies in <c> + J_w, J_w the
  antidiagonal ideal.  No minor is expanded: the terms of a generic minor
  are distinct squarefree products with coefficient +-1 and J_w is
  squarefree, so a minor lies in <c> + J_w iff every bijection of its rows
  onto its columns picks a set of variables containing the support of some
  generator, which a depth-first search over partial bijections decides;
* the initial-ideal identity in(<c> + I_w) = <c> + J_w, checked by extending
  the reduced Groebner basis of I_w by c, so no pair inside it is formed
  again;
* c is a nonzerodivisor on the quotient by J_w;
* the localization identity: inverting c identifies the extended ideal of
  I_w with the ideal I' built from the smaller permutation w' (w with the
  pivot's row and column deleted) after the change of variables
  x'[p,q] = x[p,q] - c^{-1} x[p,q0] x[p0,q], together with the variables in
  the pivot's row/column that precede it.  Both directions are decided by
  normal forms against plain Groebner bases: c divides no leading monomial
  of the basis of I_w, so it is a nonzerodivisor modulo I_w and inverting it
  adds nothing to I_w; and c does not occur in I' written in the primed
  coordinates, where the transplanted basis of I_{w'} and the gamma
  variables already form a Groebner basis.  Saturation at c is kept only as
  the fallback for a basis whose leads c divides, which does not happen for
  permutations.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

from .perm import (Cell, PartialPermutation, all_permutations, coxeter_length,
                   delete_row_col, diagram, essential_set, render_one_line)
from .poly import (IdealPresentation, Monomial, Polynomial, PolyRing, buchberger,
                   monomial_divides, monomial_quotient, normal_forms, saturate,
                   transplant)
from .detideal import (MonomialIdeal, antidiagonal_ideal, fulton_generators,
                       is_nonzerodivisor_on_monomial_quotient)


def find_pivot(w: PartialPermutation) -> Optional[Cell]:
    """The pivot cell (i0, w(i0)) for the smallest i0 with a positive-rank
    essential cell strictly southeast of it; None iff every essential cell
    has rank 0 (the coordinate ring is then a polynomial ring).

    >>> find_pivot(PartialPermutation.from_one_line("35142"))
    Cell(p=1, q=3)
    """
    positive = [cell for cell, r in essential_set(w) if r > 0]
    if not positive:
        return None
    for i0 in range(1, w.size + 1):
        q0 = w(i0)
        if any(cell.p > i0 and cell.q > q0 for cell in positive):
            return Cell(i0, q0)
    raise AssertionError("unreachable: a positive essential cell admits a pivot")


def verify_pivot_window(w: PartialPermutation, pivot: Optional[Cell] = None) -> bool:
    """The window fact at the pivot: every cell strictly northwest-or-beside
    the pivot belongs to the diagram, every diagram cell in rows <= i0 has
    rank 0, and the pivot is the only nonzero entry of the upper-left
    i0 x w(i0) window of w."""
    if pivot is None:
        pivot = find_pivot(w)
        if pivot is None:
            raise ValueError("no pivot: every essential cell has rank 0")
    p0, q0 = pivot
    d = diagram(w)
    for p in range(1, p0 + 1):
        for q in range(1, q0 + 1):
            if (p, q) != (p0, q0) and Cell(p, q) not in d.ranks:
                return False
    for cell, rank in d.ranks.items():
        if cell.p <= p0 and rank != 0:
            return False
    for i in range(1, p0 + 1):
        j = w(i)
        if j is not None and j <= q0 and (i, j) != (p0, q0):
            return False
    return True


def _pivot_minor_sites(n: int, pivot: Cell) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(rows, cols) of the minors of the n x n generic matrix whose
    antidiagonal holds the pivot, by size, then rows, then columns.  The
    antidiagonal pairs rows[k] with cols[t - 1 - k], so with the pivot's row
    at rows[k], k rows lie above it, t - 1 - k below, and its column has
    t - 1 - k columns to its left and k to its right."""
    p0, q0 = pivot
    for t in range(1, n + 1):
        sites = []
        for k in range(t):
            for above in itertools.combinations(range(1, p0), k):
                for below in itertools.combinations(range(p0 + 1, n + 1), t - 1 - k):
                    rows = above + (p0,) + below
                    for left in itertools.combinations(range(1, q0), t - 1 - k):
                        for right in itertools.combinations(range(q0 + 1, n + 1), k):
                            sites.append((rows, left + (q0,) + right))
        yield from sorted(sites)


@dataclass(frozen=True)
class MinorMembershipReport:
    ok: bool
    checked: int
    failures: tuple  # (rows, cols) of minors outside <c> + J_w


def verify_pivot_minors(w: PartialPermutation,
                        ring: Optional[PolyRing] = None) -> MinorMembershipReport:
    """Every minor of the full generic matrix whose antidiagonal term is
    divisible by the pivot variable must lie in the monomial ideal
    <c> + J_w.  Exhaustive over those minors, so intended for n <= 6.

    No minor is expanded.  Its terms are the products over the bijections
    of its rows onto its columns, pairwise distinct and squarefree with
    coefficient +-1, so none cancels and the minor lies in the monomial
    ideal iff each of them does; c is a variable and J_w is squarefree, so
    a term lies in it iff its support contains a generator's support.  The
    bijections are searched depth first, a branch is cut once its partial
    support contains a generator's, and a minor fails once a complete
    bijection escapes every generator."""
    pivot = find_pivot(w)
    if pivot is None:
        raise ValueError("no pivot: every essential cell has rank 0")
    return _pivot_minor_report(w.size, pivot, antidiagonal_ideal(w, ring))


def _pivot_minor_report(n: int, pivot: Cell, antidiagonal: MonomialIdeal) -> MinorMembershipReport:
    """Lemma 1 against the antidiagonal ideal J_w in its ring, by the support
    search of ``verify_pivot_minors``; J_w must be squarefree."""
    if not antidiagonal.is_squarefree():
        raise ValueError("the minor support search requires a squarefree J_w")
    ring = antidiagonal.ring
    gens = (ring.monomial({pivot: 1}),) + antidiagonal.gens
    cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    key = {cell: ring.support(ring.monomial({cell: 1})) for cell in cells}
    # generator supports indexed by their variables: adding a variable to a
    # partial support can only complete a generator that contains it
    covering: dict = {}
    for m in gens:
        support = ring.support(m)
        for v in support:
            covering.setdefault(v, []).append(support)

    def escapes(rows: tuple, cols: tuple, k: int, support: frozenset) -> bool:
        # whether some bijection of rows[k:] onto cols, with support chosen
        # so far, gives a term outside <c> + J_w
        if k == len(rows):
            return True
        for idx, j in enumerate(cols):
            v = key[(rows[k], j)]
            grown = support | v
            (var,) = v
            if any(g <= grown for g in covering.get(var, ())):
                continue
            if escapes(rows, cols[:idx] + cols[idx + 1:], k + 1, grown):
                return True
        return False

    checked = 0
    failures = []
    for rows, cols in _pivot_minor_sites(n, pivot):
        checked += 1
        if escapes(rows, cols, 0, frozenset()):
            failures.append((rows, cols))
    return MinorMembershipReport(not failures, checked, tuple(failures))


@dataclass(frozen=True)
class InitialIdealReport:
    ok: bool
    contains_expected: bool  # in(<c> + I_w) >= <c> + J_w, the easy containment
    lead: MonomialIdeal
    expected: MonomialIdeal


def verify_pivot_initial_ideal(w: PartialPermutation,
                               ring: Optional[PolyRing] = None) -> InitialIdealReport:
    """Check in(<c> + I_w) = <c> + J_w by extending a reduced Groebner basis
    of the Fulton generators by the pivot variable."""
    pivot = find_pivot(w)
    if pivot is None:
        raise ValueError("no pivot: every essential cell has rank 0")
    schubert = fulton_generators(w, ring)
    return _initial_ideal_report(pivot, buchberger(schubert.generators),
                                 antidiagonal_ideal(w, schubert.ring))


def _initial_ideal_report(pivot: Cell, w_groebner: tuple,
                          antidiagonal: MonomialIdeal) -> InitialIdealReport:
    """Lemma 2 from the reduced Groebner basis of I_w: ``buchberger`` extends
    it by the pivot variable without forming a pair inside it, and when c
    divides no lead every new pair has coprime leads, so no S-polynomial is
    formed at all.  Neither monomial ideal needs minimalizing: the leads of a
    reduced basis are minimal generators of the lead ideal, and so are the
    pivot variable c and the generators of J_w that c does not divide (none
    of these divides c, as J_w is proper)."""
    ring = antidiagonal.ring
    basis = buchberger((ring.variable(*pivot),), basis=w_groebner)
    lead = MonomialIdeal.from_minimal_generators(ring, (g.leading_monomial() for g in basis))
    c = ring.monomial({pivot: 1})
    expected = MonomialIdeal.from_minimal_generators(
        ring, (c,) + tuple(m for m in antidiagonal.gens if not monomial_divides(c, m)))
    contains = all(lead.contains_monomial(m) for m in expected.gens)
    return InitialIdealReport(lead.gens == expected.gens, contains, lead, expected)


def verify_pivot_nonzerodivisor(w: PartialPermutation) -> bool:
    """The pivot variable is a nonzerodivisor on the quotient by J_w."""
    pivot = find_pivot(w)
    if pivot is None:
        raise ValueError("no pivot: every essential cell has rank 0")
    return _pivot_is_nonzerodivisor(pivot, antidiagonal_ideal(w))


def _pivot_is_nonzerodivisor(pivot: Cell, antidiagonal: MonomialIdeal) -> bool:
    return is_nonzerodivisor_on_monomial_quotient(
        antidiagonal.ring.monomial({pivot: 1}), antidiagonal)


# ---------------------------------------------------------------------------
# The localization setup and the identity I = I'
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalizationSetup:
    """Data of the change of variables at the pivot.

    ``w_generators`` are the Fulton generators of w in ``ring`` and
    ``w_groebner`` their reduced Groebner basis.  ``w_prime`` is w with the
    pivot's row and column deleted, ``w_prime_generators`` its Fulton
    generators in ``ring``, on the contiguous indices 1..n-1, and
    ``row_labels``/``col_labels`` send its contiguous indices back to the
    original grid.  ``cleared_generators`` are those generators rewritten
    in the original variables through
    x'[p,q] = x[p,q] - c^{-1} x[p,q0] x[p0,q] and cleared of denominators by
    pivot powers (with any overall pivot factor removed);
    ``generator_sites`` records each one's origin as (rows, cols) in original
    labels, so size-1 sites are the primed variables.  ``gamma`` is the
    pivot's row and column; ``gamma_generators`` are the variables there that
    precede the pivot.  ``antidiagonal`` is the antidiagonal ideal J_w in
    ``ring``, which lemma 1, lemma 2 and the nonzerodivisor check share."""

    w: PartialPermutation
    c_cell: Cell
    w_prime: PartialPermutation
    row_labels: tuple[int, ...]
    col_labels: tuple[int, ...]
    gamma: tuple[Cell, ...]
    gamma_generators: tuple
    cleared_generators: tuple
    generator_sites: tuple
    ring: PolyRing
    w_generators: tuple
    w_groebner: tuple
    w_prime_generators: tuple
    antidiagonal: MonomialIdeal


def _pivot_substitution(f: Polynomial, p0: int, q0: int, sign: int,
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

    >>> setup = build_localization(PartialPermutation.from_one_line("35142"))
    >>> p0, q0 = setup.c_cell
    >>> cleared = _pivot_substitution(setup.ring.variable(2, 1), p0, q0, -1)
    >>> str(cleared), cleared == setup.cleared_generators[0]
    ('x[1,3]*x[2,1] - x[1,1]*x[2,3]', True)
    >>> str(_pivot_substitution(cleared, p0, q0, 1))
    'x[1,3]^3*x[2,1]'
    """
    ring = f.ring
    field = ring.field
    axpy = field.axpy
    degree = f.total_degree()
    if images is None:
        images = {}
    one = ring.one_monomial()
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
        axpy(total, term, 1, ring.monomial({(p0, q0): degree - used}) if used < degree else None)
    return Polynomial(ring, total)


def _strip_pivot_factor(f: Polynomial, p0: int, q0: int) -> Polynomial:
    """f divided by the largest power of x[p0,q0] dividing every term."""
    ring = f.ring
    excess = min(sum(e for i, j, e in ring.grid_support(m) if (i, j) == (p0, q0))
                 for m in f.monomials())
    if not excess:
        return f
    factor = ring.monomial({(p0, q0): excess})
    return ring.polynomial((monomial_quotient(m, factor), co) for m, co in f.terms())


def _cell_map(row_labels: tuple, col_labels: tuple) -> dict:
    """Cells of the deleted grid -> cells of the original grid."""
    return {(i, j): (p, q) for i, p in enumerate(row_labels, 1)
            for j, q in enumerate(col_labels, 1)}


def build_localization(w: PartialPermutation, ring: Optional[PolyRing] = None) -> LocalizationSetup:
    """Construct the deleted permutation w', the label maps, the cleared
    generators of the localized ideal I', and the Fulton generators of w with
    their reduced Groebner basis."""
    pivot = find_pivot(w)
    if pivot is None:
        raise ValueError("no pivot: the defining ideal is generated by variables")
    p0, q0 = pivot
    n = w.size
    if ring is None:
        ring = PolyRing(n, n)
    w_generators = fulton_generators(w, ring).generators
    w_prime = delete_row_col(w, p0, q0)
    row_labels = tuple(i for i in range(1, n + 1) if i != p0)
    col_labels = tuple(j for j in range(1, n + 1) if j != q0)
    cell_map = _cell_map(row_labels, col_labels)
    schubert_prime = fulton_generators(w_prime, ring)
    cleared = []
    sites = []
    images: dict = {}
    for g, site in zip(schubert_prime.generators, schubert_prime.sites):
        primed = transplant(g, ring, cell_map)
        cleared_poly = _strip_pivot_factor(
            _pivot_substitution(primed, p0, q0, -1, images), p0, q0)
        if cleared_poly.total_degree() > 2 * g.total_degree():
            raise AssertionError("cleared generator exceeds twice the original degree")
        cleared.append(cleared_poly)
        sites.append((tuple(row_labels[i - 1] for i in site.rows),
                      tuple(col_labels[j - 1] for j in site.cols)))
    gamma = tuple(sorted(
        {Cell(p0, q) for q in range(1, n + 1)} | {Cell(p, q0) for p in range(1, n + 1)}))
    gamma_generators = tuple(ring.variable(*cell) for cell in gamma
                             if cell.p < p0 or cell.q < q0)
    return LocalizationSetup(
        w=w, c_cell=pivot, w_prime=w_prime, row_labels=row_labels,
        col_labels=col_labels, gamma=gamma, gamma_generators=gamma_generators,
        cleared_generators=tuple(cleared), generator_sites=tuple(sites), ring=ring,
        w_generators=w_generators, w_groebner=buchberger(w_generators),
        w_prime_generators=schubert_prime.generators,
        antidiagonal=antidiagonal_ideal(w, ring))


@dataclass(frozen=True)
class LocalizationReport:
    ok: bool
    proper: bool  # 1 is not in I_w : c^infinity: the localized ring is nonzero
    # Fulton generators of I_w not in I' : c^infinity, with I' read as
    # I_{w'}(x') + <gamma> from the setup's w_prime_generators
    forward_failures: tuple
    # cleared and gamma generators of I' not in I_w : c^infinity
    backward_failures: tuple
    setup: LocalizationSetup


def _nonzerodivisor_on_leads(c: Monomial, basis: tuple) -> bool:
    """Whether the variable c divides no leading monomial of the Groebner
    basis ``basis``.  Then c is a nonzerodivisor modulo its ideal I: if c*f
    lies in I with f a nonzero normal form, some lead divides c*lm(f), hence
    divides lm(f), which is impossible.  So I : c^infinity = I."""
    return not any(monomial_divides(c, g.leading_monomial()) for g in basis)


def verify_localization_identity(w: PartialPermutation,
                                 setup: Optional[LocalizationSetup] = None) -> LocalizationReport:
    """Verify that inverting the pivot c identifies the extended ideal of I_w
    with I', by normal forms against plain Groebner bases.

    Backward, I' in I_w : c^infinity: when c divides no lead of the basis of
    I_w, that basis is one of I_w : c^infinity (``_nonzerodivisor_on_leads``),
    and each generator of I' needs one normal form against it.  Otherwise the
    saturation is computed.

    Forward, I_w in I' : c^infinity: in the primed coordinates I' is
    I_{w'} + <gamma>, whose Groebner basis is the reduced basis of I_{w'}
    transplanted off the pivot's row and column together with the gamma
    variables (their leads are coprime).  c occurs in neither, so it is a
    nonzerodivisor modulo I', and a Fulton generator g of degree d lies in
    I' : c^infinity iff c^d g, rewritten in the primed coordinates, has
    normal form zero.

    So the two directions read I' from different fields of the setup: the
    backward one from ``cleared_generators`` and the forward one from
    ``w_prime_generators``.  The identity holds for I' as the cleared
    generators present it because ``build_localization`` clears exactly the
    generators it stores in ``w_prime_generators``; a setup whose cleared
    generators miss some of them still passes the backward direction, and
    the forward direction does not look at them.
    """
    if setup is None:
        setup = build_localization(w)
    ring = setup.ring
    p0, q0 = setup.c_cell
    c = ring.variable(p0, q0)
    sat_w = setup.w_groebner
    if not _nonzerodivisor_on_leads(c.leading_monomial(), sat_w):
        sat_w = saturate(IdealPresentation(ring, setup.w_generators), c).generators
    prime_gens = setup.cleared_generators + setup.gamma_generators
    *remainders, unit = normal_forms(prime_gens + (ring.one(),), sat_w)
    backward = tuple(g for g, r in zip(prime_gens, remainders) if r)
    proper = bool(unit)
    cell_map = _cell_map(setup.row_labels, setup.col_labels)
    gb_prime = tuple(transplant(g, ring, cell_map)
                     for g in buchberger(setup.w_prime_generators)) + setup.gamma_generators
    images: dict = {}
    rewritten = normal_forms([_pivot_substitution(g, p0, q0, 1, images)
                              for g in setup.w_generators], gb_prime)
    forward = tuple(g for g, r in zip(setup.w_generators, rewritten) if r)
    return LocalizationReport(ok=not forward and not backward, proper=proper,
                              forward_failures=forward, backward_failures=backward,
                              setup=setup)


# ---------------------------------------------------------------------------
# Whole-permutation verification and the documented sample
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerificationSummary:
    """All pivot verifications for one permutation; ``skipped`` is True when
    there is no pivot (defining ideal generated by variables)."""

    w: PartialPermutation
    pivot: Optional[Cell]
    skipped: bool
    window: Optional[bool] = None
    minors_ok: Optional[bool] = None
    initial_ideal_ok: Optional[bool] = None
    nonzerodivisor_ok: Optional[bool] = None
    localization_ok: Optional[bool] = None

    @property
    def ok(self) -> bool:
        if self.skipped:
            return True
        return bool(self.window and self.minors_ok and self.initial_ideal_ok
                    and self.nonzerodivisor_ok and self.localization_ok)

    def to_json(self) -> dict:
        return {
            "w": render_one_line(self.w),
            "c": list(self.pivot) if self.pivot is not None else None,
            "lemma1": self.minors_ok,
            "lemma2": self.initial_ideal_ok,
            "lemma3_nzd": self.nonzerodivisor_ok,
            "I_eq_Iprime": self.localization_ok,
            "skipped": self.skipped,
        }


# VerificationSummary field -> the check that fills it, given w, its pivot and
# its LocalizationSetup; one setup serves every check, so the Fulton
# generators of w, their Groebner basis and J_w are built once
PIVOT_CHECKS = {
    "window": lambda w, pivot, setup: verify_pivot_window(w, pivot),
    "minors_ok": lambda w, pivot, setup: _pivot_minor_report(
        w.size, pivot, setup.antidiagonal).ok,
    "initial_ideal_ok": lambda w, pivot, setup: _initial_ideal_report(
        pivot, setup.w_groebner, setup.antidiagonal).ok,
    "nonzerodivisor_ok": lambda w, pivot, setup: _pivot_is_nonzerodivisor(
        pivot, setup.antidiagonal),
    "localization_ok": lambda w, pivot, setup: verify_localization_identity(w, setup).ok,
}


def verify_all(w: PartialPermutation) -> VerificationSummary:
    """Run every pivot verification on ``w`` (skipping when no pivot exists)."""
    pivot = find_pivot(w)
    if pivot is None:
        return VerificationSummary(w=w, pivot=None, skipped=True)
    setup = build_localization(w)
    return VerificationSummary(w=w, pivot=pivot, skipped=False, **{
        field: check(w, pivot, setup) for field, check in PIVOT_CHECKS.items()})


def localization_sample(n: int = 5, max_length: int = 6) -> tuple:
    """The documented localization sample: every w in S_n admitting a pivot
    whose Coxeter length is at most ``max_length`` (for n = 5 this includes
    35142).  Deterministic lexicographic order."""
    sample = []
    for w in all_permutations(n):
        if coxeter_length(w) <= max_length and find_pivot(w) is not None:
            sample.append(w)
    return tuple(sample)
