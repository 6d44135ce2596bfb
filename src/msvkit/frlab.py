"""Symbolic verification of the pivot-localization machinery at desk scale.

For a permutation w whose essential set has a positive-rank cell, there is a
distinguished pivot entry c = x[i0, w(i0)], where i0 is the smallest row such
that some positive-rank essential cell lies strictly southeast of (i0, w(i0)).
This module verifies, by exact computation, the chain of facts that make the
pivot useful, each check a function of one ``LocalizationSetup``:

* the window fact: every cell northwest of the pivot is a rank-0 diagram
  cell, and the pivot is the only nonzero entry of w in its window;
* minor membership: any minor of the full generic matrix whose leading
  (antidiagonal) term is divisible by c lies in <c> + J_w, J_w the
  antidiagonal ideal.  No minor is expanded: the terms of a generic minor
  are distinct squarefree products with coefficient +-1 and J_w is
  squarefree, so a minor lies in <c> + J_w iff every bijection of its rows
  onto its columns picks a set of variables containing the support of some
  generator, which a depth-first search over partial bijections decides;
* the initial-ideal identity in(<c> + I_w) = <c> + J_w, read off the
  reduced Groebner basis B of I_w: c divides no lead of B, so by
  Buchberger's first criterion B and c form a Groebner basis, and its leads
  are c and those of B;
* c is a nonzerodivisor on the quotient by J_w;
* the localization identity: inverting c identifies the extended ideal of
  I_w with the ideal I' built from the smaller permutation w' (w with the
  pivot's row and column deleted) after the change of variables
  x'[p,q] = x[p,q] - c^{-1} x[p,q0] x[p0,q], together with the variables in
  the pivot's row/column that precede it.  The change of variables is one
  step of Gaussian elimination with pivot c, so by Sylvester's identity
  (the Schur complement of c; Bruns-Vetter, Determinantal Rings, LNM 1327,
  section 2) every polynomial either direction needs is a minor of the
  generic matrix, up to a sign and a power of c, and is built by ``minor``.
  Both directions are decided by normal forms against plain Groebner bases:
  c divides no leading monomial of the basis of I_w, so it is a
  nonzerodivisor modulo I_w and inverting it adds nothing to I_w; and c
  does not occur in I' written in the primed coordinates, where the basis
  of I_{w'}, whose generators are minors in w's own grid, and the gamma
  variables already form a Groebner basis.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .perm import (Cell, PartialPermutation, all_permutations, coxeter_length,
                   delete_row_col, diagram, essential_set, render_one_line)
from .poly import (Monomial, Polynomial, PolyRing, buchberger, minor, monomial_divides,
                   normal_forms)
from .detideal import (GroebnerReport, MonomialIdeal, fulton_generators,
                       is_nonzerodivisor_on_monomial_quotient, verify_groebner)


def find_pivot(w: PartialPermutation) -> Optional[Cell]:
    """The pivot cell (i0, w(i0)) for the smallest i0 with a positive-rank
    essential cell strictly southeast of it; None iff every essential cell
    has rank 0 (the coordinate ring is then a polynomial ring).  A
    positive-rank cell (p, q) counts an entry of w in the upper-left p x q
    corner, and as a diagram cell it shares no row or column with one, so
    that entry lies strictly northwest of it.

    >>> find_pivot(PartialPermutation.from_one_line("35142"))
    Cell(p=1, q=3)
    """
    positive = [cell for cell, r in essential_set(w) if r > 0]
    return next((Cell(i, w(i)) for i in range(1, w.size + 1)
                 if any(c.p > i and c.q > w(i) for c in positive)), None)


def verify_pivot_window(setup: LocalizationSetup) -> bool:
    """The window fact at the pivot: every cell strictly northwest-or-beside
    the pivot belongs to the diagram, and every diagram cell in rows <= i0
    has rank 0.  No entry of w is a diagram cell, so the first scan also
    shows that the pivot is the only nonzero entry of the upper-left
    i0 x w(i0) window of w."""
    p0, q0 = setup.c_cell
    d = diagram(setup.w)
    for p in range(1, p0 + 1):
        for q in range(1, q0 + 1):
            if (p, q) != (p0, q0) and (p, q) not in d:
                return False
    for cell, rank in d.items():
        if cell.p <= p0 and rank != 0:
            return False
    return True


def _pivot_minor_sites(n: int, pivot: Cell) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(rows, cols) of the minors of the n x n generic matrix whose
    antidiagonal holds the pivot, by size, then rows, then columns.  The
    antidiagonal pairs rows[k] with cols[t - 1 - k], so with the pivot's row
    at rows[k] its column has t - 1 - k columns to its left and k to its
    right; the column lists then come in lexicographic order."""
    p0, q0 = pivot
    for t in range(1, n + 1):
        for rows in itertools.combinations(range(1, n + 1), t):
            if p0 in rows:
                k = rows.index(p0)
                for left in itertools.combinations(range(1, q0), t - 1 - k):
                    for right in itertools.combinations(range(q0 + 1, n + 1), k):
                        yield rows, left + (q0,) + right


@dataclass(frozen=True)
class MinorMembershipReport:
    ok: bool
    checked: int
    failures: tuple  # (rows, cols) of minors outside <c> + J_w


def verify_pivot_minors(setup: LocalizationSetup) -> MinorMembershipReport:
    """Every minor of the full generic matrix whose antidiagonal term is
    divisible by the pivot variable must lie in the monomial ideal
    <c> + J_w, J_w the setup's ``groebner.antidiagonal``, which must be
    squarefree.  Exhaustive over those minors, so intended for n <= 6.

    No minor is expanded.  Its terms are the products over the bijections
    of its rows onto its columns, pairwise distinct and squarefree with
    coefficient +-1, so none cancels and the minor lies in the monomial
    ideal iff each of them does; c is a variable and J_w is squarefree, so
    a term lies in it iff its variables include a generator's.  A
    squarefree monomial is the set of its variables, one bit each, so a
    generator g is among the chosen variables ``grown`` iff
    ``g & grown == g``.  The bijections are searched depth first, a branch
    is cut once its chosen variables include a generator, and a minor fails
    once a complete bijection escapes every generator."""
    antidiagonal = setup.groebner.antidiagonal
    if not antidiagonal.is_squarefree():
        raise ValueError("the minor support search requires a squarefree J_w")
    n, pivot, ring = setup.w.size, setup.c_cell, setup.ring
    # the generators indexed by their variables, which are their bits:
    # adding a variable to the chosen ones can only complete a generator
    # that contains it
    covering: dict = {}
    for g in (ring.monomial({pivot: 1}),) + antidiagonal.gens:
        rest = g
        while rest:
            v = rest & -rest
            covering.setdefault(v, []).append(g)
            rest -= v
    key: dict = {}  # cell -> its variable, filled as the search meets it

    checked = 0
    failures = []
    for rows, cols in _pivot_minor_sites(n, pivot):
        checked += 1
        if _escapes(ring, key, covering, rows, cols, 0, 0):
            failures.append((rows, cols))
    return MinorMembershipReport(not failures, checked, tuple(failures))


def _escapes(ring: PolyRing, key: dict, covering: dict, rows: tuple, cols: tuple, k: int,
             chosen: Monomial) -> bool:
    """Whether some bijection of rows[k:] onto cols, with the variables
    ``chosen`` so far, gives a term outside the monomial ideal: ``key`` maps
    a cell to its variable, and ``covering`` a variable to the generators
    containing it (see ``verify_pivot_minors``)."""
    if k == len(rows):
        return True
    row = rows[k]
    for idx, j in enumerate(cols):
        cell = row, j
        v = key.get(cell)
        if v is None:
            v = key[cell] = ring.monomial({cell: 1})
        grown = chosen | v
        for g in covering.get(v, ()):
            if g & grown == g:
                break
        else:
            if _escapes(ring, key, covering, rows, cols[:idx] + cols[idx + 1:], k + 1, grown):
                return True
    return False


@dataclass(frozen=True)
class InitialIdealReport:
    ok: bool
    contains_expected: bool  # in(<c> + I_w) >= <c> + J_w, the easy containment
    lead: MonomialIdeal
    expected: MonomialIdeal


def verify_pivot_initial_ideal(setup: LocalizationSetup) -> InitialIdealReport:
    """Check in(<c> + I_w) = <c> + J_w from the reduced Groebner basis B of
    I_w.  When the pivot variable c divides no lead of B
    (``_nonzerodivisor_on_leads``), as for every w (the leads of B generate
    J_w by Knutson-Miller, Ann. Math. 2005, Thm B, and c divides no
    generator of J_w by lemma 3), every S-pair of c and B has coprime leads
    and so reduces to zero by Buchberger's first criterion
    (Cox-Little-O'Shea, Ideals, Varieties, and Algorithms, ch. 2 section 9),
    and every S-pair inside B already does.  So c and B form a Groebner
    basis, read without forming any S-polynomial; otherwise ``buchberger``
    computes one.  Neither monomial ideal needs minimalizing: the leads of a
    reduced basis are minimal generators of the lead ideal, and so are c and
    the leads of B, or the generators of J_w, that c does not divide (none
    of these divides c, as I_w and J_w are proper)."""
    ring, pivot, groebner = setup.ring, setup.c_cell, setup.groebner
    c = ring.monomial({pivot: 1})
    basis = (ring.variable(*pivot),) + groebner.basis
    if not _nonzerodivisor_on_leads(c, groebner.basis):
        basis = buchberger(basis)
    lead = MonomialIdeal.from_minimal_generators(ring, (g.leading_monomial() for g in basis))
    expected = MonomialIdeal.from_minimal_generators(
        ring, (c,) + tuple(m for m in groebner.antidiagonal.gens if not monomial_divides(c, m)))
    ok = lead.gens == expected.gens
    return InitialIdealReport(ok, ok or all(lead.contains_monomial(m) for m in expected.gens),
                              lead, expected)


def verify_pivot_nonzerodivisor(setup: LocalizationSetup) -> bool:
    """The pivot variable is a nonzerodivisor on the quotient by J_w."""
    return is_nonzerodivisor_on_monomial_quotient(
        setup.ring.monomial({setup.c_cell: 1}), setup.groebner.antidiagonal)


# ---------------------------------------------------------------------------
# The localization setup and the identity I = I'
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalizationSetup:
    """What every pivot check shares: ``w``, its pivot ``c_cell``, ``w_prime``
    (w with the pivot's row and column deleted), the ``ring`` and
    ``groebner``, ``verify_groebner``'s report on w in that ring.  The
    report holds the Fulton generators of w with their sites
    (``groebner.schubert``), their reduced Groebner basis
    (``groebner.basis``) and the antidiagonal ideal J_w
    (``groebner.antidiagonal``), which lemma 1, lemma 2 and the
    nonzerodivisor check read.  The ideal I' of w' is built from
    ``w_prime`` by ``primed_ideal``, for the identity check alone."""

    w: PartialPermutation
    c_cell: Cell
    w_prime: PartialPermutation
    ring: PolyRing
    groebner: GroebnerReport


def _bordered_minor(ring: PolyRing, rows: tuple, cols: tuple, pivot: Cell) -> Polynomial:
    """(-1)^(k+l) times the minor on rows + {p0} and cols + {q0}, with k and l
    the 0-based positions of p0 and q0 in the bordered rows and columns.

    Moving the pivot's row and column to the front costs that sign, and the
    Schur complement of c is the primed matrix on (rows, cols).  So by
    Sylvester's identity this is c times the primed minor on (rows, cols):
    the primed minor cleared of its denominator, with no pivot factor left.

    >>> r = PolyRing(2, 2)
    >>> str(_bordered_minor(r, (2,), (1,), Cell(1, 2)))
    'x[1,2]*x[2,1] - x[1,1]*x[2,2]'
    """
    p0, q0 = pivot
    rows, cols = tuple(sorted(rows + (p0,))), tuple(sorted(cols + (q0,)))
    g = minor(ring, rows, cols)
    return -g if (rows.index(p0) + cols.index(q0)) % 2 else g


def _primed_minor(g: Polynomial, rows: tuple, cols: tuple, pivot: Cell) -> Polynomial:
    """The minor that the Fulton generator g on (rows, cols) becomes in the
    primed coordinates, up to a sign, a power of c and c -> -c (see
    ``verify_localization_identity``): g when the site holds exactly one of
    the pivot's row and column, the minor off both when it holds both, and
    the bordered minor when it holds neither."""
    p0, q0 = pivot
    has_row, has_col = p0 in rows, q0 in cols
    if has_row != has_col:
        return g
    if has_row:
        return minor(g.ring, tuple(p for p in rows if p != p0), tuple(q for q in cols if q != q0))
    return _bordered_minor(g.ring, rows, cols, pivot)


def _deleted_labels(n: int, pivot: Cell) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(row labels, column labels): the rows and columns of the n x n grid
    without the pivot's row and column, in order, so row i and column j of
    the deleted grid are row labels[0][i - 1] and column labels[1][j - 1] of
    the original one."""
    p0, q0 = pivot
    return (tuple(i for i in range(1, n + 1) if i != p0),
            tuple(j for j in range(1, n + 1) if j != q0))


class NoPivotError(ValueError):
    """The permutation has no pivot: the defining ideal is generated by
    variables."""


def build_localization(w: PartialPermutation, ring: Optional[PolyRing] = None) -> LocalizationSetup:
    """Find the pivot of w, run ``verify_groebner`` on w and delete the
    pivot's row and column to give w'.  Raises ``NoPivotError`` when ``w``
    has no pivot, so a caller that skips such a w need not look the pivot
    up first."""
    pivot = find_pivot(w)
    if pivot is None:
        raise NoPivotError("no pivot: the defining ideal is generated by variables")
    groebner = verify_groebner(w, ring)
    return LocalizationSetup(w=w, c_cell=pivot, w_prime=delete_row_col(w, *pivot),
                             ring=groebner.schubert.ring, groebner=groebner)


def primed_ideal(setup: LocalizationSetup) -> tuple[tuple, tuple, tuple, tuple]:
    """(generator_sites, w_prime_generators, cleared_generators,
    gamma_generators): the ideal I' of the setup's w' at its pivot, in its
    ring.

    ``generator_sites`` are the sites of the minimal Fulton generators of w'
    as (rows, cols) in w's labels (``_deleted_labels``), so size-1 sites
    are the primed variables, and ``w_prime_generators`` are the minors on
    them: the generators of w' in w's grid.  The relabelling keeps the
    order of the rows and of the columns, and so the precedence of the
    variables.  ``cleared_generators`` are those generators rewritten in the
    original variables through x'[p,q] = x[p,q] - c^{-1} x[p,q0] x[p0,q]
    and cleared of denominators: each is the minor bordered by the pivot's
    row and column, with the sign of ``_bordered_minor``.
    ``gamma_generators`` are the variables of the pivot's row and column
    that precede the pivot, sorted as cells: the pivot's column above it,
    then its row left of it."""
    ring, pivot = setup.ring, setup.c_cell
    p0, q0 = pivot
    row_labels, col_labels = _deleted_labels(setup.w.size, pivot)
    sites = tuple((tuple(row_labels[i - 1] for i in rows),
                   tuple(col_labels[j - 1] for j in cols))
                  for rows, cols in fulton_generators(setup.w_prime, ring).sites)
    return (sites, tuple(minor(ring, rows, cols) for rows, cols in sites),
            tuple(_bordered_minor(ring, rows, cols, pivot) for rows, cols in sites),
            tuple(ring.variable(p, q0) for p in range(1, p0))
            + tuple(ring.variable(p0, q) for q in range(1, q0)))


@dataclass(frozen=True)
class LocalizationReport:
    ok: bool
    proper: bool  # 1 is not in I_w : c^infinity: the localized ring is nonzero
    # Fulton generators of I_w not in I' : c^infinity, with I' read as
    # I_{w'}(x') + <gamma> from the generators of w' that primed_ideal builds
    forward_failures: tuple
    # cleared and gamma generators of I' not in I_w : c^infinity
    backward_failures: tuple


def _nonzerodivisor_on_leads(c: Monomial, basis: tuple) -> bool:
    """Whether the variable c divides no leading monomial of the Groebner
    basis ``basis``.  Then c is a nonzerodivisor modulo its ideal I: if c*f
    lies in I with f a nonzero normal form, some lead divides c*lm(f), hence
    divides lm(f), which is impossible.  So I : c^infinity = I."""
    return not any(monomial_divides(c, g.leading_monomial()) for g in basis)


def verify_localization_identity(setup: LocalizationSetup) -> LocalizationReport:
    """Verify that inverting the pivot c identifies the extended ideal of I_w
    with I', by normal forms against plain Groebner bases.

    Precondition: c divides no lead of the reduced Groebner basis of I_w,
    ``setup.groebner.basis`` (``_nonzerodivisor_on_leads``); a ValueError is
    raised otherwise, and no verdict is returned.  It holds for every
    permutation: those leads generate J_w (Knutson-Miller, Groebner geometry
    of Schubert polynomials, Ann. Math. 2005, Thm B), which is what
    ``setup.groebner.match`` records for w, and c divides no minimal
    generator of the monomial ideal J_w, since it is a nonzerodivisor
    modulo J_w (lemma 3).

    Backward, I' in I_w : c^infinity: by the precondition that basis is one
    of I_w : c^infinity, and each generator of I' needs one normal form
    against it.

    Forward, I_w in I' : c^infinity: in the primed coordinates I' is
    I_{w'} + <gamma>, whose Groebner basis is the reduced basis of the
    generators of w', the minors on their sites in w's labels and so off
    the pivot's row and column, together with the gamma variables (their
    leads are coprime).  c occurs in neither, so it is a
    nonzerodivisor modulo I', and c -> -c maps I' onto itself.  Take a
    Fulton generator g of w on rows R and columns C, of size d, and rewrite
    it in the primed coordinates, x[p,q] = x'[p,q] + c^{-1} x[p,q0] x[p0,q].
    By Sylvester's identity c^d g becomes, with k and l the positions of p0
    and q0 in the rows and columns of the minor on the right:

    * c^d g when exactly one of p0 in R and q0 in C holds: inside the minor
      the change adds multiples of the pivot's row, or column, to the others;
    * (-1)^(k+l) c^(d+1) minor(R - p0, C - q0) when both hold: that minor is
      the Schur complement of c;
    * (-1)^(k+l+1) c^(d-1) B(-c) when neither holds, B the minor on
      (R + p0, C + q0) and B(-c) it with c replaced by -c.

    So g lies in I' : c^infinity iff g, minor(R - p0, C - q0) or B has
    normal form zero (``_primed_minor``), and neither a power of c nor a
    sign is multiplied in.

    I' is built once, from ``setup.w_prime``, by ``primed_ideal``.  The
    backward direction reads its cleared and gamma generators, and the
    forward direction reads the generators of w' and the gamma variables,
    reducing the minors that the Fulton generators of w and their sites in
    ``groebner.schubert`` give.  The identity holds for I' as the cleared
    generators present it because ``primed_ideal`` clears exactly the
    generators of w' that it returns; cleared generators that miss some of
    them still pass the backward direction, and the forward direction does
    not look at them.
    """
    ring, basis, schubert = setup.ring, setup.groebner.basis, setup.groebner.schubert
    if not _nonzerodivisor_on_leads(ring.monomial({setup.c_cell: 1}), basis):
        raise ValueError("the pivot divides a leading monomial of the basis of I_w, "
                         "so it is not known to be a nonzerodivisor modulo I_w")
    _, w_prime_generators, cleared, gamma = primed_ideal(setup)
    prime_gens = cleared + gamma
    *remainders, unit = normal_forms(prime_gens + (ring.one(),), basis)
    backward = tuple(g for g, r in zip(prime_gens, remainders) if r)
    proper = bool(unit)
    gb_prime = buchberger(w_prime_generators) + gamma
    rewritten = normal_forms([_primed_minor(g, rows, cols, setup.c_cell)
                              for g, (rows, cols) in zip(schubert.generators, schubert.sites)],
                             gb_prime)
    forward = tuple(g for g, r in zip(schubert.generators, rewritten) if r)
    return LocalizationReport(ok=not forward and not backward, proper=proper,
                              forward_failures=forward, backward_failures=backward)


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


# VerificationSummary field -> the check that fills it from the
# LocalizationSetup; one setup serves every check, so w's Fulton generators,
# their Groebner basis and J_w come from one verify_groebner call.  Each
# entry looks the check up by its module-level name when called, so a
# patched name is the one run.
PIVOT_CHECKS = {
    "window": lambda setup: verify_pivot_window(setup),
    "minors_ok": lambda setup: verify_pivot_minors(setup).ok,
    "initial_ideal_ok": lambda setup: verify_pivot_initial_ideal(setup).ok,
    "nonzerodivisor_ok": lambda setup: verify_pivot_nonzerodivisor(setup),
    "localization_ok": lambda setup: verify_localization_identity(setup).ok,
}


def verify_all(w: PartialPermutation, checks: Iterable[str] = PIVOT_CHECKS) -> VerificationSummary:
    """Run the pivot checks named by ``checks``, fields of ``PIVOT_CHECKS``
    (by default all of them), on one setup of ``w``, leaving the fields of
    the others None; skipped when ``w`` has no pivot."""
    try:
        setup = build_localization(w)
    except NoPivotError:
        return VerificationSummary(w=w, pivot=None, skipped=True)
    return VerificationSummary(w=w, pivot=setup.c_cell, skipped=False, **{
        field: PIVOT_CHECKS[field](setup) for field in checks})


def localization_sample(n: int = 5, max_length: int = 6) -> tuple:
    """The documented localization sample: every w in S_n admitting a pivot
    whose Coxeter length is at most ``max_length`` (for n = 5 this includes
    35142).  Deterministic lexicographic order."""
    sample = []
    for w in all_permutations(n):
        if coxeter_length(w) <= max_length and find_pivot(w) is not None:
            sample.append(w)
    return tuple(sample)
