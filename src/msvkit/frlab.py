"""Symbolic verification of the pivot-localization machinery at desk scale.

For a permutation w whose essential set has a positive-rank cell, there is a
distinguished pivot entry c = x[i0, w(i0)], where i0 is the smallest row such
that some positive-rank essential cell lies strictly southeast of (i0, w(i0)).
It is found from the word alone, as the least i0 that starts a 132 pattern:
a positive-rank cell (p, q) strictly southeast of (i, w(i)) that is a
diagram cell gives the occurrence (i, p, w^-1(q)), and an occurrence
(i, j, k) gives the positive-rank diagram cell (j, w(k)) strictly southeast
of (i, w(i)), with an essential cell of its rank weakly southeast of it, as
ranks are constant on a connected component of the diagram (Fulton, Duke
Math. J. 1992).  This module verifies, by exact computation, the chain of
facts that make the pivot useful, each check a function of one
``LocalizationSetup``:

* the window fact: every cell northwest of the pivot is a rank-0 diagram
  cell, and the pivot is the only nonzero entry of w in its window;
* minor membership: any minor of the full generic matrix whose leading
  (antidiagonal) term is divisible by c lies in <c> + J_w, J_w the
  antidiagonal ideal.  Such a minor has one more row at or above the pivot
  than columns right of it, so each bijection of its rows onto its columns
  picks c or another cell of the pivot's window, whose variable the window
  fact puts in J_w.  So only the minors that meet a window cell missing
  from J_w are expanded and tested term by term, and for w's own J_w
  there are none;
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
  does not occur in I' written in the primed coordinates, where the
  generators of w', minors in w's own grid, and the gamma variables are
  expected to form a Groebner basis already (Knutson-Miller, Ann. Math.
  2005, Thm B).  So the forward direction divides by them as they are, and
  runs Buchberger on them only when they leave a minor a nonzero
  remainder.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Iterable, Iterator, Optional

from .perm import (Cell, PartialPermutation, all_permutations, coxeter_length,
                   delete_row_col, diagram)
from .poly import Polynomial, PolyRing, buchberger, minor, normal_forms
from .detideal import (GroebnerReport, MonomialIdeal, fulton_generators,
                       is_nonzerodivisor_on_monomial_quotient, monomial_quotient_membership,
                       verify_groebner)


def find_pivot(w: PartialPermutation) -> Optional[Cell]:
    """The pivot cell (i0, w(i0)) for the smallest i0 with a positive-rank
    essential cell strictly southeast of it; None iff every essential cell
    has rank 0 (the coordinate ring is then a polynomial ring).

    Read from the word: i0 is the least i that starts a 132 pattern, found
    by scanning the entries after i that exceed w(i) for the first one
    below the largest of those before it.  A positive-rank cell (p, q)
    counts an entry of w in the upper-left p x q corner, and as a diagram
    cell it shares no row or column with one, so that entry lies strictly
    northwest of it.  Such a cell strictly southeast of (i, w(i)) gives the
    occurrence (i, p, w^-1(q)) of 132: w(p) > q > w(i) as (p, q) is a
    diagram cell, and w^-1(q) > p.  Conversely an occurrence (i, j, k)
    makes (j, w(k)) a diagram cell, of positive rank as it counts (i, w(i)),
    and strictly southeast of (i, w(i)); ranks are constant on a connected
    component of the diagram (Fulton, Duke Math. J. 1992), so an essential
    cell of that rank lies weakly southeast of it.  A partial permutation
    is refused by ``one_line`` before any scan.

    >>> find_pivot(PartialPermutation.from_one_line("35142"))
    Cell(p=1, q=3)
    """
    word = w.one_line()
    for i, a in enumerate(word, start=1):
        top = a  # the largest of w(i) and the entries after it passed so far
        for b in word[i:]:
            if b <= a:
                continue
            if b < top:
                return Cell(i, a)
            top = b
    return None


def verify_pivot_window(setup: LocalizationSetup) -> bool:
    """The window fact at the pivot: every cell strictly northwest-or-beside
    the pivot belongs to the diagram, and every diagram cell in rows <= i0
    has rank 0.  No entry of w is a diagram cell, so the first scan also
    shows that the pivot is the only nonzero entry of the upper-left
    i0 x w(i0) window of w.

    The check reads the diagram that ``verify_groebner`` computed for the
    setup's essential set: w keeps its diagram (``perm.diagram``), so no
    second one is built.  It stays independent of the word scan of
    ``find_pivot`` that found the pivot, since the diagram is built from
    w's ranks and never from that scan."""
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


def _pivot_minor_count(n: int, pivot: Cell) -> int:
    """How many sites ``_pivot_minor_sites`` gives: a site with the pivot's
    row at position k of its rows takes k rows above it and k columns right
    of it, and some j rows below it and j columns left of it, with k and j
    free.  So the count is the product of sum_k C(p0 - 1, k) C(n - q0, k)
    and sum_j C(n - p0, j) C(q0 - 1, j), each a Vandermonde sum
    sum_k C(a, k) C(b, k) = C(a + b, a)."""
    p0, q0 = pivot
    return comb(n - p0 + q0 - 1, q0 - 1) * comb(n - q0 + p0 - 1, p0 - 1)


@dataclass(frozen=True)
class MinorMembershipReport:
    ok: bool
    checked: int
    failures: tuple  # (rows, cols) of minors outside <c> + J_w


def verify_pivot_minors(setup: LocalizationSetup) -> MinorMembershipReport:
    """Every minor of the full generic matrix whose antidiagonal term is
    divisible by the pivot variable must lie in the monomial ideal
    <c> + J_w, J_w the setup's ``groebner.antidiagonal``, which must be
    squarefree, as an antidiagonal ideal is.  ``checked`` counts those
    minors by a product of two binomials (``_pivot_minor_count``), without
    listing them.

    Most of them need no expansion.  Let the site (R, C) hold the pivot
    (p0, q0) at row position k of its antidiagonal: R has k + 1 rows at or
    above p0, and C only k columns right of q0.  So every bijection of R
    onto C either sends p0 to q0, giving a term divisible by c, or sends
    some row r <= p0 to a column j <= q0 with (r, j) != (p0, q0), a cell of
    the pivot's window.  A minor can thus leave <c> + J_w only if its rows
    and columns meet a window cell whose variable is not a generator of
    J_w, a missing cell; the window fact makes every window cell but the
    pivot a rank-0 diagram cell, whose variable generates J_w, so for w's
    own J_w there is none and no minor is expanded.

    The minors that meet a missing cell are expanded by ``minor`` and
    tested by ``monomial_quotient_membership``: a polynomial lies in a
    monomial ideal iff each of its terms does.  The failures come in the
    order of ``_pivot_minor_sites``."""
    antidiagonal = setup.groebner.antidiagonal
    if not antidiagonal.is_squarefree():
        raise ValueError("lemma 1 requires a squarefree J_w, as an antidiagonal ideal is")
    n, pivot, ring = setup.w.size, setup.c_cell, setup.ring
    gens = set(antidiagonal.gens)
    missing = [(r, j) for r in range(1, pivot.p + 1) for j in range(1, pivot.q + 1)
               if (r, j) != pivot and ring.monomial({(r, j): 1}) not in gens]
    failures = ()
    if missing:
        ideal = (ring.monomial({pivot: 1}),) + antidiagonal.gens
        failures = tuple((rows, cols) for rows, cols in _pivot_minor_sites(n, pivot)
                         if any(r in rows and j in cols for r, j in missing)
                         and not monomial_quotient_membership(minor(ring, rows, cols), ideal))
    return MinorMembershipReport(not failures, _pivot_minor_count(n, pivot), failures)


@dataclass(frozen=True)
class InitialIdealReport:
    ok: bool
    contains_expected: bool  # in(<c> + I_w) >= <c> + J_w, the easy containment
    lead: MonomialIdeal
    expected: MonomialIdeal


def verify_pivot_initial_ideal(setup: LocalizationSetup) -> InitialIdealReport:
    """Check in(<c> + I_w) = <c> + J_w from the reduced Groebner basis B of
    I_w.  When the pivot variable c divides no lead of B, that is, when c is
    a nonzerodivisor modulo their ideal ``groebner.gb_leading``
    (``is_nonzerodivisor_on_monomial_quotient``; the leads of a reduced
    basis are the minimal generators of that ideal), as for every w (the
    leads of B generate J_w by Knutson-Miller, Ann. Math. 2005, Thm B, and
    c is a nonzerodivisor modulo J_w by lemma 3), every S-pair of c and B
    has coprime leads and so reduces to zero by Buchberger's first
    criterion (Cox-Little-O'Shea, Ideals, Varieties, and Algorithms, ch. 2
    section 9), and every S-pair inside B already does.  So c and B form a
    Groebner basis, read without forming any S-polynomial; otherwise
    ``buchberger`` computes one."""
    ring, pivot, groebner = setup.ring, setup.c_cell, setup.groebner
    c = ring.monomial({pivot: 1})
    basis = (ring.variable(*pivot),) + groebner.basis
    if not is_nonzerodivisor_on_monomial_quotient(c, groebner.gb_leading):
        basis = buchberger(basis)
    lead = MonomialIdeal(ring, (g.leading_monomial() for g in basis))
    expected = MonomialIdeal(ring, (c,) + groebner.antidiagonal.gens)
    ok = lead == expected
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
    """What every pivot check shares: ``w``, its pivot ``c_cell``, the
    ``ring`` and ``groebner``, ``verify_groebner``'s report on w in that
    ring.  The report holds the Fulton generators of w with their sites
    (``groebner.schubert``), their reduced Groebner basis
    (``groebner.basis``) and the antidiagonal ideal J_w
    (``groebner.antidiagonal``), which lemma 1, lemma 2 and the
    nonzerodivisor check read.  The ideal I' of w' (w with the pivot's row
    and column deleted) is built by ``primed_ideal``, for the identity
    check alone."""

    w: PartialPermutation
    c_cell: Cell
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
    """Find the pivot of w and run ``verify_groebner`` on w.  Raises
    ``NoPivotError`` when ``w`` has no pivot, so a caller that skips such a
    w need not look the pivot up first."""
    pivot = find_pivot(w)
    if pivot is None:
        raise NoPivotError("no pivot: the defining ideal is generated by variables")
    groebner = verify_groebner(w, ring)
    return LocalizationSetup(w=w, c_cell=pivot, ring=groebner.schubert.ring, groebner=groebner)


def primed_ideal(setup: LocalizationSetup) -> tuple[tuple, tuple, tuple, tuple]:
    """(generator_sites, w_prime_generators, cleared_generators,
    gamma_generators): the ideal I' at the setup's pivot, in its ring, of
    w' = ``delete_row_col(setup.w, *setup.c_cell)``.

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
                  for rows, cols in fulton_generators(delete_row_col(setup.w, p0, q0), ring).sites)
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


def verify_localization_identity(setup: LocalizationSetup) -> LocalizationReport:
    """Verify that inverting the pivot c identifies the extended ideal of I_w
    with I', by normal forms against plain Groebner bases.

    Precondition: c divides no lead of the reduced Groebner basis of I_w,
    ``setup.groebner.basis``, that is, c is a nonzerodivisor modulo their
    ideal ``setup.groebner.gb_leading``, whose minimal generators they are
    (``is_nonzerodivisor_on_monomial_quotient``); a ValueError is raised
    otherwise, and no verdict is returned.  Then c is a nonzerodivisor
    modulo I_w: if c*f lies in I_w with f a nonzero normal form, some lead
    divides c*lm(f), hence divides lm(f), which is impossible.  So
    I_w : c^infinity = I_w.  The precondition holds for every
    permutation: those leads generate J_w (Knutson-Miller, Groebner geometry
    of Schubert polynomials, Ann. Math. 2005, Thm B), which is what
    ``setup.groebner.match`` records for w, and c divides no minimal
    generator of the monomial ideal J_w, since it is a nonzerodivisor
    modulo J_w (lemma 3).

    Backward, I' in I_w : c^infinity: by the precondition that basis is one
    of I_w : c^infinity, and each generator of I' needs one normal form
    against it.

    Forward, I_w in I' : c^infinity: in the primed coordinates I' is
    I_{w'} + <gamma>.  The generators of w' are the minors on their sites
    in w's labels, and so off the pivot's row and column; the relabelling
    keeps the order of the rows and of the columns, and so the term order.
    The essential minors of w' form a Groebner basis of I_{w'}
    (Knutson-Miller, Thm B), and so did the minimal ones that
    ``fulton_generators`` keeps on every w' met so far.  With the gamma
    variables, whose leads are coprime to theirs, they then form one of
    I'.  c occurs in neither, so it is a
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

    They are divided by the generators of w' and the gamma variables as
    they are: a zero remainder puts a minor in I' whatever the divisors,
    and when those form a Groebner basis every remainder of a minor in I'
    is zero, so no Buchberger run is needed for w'.  The report does not
    rest on that: a minor left with a nonzero remainder is divided again
    by ``buchberger``'s basis of the generators of w' and the gamma
    variables, and only a nonzero remainder there makes g a failure.

    I' is built once, from w', by ``primed_ideal``.  The backward
    direction reads its cleared and gamma generators, and the forward
    direction reads the generators of w' and the gamma variables, reducing
    the minors that the Fulton generators of w and their sites in
    ``groebner.schubert`` give.  The identity holds for I' as the cleared
    generators present it because ``primed_ideal`` clears exactly the
    generators of w' that it returns; cleared generators that miss some of
    them still pass the backward direction, and the forward direction does
    not look at them.
    """
    ring, basis, schubert = setup.ring, setup.groebner.basis, setup.groebner.schubert
    if not is_nonzerodivisor_on_monomial_quotient(ring.monomial({setup.c_cell: 1}),
                                                  setup.groebner.gb_leading):
        raise ValueError("the pivot divides a leading monomial of the basis of I_w, "
                         "so it is not known to be a nonzerodivisor modulo I_w")
    _, w_prime_generators, cleared, gamma = primed_ideal(setup)
    prime_gens = cleared + gamma
    *remainders, unit = normal_forms(prime_gens + (ring.const(1),), basis)
    backward = tuple(g for g, r in zip(prime_gens, remainders) if r)
    proper = bool(unit)
    rewritten = [_primed_minor(g, rows, cols, setup.c_cell)
                 for g, (rows, cols) in zip(schubert.generators, schubert.sites)]
    pending = [k for k, r in enumerate(normal_forms(rewritten, w_prime_generators + gamma)) if r]
    if pending:
        again = normal_forms([rewritten[k] for k in pending], buchberger(w_prime_generators + gamma))
        pending = [k for k, r in zip(pending, again) if r]
    forward = tuple(schubert.generators[k] for k in pending)
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
        """True when w was skipped or every check that ran held; a check
        that ``verify_all`` was not asked to run leaves its field None and
        does not count."""
        values = [getattr(self, field) for field in PIVOT_CHECKS]
        return self.skipped or all(v is None or v for v in values)

    def to_json(self) -> dict:
        return {
            "w": self.w.to_json(),
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
    the others None; skipped when ``w`` has no pivot.  A name that is not a
    field raises a ValueError that lists every such name before any setup
    is built (a string is read as the names of its characters)."""
    checks = tuple(checks)
    unknown = [name for name in dict.fromkeys(checks) if name not in PIVOT_CHECKS]
    if unknown:
        raise ValueError(f"unknown pivot checks: {', '.join(map(repr, unknown))}")
    try:
        setup = build_localization(w)
    except NoPivotError:
        return VerificationSummary(w=w, pivot=None, skipped=True)
    return VerificationSummary(w=w, pivot=setup.c_cell, skipped=False, **{
        field: PIVOT_CHECKS[field](setup) for field in checks})


def localization_sample() -> tuple:
    """The documented localization sample: every w in S_5 admitting a pivot
    whose Coxeter length is at most 6 (it includes 35142).  Deterministic
    lexicographic order."""
    sample = []
    for w in all_permutations(5):
        if coxeter_length(w) <= 6 and find_pivot(w) is not None:
            sample.append(w)
    return tuple(sample)
