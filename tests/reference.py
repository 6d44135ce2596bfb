"""Helpers that only the test suite uses: direct checks and small
re-derivations that the package itself has no call for.

``is_reduced_groebner_basis`` runs the certification contract on a given
list, ``reference_buchberger`` is the textbook Buchberger algorithm that
the engine is checked against and ``division_scanning_every_reducer`` its
division, ``division_by_the_stated_rule`` is the division rule that
``normal_form``'s docstring states, for any reducers,
``division_steps_by_max`` lists that rule's reduction steps, taking each
term by ``max`` over the dividend's term dict, ``reference_minor`` is
Leibniz's sum for a minor of the generic matrix, ``colon_by_variable``
forms (J : c) for a monomial ideal J and a variable c, ``column_row``
inverts a partial permutation at one column, and ``zero_cells`` lists the
rank-0 cells of a diagram.  ``_parse_polynomial`` is the recursive-descent
parser that ``PolyRing.parse`` replaced,
``pivot_minor_report_on_supports`` decides lemma 1 by a search on
frozensets of variable keys, ``pivot_window_three_scans`` is the window
fact with its scan of w's entries, ``pivot_from_essential_set`` finds the
pivot from the essential set as ``find_pivot`` did before it scanned the
word, ``extend_by_column_search`` extends a partial permutation by
searching each row's smallest unused column, and ``reference_classify`` is
the complete intersection recursion with a fresh diagram per block, and
``graded_selection_per_degree`` is graded Nakayama with a fresh
``buchberger`` of the kept lower-degree generators in each degree; each
is kept as the reference that its replacement is checked against.
``schubert_polynomials`` computes the Schubert polynomials of S_n by
``divided_difference``, and the Grothendieck polynomials by its isobaric
form ``isobaric_divided_difference``; ``raj`` is the sum of the Rajchgot
code, their degree.
"""
import itertools
import re
from fractions import Fraction
from typing import Optional, Sequence

from msvkit.ci import CertificateNode, CIReport, Witness
from msvkit.detideal import MonomialIdeal
from msvkit.perm import Cell, PartialPermutation, diagram, essential_set
from msvkit.poly import (GroebnerCertificationError, Monomial, Polynomial, PolyRing,
                         _certify_basis, buchberger, independent, monomial_divides,
                         monomial_lcm, monomial_mul, monomial_quotient, normal_forms)


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


def division_scanning_every_reducer(f: Polynomial, reducers: Sequence[Polynomial]) -> Polynomial:
    """The remainder of f by monic ``reducers``: the largest term left is
    reduced by the reducer with the smallest lead that divides it, every
    reducer scanned, variables included."""
    ring = f.ring
    reducers = sorted(reducers, key=lambda g: g.leading_monomial())
    assert all(dict(g.terms())[g.leading_monomial()] == 1 for g in reducers)
    remainder = ring.const(0)
    while f:
        m, c = f.terms()[0]
        for g in reducers:
            lm = g.leading_monomial()
            if monomial_divides(lm, m):
                f = f - g.mul_term(monomial_quotient(m, lm), c)
                break
        else:
            term = ring.polynomial({m: c})
            remainder, f = remainder + term, f - term
    return remainder


def division_by_the_stated_rule(f: Polynomial, reducers: Sequence[Polynomial]) -> Polynomial:
    """The remainder of f by nonzero ``reducers``, which need not be monic
    or a Groebner basis, by the rule ``poly.normal_form`` states, followed
    literally: the largest term left is dropped when a reducer that is a
    single variable times a unit divides it; otherwise the reducer with the
    smallest lead dividing it, the first in input order among equal leads,
    cancels it; a term that no lead divides moves to the remainder."""
    ring = f.ring
    variables = [g.leading_monomial() for g in reducers
                 if len(g) == 1 and ring.monomial_degree(g.leading_monomial()) == 1]
    remainder = ring.const(0)
    while f:
        m, c = f.terms()[0]
        term = ring.polynomial({m: c})
        dividing = [g for g in reducers if monomial_divides(g.leading_monomial(), m)]
        if any(monomial_divides(v, m) for v in variables):
            f = f - term
        elif dividing:
            g = min(dividing, key=lambda g: g.leading_monomial()).monic()
            f = f - g.mul_term(monomial_quotient(m, g.leading_monomial()), c)
        else:
            remainder, f = remainder + term, f - term
    return remainder


def division_steps_by_max(f: Polynomial, reducers: Sequence[Polynomial]) -> list:
    """The reduction steps of f by nonzero ``reducers`` under the rule of
    ``division_by_the_stated_rule``, each as (the reducer's terms as a dict,
    the shift u, the multiplier a) for the step p += a * x^u * reducer, with
    a normalized by the field's ``coeff``.  The term each step acts on is
    ``max`` of the dividend's term dict, taken again after every step; a
    term that a variable times a unit divides is dropped, and one that no
    lead divides moves out, without a step."""
    ring, field = f.ring, f.ring.field
    variables = [g.leading_monomial() for g in reducers
                 if len(g) == 1 and ring.monomial_degree(g.leading_monomial()) == 1]
    p = dict(f.terms())
    steps = []
    while p:
        m = max(p)
        dividing = [g for g in reducers if monomial_divides(g.leading_monomial(), m)]
        if any(monomial_divides(v, m) for v in variables) or not dividing:
            del p[m]
            continue
        g = min(dividing, key=lambda g: g.leading_monomial())
        lm = g.leading_monomial()
        u, a = monomial_quotient(m, lm), field.coeff(-field.div(p[m], dict(g.terms())[lm]))
        steps.append((dict(g.terms()), u, a))
        p = dict((ring.polynomial(p) + g.mul_term(u, a)).terms())
    return steps


def reference_buchberger(generators: Sequence[Polynomial]) -> tuple:
    """The reduced Groebner basis of nonzero ``generators`` by the textbook
    algorithm (Cox-Little-O'Shea, Ideals, Varieties, and Algorithms, ch. 2
    sections 7 and 9): the remainder of every S-pair is added until all
    reduce to zero, with no pair criterion and no variable split; then the
    basis is minimalized and each element replaced by its remainder by the
    others.  Division is ``division_scanning_every_reducer``.  The pair with
    the smallest lcm goes first: the result does not depend on the order,
    but taking the newest pair first can raise lex degrees past the
    exponent bound before the ideal is found to be the unit ideal."""
    basis = [g.monic() for g in generators]
    pairs = list(itertools.combinations(range(len(basis)), 2))

    def lcm(pair):
        return monomial_lcm(*(basis[k].leading_monomial() for k in pair))

    while pairs:
        pair = min(pairs, key=lambda p: (lcm(p), p))
        pairs.remove(pair)
        f, g = (basis[k] for k in pair)
        m = lcm(pair)
        s = (f.mul_term(monomial_quotient(m, f.leading_monomial()))
             - g.mul_term(monomial_quotient(m, g.leading_monomial())))
        r = division_scanning_every_reducer(s, basis)
        if r:
            pairs.extend((k, len(basis)) for k in range(len(basis)))
            basis.append(r.monic())
    minimal: list = []
    for g in sorted(basis, key=lambda g: g.leading_monomial()):
        if not any(monomial_divides(h.leading_monomial(), g.leading_monomial()) for h in minimal):
            minimal.append(g)
    return tuple(division_scanning_every_reducer(g, [h for h in minimal if h is not g])
                 for g in minimal)


def reference_minor(ring: PolyRing, rows: Sequence[int], cols: Sequence[int]) -> Polynomial:
    """The minor of the generic matrix on ``rows`` and ``cols`` by Leibniz's
    formula: the sum over the permutations s of range(t) of the sign of s,
    read from the parity of its inversions, times the product of the
    x[rows[i], cols[s(i)]].  Each term goes through ``ring.polynomial``,
    which reduces its sign into the field and merges equal monomials."""
    terms = []
    for s in itertools.permutations(range(len(cols))):
        inversions = sum(a > b for a, b in itertools.combinations(s, 2))
        monomial = ring.monomial({(i, cols[k]): 1 for i, k in zip(rows, s)})
        terms.append((monomial, (-1) ** inversions))
    return ring.polynomial(terms)


def colon_by_variable(J: MonomialIdeal, c: Monomial) -> MonomialIdeal:
    """The colon ideal (J : c) for a single variable c."""
    if J.ring.monomial_degree(c) != 1:
        raise ValueError("expected a single variable")
    gens = [monomial_quotient(m, c) if monomial_divides(c, m) else m for m in J.gens]
    return MonomialIdeal(J.ring, gens)


def column_row(w: PartialPermutation, j: int) -> Optional[int]:
    """The row whose 1 sits in column ``j`` of w, or None."""
    if not 1 <= j <= w.cols:
        raise ValueError(f"column {j} outside [1, {w.cols}]")
    for i, v in enumerate(w.assignment, start=1):
        if v == j:
            return i
    return None


def zero_cells(d: dict[Cell, int]) -> tuple[Cell, ...]:
    """The cells of rank 0 of a diagram, row-major."""
    return tuple(c for c in sorted(d) if d[c] == 0)


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
                return Fraction(value, int(den)), ring.monomial({})
            return value, ring.monomial({})
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


def pivot_minor_report_on_supports(setup) -> tuple:
    """Lemma 1 (``frlab.verify_pivot_minors``) decided without expanding a
    minor and without the window argument, the independent reference for
    its report: (ok, checked, failures).  Every minor of the n x n generic
    matrix with the pivot on its antidiagonal, by size, rows and columns,
    is searched depth first over the bijections of its rows onto its
    columns, with the chosen variables as a frozenset of their cells, as
    ``PolyRing.grid_support`` names them.  The terms of a generic minor are
    distinct squarefree products with coefficient +-1 and the ideal is
    squarefree, so a minor lies in it iff every bijection picks the support
    of some generator."""
    n, (p0, q0), ring = setup.w.size, setup.c_cell, setup.ring
    gens = (ring.monomial({(p0, q0): 1}),) + setup.groebner.antidiagonal.gens
    key = {(i, j): frozenset({(i, j)}) for i in range(1, n + 1) for j in range(1, n + 1)}
    covering: dict = {}
    for m in gens:
        support = frozenset((i, j) for i, j, _ in ring.grid_support(m))
        for v in support:
            covering.setdefault(v, []).append(support)
    checked = 0
    failures = []
    for t in range(1, n + 1):
        for rows in itertools.combinations(range(1, n + 1), t):
            for cols in itertools.combinations(range(1, n + 1), t):
                if (p0, q0) in zip(rows, reversed(cols)):
                    checked += 1
                    if _escapes(key, covering, rows, cols, 0, frozenset()):
                        failures.append((rows, cols))
    return not failures, checked, tuple(failures)


def _escapes(key: dict, covering: dict, rows: tuple, cols: tuple, k: int,
             support: frozenset) -> bool:
    """Whether some bijection of rows[k:] onto cols, with ``support`` chosen
    so far, gives a term outside the monomial ideal: ``key`` maps a cell to
    its variable's support, and ``covering`` a variable to the supports of
    the generators containing it."""
    if k == len(rows):
        return True
    for idx, j in enumerate(cols):
        v = key[(rows[k], j)]
        grown = support | v
        (var,) = v
        if any(g <= grown for g in covering.get(var, ())):
            continue
        if _escapes(key, covering, rows, cols[:idx] + cols[idx + 1:], k + 1, grown):
            return True
    return False


def pivot_window_three_scans(w: PartialPermutation, pivot: Cell) -> bool:
    """The window fact at ``pivot`` with all three of its scans: every cell
    of the upper-left window but the pivot is a diagram cell, every diagram
    cell in the pivot's rows has rank 0, and no entry of w but the pivot
    lies in the window."""
    p0, q0 = pivot
    d = diagram(w)
    return (all((p, q) == (p0, q0) or (p, q) in d
                for p in range(1, p0 + 1) for q in range(1, q0 + 1))
            and all(rank == 0 for cell, rank in d.items() if cell.p <= p0)
            and all(j is None or j > q0 or (i, j) == (p0, q0)
                    for i, j in enumerate(w.assignment[:p0], start=1)))


def pivot_from_essential_set(w: PartialPermutation) -> Optional[Cell]:
    """The pivot (i0, w(i0)) as ``frlab.find_pivot`` found it from the
    essential set of w: the smallest i0 with a positive-rank essential cell
    strictly southeast of (i0, w(i0)), or None when there is none."""
    positive = [cell for cell, r in essential_set(w) if r > 0]
    return next((Cell(i, w(i)) for i in range(1, w.size + 1)
                 if any(c.p > i and c.q > w(i) for c in positive)), None)


def extend_by_column_search(w: PartialPermutation) -> PartialPermutation:
    """Extend an l x m partial permutation to S_{l+m}: an unassigned row
    i <= l takes the smallest unused column in [m+1, n], and a row i > l
    the smallest unused column overall."""
    n = w.rows + w.cols
    used: set[int] = set()
    word: list[int] = []
    for i in range(1, n + 1):
        if i <= w.rows:
            j = w.assignment[i - 1]
            if j is None:
                j = min(v for v in range(w.cols + 1, n + 1) if v not in used)
        else:
            j = min(v for v in range(1, n + 1) if v not in used)
        used.add(j)
        word.append(j)
    return PartialPermutation(n, n, tuple(word))


def reference_classify(word: tuple[int, ...]) -> CIReport:
    """The report of the permutation ``word`` by the classifier's recursion
    with a fresh diagram per block: at each positive-rank cell the r x r
    block just northwest of it is read from the word, and a block that is a
    permutation matrix is classified from its own diagram."""
    d = diagram(PartialPermutation(len(word), len(word), word))
    nodes = []
    witness = None
    for cell, r in d.items():
        if not r:
            continue
        low = cell.q - r
        block = tuple(v - low + 1 for v in word[cell.p - r - 1:cell.p - 1]
                      if low <= v < cell.q)
        child = reference_classify(block) if len(block) == r else None
        if child is None and witness is None:
            witness = Witness(
                cell, f"the {r}x{r} block on rows {cell.p - r}..{cell.p - 1} and columns "
                f"{cell.q - r}..{cell.q - 1} is not a permutation matrix")
        nodes.append(CertificateNode(cell, r, child))
    return CIReport(w=word, verdict=witness is None, codim=len(d),
                    certificate=tuple(nodes), failure_witness=witness)


def divided_difference(f, i):
    """(f - s_i f) / (x_i - x_{i+1}) for f as {exponent tuple: coefficient},
    with i 0-based."""
    out = {}
    for e, c in f.items():
        a, b, sign = e[i], e[i + 1], 1
        if a < b:
            a, b, sign = b, a, -1
        # (x^a y^b - x^b y^a) / (x - y) = sum of x^(a-1-k) y^(b+k), 0 <= k < a-b
        for k in range(a - b):
            g = e[:i] + (a - 1 - k, b + k) + e[i + 2:]
            out[g] = out.get(g, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def isobaric_divided_difference(f, i):
    """pi_i f = d_i((1 - x_{i+1}) f), for f and i as in
    ``divided_difference``."""
    g = dict(f)
    for e, c in f.items():
        shifted = e[:i + 1] + (e[i + 1] + 1,) + e[i + 2:]
        g[shifted] = g.get(shifted, 0) - c
    return divided_difference(g, i)


def schubert_polynomials(n, operator=divided_difference):
    """The Schubert polynomial of every w in S_n, keyed by one-line tuple, by
    divided differences down from x1^(n-1) x2^(n-2) ... x_(n-1) at the
    longest element: S_(w s_i) = d_i S_w whenever w(i) > w(i+1).  With
    ``isobaric_divided_difference`` as ``operator`` they are the
    Grothendieck polynomials, which start from the same monomial
    (Lascoux-Schutzenberger 1982)."""
    top = tuple(range(n, 0, -1))
    polynomials = {top: {tuple(range(n - 1, -1, -1)): 1}}
    frontier = [top]
    while frontier:
        below = []
        for w in frontier:
            for i in range(n - 1):
                v = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
                if w[i] > w[i + 1] and v not in polynomials:
                    polynomials[v] = operator(polynomials[w], i)
                    below.append(v)
        frontier = below
    return polynomials


def graded_selection_per_degree(ring: PolyRing, gens: Sequence[Polynomial]) -> tuple:
    """(kept indices, their number) of graded Nakayama on homogeneous
    ``gens``, as ``detideal.graded_minimal_generators`` selected them before
    it carried one degree-truncated basis: the non-variable generators are
    reduced by the variable ones once, and in each degree d the reduced
    kept generators of lower degree get a fresh reduced basis from
    ``buchberger``, against which the degree-d generators (as they are in
    degree 1, where J holds no variable) are reduced before ``independent``
    ranks them."""
    degrees = [g.homogeneous_degree() for g in gens]
    is_variable = [degrees[idx] == 1 and len(g) == 1 for idx, g in enumerate(gens)]
    others = [idx for idx in range(len(gens)) if not is_variable[idx]]
    reduced = dict(zip(others, normal_forms(
        [gens[idx] for idx in others],
        [g for idx, g in enumerate(gens) if is_variable[idx]])))
    kept: list = []
    for d in sorted(set(degrees)):
        lower = [reduced[idx] for idx in kept if reduced.get(idx)]
        basis = buchberger(lower) if lower else ()
        indices = [idx for idx in range(len(gens)) if degrees[idx] == d]
        rows = [gens[idx] if d == 1 else reduced[idx] for idx in indices]
        kept += [indices[k] for k in independent(normal_forms(rows, basis))]
    return tuple(kept), len(kept)


def raj(word: Sequence[int]) -> int:
    """The sum over k of n - k + 1 - L_k, where L_k is the length of the
    longest increasing subsequence of w(k), ..., w(n) that begins with w(k):
    the entries after w(k) that such a subsequence leaves out.  It is the
    degree of the Grothendieck polynomial of w (Pechenik-Speyer-Weigandt,
    2021), built from the right by L_k = 1 + max L_j over j > k with
    w(j) > w(k)."""
    n = len(word)
    longest = [0] * n
    for k in reversed(range(n)):
        longest[k] = 1 + max((longest[j] for j in range(k + 1, n) if word[j] > word[k]),
                             default=0)
    return sum(n - k - L for k, L in enumerate(longest))
