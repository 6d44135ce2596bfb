"""Pivot localization: the pivot choice, the window fact, minor membership,
the initial-ideal identity, the nonzerodivisor fact and the localization
identity I = I', all centered on the worked 35142 example plus exhaustive
small sweeps."""

import copy
import dataclasses
import functools
import gc
import hashlib
import itertools
import json
import pickle
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import msvkit.detideal as detideal
import msvkit.frlab as frlab
import msvkit.perm as perm
import msvkit.poly as poly
from msvkit.ci import is_complete_intersection
from msvkit.perm import (Cell, PartialPermutation, all_permutations, coxeter_length,
                         delete_row_col)
from msvkit.poly import (PolyRing, antidiagonal_monomial, minor, monomial_divides,
                         normal_form, saturate, transplant)
from msvkit.detideal import (MonomialIdeal, antidiagonal_ideal, fulton_generators,
                             monomial_quotient_membership, verify_groebner)
from msvkit.frlab import (NoPivotError, build_localization, find_pivot, localization_sample,
                          primed_ideal, verify_all, verify_localization_identity,
                          verify_pivot_initial_ideal, verify_pivot_minors,
                          verify_pivot_nonzerodivisor, verify_pivot_window)
from reference import (pivot_from_essential_set, pivot_minor_report_on_supports,
                       pivot_window_three_scans)
from substitution_oracle import pivot_substitution, strip_pivot_factor


def w_(word):
    return PartialPermutation.from_one_line(word)


def nonregular(n):
    return [w for w in all_permutations(n) if find_pivot(w) is not None]


def with_antidiagonal(setup, J):
    """The setup with J in place of its antidiagonal ideal J_w."""
    return dataclasses.replace(
        setup, groebner=dataclasses.replace(setup.groebner, antidiagonal=J))


@functools.cache
def setup_(w):
    """The localization setup of w (a permutation or its one-line word) over
    Q; setups are frozen, so the tests share them."""
    return build_localization(w_(w) if isinstance(w, str) else w)


# ---------------------------------------------------------------------------
# Pivot choice and window
# ---------------------------------------------------------------------------

def test_find_pivot_goldens():
    assert find_pivot(w_("35142")) == Cell(1, 3)
    assert find_pivot(w_("2143")) == Cell(1, 2)
    assert find_pivot(PartialPermutation.from_one_line(range(1, 6))) is None
    assert find_pivot(w_(range(5, 0, -1))) is None


def test_pivot_exists_exactly_when_some_essential_cell_has_positive_rank():
    from msvkit.perm import essential_set
    for w in all_permutations(4):
        has_positive = any(r > 0 for _, r in essential_set(w))
        assert (find_pivot(w) is not None) == has_positive


def test_pivot_is_missing_exactly_when_w_avoids_132_on_s1_to_s7():
    # the base case of the induction over pivots: the pivot-free w are the
    # 132-avoiding ones, counted by the Catalan numbers
    pivot_free = 0
    for n in range(1, 8):
        for w in all_permutations(n):
            avoids = not any(a < c < b for a, b, c in itertools.combinations(w.one_line(), 3))
            assert (find_pivot(w) is None) == avoids, w.one_line()
            pivot_free += avoids
    assert pivot_free == 1 + 2 + 5 + 14 + 42 + 132 + 429 == 625


def test_the_word_scan_finds_the_pivot_of_the_essential_set_definition():
    # the least i that starts a 132 pattern is the least i with a
    # positive-rank essential cell strictly southeast of (i, w(i))
    for n in range(1, 8):
        for w in all_permutations(n):
            assert find_pivot(w) == pivot_from_essential_set(w), w.one_line()
    rng = random.Random(20261020)
    for _ in range(2000):
        w = w_(rng.sample(range(1, 9), 8))
        assert find_pivot(w) == pivot_from_essential_set(w), w.one_line()


def test_find_pivot_refuses_a_partial_permutation():
    with pytest.raises(ValueError, match="not a full permutation"):
        find_pivot(PartialPermutation(2, 3, (3, None)))


def test_pivot_window_35142():
    assert verify_pivot_window(setup_("35142"))


def test_pivot_window_exhaustive_s4():
    for w in nonregular(4):
        assert verify_pivot_window(setup_(w)), w.one_line()


def test_pivot_window_fails_off_the_pivot():
    setup = setup_("35142")
    # the window of (1,4) holds the entry (1,3)
    assert not verify_pivot_window(dataclasses.replace(setup, c_cell=Cell(1, 4)))
    # the diagram cell (2,4) in the rows of (2,1) has rank 1
    assert not verify_pivot_window(dataclasses.replace(setup, c_cell=Cell(2, 1)))


def test_pivot_window_matches_its_three_scan_definition_on_s4_and_s5():
    # the check reads only w and the pivot of its setup, so any cell of any
    # w stands in for them
    setup = setup_("35142")
    for n in (4, 5):
        for w in all_permutations(n):
            for cell in itertools.starmap(Cell, itertools.product(range(1, n + 1), repeat=2)):
                probe = dataclasses.replace(setup, w=w, c_cell=cell)
                assert verify_pivot_window(probe) == pivot_window_three_scans(w, cell), \
                    (w.one_line(), cell)


def test_pivot_window_requires_a_pivot():
    with pytest.raises(ValueError):
        verify_pivot_window(setup_(PartialPermutation.from_one_line(range(1, 4))))


# ---------------------------------------------------------------------------
# Minor membership in <c> + J_w
# ---------------------------------------------------------------------------

def test_pivot_minors_35142():
    report = verify_pivot_minors(setup_("35142"))
    assert report.ok
    # minors with the pivot x[1,3] on their antidiagonal: the row set must
    # contain 1 (paired with the largest column 3), so columns come from
    # {1,2,3} with 3 included: sizes 1,2,3 give 1 + 4*2 + 6*1 = 15
    assert report.checked == 15
    assert report.failures == ()


def test_pivot_minors_exhaustive_s4():
    for w in nonregular(4):
        assert verify_pivot_minors(setup_(w)).ok, w.one_line()


def test_pivot_minors_checks_exactly_the_minors_whose_antidiagonal_holds_the_pivot():
    for n in (4, 5):
        ring = PolyRing(n, n)
        sites = [(rows, cols) for t in range(1, n + 1)
                 for rows in itertools.combinations(range(1, n + 1), t)
                 for cols in itertools.combinations(range(1, n + 1), t)]
        for w in nonregular(n):
            c = ring.monomial({find_pivot(w): 1})
            expected = sum(monomial_divides(c, antidiagonal_monomial(ring, rows, cols))
                           for rows, cols in sites)
            assert verify_pivot_minors(setup_(w)).checked == expected, w.one_line()


def test_the_minor_count_is_the_number_of_pivot_sites():
    for n in range(1, 9):
        for p, q in itertools.product(range(1, n + 1), repeat=2):
            pivot = Cell(p, q)
            assert frlab._pivot_minor_count(n, pivot) == \
                sum(1 for _ in frlab._pivot_minor_sites(n, pivot)), (n, pivot)


def test_lemma_1_searches_no_minor_when_j_w_holds_the_window(monkeypatch):
    # every window cell but the pivot is a rank-0 diagram cell, whose
    # variable generates J_w, so no site meets a missing cell
    def refuse(*args):
        raise AssertionError("expanded a minor")

    monkeypatch.setattr(frlab, "minor", refuse)
    monkeypatch.setattr(frlab, "monomial_quotient_membership", refuse)
    for n in range(3, 7):
        for w in nonregular(n):
            assert verify_pivot_minors(setup_(w)).ok, w.one_line()


def expanded_minor_report(n, pivot, gens):
    """Lemma 1 the slow way: expand every minor of the n x n generic matrix
    whose antidiagonal monomial the pivot divides and test each term against
    the monomial generators: (ok, checked, failures)."""
    ring = PolyRing(n, n)
    c = ring.monomial({pivot: 1})
    checked = 0
    failures = []
    for t in range(1, n + 1):
        for rows in itertools.combinations(range(1, n + 1), t):
            for cols in itertools.combinations(range(1, n + 1), t):
                if not monomial_divides(c, antidiagonal_monomial(ring, rows, cols)):
                    continue
                checked += 1
                if not monomial_quotient_membership(minor(ring, rows, cols), (c,) + gens):
                    failures.append((rows, cols))
    return not failures, checked, tuple(failures)


def test_pivot_minor_search_agrees_with_the_expansion_oracle():
    s6 = random.Random(20261019).sample(nonregular(6), 60)
    for w in nonregular(4) + nonregular(5) + s6:
        report = verify_pivot_minors(setup_(w))
        J = antidiagonal_ideal(w)
        assert (report.ok, report.checked, report.failures) == \
            expanded_minor_report(w.size, find_pivot(w), J.gens), w.one_line()


def test_pivot_minor_search_and_the_oracle_fail_alike_without_a_generator():
    # dropping each generator of J_w in turn, then all of them; some drops
    # leave minors outside the smaller ideal, and lemma 1, the oracle and
    # the support reference must name the same ones in the same order; the
    # S_6 words bring minors of the 6 x 6 grid into the expanded path (a
    # pivot of S_6 has p0 + q0 <= 5, so its sites are at most 4 x 4)
    s6 = random.Random(20261020).sample(nonregular(6), 10)
    failing = 0
    for w in nonregular(4) + nonregular(5)[::4] + s6:
        setup = setup_(w)
        J = setup.groebner.antidiagonal
        for k in range(len(J.gens) + 1):
            kept = J.gens[:k] + J.gens[k + 1:] if k < len(J.gens) else ()
            smaller = with_antidiagonal(setup, dataclasses.replace(J, gens=kept))
            report = verify_pivot_minors(smaller)
            assert (report.ok, report.checked, report.failures) == \
                expanded_minor_report(w.size, setup.c_cell, kept) == \
                pivot_minor_report_on_supports(smaller), (w.one_line(), k)
            failing += not report.ok
    assert failing > 0


@functools.cache
def pivoted_(n):
    return tuple(nonregular(n))


@st.composite
def squarefree_generator_sets(draw):
    """A pivot-admitting w of S_4 or S_5 and generator sets of 1 to 4
    cells of its grid, none, one or many, so that some leave minors outside
    the ideal they and the pivot generate."""
    n = draw(st.sampled_from([4, 5]))
    cell = st.tuples(st.integers(1, n), st.integers(1, n))
    return (draw(st.sampled_from(pivoted_(n))),
            draw(st.lists(st.sets(cell, min_size=1, max_size=4), max_size=8)))


@settings(max_examples=150, deadline=None)
@example(drawn=(w_("35142"), []))
@example(drawn=(w_("2143"), [{(2, 1)}, {(2, 1), (3, 4)}, {(1, 1), (4, 4)}]))
# J_w of 35142 without its window variable x[1,2]: ten minors fail
@example(drawn=(w_("35142"), [{(2, 1)}, {(2, 2)}, {(1, 1)}, {(3, 2), (4, 1)},
                              {(1, 4), (2, 3)}]))
@given(drawn=squarefree_generator_sets())
def test_pivot_minor_search_agrees_with_the_support_reference(drawn):
    w, cell_sets = drawn
    setup = setup_(w)
    J = setup.groebner.antidiagonal
    # a drawn set may contain another, which the constructor drops
    J = dataclasses.replace(J, gens=tuple(J.ring.monomial(dict.fromkeys(cells, 1))
                                          for cells in cell_sets))
    setup = with_antidiagonal(setup, J)
    report = verify_pivot_minors(setup)
    assert (report.ok, report.checked, report.failures) == pivot_minor_report_on_supports(setup)


def test_pivot_minor_search_requires_a_squarefree_ideal():
    setup = setup_("35142")
    J = setup.groebner.antidiagonal
    square = J.ring.monomial({(2, 1): 2})
    with pytest.raises(ValueError, match="squarefree"):
        verify_pivot_minors(with_antidiagonal(setup, dataclasses.replace(J, gens=(square,))))


def test_pivot_minors_match_the_pinned_s4_to_s6_digest():
    """sha256 of (w, ok, checked, failures) over every pivot-admitting
    permutation of S_4, S_5 and S_6, recorded when lemma 1 expanded each
    minor and tested its terms."""
    golden = json.loads((Path(__file__).parent / "golden" / "pivot_minors_s4_s6.json")
                        .read_text())
    digest = hashlib.sha256()
    count = 0
    for n in golden["n"]:
        for w in nonregular(n):
            report = verify_pivot_minors(setup_(w))
            digest.update(json.dumps([str(w), report.ok, report.checked,
                                      report.failures]).encode() + b"\n")
            count += 1
    assert count == golden["population"]
    assert digest.hexdigest() == golden["sha256"]


def test_pivot_checks_leave_no_reference_cycle():
    # a check that left a cycle would keep its search tables alive until the
    # cyclic collector runs; with the collector off, none may be found
    setup = build_localization(w_("351642"))
    gc.collect()
    gc.disable()
    try:
        for check in frlab.PIVOT_CHECKS.values():
            for _ in range(10):
                check(setup)
            build_localization(w_("351642"))
            assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# Initial ideal of <c> + I_w
# ---------------------------------------------------------------------------

def test_pivot_initial_ideal_35142():
    report = verify_pivot_initial_ideal(setup_("35142"))
    assert report.ok
    assert report.contains_expected


def test_pivot_initial_ideal_exhaustive_s4():
    for w in nonregular(4):
        report = verify_pivot_initial_ideal(setup_(w))
        assert report.contains_expected, w.one_line()
        assert report.ok, w.one_line()


def test_lemma_2_ideals_are_the_minimalized_ones():
    # both ideals must be the minimalized ones, whatever order the leads
    # come in.  c divides no generator of J_w itself (lemma 3), so each w
    # is also checked against J_w with c * x[n,n] adjoined, which the
    # expected ideal must drop.
    sample = nonregular(5) + random.Random(53).sample(nonregular(6), 60)
    for w in sample:
        setup = setup_(w)
        ring = setup.ring
        c = ring.monomial({setup.c_cell: 1})
        basis = poly.buchberger((ring.variable(*setup.c_cell),) + setup.groebner.basis)
        lead = MonomialIdeal(ring, (g.leading_monomial() for g in basis))
        corner = poly.monomial_mul(c, ring.monomial({(w.rows, w.cols): 1}))
        J = setup.groebner.antidiagonal
        for antidiagonal in (J, MonomialIdeal(ring, J.gens + (corner,))):
            report = verify_pivot_initial_ideal(with_antidiagonal(setup, antidiagonal))
            assert report.lead == lead, w.one_line()
            assert report.expected == MonomialIdeal(
                ring, (c,) + antidiagonal.gens), w.one_line()
            assert c in report.expected.gens and corner not in report.expected.gens


@pytest.mark.parametrize("char", [0, 32003])
def test_lemma_2_leads_are_those_of_buchberger_on_the_pivot_and_the_basis(char):
    # c divides no lead of the basis of I_w, so lemma 2 reads the leads off
    # that basis by Buchberger's first criterion; a certified run on c and
    # the basis must give the same leads
    words = nonregular(5)
    assert len(words) == 78
    sample = words + random.Random(53).sample(nonregular(6), 60)
    for w in sample:
        setup = build_localization(w, PolyRing(w.rows, w.cols, char=char))
        ring = setup.ring
        with poly.certified():
            basis = poly.buchberger((ring.variable(*setup.c_cell),) + setup.groebner.basis)
        lead = MonomialIdeal(ring, (g.leading_monomial() for g in basis))
        assert verify_pivot_initial_ideal(setup).lead == lead, w.one_line()


def test_lemma_2_runs_buchberger_when_the_pivot_divides_a_lead():
    # with g = c * x[2,1] + x[2,2] * x[3,1] as the basis of I_w, and its lead
    # c * x[2,1] as their lead ideal, c and g are no Groebner basis: g
    # reduces by c to x[2,2] * x[3,1], a lead that reading the leads of c and
    # g would miss, and Buchberger leaves c and that remainder
    setup = setup_("35142")
    ring = setup.ring
    c = ring.variable(*setup.c_cell)
    tail = ring.parse("x[2,2]*x[3,1]")
    g = c * ring.variable(2, 1) + tail
    doctored = dataclasses.replace(setup, groebner=dataclasses.replace(
        setup.groebner, basis=(g,), gb_leading=MonomialIdeal(ring, (g.leading_monomial(),))))
    assert verify_pivot_initial_ideal(doctored).lead.gens == \
        (c.leading_monomial(), tail.leading_monomial())


def test_lemma_2_reports_the_containment_when_the_ideals_differ():
    # a J_w short of a generator gives a smaller expected ideal, which the
    # leads still contain; one with an extra variable gives a larger one
    setup = setup_("35142")
    J = setup.groebner.antidiagonal
    smaller = verify_pivot_initial_ideal(
        with_antidiagonal(setup, dataclasses.replace(J, gens=J.gens[1:])))
    assert (smaller.ok, smaller.contains_expected) == (False, True)
    larger = verify_pivot_initial_ideal(with_antidiagonal(
        setup, MonomialIdeal(J.ring, J.gens + (J.ring.monomial({(5, 5): 1}),))))
    assert (larger.ok, larger.contains_expected) == (False, False)


@pytest.mark.parametrize("word, restart_pairs", [("35142", 0), ("13542", 12)])
def test_lemma_2_in_verify_all_forms_no_s_pair_when_the_pivot_divides_no_lead(
        monkeypatch, word, restart_pairs):
    w = w_(word)
    setup = setup_(w)
    c = setup.ring.variable(*setup.c_cell)
    assert not any(monomial_divides(c.leading_monomial(), g.leading_monomial())
                   for g in setup.groebner.basis)
    calls = {"lemma2": 0, "other": 0}
    stage = ["other"]
    real_s_polynomial = poly.s_polynomial
    real_check = frlab.PIVOT_CHECKS["initial_ideal_ok"]

    def counting_s_polynomial(f, g):
        calls[stage[0]] += 1
        return real_s_polynomial(f, g)

    def lemma2(*args):
        stage[0] = "lemma2"
        try:
            return real_check(*args)
        finally:
            stage[0] = "other"

    monkeypatch.setattr(poly, "s_polynomial", counting_s_polynomial)
    monkeypatch.setitem(frlab.PIVOT_CHECKS, "initial_ideal_ok", lemma2)
    assert verify_all(w).initial_ideal_ok
    assert calls["lemma2"] == 0
    # restarting Buchberger on c and the basis forms the pairs inside it again
    calls["other"] = 0
    restart = poly.buchberger((c,) + setup.groebner.basis)
    assert calls["other"] == restart_pairs
    assert verify_pivot_initial_ideal(setup).lead == MonomialIdeal(
        setup.ring, (g.leading_monomial() for g in restart))


def test_pivot_nonzerodivisor_35142_and_s5():
    assert verify_pivot_nonzerodivisor(setup_("35142"))
    for w in nonregular(4):
        assert verify_pivot_nonzerodivisor(setup_(w)), w.one_line()


# ---------------------------------------------------------------------------
# Localization setup for the worked example
# ---------------------------------------------------------------------------

def test_build_localization_35142_structure():
    setup = setup_("35142")
    assert setup.c_cell == Cell(1, 3)
    assert delete_row_col(setup.w, *setup.c_cell).one_line() == (4, 1, 3, 2)
    assert frlab._deleted_labels(5, setup.c_cell) == ((2, 3, 4, 5), (1, 2, 4, 5))
    r = setup.ring
    assert primed_ideal(setup)[3] == (r.variable(1, 1), r.variable(1, 2))


def test_build_localization_35142_cleared_generators():
    setup = setup_("35142")
    r = setup.ring
    c = r.variable(1, 3)
    expected = (
        c * r.variable(2, 1) - r.variable(2, 3) * r.variable(1, 1),
        c * r.variable(2, 2) - r.variable(2, 3) * r.variable(1, 2),
        c * r.variable(2, 4) - r.variable(2, 3) * r.variable(1, 4),
        c * minor(r, [3, 4], [1, 2])
        + r.variable(1, 2) * (r.variable(3, 3) * r.variable(4, 1)
                              - r.variable(3, 1) * r.variable(4, 3))
        + r.variable(1, 1) * (r.variable(3, 2) * r.variable(4, 3)
                              - r.variable(3, 3) * r.variable(4, 2)),
    )
    sites, _, cleared, _ = primed_ideal(setup)
    assert cleared == expected
    # the primed labels of the original example: x'[2,1], x'[2,2], x'[2,4]
    # and the primed minor on rows {3,4}, columns {1,2}
    assert sites == (
        ((2,), (1,)), ((2,), (2,)), ((2,), (4,)), ((3, 4), (1, 2)))


def test_cleared_generators_are_not_divisible_by_the_pivot():
    for word in ("35142", "2143", "3142"):
        setup = setup_(word)
        p0, q0 = setup.c_cell
        pivot = setup.ring.monomial({(p0, q0): 1})
        for g in primed_ideal(setup)[2]:
            assert not monomial_quotient_membership(g, [pivot])


def test_cleared_degree_is_at_most_twice_the_original():
    for w in nonregular(4):
        sites, _, cleared, _ = primed_ideal(setup_(w))
        for g, (rows, cols) in zip(cleared, sites):
            assert g.total_degree() <= 2 * len(rows)


def test_cleared_generators_match_the_pinned_s6_digest():
    """sha256 of every cleared generator, sign included, and its site over
    all pivot-admitting S_6, recorded when the generators were cleared by
    the term-by-term substitution."""
    golden = json.loads((Path(__file__).parent / "golden" / "cleared_generators_s6.json")
                        .read_text())
    pivoted = nonregular(6)
    assert len(pivoted) == golden["pivot_admitting_s6"]
    digest = hashlib.sha256()
    for w in pivoted:
        sites, _, cleared, _ = primed_ideal(setup_(w))
        digest.update(str(w).encode() + b"\n")
        for g, site in zip(cleared, sites):
            digest.update(f"{site}\t{g}\n".encode())
    assert digest.hexdigest() == golden["sha256"]


def _oracle_sample():
    """All pivot-admitting S_5 and a seeded sample of 60 pivot-admitting S_6."""
    return nonregular(5) + random.Random(20261118).sample(nonregular(6), 60)


def test_cleared_generators_are_the_substitution_cleared_of_the_pivot():
    """Backward: each cleared generator is the bordered minor, sign
    included, that the term-by-term substitution gives once the pivot power
    is divided out."""
    for w in _oracle_sample():
        setup = setup_(w)
        p0, q0 = setup.c_cell
        images: dict = {}
        _, generators, cleared_generators, _ = primed_ideal(setup)
        for g, cleared in zip(generators, cleared_generators, strict=True):
            substituted = pivot_substitution(g, p0, q0, -1, images)
            assert strip_pivot_factor(substituted, p0, q0) == cleared, w.one_line()


def test_the_generators_of_w_prime_give_the_relabelled_basis_of_its_ideal():
    """The generators of w' are built in w's grid, on the sites relabelled
    off the pivot's row and column; that relabelling keeps the precedence
    of the variables, so their reduced basis is the reduced basis of I_{w'}
    on the grid of w' moved onto those labels."""
    for w in _oracle_sample():
        setup = setup_(w)
        ring, n = setup.ring, w.size
        row_labels, col_labels = frlab._deleted_labels(n, setup.c_cell)
        cell_map = {(i, j): (p, q) for i, p in enumerate(row_labels, 1)
                    for j, q in enumerate(col_labels, 1)}
        small = PolyRing(n - 1, n - 1, ring.char)
        w_prime = delete_row_col(w, *setup.c_cell)
        basis = poly.buchberger(fulton_generators(w_prime, small).generators)
        assert poly.buchberger(primed_ideal(setup)[1]) == \
            tuple(transplant(g, ring, cell_map) for g in basis), w.one_line()


def _pivot_negated(f, pivot):
    """f with the pivot variable c replaced by -c."""
    ring = f.ring
    return ring.polynomial(
        (m, -co if sum(e for i, j, e in ring.grid_support(m) if (i, j) == pivot) % 2 else co)
        for m, co in f.terms())


def test_fulton_generators_in_the_primed_coordinates_are_minors():
    """Forward: c^d g rewritten in the primed coordinates by the term-by-term
    substitution is what Sylvester's identity, as the docstring of
    ``verify_localization_identity`` states it, says, and the polynomial
    that function reduces is the minor on the right, up to sign."""
    cases = set()
    for w in _oracle_sample():
        setup = setup_(w)
        ring, pivot = setup.ring, setup.c_cell
        p0, q0 = pivot
        images: dict = {}
        schubert = setup.groebner.schubert
        for g, (rows, cols) in zip(schubert.generators, schubert.sites, strict=True):
            d = len(rows)
            substituted = pivot_substitution(g, p0, q0, 1, images)
            reduced = frlab._primed_minor(g, rows, cols, pivot)
            has_row, has_col = p0 in rows, q0 in cols
            if has_row != has_col:
                right = g
                assert substituted == g.mul_term(ring.monomial({pivot: d}))
            elif has_row:
                k, l = rows.index(p0), cols.index(q0)
                right = minor(ring, [p for p in rows if p != p0], [q for q in cols if q != q0])
                assert substituted == right.mul_term(ring.monomial({pivot: d + 1}), (-1) ** (k + l))
            else:
                bordered_rows, bordered_cols = sorted(rows + (p0,)), sorted(cols + (q0,))
                k, l = bordered_rows.index(p0), bordered_cols.index(q0)
                right = minor(ring, bordered_rows, bordered_cols)
                assert substituted == _pivot_negated(right, pivot).mul_term(
                    ring.monomial({pivot: d - 1}), (-1) ** (k + l + 1))
            assert reduced in (right, -right), (w.one_line(), rows, cols)
            cases.add((has_row, has_col))
    assert cases == {(False, False), (False, True), (True, False), (True, True)}


def test_the_pipeline_of_w_runs_once_per_setup(monkeypatch):
    """``build_localization`` takes w's Fulton generators, their basis and
    J_w from one ``verify_groebner`` call; the second Fulton call is w', in
    ``primed_ideal``.  The essential set is computed twice: for w's
    generators (J_w reads their cells) and for w'; ``find_pivot`` reads the
    word."""
    calls = {"verify_groebner": 0, "fulton_generators": 0, "essential_set": 0}
    for name in calls:
        real = getattr(perm if name == "essential_set" else detideal, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        for module in (perm, detideal, frlab):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting)
    assert verify_all(w_("351642")).ok
    assert calls == {"verify_groebner": 1, "fulton_generators": 2, "essential_set": 2}


def test_only_the_identity_check_builds_the_ideal_of_w_prime(monkeypatch):
    """The setup expands no minor and takes no Fulton generators of w'
    (``frlab``'s own names; w's come through ``verify_groebner``), so on
    every pivot-admitting S_5 each check but the identity runs without
    either, and the identity takes the generators of w' once.  No check
    runs ``buchberger``: lemma 2 reads the basis of w, and the identity
    divides by the generators of w', a Groebner basis already."""
    calls = {"fulton_generators": 0, "minor": 0, "buchberger": 0}
    for name in calls:
        def counting(*args, _name=name, _real=getattr(frlab, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(frlab, name, counting)
    for w in nonregular(5):
        for check in frlab.PIVOT_CHECKS:
            calls.update(dict.fromkeys(calls, 0))
            assert getattr(verify_all(w, [check]), check), (w.one_line(), check)
            if check == "localization_ok":
                assert (calls["fulton_generators"], calls["buchberger"]) == (1, 0), w.one_line()
            else:
                assert calls == dict.fromkeys(calls, 0), (w.one_line(), check)


def test_the_setup_holds_the_groebner_report_of_w():
    for w in nonregular(4):
        assert build_localization(w).groebner == verify_groebner(w), w.one_line()


def test_results_that_hold_w_survive_pickle_and_deepcopy_after_its_diagram_is_built():
    # a process pool hands results back pickled; the diagram w keeps is a
    # read-only mapping, which pickle refuses, so w travels as its fields
    # and a copy builds its own diagram when it is asked for
    w = w_("35142")
    perm.essential_set(w)
    is_complete_intersection(w)
    results = [verify_groebner(w_("35142")), build_localization(w_("35142")),
               verify_all(w_("35142"))]
    for value in [w] + results:
        held = value if value is w else value.w
        assert held.kept_diagram is not None
        for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert copied == value
            copied_w = copied if value is w else copied.w
            assert copied_w.kept_diagram is None
            assert perm.diagram(copied_w) == perm.diagram(held)


def test_build_localization_requires_a_pivot():
    with pytest.raises(ValueError):
        build_localization(w_(range(4, 0, -1)))


# ---------------------------------------------------------------------------
# The identity I = I'
# ---------------------------------------------------------------------------

def test_localization_identity_35142():
    report = verify_localization_identity(setup_("35142"))
    assert report.ok
    assert report.proper
    assert report.forward_failures == ()
    assert report.backward_failures == ()


def test_primed_generator_differences_reduce_into_the_gamma_ideal():
    """The four denominator-cleared differences between original and primed
    generators all lie in the monomial ideal of the early-Gamma variables
    <x[1,1], x[1,2]> (the third one is identically zero)."""
    setup = setup_("35142")
    r = setup.ring
    c = r.variable(1, 3)
    cl = primed_ideal(setup)[2]
    diffs = (
        c * r.variable(2, 1) - cl[0],
        c * r.variable(2, 2) - cl[1],
        minor(r, [1, 2], [3, 4]) - cl[2],
        c * minor(r, [3, 4], [1, 2]) - cl[3],
    )
    assert not diffs[2]
    gamma = [r.monomial({(1, 1): 1}), r.monomial({(1, 2): 1})]
    for d in diffs:
        assert monomial_quotient_membership(d, gamma)


def test_localization_identity_exhaustive_s4():
    for w in nonregular(4):
        report = verify_localization_identity(setup_(w))
        assert report.ok and report.proper, w.one_line()


def saturation_oracle(w, setup):
    """The identity decided the slow way, by saturating both sides at c:
    (ok, proper, forward_failures, backward_failures).  I' is read through
    the module, so a patched ``frlab.primed_ideal`` is the one read."""
    ring = setup.ring
    c = ring.variable(*setup.c_cell)
    fulton = fulton_generators(w, ring).generators
    _, _, cleared, gamma = frlab.primed_ideal(setup)
    prime_gens = cleared + gamma
    sat_w = saturate(fulton, c)
    sat_prime = saturate(prime_gens, c)
    forward = tuple(g for g in fulton if normal_form(g, sat_prime))
    backward = tuple(g for g in prime_gens if normal_form(g, sat_w))
    proper = bool(normal_form(ring.const(1), sat_w))
    return not forward and not backward, proper, forward, backward


def outcome(report):
    return report.ok, report.proper, report.forward_failures, report.backward_failures


def test_normal_form_identity_agrees_with_the_saturation_oracle():
    s6 = random.Random(20261018).sample(nonregular(6), 40)
    for w in nonregular(5) + s6:
        setup = setup_(w)
        assert outcome(verify_localization_identity(setup)) == \
            saturation_oracle(w, setup), w.one_line()


def test_identity_refuses_a_basis_whose_leads_the_pivot_divides():
    setup = setup_("35142")
    ring = setup.ring
    lead = (ring.variable(*setup.c_cell) * ring.variable(2, 1)).leading_monomial()
    doctored = dataclasses.replace(setup, groebner=dataclasses.replace(
        setup.groebner, gb_leading=MonomialIdeal(ring, (lead,))))
    with pytest.raises(ValueError, match="nonzerodivisor"):
        verify_localization_identity(doctored)


def test_no_saturation_when_the_pivot_divides_no_lead():
    assert not hasattr(frlab, "saturate")
    assert verify_localization_identity(setup_("35142")).ok


def with_cleared(monkeypatch, setup, cleared):
    """Patch ``frlab.primed_ideal`` to give ``cleared`` as the cleared
    generators of ``setup``, and its other parts unchanged."""
    sites, generators, _, gamma = primed_ideal(setup)

    def patched(seen):
        assert seen is setup
        return sites, generators, cleared, gamma

    monkeypatch.setattr(frlab, "primed_ideal", patched)


def test_a_cleared_generator_outside_the_ideal_is_a_backward_failure(monkeypatch):
    w = w_("35142")
    setup = setup_(w)
    cleared = primed_ideal(setup)[2]
    bad = cleared[0] + setup.ring.variable(5, 5)
    with_cleared(monkeypatch, setup, (bad,) + cleared[1:])
    report = verify_localization_identity(setup)
    assert not report.ok
    assert report.backward_failures == (bad,)
    assert report.forward_failures == ()
    # the oracle reads I' from the cleared generators in both directions, so
    # only the directions that use them here are comparable
    _, proper, _, backward = saturation_oracle(w, setup)
    assert (report.proper, report.backward_failures) == (proper, backward)


def test_a_wrong_deleted_permutation_is_a_forward_failure(monkeypatch):
    # I_3142 misses a generator of I_4132, the true w' of 35142, so I_w is
    # not in the wrong I' after inverting c
    setup = setup_("35142")
    monkeypatch.setattr(frlab, "delete_row_col", lambda w, p0, q0: w_("3142"))
    report = verify_localization_identity(setup)
    assert not report.ok
    assert len(report.forward_failures) == 1
    assert report.backward_failures == ()


def test_a_first_remainder_that_is_not_zero_is_divided_again(monkeypatch):
    """The forward direction divides by the generators of w' as they are; a
    minor that they leave a remainder is divided again by ``buchberger``'s
    basis.  With one first-pass remainder forced nonzero, on every
    pivot-admitting S_5, the report is unchanged and ``buchberger`` ran."""
    real_normal_forms, real_buchberger = frlab.normal_forms, frlab.buchberger
    for w in nonregular(5):
        setup = setup_(w)
        expected = verify_localization_identity(setup)
        forced, bases = [], []

        def forcing(fs, reducers):
            remainders = real_normal_forms(fs, reducers)
            # the backward direction divides by the basis of w itself
            if reducers is not setup.groebner.basis and not forced:
                forced.append(fs[0])
                return (fs[0],) + remainders[1:]
            return remainders

        def counting(generators):
            bases.append(generators)
            return real_buchberger(generators)

        monkeypatch.setattr(frlab, "normal_forms", forcing)
        monkeypatch.setattr(frlab, "buchberger", counting)
        assert verify_localization_identity(setup) == expected, w.one_line()
        assert len(forced) == 1 and forced[0] and len(bases) == 1, w.one_line()
        monkeypatch.undo()


def test_a_dropped_cleared_generator_goes_unnoticed(monkeypatch):
    # the forward direction reads I' from the generators of w', so cleared
    # generators that miss one pass both directions; the saturating oracle,
    # which reads I' from the cleared generators, sees it
    w = w_("35142")
    setup = setup_(w)
    with_cleared(monkeypatch, setup, primed_ideal(setup)[2][1:])
    report = verify_localization_identity(setup)
    assert (report.ok, report.forward_failures, report.backward_failures) == (True, (), ())
    ok, _, forward, backward = saturation_oracle(w, setup)
    assert not ok and forward and not backward


@pytest.mark.parametrize("char", [2, 32003])
def test_identity_over_a_prime_field_agrees_with_the_saturation_oracle(char):
    for w in [w_("35142")] + nonregular(5):
        setup = build_localization(w, PolyRing(5, 5, char=char))
        assert all(g.ring == setup.ring for g in primed_ideal(setup)[1])
        report = verify_localization_identity(setup)
        assert report.ok and report.proper, w.one_line()
        assert outcome(report) == saturation_oracle(w, setup), w.one_line()


def test_every_pivot_check_holds_over_prime_fields():
    """All five checks over F_2, F_3 and F_32003 on every pivot-admitting
    S_5; lemma 1 reports the same minors as over the rationals."""
    pivoted = nonregular(5)
    assert len(pivoted) == 78
    for w in pivoted:
        rational = verify_pivot_minors(setup_(w))
        for char in (2, 3, 32003):
            setup = build_localization(w, PolyRing(5, 5, char))
            assert {field: check(setup) for field, check in frlab.PIVOT_CHECKS.items()} == \
                dict.fromkeys(frlab.PIVOT_CHECKS, True), (w.one_line(), char)
            assert verify_pivot_minors(setup) == rational, (w.one_line(), char)


def test_verify_all_matches_the_pinned_s6_digest():
    """sha256 of verify_all(w).to_json() over a seeded sample of the pivot-
    admitting S_6 of length >= 8, recorded when the identity was decided by
    saturation."""
    golden = json.loads((Path(__file__).parent / "golden" / "verify_all_s6_sample.json")
                        .read_text())
    population = [w for w in nonregular(6) if coxeter_length(w) >= 8]
    assert len(population) == golden["population"]
    sample = sorted(random.Random(golden["seed"]).sample(population, golden["sample"]),
                    key=lambda w: w.one_line())
    digest = hashlib.sha256()
    for w in sample:
        digest.update(json.dumps(verify_all(w).to_json(), sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == golden["sha256"]


def test_lemma_2_and_the_identity_match_the_pinned_s6_digest():
    """sha256 of lemma 2's report (ok, contains_expected, the rendered lead
    and expected ideals) and the identity's report (ok, proper, the rendered
    failures) over every pivot-admitting permutation of S_6, recorded
    before J_w, lemma 2 and the Buchberger tail ran on packed ints."""
    golden = json.loads((Path(__file__).parent / "golden" / "pivot_lemma2_identity_s6.json")
                        .read_text())
    pivoted = nonregular(6)
    assert len(pivoted) == golden["population"]
    digest = hashlib.sha256()
    for w in pivoted:
        setup = setup_(w)
        initial = verify_pivot_initial_ideal(setup)
        localized = verify_localization_identity(setup)
        digest.update(json.dumps([
            str(w), initial.ok, initial.contains_expected,
            initial.lead.rendered(), initial.expected.rendered(),
            localized.ok, localized.proper, [str(g) for g in localized.forward_failures],
            [str(g) for g in localized.backward_failures]]).encode() + b"\n")
    assert digest.hexdigest() == golden["sha256"]


def test_saturation_of_the_schubert_ideal_is_proper():
    # 1 is not in the saturation: the localized ring is nonzero
    w = w_("35142")
    schubert = fulton_generators(w)
    ring = schubert.ring
    sat = saturate(schubert.generators, ring.variable(1, 3))
    assert normal_form(ring.const(1), sat)


# ---------------------------------------------------------------------------
# Summary report and the documented sample
# ---------------------------------------------------------------------------

def test_verify_all_35142_json_schema():
    payload = verify_all(w_("35142")).to_json()
    assert payload == {
        "w": "35142",
        "c": [1, 3],
        "lemma1": True,
        "lemma2": True,
        "lemma3_nzd": True,
        "I_eq_Iprime": True,
        "skipped": False,
    }
    json.dumps(payload)


PUBLIC_CHECKS = ("verify_pivot_window", "verify_pivot_minors", "verify_pivot_initial_ideal",
                 "verify_pivot_nonzerodivisor", "verify_localization_identity")


def test_verify_all_and_the_cli_run_the_public_checks(monkeypatch, capsys):
    from msvkit.cli import main

    calls = dict.fromkeys(PUBLIC_CHECKS, 0)

    def counting(name, real):
        def check(setup):
            calls[name] += 1
            return real(setup)
        return check

    for name in PUBLIC_CHECKS:
        monkeypatch.setattr(frlab, name, counting(name, getattr(frlab, name)))
    assert verify_all(w_("35142")).ok
    assert calls == dict.fromkeys(PUBLIC_CHECKS, 1)
    calls.update(dict.fromkeys(PUBLIC_CHECKS, 0))
    assert main(["verify-lemma2", "35142"]) == 0
    capsys.readouterr()
    assert calls == {**dict.fromkeys(PUBLIC_CHECKS, 0), "verify_pivot_initial_ideal": 1}


def test_verify_all_and_the_cli_look_the_pivot_up_once(monkeypatch, capsys):
    """``build_localization`` looks the pivot up and raises ``NoPivotError``
    without one, so neither caller looks it up first.  The CLI bounds
    verify-all at n <= 5, so it runs on 35142 and on a pivot-free input."""
    from msvkit.cli import main

    calls = [0]
    real_find_pivot = frlab.find_pivot

    def counting_find_pivot(w):
        calls[0] += 1
        return real_find_pivot(w)

    monkeypatch.setattr(frlab, "find_pivot", counting_find_pivot)
    for run, expected in ((lambda: verify_all(w_("351642")).ok, True),
                          (lambda: verify_all(w_(range(4, 0, -1))).skipped, True),
                          (lambda: main(["verify-all", "35142"]), 0),
                          (lambda: main(["verify-all", "4321"]), 0)):
        calls[0] = 0
        assert run() == expected
        assert calls[0] == 1
    assert "skipped: no pivot" in capsys.readouterr().out
    with pytest.raises(NoPivotError):
        build_localization(w_(range(4, 0, -1)))


def test_verify_all_skips_when_regular():
    summary = verify_all(w_(range(4, 0, -1)))
    assert summary.skipped and summary.ok
    payload = summary.to_json()
    assert payload["skipped"] is True
    assert payload["c"] is None
    assert payload["lemma1"] is None


def test_verify_all_runs_exactly_the_named_checks_on_one_setup(monkeypatch):
    """For every subset of PIVOT_CHECKS, verify_all builds one setup, runs
    each named check once on it, in PIVOT_CHECKS order, and leaves the other
    fields None; a pivot-free word is skipped whatever the subset."""
    real_build = frlab.build_localization
    setups = {w.one_line(): real_build(w) for w in map(w_, ("1432", "3142", "35142", "52431"))}
    builds, ran = [], []

    def counting_build(w, ring=None):
        builds.append(w.one_line())
        return setups.get(w.one_line()) or real_build(w, ring)

    def record(field, setup):
        ran.append((field, setup))
        return f"{field} of {setup.w}"

    fields = tuple(frlab.PIVOT_CHECKS)
    monkeypatch.setattr(frlab, "build_localization", counting_build)
    for field in fields:
        monkeypatch.setitem(frlab.PIVOT_CHECKS, field, functools.partial(record, field))
    for subset in (subset for k in range(len(fields) + 1)
                   for subset in itertools.combinations(fields, k)):
        for word, setup in setups.items():
            builds.clear()
            ran.clear()
            summary = verify_all(w_(word), subset)
            assert builds == [word]
            assert [field for field, _ in ran] == list(subset)
            assert all(seen is setup for _, seen in ran)
            assert (summary.pivot, summary.skipped) == (setup.c_cell, False)
            assert {field: getattr(summary, field) for field in fields} == {
                field: f"{field} of {setup.w}" if field in subset else None
                for field in fields}
        for word in ("4321", "1234"):
            ran.clear()
            summary = verify_all(w_(word), subset)
            assert ran == [] and summary.skipped and summary.pivot is None
            assert all(getattr(summary, field) is None for field in fields)
    ran.clear()
    verify_all(w_("35142"))  # by default, every check
    assert [field for field, _ in ran] == list(fields)


def test_verify_all_refuses_unknown_checks_before_building_a_setup(monkeypatch):
    # the names are checked before any setup is built, so neither a
    # pivot-free word nor a pivot-admitting one gets past them; a string is
    # the names of its characters
    def refuse(w, ring=None):
        raise AssertionError("built a setup")

    monkeypatch.setattr(frlab, "build_localization", refuse)
    for word in ("4321", "35142"):
        with pytest.raises(ValueError, match="unknown pivot checks: 'bogus', 'other'$"):
            verify_all(w_(word), ["window", "bogus", "other", "bogus"])
        with pytest.raises(ValueError, match="unknown pivot checks: 'w', 'i', 'n', 'd', 'o'$"):
            verify_all(w_(word), "window")


def test_verify_all_is_ok_when_every_check_that_ran_held(monkeypatch, capsys):
    """``ok`` reads only the checks that ran, for every subset of them, and
    the CLI's exit code is ``ok``; a failing check makes ``ok`` False
    exactly when it runs."""
    from msvkit.cli import main

    fields = tuple(frlab.PIVOT_CHECKS)
    subsets = [subset for k in range(len(fields) + 1)
               for subset in itertools.combinations(fields, k)]
    assert len(subsets) == 32
    for word in ("35142", "52431"):
        for subset in subsets:
            summary = verify_all(w_(word), subset)
            assert summary.ok is True, (word, subset)
            assert all(getattr(summary, field) is True for field in subset), (word, subset)
    monkeypatch.setitem(frlab.PIVOT_CHECKS, "initial_ideal_ok", lambda setup: False)
    for subset in subsets:
        assert verify_all(w_("35142"), subset).ok is ("initial_ideal_ok" not in subset), subset
    assert main(["verify-localize", "35142"]) == 0
    assert main(["verify-lemma2", "35142"]) == 1
    assert main(["verify-all", "35142"]) == 1
    capsys.readouterr()
    monkeypatch.setattr(frlab.VerificationSummary, "ok", property(lambda self: False))
    assert main(["verify-localize", "35142"]) == 1
    capsys.readouterr()


def test_localization_sample_is_the_documented_one():
    sample = localization_sample()
    assert len(sample) == 67
    words = {w.one_line() for w in sample}
    assert (3, 5, 1, 4, 2) in words
    from msvkit.perm import coxeter_length
    for w in sample:
        assert coxeter_length(w) <= 6
        assert find_pivot(w) is not None
