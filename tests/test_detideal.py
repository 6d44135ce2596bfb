"""Schubert determinantal ideals, antidiagonal initial ideals, and the
monomial-ideal utilities.  Golden values come from the worked 35142 example;
sweeps re-derive everything from definitions or independent brute force."""

import collections
import dataclasses
import hashlib
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import msvkit.detideal as detideal
import msvkit.poly as poly
from msvkit.perm import (PartialPermutation, all_partial_permutations,
                         all_permutations, coxeter_length, diagram, essential_set,
                         extend_to_permutation)
from msvkit.poly import (PolyRing, antidiagonal_monomial, certified, ideals_equal, minor,
                         monomial_divides, monomial_mul, s_polynomial)
from msvkit.ci import minimal_generator_count
from msvkit.detideal import (MonomialIdeal, antidiagonal_ideal, fulton_generators,
                             graded_minimal_generators, is_nonzerodivisor_on_monomial_quotient,
                             monomial_codim, monomial_quotient_membership, verify_groebner)
from reference import colon_by_variable, graded_selection_per_degree, schubert_polynomials

GOLDEN = Path(__file__).parent / "golden"


def w_(word):
    return PartialPermutation.from_one_line(word)


# ---------------------------------------------------------------------------
# Fulton generators
# ---------------------------------------------------------------------------

def test_fulton_35142_minimal_set_is_the_classical_one():
    schubert = fulton_generators(w_("35142"))
    r = schubert.ring
    expected = (
        r.variable(1, 1), r.variable(1, 2), r.variable(2, 1), r.variable(2, 2),
        minor(r, [1, 2], [3, 4]), minor(r, [3, 4], [1, 2]),
    )
    assert schubert.generators == expected
    assert minimal_generator_count(w_("35142")) == 6


def test_fulton_identity_is_the_zero_ideal():
    schubert = fulton_generators(PartialPermutation.from_one_line(range(1, 5)))
    assert schubert.generators == ()
    assert schubert.raw_generators == ()
    assert minimal_generator_count(PartialPermutation.from_one_line(range(1, 5))) == 0


def test_fulton_4132_minimal_set():
    schubert = fulton_generators(w_("4132"))
    r = schubert.ring
    assert schubert.generators == (
        r.variable(1, 1), r.variable(1, 2), r.variable(1, 3),
        minor(r, [2, 3], [1, 2]),
    )


def test_fulton_raw_count_matches_the_binomial_formula():
    for word in ("35142", "4132", "2143", "52341"):
        schubert = fulton_generators(w_(word))
        expected = sum(math.comb(c.p, r + 1) * math.comb(c.q, r + 1)
                       for c, r in schubert.cells)
        assert len(schubert.raw_generators) == expected


def test_the_selection_sees_each_repeated_site_once(monkeypatch):
    # in 1432 the rank-1 cells (2,3) and (3,2) share the site ((1,2),(1,2)):
    # raw_generators lists its minor twice (indices 0 and 3), and graded
    # Nakayama receives the first copy only, the very objects at 0, 1, 2, 4, 5
    received = []
    select = detideal.graded_minimal_generators

    def recorder(ring, gens):
        received.append(tuple(gens))
        return select(ring, gens)

    monkeypatch.setattr(detideal, "graded_minimal_generators", recorder)
    schubert = fulton_generators(w_("1432"))
    raw = schubert.raw_generators
    assert len(raw) == 6 and raw[3] == raw[0]
    (gens,) = received
    assert len(gens) == 5
    assert all(g is raw[k] for g, k in zip(gens, (0, 1, 2, 4, 5), strict=True))
    # the later copy was never kept, so the selection is as before
    r = schubert.ring
    assert schubert.sites == (((1, 2), (1, 2)), ((1, 2), (1, 3)), ((1, 2), (2, 3)),
                              ((1, 3), (1, 2)), ((2, 3), (1, 2)))
    assert schubert.generators == tuple(minor(r, *site) for site in schubert.sites)


def test_fulton_sites_reconstruct_the_generators():
    schubert = fulton_generators(w_("35142"))
    assert len(schubert.sites) == len(schubert.generators)
    for g, (rows, cols) in zip(schubert.generators, schubert.sites):
        assert g == minor(schubert.ring, rows, cols)


def test_fulton_diagram_cells_generate_the_same_ideal():
    for word in ("2143", "3142", "35142"):
        w = w_(word)
        essential = fulton_generators(w, cells="essential")
        over_diagram = fulton_generators(w, cells="diagram")
        assert ideals_equal(essential.generators, over_diagram.raw_generators)


def test_fulton_rejects_bad_cells_mode():
    with pytest.raises(ValueError):
        fulton_generators(w_("21"), cells="rank")


def test_fulton_agrees_literally_with_the_extension():
    for l in (1, 2, 3):
        for m in (1, 2, 3):
            for w in all_partial_permutations(l, m):
                a = fulton_generators(w)
                b = fulton_generators(extend_to_permutation(w))
                assert tuple(g.sparse_terms() for g in a.generators) == \
                    tuple(g.sparse_terms() for g in b.generators)


def _kept_generators_digest(n, char):
    """sha256 over S_n of each w with the rendered Fulton generators that
    graded Nakayama keeps and their (rows, cols) sites."""
    ring = PolyRing(n, n, char)
    digest = hashlib.sha256()
    for w in all_permutations(n):
        schubert = fulton_generators(w, ring)
        digest.update(json.dumps([str(w), [str(g) for g in schubert.generators],
                                  [[list(rows), list(cols)] for rows, cols in schubert.sites]
                                  ]).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def test_fulton_kept_generators_match_the_golden_digest():
    # counts alone (minimal_counts.json) miss a change of which generators
    # are kept; this pins the kept minors themselves, in every field
    golden = json.loads((GOLDEN / "kept_generators_digest.json").read_text())
    assert {char: sorted(by_n, key=int) for char, by_n in golden.items()} == {
        "0": ["1", "2", "3", "4", "5", "6"], "2": ["1", "2", "3", "4", "5"],
        "32003": ["1", "2", "3", "4", "5"]}
    for char, by_n in golden.items():
        for n, expected in by_n.items():
            assert _kept_generators_digest(int(n), int(char)) == expected, (char, n)


# ---------------------------------------------------------------------------
# Antidiagonal ideal
# ---------------------------------------------------------------------------

def test_antidiagonal_ideal_35142_golden():
    J = antidiagonal_ideal(w_("35142"))
    r = J.ring
    assert set(J.gens) == {
        r.monomial({(1, 1): 1}), r.monomial({(1, 2): 1}),
        r.monomial({(2, 1): 1}), r.monomial({(2, 2): 1}),
        r.monomial({(1, 4): 1, (2, 3): 1}), r.monomial({(3, 2): 1, (4, 1): 1}),
    }


def test_antidiagonal_ideal_identity_is_zero():
    assert not antidiagonal_ideal(PartialPermutation.from_one_line(range(1, 6))).gens


def test_antidiagonal_ideal_is_squarefree():
    for w in all_permutations(4):
        assert antidiagonal_ideal(w).is_squarefree()


def test_antidiagonal_ideal_equals_leading_terms_of_raw_minors():
    # dual route: direct antidiagonal products vs leading terms of the
    # expanded minors, minimalized
    for w in itertools.chain(all_permutations(4), [w_("35142")]):
        schubert = fulton_generators(w)
        from_leads = MonomialIdeal(
            schubert.ring, (g.leading_monomial() for g in schubert.raw_generators))
        assert from_leads.gens == antidiagonal_ideal(w, schubert.ring).gens


def test_antidiagonal_ideal_checks_the_ring_grid_as_fulton_generators_does():
    # a ring smaller than w's grid is refused at the boundary, with one
    # message, before any site of w is walked
    w = w_("35142")
    for ring in (PolyRing(3, 3), PolyRing(5, 3), PolyRing(3, 5, 32003)):
        for build in (fulton_generators, verify_groebner, antidiagonal_ideal):
            with pytest.raises(ValueError, match="^ring grid too small for this permutation$"):
                build(w, ring)


def _fulton_sites(cell_ranks):
    """(rows, cols) of the Fulton minors over the (cell, rank) pairs, cells
    in order, then row subsets, then column subsets."""
    return [(rows, cols) for cell, r in cell_ranks
            for rows in itertools.combinations(range(1, cell.p + 1), r + 1)
            for cols in itertools.combinations(range(1, cell.q + 1), r + 1)]


@pytest.mark.parametrize("char", [0, 32003])
def test_the_corner_pass_is_the_per_site_public_calls(char):
    # fulton_generators and J_w check each corner once and trust its sites;
    # each minor and antidiagonal must be what the validating one-site
    # calls give (cached per ring and site, which repeat across w)
    expanded, antidiagonals = {}, {}
    words = itertools.chain(
        (w for n in range(1, 7) for w in all_permutations(n)),
        (w for rows in (1, 2, 3) for cols in (1, 2, 3)
         for w in all_partial_permutations(rows, cols)))
    for w in words:
        ring = PolyRing(w.rows, w.cols, char)
        for cells, cell_ranks in (("essential", essential_set(w)),
                                  ("diagram", tuple(diagram(w).items()))):
            schubert = fulton_generators(w, ring, cells=cells)
            assert schubert.cells == cell_ranks
            sites = _fulton_sites(cell_ranks)
            raw = tuple(expanded.setdefault((ring, site), minor(ring, *site)) for site in sites)
            assert schubert.raw_generators == raw, (str(w), cells)
            # each minor carries its degree, which graded Nakayama trusts
            # unchecked: it must be the one degree its terms have
            for g in schubert.raw_generators + raw:
                assert {ring.monomial_degree(m) for m, _ in g.terms()} == {
                    g.homogeneous_degree()}, (str(w), cells, str(g))
            # the kept sites come by degree, then in canonical order, each
            # with its own minor
            where = [sites.index(site) for site in schubert.sites]
            assert where == sorted(set(where), key=lambda k: (len(sites[k][0]), k))
            assert schubert.generators == tuple(raw[k] for k in where)
            J = MonomialIdeal(ring, (
                antidiagonals.setdefault((ring, site), antidiagonal_monomial(ring, *site))
                for site in sites))
            # the J_w verify_groebner builds from its generators' cells
            assert detideal._antidiagonal_ideal(ring, schubert.cells) == J
            if cells == "essential":
                assert antidiagonal_ideal(w, ring) == J


def test_verify_groebner_reads_j_w_from_its_own_cells():
    for n in range(1, 6):
        for w in all_permutations(n):
            assert verify_groebner(w).antidiagonal == antidiagonal_ideal(w)


# ---------------------------------------------------------------------------
# Groebner verification
# ---------------------------------------------------------------------------

def test_verify_groebner_35142_and_identity():
    with certified():
        assert verify_groebner(w_("35142")).match
        assert verify_groebner(PartialPermutation.from_one_line(range(1, 5))).match


def test_verify_groebner_on_a_random_s6_sample():
    rng = random.Random(41)
    for _ in range(5):
        word = rng.sample(range(1, 7), 6)
        assert verify_groebner(PartialPermutation.from_one_line(word)).match


def test_verify_groebner_report_json_schema():
    payload = verify_groebner(w_("35142")).to_json()
    assert set(payload) == {"w", "match", "gb_leading", "antidiagonal"}
    assert payload["w"] == "35142"
    assert payload["match"] is True
    assert "x[1,4]*x[2,3]" in payload["antidiagonal"]
    json.dumps(payload)


def test_verify_groebner_works_for_partial_permutations():
    w = PartialPermutation.from_matrix([[0, 0, 1], [0, 0, 0]])
    assert verify_groebner(w).match


# ---------------------------------------------------------------------------
# Monomial codimension
# ---------------------------------------------------------------------------

def _brute_force_codim(J):
    """Independent oracle: try all variable subsets by increasing size."""
    if not J.gens:
        return 0
    supports = [frozenset((i, j) for i, j, _ in J.ring.grid_support(m)) for m in J.gens]
    variables = sorted(set().union(*supports))
    for k in range(len(variables) + 1):
        for subset in itertools.combinations(variables, k):
            chosen = set(subset)
            if all(chosen & s for s in supports):
                return k
    raise AssertionError("some subset must cover")


def test_monomial_codim_goldens():
    r = PolyRing(5, 5)
    principal = MonomialIdeal(r, [r.monomial({(1, 1): 1})])
    assert monomial_codim(principal) == 1
    assert monomial_codim(antidiagonal_ideal(w_("35142"))) == 6
    assert monomial_codim(antidiagonal_ideal(w_("462153"))) == 9
    assert monomial_codim(MonomialIdeal(r, [])) == 0


def test_monomial_codim_matches_brute_force_on_s4():
    for w in all_permutations(4):
        J = antidiagonal_ideal(w)
        assert monomial_codim(J) == _brute_force_codim(J)


def test_monomial_codim_matches_brute_force_on_random_squarefree_ideals():
    rng = random.Random(13)
    r = PolyRing(3, 3)
    for _ in range(25):
        gens = []
        for _ in range(rng.randint(1, 6)):
            cells = rng.sample([(i, j) for i in range(1, 4) for j in range(1, 4)],
                               rng.randint(1, 3))
            gens.append(r.monomial({c: 1 for c in cells}))
        J = MonomialIdeal(r, gens)
        assert monomial_codim(J) == _brute_force_codim(J)


def test_monomial_codim_equals_length_for_s5():
    for w in all_permutations(5):
        assert monomial_codim(antidiagonal_ideal(w)) == coxeter_length(w)


def test_monomial_codim_rejects_non_squarefree():
    r = PolyRing(2, 2)
    J = MonomialIdeal(r, [r.monomial({(1, 1): 2})])
    with pytest.raises(ValueError):
        monomial_codim(J)


# ---------------------------------------------------------------------------
# Monomial membership and the nonzerodivisor test
# ---------------------------------------------------------------------------

def test_monomial_quotient_membership_goldens():
    r = PolyRing(5, 5)
    assert monomial_quotient_membership(r.const(0), [r.monomial({(1, 1): 1})])
    f = r.variable(1, 1) + r.variable(2, 2)
    assert not monomial_quotient_membership(f, [r.monomial({(1, 1): 1})])
    delta = minor(r, [1, 2], [3, 4])
    gens = [r.monomial({(1, 3): 1})] + list(antidiagonal_ideal(w_("35142"), r).gens)
    assert monomial_quotient_membership(delta, gens)


def test_nonzerodivisor_goldens():
    J = antidiagonal_ideal(w_("35142"))
    r = J.ring
    assert is_nonzerodivisor_on_monomial_quotient(r.monomial({(1, 3): 1}), J)
    r2 = PolyRing(2, 2)
    J2 = MonomialIdeal(r2, [r2.monomial({(1, 1): 1, (2, 2): 1})])
    assert not is_nonzerodivisor_on_monomial_quotient(r2.monomial({(1, 1): 1}), J2)
    J3 = MonomialIdeal(r2, [r2.monomial({(2, 2): 1})])
    assert is_nonzerodivisor_on_monomial_quotient(r2.monomial({(1, 1): 1}), J3)


def test_nonzerodivisor_agrees_with_the_colon_ideal_on_s4():
    # the J_w of S_4, then ideals that are not squarefree: those J_w with
    # their generators squared, and seeded random ones with exponents to 2
    # in a 3 x 3 ring, where the proof needs only minimal generators
    ideals = [antidiagonal_ideal(w) for w in all_permutations(4)]
    ideals += [MonomialIdeal(J.ring, (monomial_mul(m, m) for m in J.gens)) for J in ideals]
    rng = random.Random(29)
    r = PolyRing(3, 3)
    cells = [(i, j) for i in range(1, 4) for j in range(1, 4)]
    ideals += [MonomialIdeal(r, (r.monomial({cell: rng.randint(0, 2) for cell in cells})
                                 for _ in range(rng.randint(1, 5))))
               for _ in range(200)]
    assert sum(not J.is_squarefree() for J in ideals) > 200
    for J in ideals:
        for i in range(1, J.ring.rows + 1):
            for j in range(1, J.ring.cols + 1):
                c = J.ring.monomial({(i, j): 1})
                assert is_nonzerodivisor_on_monomial_quotient(c, J) == \
                    (colon_by_variable(J, c) == J)


def test_nonzerodivisor_requires_a_variable():
    J = antidiagonal_ideal(w_("2143"))
    with pytest.raises(ValueError):
        is_nonzerodivisor_on_monomial_quotient(J.ring.monomial({(1, 1): 1, (2, 2): 1}), J)


def test_monomial_ideal_minimalizes_its_generators():
    r = PolyRing(2, 2)
    x, y = r.monomial({(1, 1): 1}), r.monomial({(1, 1): 1, (2, 2): 1})
    J = MonomialIdeal(r, [y, x, x])
    assert J.gens == (x,)
    assert J.contains_monomial(y)
    assert not J.contains_monomial(r.monomial({(2, 2): 1}))


def test_the_constructor_minimalizes_whatever_it_is_given():
    # unsorted, repeated and non-minimal generators, each with its minimal
    # set; the dataclass's own __init__ once kept them as given, so ==,
    # gens and rendered() misjudged the ideal, and the squarefree and
    # nonzerodivisor answers read the multiples
    r = PolyRing(2, 2)
    x11, x12, x21, x22 = (r.monomial({cell: 1}) for cell in [(1, 1), (1, 2), (2, 1), (2, 2)])
    x11_x22, x11_sq = monomial_mul(x11, x22), monomial_mul(x11, x11)
    cases = [
        ((x11_x22, x22), {x22}),
        ((x11_sq, x11), {x11}),
        ((x22, x11, x22, x12), {x11, x12, x22}),
        ((x11_x22, x11_sq, x11_x22), {x11_x22, x11_sq}),
        ((monomial_mul(x11_sq, x12), x12, x11_sq, x21), {x11_sq, x12, x21}),
        ((r.monomial({}), x11_x22), {r.monomial({})}),
        ((), set()),
    ]
    for given, minimal in cases:
        canonical = tuple(sorted(minimal, key=lambda m: (r.monomial_degree(m), m)))
        J = MonomialIdeal(r, given)
        assert J == MonomialIdeal(r, canonical)
        assert J.gens == canonical
        assert J.rendered() == tuple(r.render_monomial(m) for m in canonical)
        assert J.is_squarefree() == all(r.is_squarefree(m) for m in minimal)
        for c in (x11, x12, x21, x22):
            assert is_nonzerodivisor_on_monomial_quotient(c, J) == \
                (not any(monomial_divides(c, m) for m in minimal))
        # replace builds through the constructor too
        assert dataclasses.replace(MonomialIdeal(r, (x12,)), gens=given) == J
    assert is_nonzerodivisor_on_monomial_quotient(x11, MonomialIdeal(r, (x11_x22, x22)))
    assert MonomialIdeal(r, (x11_sq, x11)).is_squarefree()
    assert dataclasses.replace(MonomialIdeal(r, (x22,)), gens=(x11_x22, x11, x11)).gens == (x11,)
    assert not hasattr(MonomialIdeal, "from_monomials")


MINIMALIZE_CELLS = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)]


@settings(max_examples=300, deadline=None)
@example(exponents=[(0,) * 6, (1, 0, 0, 0, 0, 0), (0,) * 6])
@example(exponents=[(2, 0, 0, 0, 1, 0), (1, 0, 0, 0, 1, 0), (2, 0, 0, 0, 1, 0), (0, 3, 0, 0, 0, 0)])
@given(exponents=st.lists(st.tuples(*[st.integers(0, 3)] * len(MINIMALIZE_CELLS)), max_size=10))
def test_the_constructor_is_the_brute_force_minimalization(exponents):
    # duplicates, squares and the unit monomial among the inputs
    r = PolyRing(2, 3)
    monomials = [r.monomial(zip(MINIMALIZE_CELLS, e)) for e in exponents]
    minimal = {m for m in monomials
               if not any(d != m and monomial_divides(d, m) for d in monomials)}
    assert MonomialIdeal(r, monomials).gens == \
        tuple(sorted(minimal, key=lambda m: (r.monomial_degree(m), m)))


# ---------------------------------------------------------------------------
# Graded Nakayama selection
# ---------------------------------------------------------------------------

def test_graded_minimal_generators_drops_duplicates_and_redundant_minors():
    r = PolyRing(5, 5)
    x11 = r.variable(1, 1)
    kept, mu = graded_minimal_generators(r, [x11, x11, minor(r, [1, 2], [1, 3])])
    # the 2-minor [12|13] = x11 x23 - x13 x21 is NOT in m*<x11>: the term
    # x13 x21 survives the kill, so it is a genuine second generator
    assert kept == (0, 2)
    assert mu == 2
    kept, mu = graded_minimal_generators(
        r, [x11, r.variable(2, 1), minor(r, [1, 2], [1, 2])])
    assert kept == (0, 1)
    assert mu == 2
    r = PolyRing(3, 3)
    x = r.variable
    linear = x(1, 1) + x(1, 2)
    assert graded_minimal_generators(r, [linear, x(2, 1) * linear]) == ((0,), 1)
    # the third generator lies in <f1, f2> only through their S-pair: its
    # normal form against f1 and f2 themselves is itself
    f1, f2 = minor(r, [1, 2], [1, 2]), minor(r, [1, 2], [1, 3])
    assert graded_minimal_generators(
        r, [f1, f2, x(1, 3) * f1 - x(1, 2) * f2]) == ((0, 1), 2)
    # a constant generates everything, single variables included
    assert graded_minimal_generators(r, [r.const(1), x(1, 1)]) == ((0,), 1)


def test_graded_minimal_generators_requires_homogeneous_input():
    r = PolyRing(2, 2)
    with pytest.raises(ValueError, match="graded selection requires homogeneous generators"):
        graded_minimal_generators(r, [r.variable(1, 1) + r.const(1)])
    # a polynomial the ring builds from terms carries no degree, so it is
    # checked, and refused, like any other
    mixed = r.polynomial({r.monomial({(1, 1): 1, (2, 2): 1}): 1, r.monomial({(1, 2): 1}): -1})
    with pytest.raises(ValueError, match="graded selection requires homogeneous generators"):
        graded_minimal_generators(r, [minor(r, [1, 2], [1, 2]), mixed])
    for bad in (r.const(0), PolyRing(2, 3).variable(1, 1)):
        with pytest.raises(ValueError, match="generators must be nonzero elements of the ring"):
            graded_minimal_generators(r, [r.variable(1, 1), bad])
    # an equal ring built apart is the same ring
    assert graded_minimal_generators(r, [PolyRing(2, 2).variable(1, 1)]) == ((0,), 1)


def _incremental_span(char):
    """An incremental Gauss-Jordan elimination on dense coefficient vectors
    over the rationals (char 0) or the field with char elements: ``add(v)``
    puts v into the span and says whether it raised the rank."""
    pivots = []  # (column, row reduced to 1 there and 0 at every other pivot)

    def add(vector):
        v = [x % char for x in vector] if char else [Fraction(x) for x in vector]
        for col, row in pivots:
            if v[col]:
                factor = v[col]
                v = [a - factor * b for a, b in zip(v, row)]
                if char:
                    v = [a % char for a in v]
        col = next((k for k, a in enumerate(v) if a), None)
        if col is None:
            return False
        inverse = pow(v[col], -1, char) if char else 1 / v[col]
        v = [a * inverse % char if char else a * inverse for a in v]
        for k, (c, row) in enumerate(pivots):
            if row[col]:
                factor = row[col]
                row = [a - factor * b for a, b in zip(row, v)]
                pivots[k] = (c, [a % char for a in row] if char else row)
        pivots.append((col, v))
        return True

    return add


def _nakayama_by_linear_algebra(ring, gens):
    """The kept indices of graded Nakayama re-derived from its definition:
    degree by degree and in index order, a generator of degree d is kept iff
    it lies outside the span of {m*g : g a generator, m a monomial of degree
    >= 1, deg(m*g) = d} and of the degree-d generators kept before it."""
    cells = [(i, j) for i in range(1, ring.rows + 1) for j in range(1, ring.cols + 1)]

    def monomials(d):
        return [ring.monomial(collections.Counter(c).items())
                for c in itertools.combinations_with_replacement(cells, d)]

    degrees = [g.total_degree() for g in gens]
    kept = []
    for d in sorted(set(degrees)):
        columns = monomials(d)
        add = _incremental_span(ring.char)
        for g, e in zip(gens, degrees):
            if e < d:
                for m in monomials(d - e):
                    add([dict((g * ring.polynomial({m: 1})).terms()).get(c, 0)
                         for c in columns])
        kept += [k for k, g in enumerate(gens)
                 if degrees[k] == d and add([dict(g.terms()).get(c, 0) for c in columns])]
    return tuple(kept)


NAKAYAMA_ITEM = st.one_of(
    st.tuples(st.just("variable"), st.integers(0, 5)),
    st.tuples(st.just("scaled"), st.integers(0, 5), st.sampled_from([2, 3, -1])),
    st.tuples(st.just("duplicate"), st.integers(0, 9)),
    st.tuples(st.just("linear"), st.lists(st.integers(-2, 2), min_size=6, max_size=6)),
    st.tuples(st.just("form"), st.lists(st.tuples(st.lists(st.integers(0, 5), min_size=2,
                                                           max_size=2),
                                                  st.integers(-3, 3)), max_size=4)),
    st.tuples(st.just("multiple"), st.integers(0, 9), st.integers(0, 5)),
    st.tuples(st.just("sum"), st.integers(0, 9), st.integers(0, 9), st.integers(-2, 2)),
    st.tuples(st.just("s-pair"), st.integers(0, 9), st.integers(0, 9)),
    st.tuples(st.just("minor"), st.sampled_from([(1, 2), (1, 3), (2, 3)])),
    st.tuples(st.just("constant"), st.integers(1, 3)))


def _nakayama_input(ring, items, max_degree=3):
    """Homogeneous generators from the drawn items, zero ones and those of
    degree above ``max_degree`` dropped (``2*x`` vanishes over F_2);
    indices into earlier generators wrap around."""
    cells = [(i, j) for i in range(1, ring.rows + 1) for j in range(1, ring.cols + 1)]

    def x(k):
        return ring.variable(*cells[k % len(cells)])

    gens = []
    for kind, *data in items:
        if kind == "variable":
            g = x(data[0])
        elif kind == "scaled":
            g = x(data[0]) * data[1]
        elif kind == "linear":
            g = sum((x(k) * c for k, c in enumerate(data[0])), ring.const(0))
        elif kind == "form":
            g = sum((x(a) * x(b) * c for (a, b), c in data[0]), ring.const(0))
        elif kind == "constant":
            g = ring.const(data[0])
        elif kind == "minor":
            g = minor(ring, (1, 2), data[0] if data[0][1] <= ring.cols else (1, 2))
        elif not gens:
            continue
        elif kind == "duplicate":
            g = gens[data[0] % len(gens)]
        elif kind == "multiple":
            g = gens[data[0] % len(gens)] * x(data[1])
        elif kind == "s-pair":  # in the ideal, but often not through the pair itself
            g = s_polynomial(gens[data[0] % len(gens)], gens[data[1] % len(gens)])
        else:  # the sum of two earlier generators, when their degrees agree
            f, h = gens[data[0] % len(gens)], gens[data[1] % len(gens)]
            g = f + h * data[2] if f.total_degree() == h.total_degree() else f
        if g and g.total_degree() <= max_degree:
            gens.append(g)
    return gens


@settings(max_examples=150, deadline=None)
# a variable, its duplicate and double, a linear form through it, a minor
# it does not kill, a multiple of the linear form, then a constant that
# swallows them all
@example(shape=(2, 3), char=0, items=[
    ("variable", 0), ("duplicate", 0), ("scaled", 0, 2), ("linear", [1, 1, 0, 0, 0, 0]),
    ("form", [((0, 4), 1), ((1, 3), -1)]), ("multiple", 3, 5), ("constant", 1)])
@example(shape=(2, 2), char=2, items=[
    ("scaled", 1, 2), ("linear", [1, 1, 0, 0, 0, 0]), ("variable", 1), ("variable", 0),
    ("sum", 0, 1, 1), ("form", [((0, 3), 1), ((1, 2), 1)])])
@given(shape=st.sampled_from([(2, 2), (2, 3)]), char=st.sampled_from([0, 2, 32003]),
       items=st.lists(NAKAYAMA_ITEM, max_size=7))
def test_graded_minimal_generators_matches_linear_algebra(shape, char, items):
    ring = PolyRing(*shape, char)
    gens = _nakayama_input(ring, items)
    expected = _nakayama_by_linear_algebra(ring, gens)
    assert graded_minimal_generators(ring, gens) == (expected, len(expected))


@settings(max_examples=150, deadline=None)
# a constant after a linear form that is not a variable, a repeated
# generator, a square, and forms of degrees 0 to 4
@example(shape=(3, 3), char=0, items=[
    ("linear", [1, -1, 0, 2, 0, 0]), ("duplicate", 0), ("form", [((0, 0), 1), ((1, 4), -1)]),
    ("multiple", 2, 2), ("multiple", 3, 8), ("variable", 1), ("constant", 2)])
# the S-polynomial of two minors lies in their ideal only through their
# S-pair, of degree 3, which the degree-3 selection must complete first
@example(shape=(2, 3), char=32003, items=[
    ("minor", (1, 2)), ("minor", (1, 3)), ("s-pair", 0, 1)])
@given(shape=st.sampled_from([(2, 3), (3, 3)]), char=st.sampled_from([0, 32003]),
       items=st.lists(NAKAYAMA_ITEM, max_size=9))
def test_graded_minimal_generators_matches_the_per_degree_reference(shape, char, items):
    # one degree-truncated basis carried from degree to degree keeps the
    # same indices as a fresh reduced basis of the lower degrees in each
    ring = PolyRing(*shape, char)
    gens = _nakayama_input(ring, items, max_degree=4)
    assert graded_minimal_generators(ring, gens) == graded_selection_per_degree(ring, gens)


def test_graded_minimal_generators_never_calls_buchberger(monkeypatch):
    """The selection completes its own degree-truncated basis, so it runs
    over S_1 to S_6 with ``buchberger`` refusing every call.  Of those w,
    594 have Fulton generators of two or more degrees, and in 187 of them
    (9 in S_5, 178 in S_6) two or more degrees lie above 1, so that a basis
    is carried from one degree to a higher one."""
    def refuse(generators):
        raise AssertionError("graded Nakayama called buchberger")

    monkeypatch.setattr(detideal, "buchberger", refuse)
    monkeypatch.setattr(poly, "buchberger", refuse)
    multi_degree = carried = 0
    for n in range(1, 7):
        ring = PolyRing(n, n, 32003)
        for w in all_permutations(n):
            schubert = fulton_generators(w, ring)
            degrees = {g.homogeneous_degree() for g in schubert.raw_generators}
            multi_degree += len(degrees) > 1
            carried += len(degrees - {1}) > 1
            # I_w is prime of height l(w), so it needs at least l(w) generators
            assert len(schubert.generators) >= coxeter_length(w)
    assert (multi_degree, carried) == (594, 187)


# ---------------------------------------------------------------------------
# Pipe dreams against Schubert polynomials
# ---------------------------------------------------------------------------

def _minimal_covers(supports, bound):
    """The minimal vertex covers of at most ``bound`` vertices of the sets
    ``supports``.  Each branch covers the first uncovered set by one of its
    vertices and excludes the vertices tried before it, so every cover is
    reached once, and every minimal one within the bound is reached."""
    covers = []

    def grow(chosen, excluded):
        edge = next((s for s in supports if not s & chosen), None)
        if edge is None:
            covers.append(chosen)
            return
        if len(chosen) < bound:
            free = sorted(edge - excluded)
            for k, v in enumerate(free):
                grow(chosen | {v}, excluded | set(free[:k]))

    grow(frozenset(), frozenset())
    return [c for c in covers
            if all(any(not s & (c - {v}) for s in supports) for v in c)]


def _minimal_covers_of_j_w(w):
    """The minimal vertex covers of at most l(w) vertices of the generator
    supports of J_w, as sets of cells."""
    J = antidiagonal_ideal(w)
    supports = [frozenset((i, j) for i, j, _ in J.ring.grid_support(m)) for m in J.gens]
    return _minimal_covers(supports, coxeter_length(w))


def _pipe_dream_polynomial(w):
    """Sum over the minimal vertex covers of size l(w) of the generator
    supports of J_w of the product of x_row over each cover, as
    {exponent tuple: coefficient}; also returns the sizes of all minimal
    covers of at most l(w) vertices."""
    covers = _minimal_covers_of_j_w(w)
    total = {}
    for cover in covers:
        e = [0] * w.size
        for i, _ in cover:
            e[i - 1] += 1
        total[tuple(e)] = total.get(tuple(e), 0) + 1
    return total, {len(c) for c in covers}


def _reduced_pipe_dreams(w):
    """The reduced pipe dreams of w by brute force, each as its set of
    crosses: l(w) cells (i, j) with i + j <= n whose word, read along the
    rows from the top and each row from right to left, with s_{i+j-1} for
    the cross at (i, j), has product w (a word of l(w) letters with product
    w is reduced)."""
    n = w.size
    cells = [(i, j) for i in range(1, n) for j in range(n - i, 0, -1)]
    dreams = set()
    for crosses in itertools.combinations(cells, coxeter_length(w)):
        word = list(range(1, n + 1))
        for i, j in crosses:  # in reading order, as ``cells`` is
            k = i + j - 1
            word[k - 1], word[k] = word[k], word[k - 1]
        if tuple(word) == w.one_line():
            dreams.add(frozenset(crosses))
    return dreams


def test_pipe_dream_of_132_is_x1_plus_x2():
    total, sizes = _pipe_dream_polynomial(w_("132"))
    assert total == {(1, 0, 0): 1, (0, 1, 0): 1} == schubert_polynomials(3)[(1, 3, 2)]
    assert sizes == {1}


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_pipe_dreams_of_the_antidiagonal_ideal_sum_to_the_schubert_polynomial(n):
    """The minimal primes of J_w are generated by the crosses of the reduced
    pipe dreams of w, all of them l(w) crosses (Knutson-Miller, Ann. Math.
    2005), so summing x_row over the crosses of the minimal vertex covers of
    size l(w) of its generator supports gives the Schubert polynomial;
    exhaustive over S_n, and the codimension of J_w is l(w)."""
    schubert = schubert_polynomials(n)
    for w in all_permutations(n):
        total, sizes = _pipe_dream_polynomial(w)
        assert total == schubert[w.one_line()], w.one_line()
        assert sizes == {coxeter_length(w)} == {monomial_codim(antidiagonal_ideal(w))}, \
            w.one_line()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_the_minimal_covers_of_j_w_are_the_reduced_pipe_dreams(n):
    """The minimal primes of J_w are generated by the crosses of the reduced
    pipe dreams of w (Knutson-Miller, Ann. Math. 2005, Thm B), so its
    minimal vertex covers, as sets of cells, are those pipe dreams.  This
    reads where each cross sits in its row, which the row sums above do
    not; the brute-force enumeration keeps it at S_5."""
    for w in all_permutations(n):
        assert set(_minimal_covers_of_j_w(w)) == _reduced_pipe_dreams(w), w.one_line()
