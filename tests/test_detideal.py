"""Schubert determinantal ideals, antidiagonal initial ideals, and the
monomial-ideal utilities.  Golden values come from the worked 35142 example;
sweeps re-derive everything from definitions or independent brute force."""

import itertools
import json
import math
import random

import pytest

from msvkit.perm import (PartialPermutation, all_partial_permutations,
                         all_permutations, coxeter_length, extend_to_permutation,
                         identity)
from msvkit.poly import IdealPresentation, PolyRing, ideals_equal, minor, certified
from msvkit.ci import minimal_generator_count
from msvkit.detideal import (MonomialIdeal, antidiagonal_ideal, colon_by_variable,
                             fulton_generators, graded_minimal_generators,
                             is_nonzerodivisor_on_monomial_quotient, monomial_codim,
                             monomial_quotient_membership, verify_groebner)


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
    schubert = fulton_generators(identity(4))
    assert schubert.generators == ()
    assert schubert.raw_generators == ()
    assert minimal_generator_count(identity(4)) == 0


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
        assert ideals_equal(IdealPresentation(essential.ring, essential.generators),
                            IdealPresentation(over_diagram.ring, over_diagram.raw_generators))


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
    assert antidiagonal_ideal(identity(5)).is_zero


def test_antidiagonal_ideal_is_squarefree():
    for w in all_permutations(4):
        assert antidiagonal_ideal(w).is_squarefree()


def test_antidiagonal_ideal_equals_leading_terms_of_raw_minors():
    # dual route: direct antidiagonal products vs leading terms of the
    # expanded minors, minimalized
    for w in itertools.chain(all_permutations(4), [w_("35142")]):
        schubert = fulton_generators(w)
        from_leads = MonomialIdeal.from_monomials(
            schubert.ring, (g.leading_monomial() for g in schubert.raw_generators))
        assert from_leads.gens == antidiagonal_ideal(w, schubert.ring).gens


# ---------------------------------------------------------------------------
# Groebner verification
# ---------------------------------------------------------------------------

def test_verify_groebner_35142_and_identity():
    with certified():
        assert verify_groebner(w_("35142")).match
        assert verify_groebner(identity(4)).match


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
    if J.is_zero:
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
    principal = MonomialIdeal.from_monomials(r, [r.monomial({(1, 1): 1})])
    assert monomial_codim(principal) == 1
    assert monomial_codim(antidiagonal_ideal(w_("35142"))) == 6
    assert monomial_codim(antidiagonal_ideal(w_("462153"))) == 9
    assert monomial_codim(MonomialIdeal.from_monomials(r, [])) == 0


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
        J = MonomialIdeal.from_monomials(r, gens)
        assert monomial_codim(J) == _brute_force_codim(J)


def test_monomial_codim_equals_length_for_s5():
    for w in all_permutations(5):
        assert monomial_codim(antidiagonal_ideal(w)) == coxeter_length(w)


def test_monomial_codim_rejects_non_squarefree():
    r = PolyRing(2, 2)
    J = MonomialIdeal.from_monomials(r, [r.monomial({(1, 1): 2})])
    with pytest.raises(ValueError):
        monomial_codim(J)


# ---------------------------------------------------------------------------
# Monomial membership and the nonzerodivisor test
# ---------------------------------------------------------------------------

def test_monomial_quotient_membership_goldens():
    r = PolyRing(5, 5)
    assert monomial_quotient_membership(r.zero(), [r.monomial({(1, 1): 1})])
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
    J2 = MonomialIdeal.from_monomials(r2, [r2.monomial({(1, 1): 1, (2, 2): 1})])
    assert not is_nonzerodivisor_on_monomial_quotient(r2.monomial({(1, 1): 1}), J2)
    J3 = MonomialIdeal.from_monomials(r2, [r2.monomial({(2, 2): 1})])
    assert is_nonzerodivisor_on_monomial_quotient(r2.monomial({(1, 1): 1}), J3)


def test_nonzerodivisor_agrees_with_the_colon_ideal_on_s4():
    for w in all_permutations(4):
        J = antidiagonal_ideal(w)
        for i in range(1, 5):
            for j in range(1, 5):
                c = J.ring.monomial({(i, j): 1})
                assert is_nonzerodivisor_on_monomial_quotient(c, J) == \
                    (colon_by_variable(J, c).gens == J.gens)


def test_nonzerodivisor_requires_a_variable():
    J = antidiagonal_ideal(w_("2143"))
    with pytest.raises(ValueError):
        is_nonzerodivisor_on_monomial_quotient(J.ring.monomial({(1, 1): 1, (2, 2): 1}), J)


def test_monomial_ideal_minimalizes_its_generators():
    r = PolyRing(2, 2)
    x, y = r.monomial({(1, 1): 1}), r.monomial({(1, 1): 1, (2, 2): 1})
    J = MonomialIdeal.from_monomials(r, [y, x, x])
    assert J.gens == (x,)
    assert J.contains_monomial(y)
    assert not J.contains_monomial(r.monomial({(2, 2): 1}))


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
    assert graded_minimal_generators(r, [r.one(), x(1, 1)]) == ((0,), 1)


def test_graded_minimal_generators_requires_homogeneous_input():
    r = PolyRing(2, 2)
    with pytest.raises(ValueError):
        graded_minimal_generators(r, [r.variable(1, 1) + r.one()])


# ---------------------------------------------------------------------------
# Pipe dreams against Schubert polynomials
# ---------------------------------------------------------------------------

def _divided_difference(f, i):
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


def _schubert_polynomials(n):
    """The Schubert polynomial of every w in S_n, keyed by one-line tuple, by
    divided differences down from x1^(n-1) x2^(n-2) ... x_(n-1) at the
    longest element: S_(w s_i) = d_i S_w whenever w(i) > w(i+1)."""
    top = tuple(range(n, 0, -1))
    polynomials = {top: {tuple(range(n - 1, -1, -1)): 1}}
    frontier = [top]
    while frontier:
        below = []
        for w in frontier:
            for i in range(n - 1):
                v = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
                if w[i] > w[i + 1] and v not in polynomials:
                    polynomials[v] = _divided_difference(polynomials[w], i)
                    below.append(v)
        frontier = below
    return polynomials


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


def _pipe_dream_polynomial(w):
    """Sum over the minimal vertex covers of size l(w) of the generator
    supports of J_w of the product of x_row over each cover, as
    {exponent tuple: coefficient}; also returns the sizes of all minimal
    covers of at most l(w) vertices."""
    J = antidiagonal_ideal(w)
    supports = [frozenset((i, j) for i, j, _ in J.ring.grid_support(m)) for m in J.gens]
    covers = _minimal_covers(supports, coxeter_length(w))
    total = {}
    for cover in covers:
        e = [0] * w.size
        for i, _ in cover:
            e[i - 1] += 1
        total[tuple(e)] = total.get(tuple(e), 0) + 1
    return total, {len(c) for c in covers}


def test_pipe_dream_of_132_is_x1_plus_x2():
    total, sizes = _pipe_dream_polynomial(w_("132"))
    assert total == {(1, 0, 0): 1, (0, 1, 0): 1} == _schubert_polynomials(3)[(1, 3, 2)]
    assert sizes == {1}


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_pipe_dreams_of_the_antidiagonal_ideal_sum_to_the_schubert_polynomial(n):
    """The minimal primes of J_w are generated by the crosses of the reduced
    pipe dreams of w, all of them l(w) crosses (Knutson-Miller, Ann. Math.
    2005), so summing x_row over the crosses of the minimal vertex covers of
    size l(w) of its generator supports gives the Schubert polynomial;
    exhaustive over S_n, and the codimension of J_w is l(w)."""
    schubert = _schubert_polynomials(n)
    for w in all_permutations(n):
        total, sizes = _pipe_dream_polynomial(w)
        assert total == schubert[w.one_line()], w.one_line()
        assert sizes == {coxeter_length(w)} == {monomial_codim(antidiagonal_ideal(w))}, \
            w.one_line()
