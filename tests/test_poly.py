"""The exact polynomial engine: term order, minors, division, Buchberger and
saturation.  Expected values are either brute-forced in-test (permanent-style
determinant expansion, exhaustive comparisons) or hand-checked two-term
computations."""

import ast
import hashlib
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import msvkit.poly as poly
from msvkit.perm import PartialPermutation, all_permutations, render_one_line
from msvkit.detideal import fulton_generators, verify_groebner
from msvkit.frlab import build_localization, find_pivot, verify_all
from msvkit.poly import (EXPONENT_BOUND, ExponentOverflowError, GroebnerCertificationError,
                         IdealPresentation, Polynomial, PolyRing, _lcm, antidiagonal_monomial,
                         buchberger, certified, ideals_equal, minor,
                         monomial_coprime, monomial_divides, monomial_lcm,
                         monomial_mul, monomial_quotient, normal_form, normal_forms,
                         s_polynomial, saturate, transplant)
from reference import _parse_polynomial, is_reduced_groebner_basis
from substitution_oracle import pivot_substitution

RING = PolyRing(5, 5)


def mono(pairs):
    return RING.monomial(dict(pairs))


def rand_monomial(ring, rng, maxdeg=3):
    pairs = {}
    for _ in range(rng.randint(0, maxdeg)):
        pairs[(rng.randint(1, ring.rows), rng.randint(1, ring.cols))] = rng.randint(1, 2)
    return ring.monomial(pairs)


def rand_poly(ring, rng, nterms=4, maxdeg=3):
    terms = {}
    for _ in range(rng.randint(0, nterms)):
        terms[rand_monomial(ring, rng, maxdeg)] = rng.randint(-4, 4)
    return ring.polynomial(terms)


# ---------------------------------------------------------------------------
# Term order
# ---------------------------------------------------------------------------

def test_compare_antidiagonal_beats_diagonal():
    anti = mono({(1, 4): 1, (2, 3): 1})
    diag = mono({(1, 3): 1, (2, 4): 1})
    assert anti > diag
    assert diag < anti


def test_compare_reflexive_and_one_minimal():
    m = mono({(2, 2): 3})
    assert not (m < m or m > m)
    one = RING.one_monomial()
    for pairs in ({(1, 1): 1}, {(5, 5): 2}, {(3, 4): 1, (4, 3): 1}):
        assert one < mono(pairs)


def test_order_is_total_and_multiplicative():
    rng = random.Random(5)
    monomials = [rand_monomial(RING, rng) for _ in range(60)]
    for a, b in itertools.combinations(monomials, 2):
        assert (a < b) + (a == b) + (a > b) == 1
        assert (a < b, a > b) == (b > a, b < a)
    for _ in range(200):
        a, b, u = (rand_monomial(RING, rng) for _ in range(3))
        if a > b:
            assert monomial_mul(a, u) > monomial_mul(b, u)


def test_monomial_helpers():
    a = mono({(1, 2): 2, (3, 3): 1})
    b = mono({(1, 2): 1})
    assert monomial_divides(b, a)
    assert not monomial_divides(a, b)
    assert monomial_quotient(a, b) == mono({(1, 2): 1, (3, 3): 1})
    assert monomial_lcm(a, b) == a
    assert monomial_coprime(b, mono({(3, 3): 2}))
    assert not monomial_coprime(a, b)


# cells of the 3x3 ring ``saturate`` builds for a 2x3 grid: the grid moved
# to rows 2..3, then x[1,3], the variable of highest precedence, as t
KERNEL_CELLS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (1, 3)]
KERNEL_EXPONENTS = st.tuples(*[st.integers(0, 3)] * len(KERNEL_CELLS))


@settings(max_examples=200, deadline=None)
@example(a=(2, 0, 0, 0, 0, 0, 0), b=(1, 0, 0, 0, 0, 0, 1), terms=[], c=1, char=0)
@given(a=KERNEL_EXPONENTS, b=KERNEL_EXPONENTS,
       terms=st.lists(st.tuples(KERNEL_EXPONENTS, st.integers(-7, 7)), max_size=5),
       c=st.integers(-7, 7), char=st.sampled_from([0, 101]))
def test_monomial_kernels_match_their_per_exponent_definitions(a, b, terms, c, char):
    # exponent lists: one entry per kernel cell, x[1,3] last; entries up to
    # 3 tell a product-of-exponents test from a bitwise one
    ring = PolyRing(3, 3, char=char)

    def m(exps):
        return ring.monomial(zip(KERNEL_CELLS, exps))

    divides = all(x <= y for x, y in zip(a, b))
    assert monomial_mul(m(a), m(b)) == m(x + y for x, y in zip(a, b))
    assert monomial_divides(m(a), m(b)) == divides
    if divides:
        assert monomial_quotient(m(b), m(a)) == m(y - x for x, y in zip(a, b))
    assert monomial_lcm(m(a), m(b)) == m(max(x, y) for x, y in zip(a, b))
    assert monomial_coprime(m(a), m(b)) == (not any(x > 0 and y > 0 for x, y in zip(a, b)))
    # the packed tests the engine inlines with the ring's guard mask: a
    # difference b - a of either sign sets no guard bit exactly when a | b,
    # the lcm is the product exactly for coprime monomials, and the
    # supports name the variables with a positive exponent
    assert (not (m(b) - m(a)) & ring._guard) == divides
    assert (not (m(a) - m(b)) & ring._guard) == all(x >= y for x, y in zip(a, b))
    assert _lcm(m(a), m(b), ring._guard) == _lcm(m(b), m(a), ring._guard) \
        == m(max(x, y) for x, y in zip(a, b))
    assert (monomial_lcm(m(a), m(b)) == monomial_mul(m(a), m(b))) \
        == (not any(x > 0 and y > 0 for x, y in zip(a, b)))
    assert len(ring.support(m(a))) == sum(1 for x in a if x)
    # b keeps its one term under division by a's variables, which erase
    # every term they divide by mask, iff it is free of them
    variables = [ring.variable(*cell) for cell, x in zip(KERNEL_CELLS, a) if x]
    assert bool(normal_forms([ring.polynomial({m(b): 1})], variables)[0]) \
        == monomial_coprime(m(a), m(b))
    assert normal_form(ring.polynomial({m(b): 1}), [ring.polynomial({m(a): 1})]).is_zero \
        == divides
    f = ring.polynomial([(m(e), v) for e, v in terms])
    shifted = ring.polynomial([(m(x + y for x, y in zip(e, a)), c * v) for e, v in terms])
    assert f.mul_term(m(a), c) == shifted


# exponents up to the bound, cell by cell
BOUNDED_EXPONENTS = st.tuples(*[st.integers(0, EXPONENT_BOUND)] * len(KERNEL_CELLS))
# the cells in decreasing variable precedence: rows first, columns descending,
# so x[1,3] first
PRECEDENCE = sorted(range(len(KERNEL_CELLS)),
                    key=lambda k: (KERNEL_CELLS[k][0], -KERNEL_CELLS[k][1]))


@settings(max_examples=300, deadline=None)
@example(a=(127,) * 7, b=(0,) * 7)
@example(a=(127, 0, 0, 0, 0, 0, 0), b=(1, 0, 0, 0, 0, 0, 0))
@example(a=(0, 0, 0, 0, 0, 0, 127), b=(0, 0, 0, 0, 0, 0, 1))
@example(a=(0, 0, 1, 0, 0, 0, 0), b=(127, 127, 0, 127, 127, 127, 0))
@given(a=BOUNDED_EXPONENTS, b=BOUNDED_EXPONENTS)
def test_packed_monomials_match_exponent_vectors_up_to_the_bound(a, b):
    ring = PolyRing(3, 3)

    def m(exps):
        return ring.monomial(zip(KERNEL_CELLS, exps))

    def lex_key(exps):
        # the exponent tuple in decreasing variable precedence
        return tuple(exps[k] for k in PRECEDENCE)

    assert (m(a) < m(b)) == (lex_key(a) < lex_key(b))
    assert (m(a) == m(b)) == (a == b)
    assert ring.monomial_degree(m(a)) == sum(a)
    assert sorted(ring.grid_support(m(a))) == sorted(
        (i, j, e) for (i, j), e in zip(KERNEL_CELLS, a) if e)
    if all(x + y <= EXPONENT_BOUND for x, y in zip(a, b)):
        assert monomial_mul(m(a), m(b)) == m(x + y for x, y in zip(a, b))
    else:
        with pytest.raises(ExponentOverflowError):
            monomial_mul(m(a), m(b))
    divides = all(x <= y for x, y in zip(a, b))
    assert monomial_divides(m(a), m(b)) == divides
    assert (not (m(b) - m(a)) & ring._guard) == divides
    if divides:
        assert monomial_quotient(m(b), m(a)) == m(y - x for x, y in zip(a, b))
    assert monomial_lcm(m(a), m(b)) == _lcm(m(a), m(b), ring._guard) \
        == m(max(x, y) for x, y in zip(a, b))
    assert monomial_coprime(m(a), m(b)) == (not any(x and y for x, y in zip(a, b)))


@pytest.mark.parametrize("char", [0, 101])
def test_exponent_127_is_accepted_and_128_raises_on_every_raising_path(char):
    # x[1,2] is the variable of highest precedence, whose byte is the top one
    ring = PolyRing(2, 2, char=char)
    for name, power in (("x[1,1]", lambda e: ring.monomial({(1, 1): e})),
                        ("x[1,2]", lambda e: ring.monomial({(1, 2): e}))):
        f = ring.polynomial({power(126): 1, 0: 1})
        for e in (127, 128):
            paths = [
                lambda: power(e),
                lambda: ring.monomial([((1, 1), e - 1), ((1, 1), 1)]),
                lambda: monomial_mul(power(e - 1), power(1)),
                lambda: ring.parse(f"{name}^{e}"),
                lambda: ring.parse(f"{name}^{e - 1}*{name}"),
                lambda: ring.field.axpy({}, f._d.items(), 1, power(e - 126)),
                lambda: f.mul_term(power(e - 126)),
                lambda: f * ring.polynomial({power(e - 126): 1}),
            ]
            for path in paths:
                if e <= EXPONENT_BOUND:
                    path()
                else:
                    with pytest.raises(ExponentOverflowError, match="127"):
                        path()
    assert issubclass(ExponentOverflowError, ValueError)


def test_polynomial_rejects_what_is_no_monomial_of_the_ring():
    ring = PolyRing(2, 2)
    top = ring.monomial({cell: EXPONENT_BOUND for cell in itertools.product((1, 2), (1, 2))})
    assert ring.polynomial({top: 1}).monomials() == (top,)
    for bad in ((0,) * ring.nvars, 0.0, True, "0", None, -1, top + 1, 1 << 8 * ring.nvars,
                0x80, 0x80 << 24):
        with pytest.raises(ValueError, match="does not belong"):
            ring.polynomial({bad: 1})


def test_a_ring_has_at_most_max_variables():
    assert PolyRing(64, 64).nvars == poly.MAX_VARIABLES
    # 17 * 241 = 4097 variables, one above the bound
    for rows, cols in ((17, 241), (64, 65)):
        with pytest.raises(ValueError, match=str(poly.MAX_VARIABLES)):
            PolyRing(rows, cols)


def test_the_top_variable_ranks_above_every_monomial_free_of_it():
    # the order ``saturate`` eliminates t = x[1,cols] with: the largest
    # monomial free of t, every other variable at the exponent bound, ranks
    # below t, so every monomial free of t does
    r = PolyRing(3, 2)
    t = r.monomial({(1, 2): 1})
    heaviest = r.monomial({cell: EXPONENT_BOUND
                           for cell in itertools.product((1, 2, 3), (1, 2)) if cell != (1, 2)})
    assert t > heaviest


# ---------------------------------------------------------------------------
# Minors
# ---------------------------------------------------------------------------

def test_minor_goldens():
    assert minor(RING, [1], [3]) == RING.variable(1, 3)
    m = minor(RING, [1, 2], [3, 4])
    assert m == RING.parse("x[1,3]*x[2,4] - x[1,4]*x[2,3]")
    assert str(m) == "-x[1,4]*x[2,3] + x[1,3]*x[2,4]"


def _det_by_permanent_expansion(ring, rows, cols):
    """Independent determinant: straight Leibniz sum in the test."""
    t = len(rows)
    total = ring.zero()
    for perm in itertools.permutations(range(t)):
        sign = 1
        for i in range(t):
            for j in range(i + 1, t):
                if perm[i] > perm[j]:
                    sign = -sign
        term = ring.const(sign)
        for k in range(t):
            term = term * ring.variable(rows[k], cols[perm[k]])
        total = total + term
    return total


def test_minor_matches_independent_expansion_all_sizes():
    rng = random.Random(3)
    sites = [((1, 2, 3, 4, 5), (1, 2, 3, 4, 5))]
    for _ in range(8):
        t = rng.randint(1, 4)
        rows = tuple(sorted(rng.sample(range(1, 6), t)))
        cols = tuple(sorted(rng.sample(range(1, 6), t)))
        sites.append((rows, cols))
    full = tuple(range(1, 7))
    for char in (0, 2, 32003):  # over F_2, -1 = 1
        five = PolyRing(5, 5, char=char)
        cases = [(five, rows, cols) for rows, cols in sites]
        cases.append((PolyRing(6, 6, char=char), full, full))
        for ring, rows, cols in cases:
            assert minor(ring, rows, cols) == _det_by_permanent_expansion(ring, rows, cols)


def test_minor_validation():
    # an antidiagonal of unsorted or repeated indices would name the
    # diagonal, or a product of two entries in one row
    for rows, cols in ([(1, 2), (3,)], [(2, 1), (1, 2)], [(1, 1), (1, 2)],
                       [(1, 6), (1, 2)], [(1, 1), (2, 3)], [(), ()], [(0, 1), (1, 2)]):
        for build in (minor, antidiagonal_monomial):
            with pytest.raises(ValueError):
                build(RING, rows, cols)
    with pytest.raises(ValueError):
        antidiagonal_monomial(PolyRing(2, 4), [2, 1], [1, 2])


def test_leading_term_goldens():
    f = minor(RING, [1, 2], [3, 4])
    c, m = f.leading_coefficient(), f.leading_monomial()
    assert (c, m) == (-1, mono({(1, 4): 1, (2, 3): 1}))
    x11 = RING.variable(1, 1)
    assert (x11.leading_coefficient(), x11.leading_monomial()) == (1, mono({(1, 1): 1}))
    m4 = minor(RING, [1, 2, 3, 4], [1, 2, 3, 4]).leading_monomial()
    assert m4 == mono({(1, 4): 1, (2, 3): 1, (3, 2): 1, (4, 1): 1})
    with pytest.raises(ValueError):
        RING.zero().leading_monomial()
    with pytest.raises(ValueError):
        RING.zero().leading_coefficient()


def test_every_5x5_minor_leads_with_its_antidiagonal():
    for t in range(1, 6):
        for rows in itertools.combinations(range(1, 6), t):
            for cols in itertools.combinations(range(1, 6), t):
                assert minor(RING, rows, cols).leading_monomial() == \
                    antidiagonal_monomial(RING, rows, cols)


# ---------------------------------------------------------------------------
# Ring axioms (exact, both coefficient fields)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("char", [0, 32003])
def test_ring_axioms_randomized(char):
    ring = PolyRing(3, 3, char=char)
    rng = random.Random(char + 1)
    for _ in range(40):
        f, g, h = (rand_poly(ring, rng) for _ in range(3))
        assert (f + g) + h == f + (g + h)
        assert f + g == g + f
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f + ring.zero() == f
        assert f * ring.one() == f
        assert f - f == ring.zero()


def test_fraction_coefficients_are_exact():
    f = RING.polynomial({mono({(1, 1): 1}): Fraction(1, 3)})
    assert (f + f + f) == RING.variable(1, 1)


@pytest.mark.parametrize("char", [0, 5, 32003])
def test_coefficients_are_ints_or_fractions_in_every_field(char):
    # a float, a string or None is refused, never truncated into the field
    ring = PolyRing(2, 2, char)
    x = ring.variable(1, 1)
    for bad in (2.5, 2.0, 2.9, "12", None, 1j):
        with pytest.raises(TypeError):
            ring.const(bad)
        with pytest.raises(TypeError):
            x * bad
        with pytest.raises(TypeError):
            x + bad
        with pytest.raises(TypeError):
            ring.polynomial({x.leading_monomial(): bad})
        assert not ring.const(2) == bad
        assert ring.const(2) != bad
    assert x in [None, x] and x != None and None != x
    assert ring.const(True) == ring.one() and ring.const(False) == ring.zero()
    assert ring.const(Fraction(3, 2)) * 2 == ring.const(3)
    # a polynomial never equals a scalar, so equal objects hash equal
    assert ring.const(2) != 2 and 2 not in {ring.const(2)}
    assert (x * 7 - x * 2) == x * 5


HASH_CELLS = [(1, 1), (1, 2), (2, 1), (2, 2)]
HASH_TERMS = st.lists(st.tuples(st.tuples(*[st.integers(0, 2)] * len(HASH_CELLS)),
                                st.integers(-4, 4)), max_size=4)


@given(char=st.sampled_from([0, 2, 32003]), a=HASH_TERMS, b=HASH_TERMS,
       shift=st.integers(-2, 2), scalar=st.integers(-4, 4))
def test_equal_polynomials_hash_equal(char, a, b, shift, scalar):
    # a == b must imply hash(a) == hash(b), for polynomials built along
    # different routes and for a polynomial against a scalar
    ring = PolyRing(2, 2, char)

    def build(terms):
        return ring.polynomial([(ring.monomial(zip(HASH_CELLS, e)), c) for e, c in terms])

    f, g = build(a), build(b)
    # the same terms in reverse order, their coefficients moved by a
    # multiple of the characteristic and given as Fractions
    same = build([(e, Fraction(c + shift * char)) for e, c in reversed(a)])
    assert f == same
    for x, y in ((f, g), (f, same), (f, f + g - g), (g, g * ring.one()),
                 (f, ring.const(scalar)), (f, scalar), (f, Fraction(scalar, 3)),
                 (scalar, f)):
        if x == y:
            assert hash(x) == hash(y), (x, y)
    assert len({f, same, f + g - g}) == 1


# ---------------------------------------------------------------------------
# Linear independence over the field
# ---------------------------------------------------------------------------

INDEPENDENT_CELLS = [(1, 1), (1, 2), (2, 1), (2, 2)]
# each row is fresh terms, or a combination (index, coefficient) of the rows
# before it, with indices taken modulo their number
INDEPENDENT_ROWS = st.lists(st.one_of(
    st.tuples(st.just("terms"), st.lists(
        st.tuples(st.tuples(*[st.integers(0, 1)] * len(INDEPENDENT_CELLS)), st.integers(-3, 3)),
        max_size=4)),
    st.tuples(st.just("combination"), st.lists(
        st.tuples(st.integers(0, 7), st.integers(-3, 3)), min_size=1, max_size=3))),
    max_size=7)
X11 = (1, 0, 0, 0)
X12_X21 = (0, 1, 1, 0)
X22 = (0, 0, 0, 1)


def _rank(vectors, char):
    """The rank of dense coefficient vectors by Gauss-Jordan elimination over
    the rationals (char 0) or the field with char elements."""
    if char:
        rows = [[v % char for v in vec] for vec in vectors]
    else:
        rows = [[Fraction(v) for v in vec] for vec in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inverse = pow(rows[rank][col], -1, char) if char else 1 / rows[rank][col]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col] * inverse
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
                if char:
                    rows[r] = [a % char for a in rows[r]]
        rank += 1
    return rank


@settings(max_examples=200, deadline=None)
# a duplicate
@example(rows=[("terms", [(X11, 1), (X12_X21, 2)]), ("combination", [(0, 1)])], char=0)
# a scalar multiple
@example(rows=[("terms", [(X11, 1), (X12_X21, 2)]), ("combination", [(0, 3)])], char=32003)
# a row in the span of the two before it, then an independent one
@example(rows=[("terms", [(X11, 1), (X12_X21, 2)]), ("terms", [(X12_X21, 1), (X22, -1)]),
               ("combination", [(0, 2), (1, -3)]), ("terms", [(X22, 1)])], char=0)
# the zero polynomial, first and after a kept row
@example(rows=[("terms", []), ("terms", [(X22, 1)]), ("terms", [(X11, 2), (X11, -2)])],
         char=2)
# a row that vanishes mod 2 only
@example(rows=[("terms", [(X11, 1)]), ("combination", [(0, 2)])], char=2)
@given(rows=INDEPENDENT_ROWS, char=st.sampled_from([0, 2, 32003]))
def test_independent_keeps_exactly_the_rows_that_raise_the_rank(rows, char):
    ring = PolyRing(2, 2, char)
    fs = []
    for kind, data in rows:
        if kind == "terms":
            fs.append(ring.polynomial([(ring.monomial(zip(INDEPENDENT_CELLS, e)), c)
                                       for e, c in data]))
        else:
            fs.append(sum((fs[k % len(fs)] * c for k, c in data), ring.zero())
                      if fs else ring.zero())
    columns = sorted({m for f in fs for m in f.monomials()})
    vectors = [[f.coefficient(m) for m in columns] for f in fs]
    expected = tuple(k for k in range(len(fs))
                     if _rank(vectors[:k + 1], char) > _rank(vectors[:k], char))
    assert poly.independent(fs) == expected
    assert poly.independent(fs[k] for k in expected) == tuple(range(len(expected)))


def test_independent_rejects_polynomials_of_different_rings():
    for other in (PolyRing(2, 3), PolyRing(2, 2, 5)):
        with pytest.raises(ValueError, match="common ring"):
            poly.independent([PolyRing(2, 2).variable(1, 1), other.variable(1, 1)])
    assert poly.independent([]) == ()


# ---------------------------------------------------------------------------
# Division
# ---------------------------------------------------------------------------

def test_normal_form_member_reduces_to_zero():
    gens = fulton_generators(PartialPermutation.from_one_line("35142")).generators
    assert normal_form(minor(PolyRing(5, 5), [1, 2], [3, 4]), gens).is_zero


def test_normal_form_division_identity():
    g = RING.parse("x[1,3]*x[2,4] - x[1,4]*x[2,3]")
    f = RING.variable(1, 1) * g + RING.variable(2, 2)
    assert normal_form(f, [g]) == RING.variable(2, 2)


def test_normal_form_prefers_smallest_leading_monomial_then_input_order():
    # equal leading monomials: ties break by input order
    g1 = RING.parse("x[1,2] - x[1,1]")
    g2 = RING.parse("x[1,2] - x[2,1]")
    assert normal_form(RING.variable(1, 2), [g1, g2]) == RING.variable(1, 1)
    assert normal_form(RING.variable(1, 2), [g2, g1]) == RING.variable(2, 1)
    # the reducer with the smaller leading monomial wins over input order
    a = RING.parse("x[1,2] - x[2,2]")
    b = RING.parse("x[1,1]*x[1,2] - x[3,3]")
    f = RING.variable(1, 1) * RING.variable(1, 2)
    assert normal_form(f, [b, a]) == RING.variable(1, 1) * RING.variable(2, 2)


def test_normal_form_remainder_is_in_the_coset():
    rng = random.Random(17)
    for ring in (PolyRing(2, 3), PolyRing(2, 3, char=32003)):
        for _ in range(15):
            gens = [g for g in (rand_poly(ring, rng, 3, 2) for _ in range(2)) if g]
            if not gens:
                continue
            f = rand_poly(ring, rng, 3, 2)
            r = normal_form(f, gens)
            gb = buchberger(gens)
            assert normal_form(f - r, gb).is_zero
            for m, _ in r.terms():
                assert not any(monomial_divides(g.leading_monomial(), m) for g in gens)
            # one shared reducer list gives each dividend its own normal form
            fs = [f, f - r, ring.one()] + [rand_poly(ring, rng, 4, 3) for _ in range(3)]
            for reducers in (gens, gb):
                assert normal_forms(fs, reducers) == tuple(normal_form(h, reducers) for h in fs)
    assert normal_forms((), [RING.one()]) == ()


def test_normal_form_rejects_zero_reducers():
    with pytest.raises(ValueError):
        normal_form(RING.one(), [RING.zero()])


# ---------------------------------------------------------------------------
# Buchberger
# ---------------------------------------------------------------------------

def test_buchberger_principal_monomial_ideal():
    assert buchberger([RING.variable(1, 1)]) == (RING.variable(1, 1),)


def test_buchberger_unit_ideal():
    r = PolyRing(2, 2)
    gb = buchberger([r.parse("x[1,1]*x[2,2] - 1"), r.parse("x[1,1]")])
    assert gb == (r.one(),)


def test_buchberger_fulton_35142_leads_are_antidiagonals():
    w = PartialPermutation.from_one_line("35142")
    schubert = fulton_generators(w)
    with certified():
        gb = buchberger(schubert.generators)
    assert is_reduced_groebner_basis(gb)
    leads = {g.leading_monomial() for g in gb}
    ring = schubert.ring
    assert leads == {
        ring.monomial({(1, 1): 1}), ring.monomial({(1, 2): 1}),
        ring.monomial({(2, 1): 1}), ring.monomial({(2, 2): 1}),
        ring.monomial({(1, 4): 1, (2, 3): 1}), ring.monomial({(3, 2): 1, (4, 1): 1}),
    }


def test_buchberger_is_independent_of_the_generating_set():
    w = PartialPermutation.from_one_line("35142")
    schubert = fulton_generators(w)
    assert buchberger(schubert.generators) == buchberger(schubert.raw_generators)


def test_buchberger_every_s_pair_reduces_to_zero():
    gens = fulton_generators(PartialPermutation.from_one_line("3142")).generators
    gb = buchberger(gens)
    for f, g in itertools.combinations(gb, 2):
        assert normal_form(s_polynomial(f, g), gb).is_zero
    for g in gens:
        assert normal_form(g, gb).is_zero


# squarefree terms over four variables: lex bases of random ideals with
# higher exponents can take minutes
BASIS_CELLS = [(1, 1), (1, 2), (2, 1), (2, 2)]
BASIS_GENERATORS = st.lists(
    st.lists(st.tuples(st.tuples(*[st.integers(0, 1)] * len(BASIS_CELLS)),
                       st.integers(-3, 3)), min_size=1, max_size=3),
    max_size=3)


@settings(max_examples=100, deadline=None)
@example(a=[], b=[[((1, 0, 0, 1), 1), ((0, 1, 1, 0), -1)]], char=0)
@example(a=[[((1, 0, 0, 1), 1), ((0, 1, 1, 0), -1)]], b=[], char=0)
@example(a=[], b=[], char=32003)
@given(a=BASIS_GENERATORS, b=BASIS_GENERATORS, char=st.sampled_from([0, 32003]))
def test_extending_a_basis_is_buchberger_on_the_union(a, b, char):
    ring = PolyRing(2, 2, char=char)

    def ideal(gens):
        polys = (ring.polynomial([(ring.monomial(zip(BASIS_CELLS, e)), c) for e, c in g])
                 for g in gens)
        return tuple(f for f in polys if f)

    A, B = ideal(a), ideal(b)
    with certified():
        assert buchberger(B, basis=buchberger(A)) == buchberger(A + B)


# squarefree generators in a 2 x 3 ring, cells in row-major order with the
# columns ascending, and variables (cell index, coefficient) mixed in
SPLIT_CELLS = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)]
SPLIT_GENERATORS = st.lists(
    st.lists(st.tuples(st.tuples(*[st.integers(0, 1)] * len(SPLIT_CELLS)),
                       st.integers(-3, 3)), min_size=1, max_size=3),
    max_size=3)
SPLIT_VARIABLES = st.lists(
    st.tuples(st.integers(0, len(SPLIT_CELLS) - 1), st.integers(1, 3) | st.integers(-3, -1)),
    min_size=1, max_size=3)
DIVIDENDS = st.lists(
    st.lists(st.tuples(st.tuples(*[st.integers(0, 2)] * len(SPLIT_CELLS)),
                       st.integers(-3, 3)), min_size=1, max_size=4),
    min_size=1, max_size=3)
X11_X22 = (1, 0, 0, 0, 1, 0)
X12_X21 = (0, 1, 0, 1, 0, 0)


def _division_scanning_every_reducer(f, reducers):
    """The remainder of f by monic ``reducers``: the largest term left is
    reduced by the reducer with the smallest lead that divides it, every
    reducer scanned, variables included."""
    ring = f.ring
    reducers = sorted(reducers, key=lambda g: g.leading_monomial())
    assert all(g.leading_coefficient() == 1 for g in reducers)
    remainder = ring.zero()
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


@settings(max_examples=150, deadline=None)
# a duplicated variable
@example(others=[[(X11_X22, 1), (X12_X21, -1)]], variables=[(0, 1), (0, 1)],
         dividends=[[(X11_X22, 1)]], shuffle=0, char=0)
# a variable with a coefficient other than 1
@example(others=[[(X11_X22, 1), (X12_X21, -1)]], variables=[(3, -2)],
         dividends=[[(X12_X21, 3), ((0, 0, 0, 2, 0, 1), 1)]], shuffle=1, char=32003)
# a variable dividing another generator's lead: x[1,3] | x[1,3]*x[2,1]
@example(others=[[((0, 0, 1, 1, 0, 0), 1), (X11_X22, -1)], [((0, 1, 1, 0, 0, 0), 1)]],
         variables=[(2, 1)], dividends=[[((0, 0, 1, 1, 0, 0), 1), (X11_X22, 2)]],
         shuffle=2, char=0)
# the unit ideal: x[1,1] erases x[1,1] + 1 down to 1
@example(others=[[((1, 0, 0, 0, 0, 0), 1), ((0,) * 6, 1)]], variables=[(0, 1)],
         dividends=[[((0,) * 6, 5)]], shuffle=0, char=0)
@given(others=SPLIT_GENERATORS, variables=SPLIT_VARIABLES, dividends=DIVIDENDS,
       shuffle=st.integers(0, 2 ** 16), char=st.sampled_from([0, 32003]))
def test_splitting_off_the_variables_is_buchberger_on_the_union(
        others, variables, dividends, shuffle, char):
    """``buchberger`` without ``basis=`` splits off the variables; extending
    by ``basis=`` does not split, so with the variables as the known basis
    it runs the core on everything.  And ``normal_forms`` erases by the
    variables of a basis before scanning, which gives the remainder of a
    division that scans every reducer."""
    ring = PolyRing(2, 3, char=char)

    def polys(gens):
        made = (ring.polynomial([(ring.monomial(zip(SPLIT_CELLS, e)), c) for e, c in g])
                for g in gens)
        return [f for f in made if f]

    rest = polys(others)
    xs = [ring.variable(*SPLIT_CELLS[k]).scale(c) for k, c in variables]
    gens = rest + xs
    random.Random(shuffle).shuffle(gens)
    monic = sorted({ring.variable(*SPLIT_CELLS[k]) for k, _ in variables},
                   key=lambda g: g.leading_monomial())
    with certified():
        gb = buchberger(gens)
        assert gb == buchberger(rest, basis=monic)
    if gb != (ring.one(),):
        assert set(monic) <= set(gb)
    fs = polys(dividends)
    assert normal_forms(fs, gb) == tuple(_division_scanning_every_reducer(f, gb) for f in fs)


@pytest.mark.parametrize("char", [0, 32003])
def test_extending_the_basis_of_i_w_by_the_pivot_is_buchberger_on_the_union(char):
    ring = PolyRing(5, 5, char=char)
    words = [w for w in all_permutations(5) if find_pivot(w) is not None]
    assert len(words) == 78
    for w in words:
        gb_w = buchberger(fulton_generators(w, ring).generators)
        c = ring.variable(*find_pivot(w))
        with certified():
            assert buchberger((c,), basis=gb_w) == buchberger((c,) + gb_w), \
                render_one_line(w)


def test_a_basis_that_is_no_groebner_basis_fails_certification():
    r = PolyRing(2, 2)
    not_a_basis = (r.parse("x[1,2]^2 - x[1,1]*x[2,2]"), r.parse("x[1,2]*x[2,1] - 1"))
    assert not is_reduced_groebner_basis(not_a_basis)
    with certified(), pytest.raises(GroebnerCertificationError):
        buchberger((r.variable(2, 2),), basis=not_a_basis)


def test_extending_a_groebner_basis_that_is_not_reduced_fails_certification():
    # known elements are not re-reduced, so a basis with a reducible tail
    # comes back as it is and certification rejects the output
    r = PolyRing(2, 2)
    not_reduced = (r.variable(1, 1), r.parse("x[1,2] - x[1,1]"))
    assert ideals_equal(IdealPresentation(r, not_reduced),
                        IdealPresentation(r, buchberger(not_reduced)))
    assert not is_reduced_groebner_basis(not_reduced)
    with certified(), pytest.raises(GroebnerCertificationError, match="auto-reduced"):
        buchberger((r.variable(2, 2),), basis=not_reduced)
    # a new lead dividing a known element's tail does rewrite that element
    with certified():
        assert buchberger((r.variable(1, 1),), basis=(r.parse("x[1,2] - x[1,1]"),)) == \
            (r.variable(1, 1), r.variable(1, 2))


def test_certification_rejects_a_cached_lead_that_is_not_the_largest_term():
    r = PolyRing(2, 2)
    f = r.parse("x[1,2] - x[1,1]")
    assert f.leading_monomial() == f.monomials()[0]
    wrong = Polynomial(r, dict(f.terms()), f.monomials()[1])
    assert is_reduced_groebner_basis((f,))
    assert not is_reduced_groebner_basis((wrong,))


def test_buchberger_rejects_zero_generators():
    with pytest.raises(ValueError):
        buchberger([RING.zero()])


def test_reduced_groebner_checker_detects_non_bases():
    bad = (RING.parse("x[1,2]^2 - x[1,1]*x[2,2]"), RING.variable(1, 2))
    with certified():
        gb = buchberger(bad)
    assert is_reduced_groebner_basis(gb)
    assert not is_reduced_groebner_basis(bad)


# ---------------------------------------------------------------------------
# Saturation
# ---------------------------------------------------------------------------

def test_saturate_principal_cases():
    r = PolyRing(2, 2)
    c = r.variable(1, 1)
    I = IdealPresentation(r, (c * r.variable(2, 2),))
    assert saturate(I, c).generators == (r.variable(2, 2),)
    J = IdealPresentation(r, (r.variable(1, 1),))
    assert saturate(J, r.variable(2, 2)).generators == (r.variable(1, 1),)


def test_saturate_strips_exactly_the_c_factors():
    r = PolyRing(2, 2)
    c = r.variable(1, 1)
    f = r.variable(2, 2)
    # I = <c * f * (1 + c f)>: saturating at c removes the c factor only
    I = IdealPresentation(r, (c * f + c * c * f * f,))
    sat = saturate(I, c)
    assert normal_form(f * (r.one() + c * f), sat.generators).is_zero
    assert not normal_form(f, sat.generators).is_zero


def test_saturate_idempotent_on_random_small_ideals():
    rng = random.Random(23)
    ring = PolyRing(2, 3)
    done = 0
    while done < 12:
        gens = tuple(g for g in (rand_poly(ring, rng, 3, 2) for _ in range(2)) if g)
        c = rand_poly(ring, rng, 2, 2)
        if not gens or c.is_zero:
            continue
        first = saturate(IdealPresentation(ring, gens), c)
        if not first.generators:
            done += 1
            continue
        second = saturate(first, c)
        assert ideals_equal(first, second)
        done += 1


def test_saturate_validation():
    with pytest.raises(ValueError):
        saturate(IdealPresentation(RING, (RING.one(),)), RING.zero())


def test_saturate_needs_one_grid_row_below_the_variable_bound():
    # the shifted grid has rows + 1 rows: 63 x 64 saturates in 64 x 64
    # variables, 64 x 64 would need 65 x 64
    fits = PolyRing(63, 64)
    I = IdealPresentation(fits, (fits.variable(1, 1) * fits.variable(2, 2),))
    assert saturate(I, fits.variable(1, 1)).generators == (fits.variable(2, 2),)
    full = PolyRing(64, 64)
    I = IdealPresentation(full, (full.variable(1, 1) * full.variable(2, 2),))
    with pytest.raises(ValueError, match=str(poly.MAX_VARIABLES)):
        saturate(I, full.variable(1, 1))


# ---------------------------------------------------------------------------
# Engine outputs over S_5, pinned by digest
# ---------------------------------------------------------------------------

def test_engine_outputs_match_the_pinned_digests():
    """sha256 digests of the rendered reduced bases of ``verify_groebner``
    over S_5, of ``verify_all(w).to_json()`` and of the two localization
    saturations over the pivot-admitting w in S_5.  Any change to division
    order, pair selection or interreduction that alters a basis shows here."""
    golden = json.loads((Path(__file__).parent / "golden" / "engine_digest.json").read_text())
    pivoted = [w for w in all_permutations(5) if find_pivot(w) is not None]
    summaries = hashlib.sha256()
    for w in pivoted:
        summaries.update(json.dumps(verify_all(w).to_json(), sort_keys=True).encode() + b"\n")
    assert {"verify_groebner_s5": _groebner_digest(5),
            "verify_all_s5": summaries.hexdigest(),
            "saturate_s5": _saturation_digest(pivoted, 0),
            "pivot_admitting_s5": len(pivoted)} == golden


def test_groebner_bases_over_s6_match_the_pinned_digest():
    """The rendered reduced bases of ``verify_groebner`` over all of S_6, as
    ``verify_groebner_s5`` of the engine digests is over S_5."""
    golden = json.loads((Path(__file__).parent / "golden" / "groebner_bases_s6.json").read_text())
    assert {"verify_groebner_s6": _groebner_digest(6)} == golden


def _groebner_digest(n):
    """sha256 of the rendered reduced bases of ``verify_groebner`` over S_n,
    each after its permutation's one-line word."""
    gb = hashlib.sha256()
    for w in all_permutations(n):
        gb.update(render_one_line(w).encode() + b"\n")
        for g in verify_groebner(w).basis:
            gb.update(str(g).encode() + b"\n")
    return gb.hexdigest()


def _saturation_digest(pivoted, char):
    """sha256 of the rendered saturations of I_w and of I' at the pivot, for
    each w in ``pivoted``, over the field of characteristic ``char``."""
    saturations = hashlib.sha256()
    for w in pivoted:
        setup = build_localization(w, PolyRing(w.size, w.size, char))
        ring = setup.ring
        c = ring.variable(*setup.c_cell)
        for gens in (fulton_generators(w, ring).generators,
                     setup.cleared_generators + setup.gamma_generators):
            saturations.update(render_one_line(w).encode() + b"\n")
            for g in saturate(IdealPresentation(ring, gens), c).generators:
                saturations.update(str(g).encode() + b"\n")
    return saturations.hexdigest()


def test_prime_field_saturations_over_s5_match_the_pinned_digests():
    """The two localization saturations over the pivot-admitting w in S_5,
    as in ``saturate_s5`` of the engine digests, over F_32003 and F_2."""
    golden = json.loads((Path(__file__).parent / "golden" / "saturate_prime_s5.json").read_text())
    pivoted = [w for w in all_permutations(5) if find_pivot(w) is not None]
    assert {str(p): _saturation_digest(pivoted, p) for p in (32003, 2)} == golden


def test_the_s_pairs_formed_over_s5_are_pinned(monkeypatch):
    """Counts of S-polynomials formed by ``verify_groebner`` over S_5 and by
    ``verify_all`` over its pivot-admitting permutations.  The packed
    divisibility and coprimality tests of the pair update are exact, so they
    form the same pairs as exponent-wise comparisons."""
    calls = [0]
    real_s_polynomial = poly.s_polynomial

    def counting_s_polynomial(f, g):
        calls[0] += 1
        return real_s_polynomial(f, g)

    monkeypatch.setattr(poly, "s_polynomial", counting_s_polynomial)
    for w in all_permutations(5):
        verify_groebner(w)
    groebner_pairs, calls[0] = calls[0], 0
    pivoted = [w for w in all_permutations(5) if find_pivot(w) is not None]
    for w in pivoted:
        verify_all(w)
    assert (groebner_pairs, len(pivoted), calls[0]) == (308, 78, 333)


# ---------------------------------------------------------------------------
# Rendering, parsing, transplanting
# ---------------------------------------------------------------------------

def test_render_parse_roundtrip_randomized():
    rng = random.Random(29)
    for char in (0, 32003):
        ring = PolyRing(3, 4, char=char)
        for _ in range(30):
            f = rand_poly(ring, rng)
            assert ring.parse(str(f)) == f


def test_parser_accepts_fractions_powers_and_any_term_order():
    f = RING.parse("3/2*x[1,1]^2 - 1/2 + x[2,2]*x[1,1]")
    assert f.coefficient(mono({(1, 1): 2})) == Fraction(3, 2)
    assert f.coefficient(RING.one_monomial()) == Fraction(-1, 2)
    assert RING.parse("x[1,3]*x[2,4] - x[1,4]*x[2,3]") == minor(RING, [1, 2], [3, 4])


def test_parser_rejects_garbage():
    for text in ("x[1,1] +", "y[1,1]", "x[1,1] & x[2,2]", "x[0]", "2/0"):
        with pytest.raises(ValueError):
            RING.parse(text)


# the grammar's tokens, whole factors and joiners to reach valid strings, and
# near misses: other names, a zero denominator, a non-ASCII decimal digit
# (ARABIC-INDIC DIGIT THREE), indices outside a 2x3 grid and exponents at and
# past the bound
PARSE_PIECES = ("x", "[", "]", ",", "*", "^", "+", "-", "/", " ", "\t", "\n",
                "0", "1", "2", "3", "12", "127", "y", "x1", "/0", "\u0663",
                "x[1,2]", "x[2,3]^2", "x[1,1]^127", "3/2", " + ", " - ", " * ")


@settings(max_examples=500, deadline=None)
@example(char=0, pieces=["2", "/0"])
@example(char=0, pieces=["x[1,1]^127", "*", "x[1,1]^127"])
@example(char=32003, pieces=[" - ", "3/2", "*", "x[2,3]^2", " + ", "\u0663"])
@given(char=st.sampled_from([0, 32003]),
       pieces=st.lists(st.sampled_from(PARSE_PIECES), max_size=12))
def test_parser_agrees_with_the_recursive_descent_reference(char, pieces):
    # both accept the same strings and build equal polynomials; an exponent
    # overflow in the reference is one in the scan too
    ring = PolyRing(2, 3, char=char)
    text = "".join(pieces)
    try:
        expected = _parse_polynomial(ring, text)
    except (ValueError, ZeroDivisionError) as exc:
        overflow = isinstance(exc, ExponentOverflowError)
        with pytest.raises(ExponentOverflowError if overflow else ValueError):
            ring.parse(text)
    else:
        assert ring.parse(text) == expected


def test_zero_renders_as_zero():
    assert str(RING.zero()) == "0"
    assert RING.parse("0").is_zero


def test_transplant_between_grids_preserves_sparse_form():
    small = PolyRing(2, 3)
    f = minor(small, [1, 2], [1, 3]) + small.variable(2, 2)
    lifted = transplant(f, RING)
    assert lifted.sparse_terms() == f.sparse_terms()
    back = transplant(lifted, small)
    assert back == f


def test_transplant_with_relabelling():
    small = PolyRing(2, 2)
    cell_map = {(1, 1): (2, 2), (1, 2): (2, 4), (2, 1): (3, 2), (2, 2): (3, 4)}
    f = minor(small, [1, 2], [1, 2])
    moved = transplant(f, RING, cell_map)
    assert moved == minor(RING, [2, 3], [2, 4])


def test_ideal_presentation_validation():
    with pytest.raises(ValueError):
        IdealPresentation(RING, (RING.zero(),))
    other = PolyRing(2, 2)
    with pytest.raises(ValueError):
        IdealPresentation(RING, (other.variable(1, 1),))


# ---------------------------------------------------------------------------
# Coefficient fields
# ---------------------------------------------------------------------------

def test_prime_characteristic_is_bounded_before_the_primality_test():
    with pytest.raises(ValueError, match=r"below 2\^31"):
        PolyRing(1, 1, char=618970019642690137449562111)
    with pytest.raises(ValueError, match=r"below 2\^31"):
        PolyRing(1, 1, char=2 ** 31)
    assert repr(PolyRing(1, 1, char=2 ** 31 - 1)) == "PolyRing(1x1 over GF(2147483647))"
    with pytest.raises(ValueError, match="prime"):
        PolyRing(1, 1, char=2 ** 31 - 3)


def _trial_division_is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def test_miller_rabin_agrees_with_trial_division():
    assert [p for p in range(20000) if poly._is_prime(p)] == \
        [p for p in range(20000) if _trial_division_is_prime(p)]
    rng = random.Random(41)
    # strong pseudoprimes to the bases 2; 2, 3; and 2, 3, 5, which base 7
    # must expose, the largest prime below 2^31, a seeded sample below 2^31
    # and the first primes among seeded odd numbers above 2^30
    sample = [2047, 3277, 1373653, 25326001, 161304001, 960946321, 1157839381,
              2 ** 31 - 1, 32003] + [rng.randrange(2 ** 31) for _ in range(400)]
    odd = (rng.randrange(2 ** 30, 2 ** 31) | 1 for _ in itertools.count())
    sample += itertools.islice(filter(_trial_division_is_prime, odd), 20)
    for p in sample:
        assert poly._is_prime(p) == _trial_division_is_prime(p), p


CELLS = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)]
EXPONENTS = st.tuples(*[st.integers(0, 2)] * len(CELLS))
TERMS = st.lists(st.tuples(EXPONENTS, st.integers(-10 ** 6, 10 ** 6)), max_size=6)


def _build(ring, terms):
    return ring.polynomial([(ring.monomial(zip(CELLS, e)), c) for e, c in terms])


@settings(max_examples=80, deadline=None)
@given(f=TERMS, g=TERMS, h=TERMS, u=EXPONENTS, c=st.integers(-10 ** 6, 10 ** 6),
       p=st.sampled_from([101, 32003]))
def test_prime_field_arithmetic_is_rational_arithmetic_reduced_mod_p(f, g, h, u, c, p):
    rationals, prime = PolyRing(2, 3), PolyRing(2, 3, char=p)
    fq, gq, hq = (_build(rationals, t) for t in (f, g, h))
    fp, gp, hp = (_build(prime, t) for t in (f, g, h))
    assert transplant(fq * gq - 3 * hq, prime) == fp * gp - 3 * hp
    assert transplant(-fq, prime) == -fp
    assert transplant(fq.mul_term(rationals.monomial(zip(CELLS, u)), c), prime) == \
        fp.mul_term(prime.monomial(zip(CELLS, u)), c)
    # the cached lead is the largest term after every operation; leads
    # cached on the inputs first are what monic and scaling pass on
    for ring, f_, g_, h_ in ((rationals, fq, gq, hq), (prime, fp, gp, hp)):
        for x in (f_, g_, h_):
            if x:
                x.leading_monomial()
        results = [f_ + g_, f_ - g_, -f_, f_ * g_ - h_, 3 * h_, f_.monic(),
                   f_.mul_term(ring.monomial(zip(CELLS, u)), c)]
        if f_ and g_:
            results.append(s_polynomial(f_, g_))
        if f_:
            results += [pivot_substitution(f_, 1, 2, sign, {}) for sign in (1, -1)]
        for x in results:
            assert not x or x.leading_monomial() == x.monomials()[0]


# ---------------------------------------------------------------------------
# The monomial and coefficient representation stays inside poly.py
# ---------------------------------------------------------------------------

def test_no_module_but_poly_reads_term_dicts_or_the_characteristic():
    # the coefficient field, its axpy and the grid exponents of a monomial
    # stay inside poly.py too
    package = Path(__file__).resolve().parent.parent / "src" / "msvkit"
    leaks = []
    for path in sorted(package.glob("*.py")):
        if path.name == "poly.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            if node.attr in ("_d", "char", "field", "axpy", "grid_support"):
                leaks.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert not leaks


def test_no_module_reads_another_modules_private_names():
    # the package's modules meet only through public names: neither
    # `from .poly import _name` nor `poly._name` on an imported module
    package = Path(__file__).resolve().parent.parent / "src" / "msvkit"
    modules = {path.stem for path in package.glob("*.py")}
    leaks = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("msvkit")):
                leaks += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                          if alias.name.startswith("_")]
            elif (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                  and isinstance(node.value, ast.Name) and node.value.id in modules - {path.stem}):
                leaks.append(f"{path.name}:{node.lineno} {node.value.id}.{node.attr}")
    assert not leaks


def _module_level_bindings(body):
    """(name, value) of the assignments in a module body, looking into
    module-level if/try/with/for blocks but not into functions or classes."""
    for node in body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            yield ast.unparse(node.target), node.value
        elif isinstance(node, (ast.If, ast.Try, ast.With, ast.For, ast.While)):
            for block in ("body", "orelse", "finalbody"):
                yield from _module_level_bindings(getattr(node, block, []))
            for handler in getattr(node, "handlers", []):
                yield from _module_level_bindings(handler.body)


def _is_empty_container(value):
    if isinstance(value, (ast.Dict, ast.List, ast.Set)):
        return not (value.keys if isinstance(value, ast.Dict) else value.elts)
    return (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id in ("dict", "list", "set"))


def test_no_module_level_cache_in_the_engine_modules():
    # expanded polynomials stay bounded: per-setup tables are caller-owned
    # dicts, never module-level ones (ci's bounded block cache is separate)
    package = Path(__file__).resolve().parent.parent / "src" / "msvkit"
    found = []
    for filename in ("poly.py", "detideal.py", "frlab.py"):
        tree = ast.parse((package / filename).read_text(), filename)
        found += [f"{filename}: {name}" for name, value in _module_level_bindings(tree.body)
                  if _is_empty_container(value)]
    assert not found
    probe = ast.parse("a = {}\nb: list = []\nc = set()\nif True:\n    d = dict()\n"
                      "e = {1: 2}\ndef f():\n    g = {}\n")
    assert [name for name, value in _module_level_bindings(probe.body)
            if _is_empty_container(value)] == ["a", "b", "c", "d"]
