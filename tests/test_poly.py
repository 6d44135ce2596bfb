"""The exact polynomial engine: term order, minors, division, Buchberger and
saturation.  Expected values are either brute-forced in-test (permanent-style
determinant expansion, exhaustive comparisons) or hand-checked two-term
computations."""

import ast
import hashlib
import itertools
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import msvkit.poly as poly
from msvkit.perm import PartialPermutation, all_permutations, render_one_line
from msvkit.detideal import fulton_generators, verify_groebner
from msvkit.frlab import build_localization, find_pivot, primed_ideal, verify_all
from msvkit.poly import (EXPONENT_BOUND, ExponentOverflowError, GroebnerCertificationError,
                         Polynomial, PolyRing, _lcm, antidiagonal_monomial,
                         buchberger, certified, corner_antidiagonals, corner_minors,
                         ideals_equal, minor,
                         monomial_divides, monomial_lcm,
                         monomial_mul, monomial_quotient, normal_form, normal_forms,
                         s_polynomial, saturate, transplant)
from reference import (_parse_polynomial, division_scanning_every_reducer,
                       is_reduced_groebner_basis, reference_buchberger, reference_minor)
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
    one = RING.monomial({})
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
    c = mono({(3, 3): 2})
    assert monomial_lcm(b, c) == monomial_mul(b, c)
    assert monomial_lcm(a, b) != monomial_mul(a, b)


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
        == (monomial_lcm(m(a), m(b)) == monomial_mul(m(a), m(b)))
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
        # the lcm is the product exactly for coprime monomials, which never
        # overflow
        assert (monomial_lcm(m(a), m(b)) == monomial_mul(m(a), m(b))) \
            == (not any(x and y for x, y in zip(a, b)))
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


# over F_2 the two signs are one coefficient, over F_3 -1 is 2
MINOR_CHARS = [0, 2, 3, 32003]


def test_minor_matches_independent_expansion_all_sizes():
    # every minor entry point against Leibniz's sum, which shares no code
    # with the kernel, at every site of a 5 x 5 grid and on the full 6 x 6;
    # corner_minors expands the 252 sites under one memo, so a sub-minor
    # reached from many sites is checked there too, and minor expands each
    # site under a memo of its own
    sites = [(rows, cols) for t in range(1, 6)
             for rows in itertools.combinations(range(1, 6), t)
             for cols in itertools.combinations(range(1, 6), t)]
    corners = [(5, 5, t) for t in range(1, 6)]
    full = tuple(range(1, 7))
    for char in MINOR_CHARS:
        ring = PolyRing(5, 5, char=char)
        expected = [reference_minor(ring, rows, cols) for rows, cols in sites]
        assert corner_minors(ring, corners) == (sites, expected)
        assert [minor(ring, rows, cols) for rows, cols in sites] == expected
        six = PolyRing(6, 6, char=char)
        assert minor(six, full, full) == reference_minor(six, full, full)


@st.composite
def _sites_and_corner(draw):
    """(n, sites, corner, picks): up to three sites of the n x n grid, n 6
    or 7, a corner (p, q, t) of it, and indices into the corner's sites."""
    n = draw(st.sampled_from([6, 7]))

    def indices(t):
        return tuple(sorted(draw(st.lists(st.integers(1, n), min_size=t, max_size=t,
                                          unique=True))))

    sites = [(indices(t), indices(t))
             for t in draw(st.lists(st.integers(1, n), min_size=1, max_size=3))]
    p, q = draw(st.integers(1, n)), draw(st.integers(1, n))
    corner = (p, q, draw(st.integers(1, min(p, q, 5))))
    return n, sites, corner, draw(st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=3))


FULL_7 = tuple(range(1, 8))


@settings(max_examples=30, deadline=None)
@example(case=(7, [(FULL_7, FULL_7), (FULL_7[1:], FULL_7[:-1])], (7, 7, 5), [0, 7, 440]),
         char=3)
@example(case=(6, [(FULL_7[:6], FULL_7[:6]), ((2, 4, 6), (1, 3, 5))], (6, 6, 4), [224]),
         char=2)
@given(case=_sites_and_corner(), char=st.sampled_from(MINOR_CHARS))
def test_sampled_6x6_and_7x7_sites_are_their_leibniz_sums(case, char):
    n, sites, corner, picks = case
    ring = PolyRing(n, n, char=char)
    expected = [reference_minor(ring, rows, cols) for rows, cols in sites]
    assert [minor(ring, rows, cols) for rows, cols in sites] == expected
    corner_sites, entries = corner_minors(ring, [corner])
    for k in picks:
        k %= len(corner_sites)
        assert entries[k] == reference_minor(ring, *corner_sites[k])


BAD_SITES = [((1, 2), (3,)), ((2, 1), (1, 2)), ((1, 1), (1, 2)), ((1, 6), (1, 2)),
             ((1, 1), (2, 3)), ((), ()), ((0, 1), (1, 2))]
BAD_SITE_MESSAGES = [
    "row and column index lists must be equal-length and nonempty",
    "index lists must be strictly increasing without repeats",
    "index lists must be strictly increasing without repeats",
    "minor indices leave the grid",
    "index lists must be strictly increasing without repeats",
    "row and column index lists must be equal-length and nonempty",
    "minor indices leave the grid",
]


def test_minor_validation():
    # an antidiagonal of unsorted or repeated indices would name the
    # diagonal, or a product of two entries in one row.  The corner entries
    # trust the sites they build; the one-site entries keep checking what
    # their callers hand them, each with its message.
    for (rows, cols), message in zip(BAD_SITES, BAD_SITE_MESSAGES, strict=True):
        for build in (minor, antidiagonal_monomial):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                build(RING, rows, cols)
    with pytest.raises(ValueError, match="^index lists must be strictly increasing"):
        antidiagonal_monomial(PolyRing(2, 4), [2, 1], [1, 2])


# (p, q, t): a corner of the 5 x 5 grid and a minor size that fits it
CORNERS = st.lists(st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda pq: st.tuples(st.just(pq[0]), st.just(pq[1]), st.integers(1, min(pq)))), max_size=4)


@settings(max_examples=40, deadline=None)
@example(corners=[(2, 2, 1), (2, 4, 2), (4, 2, 2), (2, 4, 2)], char=0)
@example(corners=[(5, 5, 5), (5, 4, 3)], char=2)
@given(corners=CORNERS, char=st.sampled_from([0, 2, 32003]))
def test_corner_entries_are_the_per_site_entries_at_every_site(corners, char):
    ring = PolyRing(5, 5, char=char)
    sites = [(rows, cols) for p, q, t in corners
             for rows in itertools.combinations(range(1, p + 1), t)
             for cols in itertools.combinations(range(1, q + 1), t)]
    assert corner_minors(ring, corners) == (sites, [minor(ring, rows, cols)
                                                    for rows, cols in sites])
    assert corner_antidiagonals(ring, corners) == [
        antidiagonal_monomial(ring, rows, cols) for rows, cols in sites]


@pytest.mark.parametrize("corner,message", [
    ((2, 3, 0), "a corner's minor size must be between 1 and its sides"),
    ((2, 3, 3), "a corner's minor size must be between 1 and its sides"),
    ((0, 3, 1), "a corner's minor size must be between 1 and its sides"),
    ((6, 2, 1), "corner leaves the grid"),
    ((2, 6, 2), "corner leaves the grid"),
])
def test_corner_entries_check_each_corner(corner, message):
    for build in (corner_minors, corner_antidiagonals):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build(RING, [(1, 1, 1), corner])


@pytest.mark.parametrize("word,expansions", [("1532476", 42), ("54321", 0), ("146253", 19)])
def test_fulton_generators_expands_each_sub_minor_once(monkeypatch, word, expansions):
    # an expansion is a Laplace call on a minor of size 3 and up that builds
    # a new term dict (a memo miss); the dicts stay referenced here, so two
    # expansions of the same (row suffix, column set) show as two distinct
    # dicts.  Smaller minors are closed forms outside the memo.
    laplace = poly._laplace
    built: dict = {}
    small: list = []

    def counting(ring, rows, cols, memo):
        d = laplace(ring, rows, cols, memo)
        site = (tuple(rows), tuple(cols))
        if len(cols) >= 3:
            built.setdefault(site, {})[id(d)] = d
        else:
            small.append(site)
        return d

    monkeypatch.setattr(poly, "_laplace", counting)
    schubert = fulton_generators(PartialPermutation.from_one_line(word))
    sites = [(rows, cols) for cell, r in schubert.cells
             for rows in itertools.combinations(range(1, cell.p + 1), r + 1)
             for cols in itertools.combinations(range(1, cell.q + 1), r + 1)]
    assert len(sites) == len(schubert.raw_generators)
    # expanding along first rows reaches every column subset of size 3 and
    # up of a site, with the matching suffix of its rows, and stops at the
    # 3 x 3 blocks: a 1 x 1 or 2 x 2 minor is only ever a site itself
    reached = {(rows[-size:], sub) for rows, cols in sites
               for size in range(3, len(cols) + 1) for sub in itertools.combinations(cols, size)}
    assert set(built) == reached
    assert all(len(dicts) == 1 for dicts in built.values())
    assert sum(map(len, built.values())) == expansions
    assert sorted(small) == sorted(site for site in sites if len(site[1]) < 3)


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
# x[1,2] divides the lead x[1,2]*x[2,1] of the other generator
@example(a=[[((1, 0, 0, 1), 1), ((0, 1, 1, 0), -1)]], b=[[((0, 1, 0, 0), 1)]], char=0)
# both generators lead with x[1,2]*x[2,1], so the basis that is minimalized
# carries that lead twice and keeps the first element with it
@example(a=[[((1, 0, 0, 1), 1), ((0, 1, 1, 0), -1)]], b=[[((0, 1, 1, 0), 1), ((0, 0, 1, 1), 2)]],
         char=0)
@given(a=BASIS_GENERATORS, b=BASIS_GENERATORS, char=st.sampled_from([0, 32003]))
def test_buchberger_is_the_textbook_algorithm(a, b, char):
    ring = PolyRing(2, 2, char=char)

    def ideal(gens):
        polys = (ring.polynomial([(ring.monomial(zip(BASIS_CELLS, e)), c) for e, c in g])
                 for g in gens)
        return tuple(f for f in polys if f)

    A, B = ideal(a), ideal(b)
    with certified():
        assert buchberger(A + B) == reference_buchberger(A + B)


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
    """``buchberger`` splits off the variables, which the textbook algorithm
    does not.  And ``normal_forms`` erases by the variables of a basis
    before scanning, which gives the remainder of a division that scans
    every reducer."""
    ring = PolyRing(2, 3, char=char)

    def polys(gens):
        made = (ring.polynomial([(ring.monomial(zip(SPLIT_CELLS, e)), c) for e, c in g])
                for g in gens)
        return [f for f in made if f]

    rest = polys(others)
    xs = [ring.variable(*SPLIT_CELLS[k]).scale(c) for k, c in variables]
    gens = rest + xs
    random.Random(shuffle).shuffle(gens)
    with certified():
        gb = buchberger(gens)
        assert gb == reference_buchberger(gens)
    if gb != (ring.one(),):
        assert {ring.variable(*SPLIT_CELLS[k]) for k, _ in variables} <= set(gb)
    fs = polys(dividends)
    assert normal_forms(fs, gb) == tuple(division_scanning_every_reducer(f, gb) for f in fs)


def test_a_basis_that_is_no_groebner_basis_fails_certification():
    r = PolyRing(2, 2)
    not_a_basis = (r.parse("x[1,2]*x[2,1] - 1"), r.parse("x[1,2]^2 - x[1,1]*x[2,2]"))
    assert not is_reduced_groebner_basis(not_a_basis)
    with pytest.raises(GroebnerCertificationError, match="S-polynomial"):
        poly._certify_basis(r, not_a_basis, not_a_basis)


def test_a_groebner_basis_that_is_not_reduced_fails_certification():
    # x[1,1] divides a term of the other element's tail
    r = PolyRing(2, 2)
    not_reduced = (r.variable(1, 1), r.parse("x[1,2] - x[1,1]"))
    assert ideals_equal(not_reduced, buchberger(not_reduced))
    assert not is_reduced_groebner_basis(not_reduced)
    with pytest.raises(GroebnerCertificationError, match="auto-reduced"):
        poly._certify_basis(r, not_reduced, not_reduced)
    with certified():
        assert buchberger(not_reduced) == (r.variable(1, 1), r.variable(1, 2))


def test_a_groebner_basis_that_is_not_minimal_fails_certification():
    # x[1,1] divides the other element's lead
    r = PolyRing(2, 2)
    not_minimal = (r.parse("x[1,1]"), r.parse("x[1,1]*x[1,2]"))
    assert not is_reduced_groebner_basis(not_minimal)
    with pytest.raises(GroebnerCertificationError, match="auto-reduced"):
        poly._certify_basis(r, not_minimal, not_minimal)
    with certified():
        assert buchberger(not_minimal) == (r.variable(1, 1),)


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
    assert saturate((c * r.variable(2, 2),), c) == (r.variable(2, 2),)
    assert saturate((r.variable(1, 1),), r.variable(2, 2)) == (r.variable(1, 1),)
    # the zero ideal: the basis of <1 - t*c> alone keeps nothing free of t
    assert saturate((), c) == saturate((), r.one()) == ()


def test_saturate_strips_exactly_the_c_factors():
    r = PolyRing(2, 2)
    c = r.variable(1, 1)
    f = r.variable(2, 2)
    # I = <c * f * (1 + c f)>: saturating at c removes the c factor only
    sat = saturate((c * f + c * c * f * f,), c)
    assert normal_form(f * (r.one() + c * f), sat).is_zero
    assert not normal_form(f, sat).is_zero


def test_saturate_idempotent_on_random_small_ideals():
    rng = random.Random(23)
    ring = PolyRing(2, 3)
    done = 0
    while done < 12:
        gens = tuple(g for g in (rand_poly(ring, rng, 3, 2) for _ in range(2)) if g)
        c = rand_poly(ring, rng, 2, 2)
        if not gens or c.is_zero:
            continue
        first = saturate(gens, c)
        if not first:
            done += 1
            continue
        second = saturate(first, c)
        assert ideals_equal(first, second)
        done += 1


def test_saturate_validation():
    with pytest.raises(ValueError):
        saturate((RING.one(),), RING.zero())


def test_saturate_generator_validation():
    with pytest.raises(ValueError):
        saturate((RING.zero(),), RING.variable(1, 1))
    other = PolyRing(2, 2)
    with pytest.raises(ValueError):
        saturate((other.variable(1, 1),), RING.variable(1, 1))


def test_saturate_needs_one_grid_row_below_the_variable_bound():
    # the shifted grid has rows + 1 rows: 63 x 64 saturates in 64 x 64
    # variables, 64 x 64 would need 65 x 64
    fits = PolyRing(63, 64)
    I = (fits.variable(1, 1) * fits.variable(2, 2),)
    assert saturate(I, fits.variable(1, 1)) == (fits.variable(2, 2),)
    full = PolyRing(64, 64)
    I = (full.variable(1, 1) * full.variable(2, 2),)
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
        _, _, cleared, gamma = primed_ideal(setup)
        for gens in (fulton_generators(w, ring).generators, cleared + gamma):
            saturations.update(render_one_line(w).encode() + b"\n")
            for g in saturate(gens, c):
                saturations.update(str(g).encode() + b"\n")
    return saturations.hexdigest()


def test_prime_field_saturations_over_s5_match_the_pinned_digests():
    """The two localization saturations over the pivot-admitting w in S_5,
    as in ``saturate_s5`` of the engine digests, over F_32003 and F_2."""
    golden = json.loads((Path(__file__).parent / "golden" / "saturate_prime_s5.json").read_text())
    pivoted = [w for w in all_permutations(5) if find_pivot(w) is not None]
    assert {str(p): _saturation_digest(pivoted, p) for p in (32003, 2)} == golden


def test_saturate_moves_no_grid(monkeypatch):
    """A grid moved down one row in a ring one row taller packs every
    monomial to the same int, so ``saturate`` relabels nothing: with
    ``transplant`` refusing every call, the saturations over the
    pivot-admitting S_5 still match the pinned digests."""
    def refuse(*args, **kwargs):
        raise AssertionError("saturate called transplant")

    monkeypatch.setattr(poly, "transplant", refuse)
    test_prime_field_saturations_over_s5_match_the_pinned_digests()


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
    assert f.coefficient(RING.monomial({})) == Fraction(-1, 2)
    assert RING.parse("x[1,3]*x[2,4] - x[1,4]*x[2,3]") == minor(RING, [1, 2], [3, 4])


def test_parser_rejects_garbage():
    for text in ("x[1,1] +", "y[1,1]", "x[1,1] & x[2,2]", "x[0]", "2/0"):
        with pytest.raises(ValueError):
            RING.parse(text)


@pytest.mark.parametrize("p", [2, 5, 32003])
def test_a_denominator_that_p_divides_is_named_in_the_error(p):
    ring = PolyRing(2, 2, p)
    message = f"denominator {2 * p} is zero in GF\\({p}\\)"
    with pytest.raises(ValueError, match=f"denominator {p} is zero in GF\\({p}\\)"):
        ring.parse(f"x[1,1] + 1/{p}")
    with pytest.raises(ValueError, match=message):
        ring.parse(f"3/{2 * p}*x[2,2]")
    with pytest.raises(ValueError, match=message):
        ring.const(Fraction(1, 2 * p))
    assert ring.parse(f"x[1,1] + {p}/3").coefficient(ring.monomial({})) == 0


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
                   f_.mul_term(ring.monomial(zip(CELLS, u)), c),
                   f_.scale(c), f_.mul_term(ring.monomial({}), c)]
        # scaling is the shift by the unit monomial
        assert results[-2] == results[-1]
        if f_ and g_:
            results.append(s_polynomial(f_, g_))
        if f_:
            results += [pivot_substitution(f_, 1, 2, sign, {}) for sign in (1, -1)]
        for x in results:
            assert not x or x.leading_monomial() == x.monomials()[0]


@settings(max_examples=150, deadline=None)
@example(terms=[], char=0)
@example(terms=[((1, 0, 0, 0, 0, 1), 1), ((0, 1, 1, 0, 0, 0), -1)], char=0)
@example(terms=[((1, 0, 0, 0, 0, 0), 1), ((2, 0, 0, 0, 0, 0), 1)], char=32003)
@example(terms=[((0, 0, 0, 0, 0, 0), 3)], char=2)
# squarefree terms take the bit-count path: degrees 1 and 3, then 3 and 3
@example(terms=[((1, 0, 0, 0, 0, 0), 1), ((0, 1, 1, 0, 0, 1), 2)], char=0)
@example(terms=[((1, 1, 0, 0, 0, 1), 1), ((0, 1, 1, 1, 0, 0), 2)], char=32003)
# a non-squarefree term takes the byte-sum path, where one bit may be a
# square: x^2 + y*z is homogeneous, x^2 + y is not
@example(terms=[((2, 0, 0, 0, 0, 0), 1), ((0, 1, 0, 0, 1, 0), 1)], char=32003)
@example(terms=[((2, 0, 0, 0, 0, 0), 1), ((0, 1, 0, 0, 0, 0), 1)], char=0)
@given(terms=TERMS, char=st.sampled_from([0, 2, 32003]))
def test_homogeneous_degree_is_the_one_term_degree_or_none(terms, char):
    f = _build(PolyRing(2, 3, char=char), terms)
    if f.is_zero:
        for degree in (f.homogeneous_degree, f.total_degree):
            with pytest.raises(ValueError, match="the zero polynomial has no degree"):
                degree()
        return
    # the exponents one by one, not the packed kernels of monomial_degree
    degrees = {sum(e for _, _, e in f.ring.grid_support(m)) for m in f.monomials()}
    assert f.homogeneous_degree() == (degrees.pop() if len(degrees) == 1 else None)
    if f.homogeneous_degree() is not None:
        assert f.homogeneous_degree() == f.total_degree()


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
    # `from .poly import _name` nor `poly._name` on an imported module, and
    # outside poly no `<expr>._name` at all (a ring's or a polynomial's
    # private state belongs to poly); dunders are exempt
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
                  and not (node.attr.startswith("__") and node.attr.endswith("__"))
                  and (path.stem != "poly" or (isinstance(node.value, ast.Name)
                                               and node.value.id in modules - {"poly"}))):
                leaks.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert not leaks


# Public functions and methods that no code in src/ calls, each kept for a
# reason; any other public name with no caller in src/ is dead API.
UNCALLED_PUBLIC_API = {
    "necessary_condition": "the paper's essentialness condition, necessary for CI",
    "monomial_codim": "the height of J_w, which equals the Coxeter length",
    "monomial_quotient_membership":
        "perfbench/run.py reads its detideal.monomial_quotient_membership.* metrics",
    "localization_sample": "the documented S_5 sample of the localization checks",
    "all_partial_permutations": "sweeps over partial permutations of a shape",
    "identity": "the identity of S_n, the trivial Schubert variety",
    "submatrix_w": "perfbench/run.py reads its perm.submatrix_w.* metrics",
    "PolyRing.parse": "the inverse of str(f)",
    "PolyRing.zero": "the zero polynomial of a ring",
    "Polynomial.coefficient": "the coefficient of one monomial",
    "Polynomial.sparse_terms": "a ring-independent form to compare across grids",
    "Polynomial.total_degree": "the degree of a polynomial",
    "certified": "certifies every Groebner basis computed inside it",
    "ideals_equal": "equality of two ideals given by generators",
    "monomial_lcm": "the lcm of two packed monomials, which the engine inlines",
    "normal_form": "perfbench/run.py reads its poly.normal_form.* metrics",
    "saturate": "perfbench/run.py reads its poly.saturate.* metrics",
    "transplant": "perfbench/run.py reads its poly.transplant.* metrics",
    "antidiagonal_monomial": "perfbench/run.py reads its poly.antidiagonal_monomial.* metrics",
    "antidiagonal_ideal": "perfbench/run.py reads its detideal.antidiagonal_ideal.* metrics",
}


def _public_definitions(tree):
    """(qualified name, def node) of the public module-level functions and
    class methods of a module."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{sub.name}", sub) for sub in node.body
                        if isinstance(sub, ast.FunctionDef))


def test_every_public_function_has_a_caller_in_src_or_a_reason():
    # a name counts as called when some node of src/ outside its own
    # definition and the package's re-exports is that name or reads it as
    # an attribute
    package = Path(__file__).resolve().parent.parent / "src" / "msvkit"
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(package.glob("*.py"))}
    used = {}
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.setdefault(node.id, set()).add(id(node))
            elif isinstance(node, ast.Attribute):
                used.setdefault(node.attr, set()).add(id(node))
    uncalled = set()
    for tree in trees.values():
        for qualname, fn in _public_definitions(tree):
            if not fn.name.startswith("_") and not used.get(fn.name, set()) - {
                    id(node) for node in ast.walk(fn)}:
                uncalled.add(qualname)
    assert uncalled == set(UNCALLED_PUBLIC_API)


def test_every_per_layer_metric_names_a_public_function_of_its_module():
    # perfbench/run.py --trace 1 wraps <module>.<function> for each per-layer
    # metric named so, and raises KeyError for a name the module lacks; an
    # uncalled function kept for its metric gives that metric as its reason
    root = Path(__file__).resolve().parent.parent
    package = root / "src" / "msvkit"
    spec = json.loads((root / "BENCHMARK.json").read_text())
    named = set()
    for metric in spec["per_layer"]:
        parts = metric["name"].split(".")
        if len(parts) == 3 and (package / f"{parts[0]}.py").exists():
            named.add((parts[0], parts[1]))
    assert named
    for module, function in sorted(named):
        tree = ast.parse((package / f"{module}.py").read_text())
        defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        assert function in defined and not function.startswith("_"), (module, function)
        if function in UNCALLED_PUBLIC_API:
            assert UNCALLED_PUBLIC_API[function] == \
                f"perfbench/run.py reads its {module}.{function}.* metrics", function


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
    # dicts, never module-level ones
    package = Path(__file__).resolve().parent.parent / "src" / "msvkit"
    found = []
    for filename in ("poly.py", "detideal.py", "frlab.py", "ci.py"):
        tree = ast.parse((package / filename).read_text(), filename)
        found += [f"{filename}: {name}" for name, value in _module_level_bindings(tree.body)
                  if _is_empty_container(value)]
    assert not found
    probe = ast.parse("a = {}\nb: list = []\nc = set()\nif True:\n    d = dict()\n"
                      "e = {1: 2}\ndef f():\n    g = {}\n")
    assert [name for name, value in _module_level_bindings(probe.body)
            if _is_empty_container(value)] == ["a", "b", "c", "d"]
