"""Fedder's criterion as an oracle for the F-purity of matrix Schubert
varieties.

Let f = det(X) * prod_{i<n} det(NW_i) * det(SE_{n-i}), with NW_i the
northwest i x i block of the generic n x n matrix X and SE_j its southeast
j x j block.  The antidiagonals of NW_i, X and SE_{n-i} are the cells
(r, s) with r + s = i + 1, n + 1 and n + 1 + i, so the lead of f under
the antidiagonal order is the product of all n^2 variables, and f^{p-1}
lies outside m^{[p]} = <x^p : x a variable>.  By Fedder's criterion
(Trans. AMS 1983) f^{p-1} * I subset I^{[p]} then says that S/I is
F-pure, with f^{p-1} a splitting compatible with V(I); for the Schubert
determinantal ideals I_w this is Knutson's splitting (Frobenius splitting,
point-counting, and degeneration, 2009).

Over F_p the p-th powers of a Groebner basis of I are a Groebner basis of
I^{[p]}, as Frobenius is flat (Kunz 1969), so membership is a normal form
against their reduced basis.  f^{p-1} is multiplied in one factor at a time,
each product reduced before the next factor, so no power of f is expanded.

For a complete intersection (f_1, ..., f_c) the criterion needs no
Groebner basis of I^{[p]}: S/I is F-pure iff (f_1 ... f_c)^{p-1} lies
outside m^{[p]}, that is, has a term with every exponent below p (Fedder,
Trans. AMS 1983).
"""

from functools import reduce

import pytest

from msvkit.ci import is_complete_intersection
from msvkit.detideal import fulton_generators
from msvkit.frlab import find_pivot
from msvkit.perm import PartialPermutation, all_permutations
from msvkit.poly import (PolyRing, buchberger, minor, monomial_lcm, monomial_mul,
                         normal_forms)


def fedder_factors(ring: PolyRing) -> list:
    """The minors whose product is f: det(X), then det(NW_i) and
    det(SE_{n-i}) for i = 1, ..., n - 1."""
    n = ring.rows
    factors = [minor(ring, range(1, n + 1), range(1, n + 1))]
    for i in range(1, n):
        factors.append(minor(ring, range(1, i + 1), range(1, i + 1)))
        factors.append(minor(ring, range(i + 1, n + 1), range(i + 1, n + 1)))
    return factors


def power(f, e):
    result = f.ring.const(1)
    for _ in range(e):
        result = result * f
    return result


def outside_frobenius_power(generators) -> list:
    """The generators g of I with g * f^{p-1} outside I^{[p]}, the ring's
    characteristic p a prime."""
    ring = generators[0].ring
    p = ring.char
    frobenius = buchberger([power(h, p) for h in buchberger(generators)])
    products = list(generators)
    for factor in fedder_factors(ring) * (p - 1):
        products = list(normal_forms([g * factor for g in products], frobenius))
    return [g for g, rest in zip(generators, products) if rest]


@pytest.mark.parametrize("n", [3, 4])
def test_the_lead_of_f_is_the_product_of_all_variables(n):
    ring = PolyRing(n, n)
    f = ring.const(1)
    for factor in fedder_factors(ring):
        f = f * factor
    lead = f.leading_monomial()
    assert ring.is_squarefree(lead) and ring.monomial_degree(lead) == n * n


@pytest.mark.parametrize("n, p", [(3, 2), (3, 3), (4, 2), (4, 3)])
def test_f_to_the_p_minus_1_splits_every_matrix_schubert_variety(n, p):
    ring = PolyRing(n, n, char=p)
    words = [w for w in all_permutations(n) if w.one_line() != tuple(range(1, n + 1))]
    assert len(words) == {3: 5, 4: 23}[n]
    for w in words:
        generators = fulton_generators(w, ring).generators
        assert generators, w.one_line()
        assert outside_frobenius_power(generators) == [], w.one_line()


@pytest.mark.parametrize("n, p", [(3, 2), (3, 3), (4, 2), (4, 3)])
def test_f_to_the_p_minus_1_splits_the_pivot_quotient(n, p):
    # lemma 2's ideal <c> + I_w, with c the pivot variable, is split by f^{p-1}
    # too; a variable that is not the pivot, x[2,2], leaves one generator out
    ring = PolyRing(n, n, char=p)
    words = [w for w in all_permutations(n) if find_pivot(w) is not None]
    assert len(words) == {3: 1, 4: 10}[n]
    for w in words:
        generators = list(fulton_generators(w, ring).generators)
        pivot = ring.variable(*find_pivot(w))
        assert outside_frobenius_power([pivot] + generators) == [], w.one_line()
        assert len(outside_frobenius_power([ring.variable(2, 2)] + generators)) == 1, \
            w.one_line()


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("text", ["x[1,1]^2", "x[1,1] + x[2,2]"])
def test_an_ideal_that_f_does_not_split_fails(text, p):
    # <x[1,1]^2> is not radical, so S/I is not F-pure; and f^{p-1} does not
    # split the hyperplane x[1,1] + x[2,2] = 0, which is not a Schubert
    # variety
    ring = PolyRing(3, 3, char=p)
    g = ring.parse(text)
    assert outside_frobenius_power([g]) == [g]


def complete_intersections(n: int) -> list:
    """(w, its CI generators) for every complete intersection w of S_n."""
    reports = (is_complete_intersection(w) for w in all_permutations(n))
    return [(report.w, report.generators) for report in reports if report.verdict]


def test_the_leads_of_every_complete_intersection_are_squarefree_and_coprime():
    # so the lead of f_1 ... f_c is their squarefree product, and its
    # (p-1)-th power, the lead of (f_1 ... f_c)^{p-1}, lies outside m^{[p]}
    # at every p: every complete intersection through S_7 is F-pure
    words = 0
    for n in range(1, 8):
        for w, generators in complete_intersections(n):
            leads = [g.leading_monomial() for g in generators]
            ring = PolyRing(n, n)
            assert all(map(ring.is_squarefree, leads)), w
            assert all(monomial_lcm(a, b) == monomial_mul(a, b)
                       for k, a in enumerate(leads) for b in leads[:k]), w
            words += 1
    assert words == 1779


def has_term_below(f, p: int) -> bool:
    """Whether f has a term with every exponent below p, that is, whether
    f lies outside m^{[p]}."""
    return any(all(e < p for _, _, e in f.ring.grid_support(m)) for m, _ in f.terms())


def product_power(generators, p: int):
    """(f_1 ... f_c)^{p-1} over F_p, the generators' integer coefficients
    read mod p."""
    ring = PolyRing(generators[0].ring.rows, generators[0].ring.cols, char=p)
    product = reduce(lambda f, g: f * g, (ring.polynomial(g.terms()) for g in generators))
    return power(product, p - 1)


@pytest.mark.parametrize("p", [2, 3])
def test_the_product_of_the_ci_generators_meets_fedders_criterion(p):
    cases = 0
    for n in range(1, 6):
        for w, generators in complete_intersections(n):
            if generators:  # the identity's ideal is zero
                assert has_term_below(product_power(generators, p), p), w
                cases += 1
    assert cases == 105


def test_a_squared_generator_fails_fedders_criterion():
    # in characteristic 2 a square has only even exponents, so no term of
    # the product is squarefree once one generator, here the 2 x 2 minor, is
    # squared
    generators = is_complete_intersection(PartialPermutation.from_one_line("462153")).generators
    assert has_term_below(product_power(generators, 2), 2)
    squared = [g * g if g.total_degree() == 2 else g for g in generators]
    assert squared != list(generators)
    assert not has_term_below(product_power(squared, 2), 2)
