"""The Hilbert series of S/I_w, read off the squarefree J_w alone.

S/I_w is a Cohen-Macaulay domain (Fulton, Duke 1992) and in(I_w) = J_w
(Knutson-Miller, Ann. Math. 2005, Thm B, which ``verify_groebner``
checks), so S/I_w and S/J_w have one Hilbert series K(t) / (1 - t)^(n^2),
and ``PolyRing.k_polynomial`` computes K from J_w.  Knutson-Miller's Thm A
with every row and column weight equal says K(t) = G_w(1 - t, ..., 1 - t)
for the Grothendieck polynomial G_w.  The h-polynomial
h = K / (1 - t)^l(w) has nonnegative coefficients, as S/I_w is
Cohen-Macaulay of codimension l(w), and h(1), the degree of the variety,
is the number of reduced pipe dreams S_w(1, ..., 1).  S/I_w is Gorenstein
iff h is palindromic (Stanley, Adv. Math. 1978).

A complete intersection with generators of degrees d_1, ..., d_c has
h = [d_1]_t ... [d_c]_t, where [d]_t = 1 + t + ... + t^(d-1).  An h that is
no product of q-integers refutes the complete intersection property
without a Groebner basis or a minimal generator count.

The degree of K is the degree of the Grothendieck polynomial, raj(w), the
sum of the Rajchgot code (Pechenik-Speyer-Weigandt, 2021).
"""

import functools
import itertools
import math
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

import msvkit.poly as poly
from msvkit.ci import is_complete_intersection
from msvkit.detideal import MonomialIdeal, antidiagonal_ideal, monomial_codim
from msvkit.perm import PartialPermutation, all_permutations, coxeter_length, essential_set
from msvkit.poly import K_SUPPORT_BOUND, PolyRing, monomial_mul
from reference import isobaric_divided_difference, raj, schubert_polynomials


def at_one_minus_t(f) -> tuple:
    """f(1 - t, ..., 1 - t) for f as {exponent tuple: coefficient}, as its
    coefficients from t^0 up, trailing zeros dropped."""
    coeffs = [0] * (max(map(sum, f)) + 1)
    for e, c in f.items():
        d = sum(e)
        for i in range(d + 1):
            coeffs[i] += c * (-1) ** i * math.comb(d, i)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def divided_by_one_minus_t(coeffs: tuple, times: int) -> tuple:
    """coeffs / (1 - t)^times, each division exact: the quotient's
    coefficients are the prefix sums, the last of which is the value at 1."""
    for _ in range(times):
        assert sum(coeffs) == 0, coeffs
        coeffs = tuple(itertools.accumulate(coeffs))[:-1]
    return coeffs


def quotient(h: tuple, d: int):
    """h / [d]_t when [d]_t divides h exactly, else None: long division
    upward from t^0, [d]_t having constant term 1."""
    rest, q = list(h), []
    for i in range(len(h) - d + 1):
        q.append(rest[i])
        for k in range(i, i + d):
            rest[k] -= q[-1]
    return tuple(q) if not any(rest) else None


def is_q_integer_product(h: tuple, largest: Optional[int] = None) -> bool:
    """Whether h is a product of q-integers [d]_t with d >= 2: the largest
    factor is tried first, and each branch divides only by factors no larger
    than the one before it, backtracking when a quotient leads nowhere."""
    if h == (1,):
        return True
    top = len(h) if largest is None else largest
    for d in range(min(top, len(h)), 1, -1):
        q = quotient(h, d)
        if q is not None and is_q_integer_product(q, d):
            return True
    return False


def polynomial_product(factors) -> tuple:
    """The product of the coefficient tuples ``factors``."""
    product = (1,)
    for f in factors:
        out = [0] * (len(product) + len(f) - 1)
        for (i, a), (j, b) in itertools.product(enumerate(product), enumerate(f)):
            out[i + j] += a * b
        product = tuple(out)
    return product


@functools.cache
def hilbert_data(n: int) -> dict:
    """{one-line tuple: (w, J_w, K, h)} over S_n."""
    data = {}
    for w in all_permutations(n):
        J = antidiagonal_ideal(w)
        K = J.ring.k_polynomial(J.gens)
        data[w.one_line()] = (w, J, K, divided_by_one_minus_t(K, coxeter_length(w)))
    return data


def test_the_k_polynomial_of_small_ideals():
    r = PolyRing(2, 2)
    x, y, z, u = (r.monomial({cell: 1}) for cell in [(1, 1), (1, 2), (2, 1), (2, 2)])
    assert r.k_polynomial([]) == (1,)
    assert r.k_polynomial([r.monomial({})]) == ()
    assert r.k_polynomial([x, u]) == (1, -2, 1)
    assert r.k_polynomial([monomial_mul(x, u)]) == (1, 0, -1)
    # x<y, z>: K = K(<x>) + t K(<y, z>) = (1 - t) + t (1 - t)^2
    assert r.k_polynomial([monomial_mul(x, y), monomial_mul(x, z)]) == (1, 0, -2, 1)
    # non-minimal and repeated input gives the K of the ideal they generate
    assert r.k_polynomial([x, monomial_mul(x, u), x]) == (1, -1)
    with pytest.raises(ValueError):
        r.k_polynomial([r.monomial({(1, 1): 2})])


def counting_minimalizations(monkeypatch) -> list:
    """A list that gets one entry per ``PolyRing.minimal_monomials`` call
    from here on."""
    calls = []
    minimal_monomials = PolyRing.minimal_monomials
    monkeypatch.setattr(PolyRing, "minimal_monomials",
                        lambda ring, ms: calls.append(1) or minimal_monomials(ring, ms))
    return calls


def test_the_memo_meets_the_ideals_of_disjoint_products_again(monkeypatch):
    # 12 disjoint products of two variables: K = (1 - t^2)^12.  The variable
    # that J : v leaves is peeled off next, so the recursion meets the ideal
    # of the remaining products again: it computes the 13 ideals of k <= 12
    # products and the 12 of k - 1 products and one variable, where a memo
    # keyed by ideals that keep their variables would meet none of them
    # again and take about 2^12 steps; it minimalizes the input alone
    r = PolyRing(6, 4)
    cells = [(i, j) for i in range(1, 7) for j in range(1, 5)]
    gens = [monomial_mul(r.monomial({a: 1}), r.monomial({b: 1}))
            for a, b in zip(cells[::2], cells[1::2])]
    steps = []

    def counting_cache(k):
        return functools.cache(lambda gens: steps.append(gens) or k(gens))

    monkeypatch.setattr(poly, "cache", counting_cache)
    calls = counting_minimalizations(monkeypatch)
    K = r.k_polynomial(gens)
    assert K == tuple(0 if i % 2 else (-1) ** (i // 2) * math.comb(12, i // 2)
                      for i in range(25))
    assert (len(steps), len(set(steps)), len(calls)) == (25, 25, 1)
    assert monomial_codim(MonomialIdeal(r, gens)) == 12


def test_k_polynomial_minimalizes_once_per_call(monkeypatch):
    """The colon J : v of minimal generators is minimal once the shortened
    generators drop the ones free of v that they divide, so only the input
    is minimalized, however deep the recursion goes."""
    ideals = [J for n in range(1, 6) for _, J, _, _ in hilbert_data(n).values()]
    expected = [J.ring.k_polynomial(J.gens) for J in ideals]
    calls = counting_minimalizations(monkeypatch)
    for J, K in zip(ideals, expected):
        calls.clear()
        assert J.ring.k_polynomial(J.gens) == K
        assert len(calls) == 1, J.rendered()


def test_a_support_past_the_bound_is_refused_before_the_recursion():
    # 1,250 disjoint products of two variables in a 50 x 50 ring: the
    # recursion would peel their 2,500 variables one level each and raise
    # RecursionError, so the support is refused before it starts
    r = PolyRing(50, 50)
    cells = [(i, j) for i in range(1, 51) for j in range(1, 51)]
    gens = [monomial_mul(r.monomial({a: 1}), r.monomial({b: 1}))
            for a, b in zip(cells[::2], cells[1::2])]
    assert len(gens) == 1250 and K_SUPPORT_BOUND == 512
    with pytest.raises(ValueError, match="^the K-polynomial recursion is bounded at 512 "
                                         "variables; the generators involve 2500$"):
        r.k_polynomial(gens)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_the_k_polynomial_of_j_w_is_the_grothendieck_polynomial_at_one_minus_t(n):
    grothendieck = schubert_polynomials(n, isobaric_divided_difference)
    data = hilbert_data(n)
    assert len(data) == math.factorial(n)
    for word, (_, _, K, _) in data.items():
        assert K == at_one_minus_t(grothendieck[word]), word


def raj_starting_anywhere(word) -> int:
    """raj with L_k the longest increasing subsequence of w(k), ..., w(n)
    wherever it begins: a wrong reading of the definition, which the degrees
    of K tell apart from raj."""
    n, total = len(word), 0
    longest = [0] * n
    for k in reversed(range(n)):
        longest[k] = 1 + max((longest[j] for j in range(k + 1, n) if word[j] > word[k]),
                             default=0)
        total += n - k - max(longest[k:])
    return total


def test_the_degree_of_k_is_raj_on_s_1_to_s_6():
    degrees = {word: len(K) - 1 for n in range(1, 7)
               for word, (_, _, K, _) in hilbert_data(n).items()}
    assert len(degrees) == 873
    assert [word for word, d in degrees.items() if d != raj(word)] == []
    assert sum(d != raj_starting_anywhere(word) for word, d in degrees.items()) == 595


@settings(max_examples=50, deadline=None)
@given(word=st.integers(7, 9).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_the_degree_of_k_is_raj_on_s_7_to_s_9(word):
    J = antidiagonal_ideal(PartialPermutation.from_one_line(word))
    assert len(J.ring.k_polynomial(J.gens)) - 1 == raj(word)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_h_is_nonnegative_and_counts_the_pipe_dreams_at_one(n):
    schubert = schubert_polynomials(n)
    for word, (_, _, _, h) in hilbert_data(n).items():
        assert h[0] == 1 and min(h) >= 0, word
        assert sum(h) == sum(schubert[word].values()), word


@pytest.mark.parametrize("n, gorenstein", [(1, 1), (2, 2), (3, 6), (4, 22), (5, 93),
                                           (6, 437)])
def test_gorenstein_counts_and_every_complete_intersection_is_gorenstein(n, gorenstein):
    palindromic = {word for word, (_, _, _, h) in hilbert_data(n).items() if h == h[::-1]}
    assert len(palindromic) == gorenstein
    ci = {word for word, (w, _, _, _) in hilbert_data(n).items()
          if is_complete_intersection(w).verdict}
    assert ci <= palindromic


def test_svanes_criterion_and_the_regularity_of_one_essential_cell():
    """When the essential set of w is one cell (p, q) of rank r, I_w is the
    ideal of the (r + 1)-minors of the generic p x q matrix.  Such a
    determinantal ring is Gorenstein iff r = 0 or p = q (Svanes, Adv. Math.
    1974), and its regularity deg h is (t - 1)(m - t + 1) for t = r + 1 and
    m = min(p, q) (Bruns-Vetter, Determinantal Rings, LNM 1327)."""
    cases = 0
    for n in range(2, 7):
        for w, _, _, h in hilbert_data(n).values():
            essential = essential_set(w)
            if len(essential) != 1:
                continue
            ((p, q), r), = essential
            t, m = r + 1, min(p, q)
            assert (h == h[::-1]) == (r == 0 or p == q), w.one_line()
            assert len(h) - 1 == (t - 1) * (m - t + 1), w.one_line()
            cases += 1
    assert cases == 70


@pytest.mark.parametrize("n, cases", [(4, 76), (5, 704)])
def test_dropping_any_generator_of_j_w_changes_k(n, cases):
    checked = 0
    for word, (_, J, K, _) in hilbert_data(n).items():
        for g in J.gens:
            assert J.ring.k_polynomial(m for m in J.gens if m != g) != K, word
            checked += 1
    assert checked == cases


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_a_complete_intersection_has_h_the_product_of_its_generator_q_integers(n):
    for word, (w, _, _, h) in hilbert_data(n).items():
        report = is_complete_intersection(w)
        if report.verdict:
            degrees = [g.total_degree() for g in report.generators]
            assert h == polynomial_product((1,) * d for d in degrees), word
            assert is_q_integer_product(h), word


@pytest.mark.parametrize("n, refuted, non_ci", [(4, 3, 3), (5, 36, 40), (6, 376, 398)])
def test_the_hilbert_series_refutes_most_non_complete_intersections(n, refuted, non_ci):
    non_complete = [(word, h) for word, (w, _, _, h) in hilbert_data(n).items()
                    if not is_complete_intersection(w).verdict]
    left = [word for word, h in non_complete if is_q_integer_product(h)]
    assert (len(non_complete) - len(left), len(non_complete)) == (refuted, non_ci)
    if n == 5:
        # these four need the minimal generator count
        assert left == [(1, 3, 5, 2, 4), (1, 4, 2, 5, 3), (2, 5, 1, 4, 3), (3, 1, 5, 4, 2)]


def test_q_integer_division_and_the_product_decision():
    assert quotient((1, 2, 2, 1), 2) == (1, 1, 1)
    assert quotient((1, 2, 2, 1), 3) == (1, 1)
    assert quotient((1, 1, 1), 2) is None
    assert is_q_integer_product((1, 2, 2, 1)) and is_q_integer_product((1,))
    # [2]^3 = 1 + 3t + 3t^2 + t^3: neither [4] nor [3] divides it
    assert is_q_integer_product((1, 3, 3, 1))
    # 1 + 3t + t^2 has no root -1 and is no [3]: nothing divides it
    assert not is_q_integer_product((1, 3, 1))
    # (1 + t)(1 + t + 2t^2): [2] divides it, and the quotient is no product
    assert not is_q_integer_product((1, 2, 3, 2))
