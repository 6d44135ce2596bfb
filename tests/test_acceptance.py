"""Acceptance suite.

Every criterion below is exercised at its stated tolerance (all value checks
are exact; arithmetic is exact rational or prime-field).  Each criterion
prints one PASS/FAIL line with its measured runtime; run with ``pytest -s
tests/test_acceptance.py`` to see them.  The Groebner-heavy suites run inside
the certified() context, so every basis they compute is re-checked against
the full S-pair-reduction and auto-reduction contract (criterion 3).
"""

import itertools
import random
import time
from contextlib import contextmanager

from msvkit.perm import (Cell, PartialPermutation, all_partial_permutations,
                         all_permutations, coxeter_length, diagram, essential_set,
                         extend_to_permutation)
from msvkit.poly import (PolyRing, antidiagonal_monomial, certified, ideals_equal,
                         minor, saturate)
from msvkit.detideal import (MonomialIdeal, antidiagonal_ideal, fulton_generators,
                             monomial_codim, monomial_quotient_membership,
                             verify_groebner)
from msvkit.ci import is_complete_intersection, minimal_generator_count, \
    necessary_condition
from msvkit.frlab import (build_localization, find_pivot, localization_sample, primed_ideal,
                          verify_all, verify_localization_identity)

_CERTIFIED_SUITES: set[str] = set()


@contextmanager
def criterion(name: str, target_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL  {name}")
        raise
    elapsed = time.perf_counter() - start
    print(f"PASS  {name}  [{elapsed:.2f}s / target {target_seconds:.0f}s]")
    assert elapsed < target_seconds, f"{name} exceeded its runtime target"


def w_(word):
    return PartialPermutation.from_one_line(word)


# ---------------------------------------------------------------------------
# Criterion 1: worked-example golden tests (exact, tolerance 0)
# ---------------------------------------------------------------------------

def test_criterion_1a_golden_35142():
    with criterion("1a golden 35142 (generators, pivot, localization)", 1.0), \
            certified():
        w = w_("35142")
        schubert = fulton_generators(w)
        r = schubert.ring
        assert schubert.generators == (
            r.variable(1, 1), r.variable(1, 2), r.variable(2, 1), r.variable(2, 2),
            minor(r, [1, 2], [3, 4]), minor(r, [3, 4], [1, 2]))
        assert find_pivot(w) == Cell(1, 3)
        setup = build_localization(w)
        assert setup.w_prime.one_line() == (4, 1, 3, 2)
        # primed generators in original labels: x'[2,1], x'[2,2], x'[2,4], and
        # the primed 2-minor on rows {3,4}, columns {1,2}
        sites, _, cl, _ = primed_ideal(setup)
        assert sites == (
            ((2,), (1,)), ((2,), (2,)), ((2,), (4,)), ((3, 4), (1, 2)))
        report = verify_localization_identity(setup)
        assert report.ok and report.proper
        # the four denominator-cleared differences lie in <x[1,1], x[1,2]>
        c = r.variable(1, 3)
        diffs = (c * r.variable(2, 1) - cl[0],
                 c * r.variable(2, 2) - cl[1],
                 minor(r, [1, 2], [3, 4]) - cl[2],
                 c * minor(r, [3, 4], [1, 2]) - cl[3])
        gamma = [r.monomial({(1, 1): 1}), r.monomial({(1, 2): 1})]
        assert diffs[2].is_zero
        for d in diffs:
            assert monomial_quotient_membership(d, gamma)
    _CERTIFIED_SUITES.add("1a")


def test_criterion_1b_golden_462153():
    with criterion("1b golden 462153 (CI with nine generators)", 1.0):
        w = w_("462153")
        report = is_complete_intersection(w, with_oracle=True)
        assert report.verdict
        assert report.codim == 9 and report.mu == 9
        r = PolyRing(6, 6)
        expected = {r.variable(i, j) for i in (1, 2) for j in (1, 2, 3)}
        expected |= {r.variable(3, 1), minor(r, [1, 2], [4, 5]),
                     minor(r, [3, 4, 5], [1, 2, 3])}
        assert set(report.generators) == expected


def test_criterion_1c_golden_361452_and_352614():
    with criterion("1c goldens 361452 / 352614 (witnesses)", 1.0):
        neg = is_complete_intersection(w_("361452"))
        assert not neg.verdict
        assert neg.failure_witness.cell == Cell(2, 5)
        assert not necessary_condition(w_("361452")).ok
        neg2 = is_complete_intersection(w_("352614"))
        assert not neg2.verdict
        assert neg2.failure_witness.cell == Cell(4, 4)
        assert necessary_condition(w_("352614")).ok


# ---------------------------------------------------------------------------
# Criterion 2: exhaustive property suites
# ---------------------------------------------------------------------------

def test_criterion_2a_full_s5_census():
    with criterion("2a all 120 w in S_5 (diagram, Groebner, codim, CI vs mu)", 600.0):
        with certified():
            for w in all_permutations(5):
                length = coxeter_length(w)
                assert len(diagram(w)) == length
                report = verify_groebner(w)
                assert report.match
                # the leads of the reduced basis are minimal as they stand
                leads = [g.leading_monomial() for g in report.basis]
                assert report.gb_leading == MonomialIdeal.from_monomials(
                    report.gb_leading.ring, leads)
                assert len(leads) == len(report.gb_leading.gens)
                J = antidiagonal_ideal(w)
                assert J.is_squarefree()
                assert monomial_codim(J) == length
                mu = minimal_generator_count(w)
                assert is_complete_intersection(w).verdict == (mu == length)
                assert mu >= length
    _CERTIFIED_SUITES.add("2a")


def test_criterion_2b_nonregular_s4_pivot_suite():
    with criterion("2b all non-regular w in S_4 (pivot verifications)", 300.0):
        with certified():
            checked = 0
            for w in all_permutations(4):
                summary = verify_all(w)
                if summary.skipped:
                    continue
                assert summary.window, w.one_line()
                assert summary.minors_ok, w.one_line()
                assert summary.initial_ideal_ok, w.one_line()
                assert summary.nonzerodivisor_ok, w.one_line()
                assert summary.localization_ok, w.one_line()
                checked += 1
            assert checked == 10
    _CERTIFIED_SUITES.add("2b")


def test_criterion_2c_partial_permutations_agree_with_their_extension():
    with criterion("2c partial permutations l,m <= 3 vs extensions", 30.0):
        count = 0
        for l in (1, 2, 3):
            for m in (1, 2, 3):
                for w in all_partial_permutations(l, m):
                    wt = extend_to_permutation(w)
                    assert diagram(wt) == diagram(w)
                    assert essential_set(wt) == essential_set(w)
                    a = fulton_generators(w)
                    b = fulton_generators(wt)
                    assert tuple(g.sparse_terms() for g in a.generators) == \
                        tuple(g.sparse_terms() for g in b.generators)
                    count += 1
        assert count == 83


def test_criterion_2d_s5_localization_sample():
    with criterion("2d localization identity on the documented S_5 sample", 900.0):
        sample = localization_sample(5)
        assert len(sample) == 67
        assert any(w.one_line() == (3, 5, 1, 4, 2) for w in sample)
        with certified():
            for w in sample:
                report = verify_localization_identity(build_localization(w))
                assert report.ok and report.proper, w.one_line()
    _CERTIFIED_SUITES.add("2d")


# ---------------------------------------------------------------------------
# Criterion 3: engine certification
# ---------------------------------------------------------------------------

def test_criterion_3_engine_certification():
    with criterion("3 engine certification (orders, Buchberger, saturation)", 120.0):
        # every minor of the generic 5x5 matrix leads with its antidiagonal
        ring = PolyRing(5, 5)
        for t in range(1, 6):
            for rows in itertools.combinations(range(1, 6), t):
                for cols in itertools.combinations(range(1, 6), t):
                    assert minor(ring, rows, cols).leading_monomial() == \
                        antidiagonal_monomial(ring, rows, cols)
        # Buchberger invariants were enforced on every basis of suites 1-2
        assert {"1a", "2a", "2b", "2d"} <= _CERTIFIED_SUITES, \
            "suites must run before the certification summary"
        # saturation idempotence on 50 randomized small ideals
        rng = random.Random(2718)
        small = PolyRing(2, 3)
        done = 0
        while done < 50:
            gens = tuple(g for g in (_random_poly(small, rng) for _ in range(2)) if g)
            c = _random_poly(small, rng)
            if not gens or c.is_zero:
                continue
            first = saturate(gens, c)
            if first:
                second = saturate(first, c)
                assert ideals_equal(first, second)
            done += 1


def _random_poly(ring, rng):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        pairs = {}
        for _ in range(rng.randint(0, 2)):
            pairs[(rng.randint(1, ring.rows), rng.randint(1, ring.cols))] = 1
        terms[ring.monomial(pairs)] = rng.randint(-3, 3)
    return ring.polynomial(terms)


# ---------------------------------------------------------------------------
# Criterion 4: oracle consistency between coefficient fields
# ---------------------------------------------------------------------------

def test_criterion_4_prime_field_oracle_agrees_with_rationals():
    with criterion("4 prime-field vs rational minimal generator counts", 120.0):
        words = ["35142", "462153", "361452", "352614"]
        rng = random.Random(314159)
        words += ["".join(map(str, rng.sample(range(1, 6), 5))) for _ in range(20)]
        for word in words:
            w = w_(word)
            assert minimal_generator_count(w) == \
                minimal_generator_count(w, char=32003), word
