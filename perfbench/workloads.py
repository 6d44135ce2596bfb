"""The four benchmark workloads: their inputs, the public-API call each item
makes, and the independent check of each result.

Inputs are permutations given by their lexicographic rank in S_n.  A
workload's population is a list of ranks; a run orders it with
``random.Random(seed)`` and unranks the ranks in that order, so the same seed
gives the same inputs on every machine and under every hash seed.  The order
is stratified (see ``order``), so that every prefix of it holds each stratum
of the population in proportion and a run that stops after a fixed time has
done the same mix of cheap and costly inputs whatever the seed.

The checks use only this file's own combinatorics (inversion counts and
pattern containment), never msvkit, so a wrong answer from the program cannot
also make its check pass.
"""
from __future__ import annotations

import itertools
import random
from math import factorial
from typing import Callable, NamedTuple, Optional

ORACLE_PRIME = 32003


def unrank(n: int, index: int) -> tuple[int, ...]:
    """The permutation of rank ``index`` in the lexicographic order of S_n,
    which is the order of ``msvkit.perm.all_permutations``.

    >>> unrank(3, 0), unrank(3, 5)
    ((1, 2, 3), (3, 2, 1))
    """
    if not 0 <= index < factorial(n):
        raise ValueError(f"rank {index} outside S_{n}")
    items = list(range(1, n + 1))
    word = []
    for k in range(n, 0, -1):
        q, index = divmod(index, factorial(k - 1))
        word.append(items.pop(q))
    return tuple(word)


def inversions(word: tuple[int, ...]) -> int:
    """Number of inversions, i.e. the Coxeter length."""
    n = len(word)
    return sum(1 for i in range(n) for j in range(i + 1, n) if word[i] > word[j])


def contains_pattern(word: tuple[int, ...], pattern: tuple[int, ...]) -> bool:
    """Whether some subsequence of ``word`` is order-isomorphic to ``pattern``.

    >>> contains_pattern((2, 1, 4, 3), (1, 3, 2)), contains_pattern((3, 1, 2), (1, 3, 2))
    (True, False)
    """
    k = len(pattern)
    by_value = sorted(range(k), key=lambda i: pattern[i])
    for sub in itertools.combinations(word, k):
        if all(sub[by_value[i]] < sub[by_value[i + 1]] for i in range(k - 1)):
            return True
    return False


CI_PATTERNS = ((1, 3, 4, 2), (1, 4, 2, 3), (1, 4, 3, 2))


def is_ci_by_patterns(word: tuple[int, ...]) -> bool:
    """Pattern description of complete intersection matrix Schubert
    varieties: avoidance of 1342, 1423 and 1432.

    The three patterns are 1 followed by 231, 312 or 321, and the sequences
    avoiding those three are the direct sums of 1s and 21s.  So ``word``
    avoids them iff, after each entry, the later larger entries are their own
    sorted order with some disjoint adjacent pairs swapped.

    >>> is_ci_by_patterns((4, 6, 2, 1, 5, 3)), is_ci_by_patterns((3, 6, 1, 4, 5, 2))
    (True, False)
    """
    for i, a in enumerate(word):
        later = [b for b in word[i + 1:] if b > a]
        ordered = sorted(later)
        k = 0
        while k < len(later):
            if later[k] == ordered[k]:
                k += 1
            elif k + 1 < len(later) and later[k] == ordered[k + 1] and later[k + 1] == ordered[k]:
                k += 2
            else:
                return False
    return True


def largest_generator_size(word: tuple[int, ...]) -> int:
    """Size of the largest minor among the codimension-many generators of a
    complete intersection: r + 1 for the largest rank r of a diagram cell
    (1 when every diagram cell has rank 0, whose generators are variables).

    >>> largest_generator_size((4, 6, 2, 1, 5, 3)), largest_generator_size((1, 2, 3))
    (3, 1)
    """
    n = len(word)
    col_row = {v: i for i, v in enumerate(word, start=1)}
    best = 1
    ranks = [0] * (n + 1)
    for i, wi in enumerate(word, start=1):
        for j in range(1, n + 1):
            ranks[j] += wi <= j
            if wi > j and col_row[j] > i:
                best = max(best, ranks[j] + 1)
    return best


def census_stratum(rank: int) -> int:
    """0 for a permutation of S_8 that is not a complete intersection, else
    the size of its largest generator minor.  Expanding those minors is most
    of the census time: in a profile of 16,000 permutations of S_8 the CI
    ones with a 7x7 generator were 0.8 % of the items and 74 % of the time."""
    word = unrank(8, rank)
    return largest_generator_size(word) if is_ci_by_patterns(word) else 0


class Workload(NamedTuple):
    """One benchmark workload.

    ``population`` lists the ranks a run draws from and ``stratum`` sorts
    them into strata for ``order``.  With ``whole_passes`` a timed run stops
    only at the end of a pass over the population.  ``trace_items`` is the
    fixed number of items of a traced run, so that its counts repeat exactly.
    ``call`` runs one item through the public API and returns the fields
    ``check`` needs.
    """

    name: str
    why: str
    n: int
    population: Callable[[], list[int]]
    stratum: Optional[Callable[[int], int]]
    whole_passes: bool
    trace_items: int
    call: Callable
    check: Callable[[tuple, tuple], bool]


def _all_ranks(n: int) -> Callable[[], list[int]]:
    return lambda: list(range(factorial(n)))


# The pivot-admitting permutations of S_6 shorter than this include three
# (136254, 142653, 135264) that take 3.5-5 s each in verify_all, a fifth of
# the time of all 588; a run that met one of them would report a throughput
# set by that one input.  The 267 of length >= 8 take about 18 s in all.
LOCALIZE_MIN_LENGTH = 8


def _localize_population() -> list[int]:
    # Pivot-admitting means some diagram cell has positive rank, which is
    # exactly containment of 132 (the permutations avoiding 132 are the
    # dominant ones, whose ideals are generated by variables).
    return [r for r in range(factorial(6))
            if inversions(w := unrank(6, r)) >= LOCALIZE_MIN_LENGTH
            and contains_pattern(w, (1, 3, 2))]


def _census(msvkit, w):
    report = msvkit.ci.is_complete_intersection(w)
    return report.verdict, report.codim


def _check_census(word, out) -> bool:
    verdict, codim = out
    return verdict == is_ci_by_patterns(word) and codim == inversions(word)


def _oracle(msvkit, w):
    report = msvkit.ci.is_complete_intersection(w, with_oracle=True, char=ORACLE_PRIME)
    return report.verdict, report.codim, report.mu


def _check_oracle(word, out) -> bool:
    verdict, codim, mu = out
    return verdict == (mu == codim)


def _gb(msvkit, w):
    return (msvkit.detideal.verify_groebner(w).match,)


def _check_gb(word, out) -> bool:
    return out == (True,)


def _localize(msvkit, w):
    summary = msvkit.frlab.verify_all(w)
    return summary.ok, summary.skipped


def _check_localize(word, out) -> bool:
    return out == (True, False)


WORKLOADS = {
    "census": Workload(
        "census",
        "text census of S_8: recursive classifier, diagrams and CI-generator minor expansion; no Buchberger, no Nakayama",
        8, _all_ranks(8), census_stratum, False, 3000, _census, _check_census),
    "oracle": Workload(
        "oracle",
        "census --mu over F_32003 on S_6: graded-Nakayama minimal-generator oracle on the prime-field path; no Buchberger",
        6, _all_ranks(6), None, True, 720, _oracle, _check_oracle),
    "gb": Workload(
        "gb",
        "verify-gb over Q on S_6: Fulton generators, Nakayama minimalization and Buchberger under antidiagonal lex",
        6, _all_ranks(6), None, True, 720, _gb, _check_gb),
    "localize": Workload(
        "localize",
        "verify-all on pivot-admitting S_6 of length >= 8: saturations with an auxiliary variable, pivot checks",
        6, _localize_population, None, True, 267, _localize, _check_localize),
}


def order(workload: Workload, seed: int) -> list[int]:
    """One pass over the workload's population in an order drawn from
    ``random.Random(seed)``.

    Each stratum is shuffled and its k-th of m members is given the position
    (k + u) / m with u uniform in [0, 1); sorting by position interleaves the
    strata so that every prefix holds each one in proportion, to within one
    item.  With a single stratum this is a plain shuffle.
    """
    rng = random.Random(seed)
    strata: dict[int, list[int]] = {}
    for r in workload.population():
        strata.setdefault(workload.stratum(r) if workload.stratum else 0, []).append(r)
    keyed = []
    for _, members in sorted(strata.items()):
        m = len(members)
        keyed += [((k + rng.random()) / m, r) for k, r in enumerate(rng.sample(members, m))]
    keyed.sort()
    return [r for _, r in keyed]
