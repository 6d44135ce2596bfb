"""Transposition as an oracle for every layer.

The permutation matrix of w⁻¹ is the transpose of w's, so I_{w⁻¹} is I_w with
each x[i,j] read as x[j,i], and the transpose of a minor's antidiagonal is
the antidiagonal of the transposed minor.  So the diagram and the essential
set of w⁻¹ are those of w transposed, with the same ranks, J_{w⁻¹} is J_w
transposed, and the complete intersection verdict, the codimension and the
minimal number of generators μ are those of w.  The pivot checks are not
symmetric (``find_pivot`` is defined by the rows of w), so no relation
between the pivots of w and w⁻¹ is asserted.
"""

import itertools

from hypothesis import example, given, settings, strategies as st

from msvkit.ci import is_complete_intersection
from msvkit.detideal import MonomialIdeal, antidiagonal_ideal, verify_groebner
from msvkit.perm import Cell, PartialPermutation, all_permutations, diagram, essential_set


def inverse(w: PartialPermutation) -> PartialPermutation:
    columns = {j: i for i, j in enumerate(w.assignment, start=1) if j is not None}
    return PartialPermutation.from_one_line([columns[j] for j in range(1, w.size + 1)])


def transposed_cells(cell_ranks) -> dict:
    return {Cell(cell.q, cell.p): r for cell, r in cell_ranks}


def transposed_ideal(J: MonomialIdeal) -> MonomialIdeal:
    ring = J.ring
    return MonomialIdeal(ring, (ring.monomial({(j, i): e for i, j, e in ring.grid_support(m)})
                                for m in J.gens))


def _combinatorics(w: PartialPermutation) -> tuple:
    """The diagram and the essential set of w as {cell: rank} dicts, its CI
    verdict and its codimension."""
    report = is_complete_intersection(w)
    return (dict(diagram(w)), dict(essential_set(w)), report.verdict, report.codim)


def test_inverse_reads_the_transposed_matrix():
    for w in all_permutations(5):
        assert inverse(w).matrix() == tuple(zip(*w.matrix()))
        assert inverse(inverse(w)) == w


def test_every_layer_commutes_with_transposition_on_s1_to_s6():
    # each w is computed once; its inverse's record is looked up.  μ is the
    # number of generators graded Nakayama keeps, which verify_groebner's
    # Fulton generators already hold
    records = {}
    for w in itertools.chain.from_iterable(all_permutations(n) for n in range(1, 7)):
        report = verify_groebner(w)
        records[w] = _combinatorics(w) + (
            report.antidiagonal, len(report.schubert.generators), report.match)
    assert len(records) == 873
    for w, (d, ess, verdict, codim, J, mu, match) in records.items():
        d_inv, ess_inv, verdict_inv, codim_inv, J_inv, mu_inv, match_inv = records[inverse(w)]
        assert d_inv == transposed_cells(d.items()), w.one_line()
        assert ess_inv == transposed_cells(ess.items()), w.one_line()
        assert J_inv == transposed_ideal(J), w.one_line()
        assert (verdict_inv, codim_inv, mu_inv) == (verdict, codim, mu), w.one_line()
        assert match and match_inv, w.one_line()


def permutations(low: int, high: int):
    return st.integers(low, high).flatmap(
        lambda n: st.permutations(range(1, n + 1))).map(PartialPermutation.from_one_line)


@settings(max_examples=60, deadline=None)
@example(w=PartialPermutation.from_one_line("1 5 3 2 4 7 6 8 10 9 12 11"))
@given(w=permutations(7, 12))
def test_diagram_essential_set_and_ci_verdict_transpose_on_s7_to_s12(w):
    d, ess, verdict, codim = _combinatorics(inverse(w))
    d_w, ess_w, verdict_w, codim_w = _combinatorics(w)
    assert d == transposed_cells(d_w.items())
    assert ess == transposed_cells(ess_w.items())
    assert (verdict, codim) == (verdict_w, codim_w)


@settings(max_examples=25, deadline=None)
@example(w=PartialPermutation.from_one_line("1532476"))
@given(w=permutations(7, 10))
def test_the_antidiagonal_ideal_transposes_on_s7_to_s10(w):
    assert antidiagonal_ideal(inverse(w)) == transposed_ideal(antidiagonal_ideal(w))
