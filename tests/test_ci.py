"""The complete intersection classifier, its certificate and witnesses, the
explicit generator list, and the independent minimal-generator-count oracle."""

import json
from pathlib import Path

import pytest

from msvkit.perm import (Cell, PartialPermutation, all_permutations, coxeter_length,
                         diagram, extend_to_permutation, identity, longest_element,
                         render_one_line)
from msvkit.poly import (IdealPresentation, PolyRing, antidiagonal_monomial,
                         ideals_equal, minor)
from msvkit.detideal import fulton_generators
from msvkit.ci import (ci_generators, is_complete_intersection,
                       minimal_generator_count, necessary_condition)


GOLDEN = Path(__file__).parent / "golden"


def w_(word):
    return PartialPermutation.from_one_line(word)


# ---------------------------------------------------------------------------
# Worked examples
# ---------------------------------------------------------------------------

def test_462153_is_a_complete_intersection_with_nine_generators():
    report = is_complete_intersection(w_("462153"))
    assert report.verdict
    assert report.codim == 9
    r = PolyRing(6, 6)
    expected = {
        r.variable(i, j) for i in (1, 2) for j in (1, 2, 3)
    } | {r.variable(3, 1), minor(r, [1, 2], [4, 5]), minor(r, [3, 4, 5], [1, 2, 3])}
    assert set(report.generators) == expected
    assert len(report.generators) == 9
    assert report.failure_witness is None


def test_361452_fails_with_witness_at_2_5():
    report = is_complete_intersection(w_("361452"))
    assert not report.verdict
    assert report.codim == 8
    assert report.generators is None
    assert report.failure_witness.cell == Cell(2, 5)
    assert report.failure_witness.kind == "block-not-permutation"


def test_352614_fails_with_witness_at_4_4():
    report = is_complete_intersection(w_("352614"))
    assert not report.verdict
    assert report.failure_witness.cell == Cell(4, 4)
    assert report.failure_witness.kind == "block-not-permutation"
    # the rank-2 block is ((0,0),(1,0)); its node sits in the certificate
    nodes = {node.cell: node for node in report.certificate}
    assert nodes[Cell(4, 4)].rank == 2
    assert not nodes[Cell(4, 4)].is_permutation


def test_identity_is_a_complete_intersection_with_no_generators():
    report = is_complete_intersection(identity(4))
    assert report.verdict
    assert report.codim == 0
    assert report.generators == ()
    assert report.certificate == ()


def test_certificate_covers_every_positive_cell_and_recurses():
    report = is_complete_intersection(w_("462153"))
    cells = [node.cell for node in report.certificate]
    assert cells == [Cell(2, 5), Cell(5, 3)]
    deep = {node.cell: node for node in report.certificate}[Cell(5, 3)]
    assert deep.rank == 2 and deep.is_permutation
    assert deep.child.w == (2, 1)
    assert deep.child.verdict


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def test_ci_generators_longest_element_is_the_staircase_of_variables():
    for n in (3, 4, 5):
        r = PolyRing(n, n)
        gens = ci_generators(longest_element(n), r)
        assert set(gens) == {r.variable(p, q) for p in range(1, n + 1)
                             for q in range(1, n + 1) if p + q <= n}


def test_ci_generators_21():
    r = PolyRing(2, 2)
    assert ci_generators(w_("21"), r) == (r.variable(1, 1),)


def test_ci_generators_rejects_non_complete_intersections():
    with pytest.raises(ValueError):
        ci_generators(w_("361452"))


def test_ci_generators_generate_the_schubert_ideal():
    # both inclusions via normal forms against the two Groebner bases
    for word in ("462153", "24153", "4321", "2143"):
        w = w_(word)
        report = is_complete_intersection(w)
        if not report.verdict:
            continue
        schubert = fulton_generators(w)
        ring = schubert.ring
        gens = ci_generators(w, ring)
        assert ideals_equal(IdealPresentation(ring, gens), schubert.presentation())


def test_ci_generators_lead_with_their_antidiagonals():
    w = w_("462153")
    report = is_complete_intersection(w)
    ring = PolyRing(6, 6)
    for g, site in zip(report.generators, _ci_sites(w)):
        assert g.leading_monomial() == antidiagonal_monomial(ring, *site)


def _ci_sites(w):
    d = diagram(w)
    sites = []
    for cell in d.sorted_cells():
        r = d.ranks[cell]
        sites.append((tuple(range(cell.p - r, cell.p + 1)),
                      tuple(range(cell.q - r, cell.q + 1))))
    return sites


# ---------------------------------------------------------------------------
# Necessary condition
# ---------------------------------------------------------------------------

def test_necessary_condition_goldens():
    assert necessary_condition(w_("462153")).ok
    assert necessary_condition(identity(5)).ok
    report = necessary_condition(w_("361452"))
    assert not report.ok
    assert {(v.cell, v.neighbor) for v in report.violations} == {
        (Cell(2, 4), Cell(2, 5)), (Cell(4, 2), Cell(5, 2))}


def test_necessary_condition_passes_for_352614_yet_not_sufficient():
    assert necessary_condition(w_("352614")).ok
    assert not is_complete_intersection(w_("352614")).verdict


def test_complete_intersections_satisfy_the_necessary_condition():
    for w in all_permutations(4):
        if is_complete_intersection(w).verdict:
            assert necessary_condition(w).ok


# ---------------------------------------------------------------------------
# The minimal-generator-count oracle
# ---------------------------------------------------------------------------

def test_oracle_goldens():
    assert minimal_generator_count(w_("462153")) == 9
    assert minimal_generator_count(identity(5)) == 0
    mu = minimal_generator_count(w_("361452"))
    assert mu == 10
    assert mu > coxeter_length(w_("361452"))
    assert minimal_generator_count(w_("1532476")) == 9


def test_oracle_matches_the_golden_counts_on_s5_and_s6():
    golden = json.loads((GOLDEN / "minimal_counts.json").read_text())
    assert sorted(golden) == ["5", "6"]
    for n, counts in golden.items():
        assert sorted(counts) == [render_one_line(w) for w in all_permutations(int(n))]
        for word, mu in counts.items():
            w = w_(word)
            assert minimal_generator_count(w) == mu, word
            assert minimal_generator_count(w, char=32003) == mu, word


def test_oracle_decides_complete_intersections_on_s4():
    for w in all_permutations(4):
        mu = minimal_generator_count(w)
        codim = coxeter_length(w)
        assert mu >= codim
        assert is_complete_intersection(w).verdict == (mu == codim)


def test_oracle_prime_field_agrees_with_rationals():
    for word in ("35142", "462153", "352614"):
        w = w_(word)
        assert minimal_generator_count(w) == minimal_generator_count(w, char=32003)


def test_with_oracle_attaches_mu():
    report = is_complete_intersection(w_("462153"), with_oracle=True)
    assert report.mu == 9
    plain = is_complete_intersection(w_("462153"))
    assert plain.mu is None


def test_partial_permutations_are_extended_first():
    partial = PartialPermutation.from_matrix([[0, 1, 0], [0, 0, 0]])
    report = is_complete_intersection(partial)
    extended = is_complete_intersection(extend_to_permutation(partial))
    assert report == extended


# ---------------------------------------------------------------------------
# Report schema
# ---------------------------------------------------------------------------

def test_ci_report_json_schema():
    payload = is_complete_intersection(w_("462153"), with_oracle=True).to_json()
    assert set(payload) == {"w", "verdict", "codim", "mu", "generators",
                            "witness", "certificate"}
    assert payload["w"] == "462153"
    assert payload["verdict"] is True
    assert payload["codim"] == 9 and payload["mu"] == 9
    assert len(payload["generators"]) == 9
    assert payload["witness"] is None
    json.dumps(payload)
    negative = is_complete_intersection(w_("361452")).to_json()
    assert negative["generators"] is None
    assert negative["witness"]["cell"] == [2, 5]
    assert negative["certificate"][0]["cell"] == [2, 4]
    json.dumps(negative)
