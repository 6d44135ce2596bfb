"""The complete intersection classifier, its certificate and witnesses, the
explicit generator list, and the independent minimal-generator-count oracle."""

import itertools
import json
import random
from pathlib import Path

from msvkit.perm import (Cell, PartialPermutation, all_permutations, coxeter_length,
                         diagram, extend_to_permutation, submatrix_w)
from msvkit.poly import (Polynomial, PolyRing, antidiagonal_monomial, ideals_equal, minor,
                         monomial_lcm, monomial_mul, normal_forms)
from msvkit.detideal import antidiagonal_ideal, fulton_generators
import msvkit.ci as ci
import msvkit.perm as perm
from msvkit.ci import (CertificateNode, CIReport, is_complete_intersection,
                       minimal_generator_count, necessary_condition)
from reference import reference_classify


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
    assert set(report.generators) == _462153_generators()
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
    assert nodes[Cell(4, 4)].child is None


def test_identity_is_a_complete_intersection_with_no_generators():
    report = is_complete_intersection(PartialPermutation.from_one_line(range(1, 5)))
    assert report.verdict
    assert report.codim == 0
    assert report.generators == ()
    assert report.certificate == ()


def _462153_generators():
    r = PolyRing(6, 6)
    return {
        r.variable(i, j) for i in (1, 2) for j in (1, 2, 3)
    } | {r.variable(3, 1), minor(r, [1, 2], [4, 5]), minor(r, [3, 4, 5], [1, 2, 3])}


def test_certificate_covers_every_positive_cell_and_recurses():
    report = is_complete_intersection(w_("462153"))
    cells = [node.cell for node in report.certificate]
    assert cells == [Cell(2, 5), Cell(5, 3)]
    deep = {node.cell: node for node in report.certificate}[Cell(5, 3)]
    assert deep.rank == 2 and deep.child is not None
    assert deep.child.w == (2, 1)
    assert deep.child.verdict


def test_certificate_blocks_agree_with_submatrix_w_on_s6():
    # the classifier reads each block from the one-line word; submatrix_w
    # builds it from the rank function and the 0/1 matrix
    for w in all_permutations(6):
        for node in is_complete_intersection(w).certificate:
            sub = submatrix_w(w, node.cell)
            assert node.rank == len(sub.block)
            assert (node.child is not None) == sub.is_permutation
            if sub.is_permutation:
                assert node.child.w == tuple(row.index(1) + 1 for row in sub.block)
            else:
                assert node.child is None


# ---------------------------------------------------------------------------
# Pattern oracle, lazy generators and the certificate reference
# ---------------------------------------------------------------------------

CI_PATTERNS = ((1, 3, 4, 2), (1, 4, 2, 3), (1, 4, 3, 2))
# Each pattern is 1 followed by a larger triple in one of these orders.
CI_PATTERN_TAILS = {tuple(v - 1 for v in pattern[1:]) for pattern in CI_PATTERNS}


def _avoids_ci_patterns(word):
    """Avoidance of 1342, 1423 and 1432, straight from the definition: no
    entry is followed by three larger entries in the relative order of a
    pattern's last three."""
    for i, a in enumerate(word):
        later = [b for b in word[i + 1:] if b > a]
        for triple in itertools.combinations(later, 3):
            ordered = sorted(triple)
            if tuple(ordered.index(b) + 1 for b in triple) in CI_PATTERN_TAILS:
                return False
    return True


def test_classifier_matches_the_pattern_oracle_on_s1_to_s8():
    golden = json.loads((GOLDEN / "ci_census_counts.json").read_text())
    assert sorted(golden) == ["3", "4", "5", "6", "7", "8"]
    counts = {}
    # permutation blocks that are not complete intersections, which the
    # recursion puts in certificates but which never decide a verdict
    non_ci_children = {}
    for n in range(1, 9):
        by_classifier = by_patterns = non_ci_children[n] = 0
        for word in itertools.permutations(range(1, n + 1)):
            report = is_complete_intersection(PartialPermutation(n, n, word))
            avoids = _avoids_ci_patterns(word)
            assert report.verdict == avoids, word
            assert report.verdict == all(node.child is not None for node in report.certificate)
            assert report.verdict or report.failure_witness.kind == "block-not-permutation"
            non_ci_children[n] += sum(node.child is not None and not node.child.verdict
                                      for node in report.certificate)
            by_classifier += report.verdict
            by_patterns += avoids
        assert by_classifier == by_patterns, n
        counts[str(n)] = by_classifier
    assert {n: counts[n] for n in golden} == golden
    assert non_ci_children[6] >= 1


def _holds_a_polynomial(value):
    if isinstance(value, Polynomial):
        return True
    if isinstance(value, (tuple, list)):
        return any(_holds_a_polynomial(v) for v in value)
    if hasattr(value, "__dict__"):
        return any(_holds_a_polynomial(v) for v in vars(value).values())
    return False


def test_verdicts_need_no_determinant_and_generators_are_read_on_demand(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a determinant was expanded")

    with monkeypatch.context() as m:
        m.setattr(ci, "minor", refuse)
        reports = {w.one_line(): is_complete_intersection(w) for w in all_permutations(6)}
        target = is_complete_intersection(w_("462153"))
    assert sum(report.verdict for report in reports.values()) == 322
    for word, report in reports.items():
        assert report.codim == coxeter_length(w_(word))
        assert report.verdict == _avoids_ci_patterns(word)
    assert set(target.generators) == _462153_generators()


def _certificate_depth(report):
    return 1 + max((_certificate_depth(node.child) for node in report.certificate
                    if node.child is not None), default=0)


def test_no_report_holds_a_polynomial_at_any_depth():
    reports = [is_complete_intersection(w) for w in all_permutations(6)]
    assert max(_certificate_depth(report) for report in reports) >= 3
    assert not any(_holds_a_polynomial(report) for report in reports)
    # the walk reaches a polynomial planted in a nested child
    child = CIReport((1,), True, 0, (PolyRing(1, 1).variable(1, 1),), None)
    assert _holds_a_polynomial(CIReport((2, 1), True, 1, (
        CertificateNode(Cell(1, 1), 1, child),), None))


def test_classifier_reports_match_the_fresh_diagram_reference_on_s1_to_s8():
    # verdict, codim, every certificate node and nested child, and the witness
    for n in range(1, 9):
        for word in itertools.permutations(range(1, n + 1)):
            report = is_complete_intersection(PartialPermutation(n, n, word))
            assert report == reference_classify(word), word


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def test_ci_generators_longest_element_is_the_staircase_of_variables():
    for n in (3, 4, 5):
        r = PolyRing(n, n)
        gens = is_complete_intersection(w_(range(n, 0, -1))).generators
        assert set(gens) == {r.variable(p, q) for p in range(1, n + 1)
                             for q in range(1, n + 1) if p + q <= n}


def test_ci_generators_21():
    r = PolyRing(2, 2)
    assert is_complete_intersection(w_("21")).generators == (r.variable(1, 1),)


def test_ci_generators_rejects_non_complete_intersections():
    # a negative verdict has no generator list
    for w in all_permutations(4):
        report = is_complete_intersection(w)
        assert (report.generators is None) == (not report.verdict)


def test_ci_generators_generate_the_schubert_ideal():
    # both inclusions via normal forms against the two Groebner bases
    for word in ("462153", "24153", "4321", "2143"):
        w = w_(word)
        report = is_complete_intersection(w)
        if not report.verdict:
            continue
        schubert = fulton_generators(w)
        assert ideals_equal(report.generators, schubert.generators)


def test_ci_generators_lead_with_their_antidiagonals():
    w = w_("462153")
    report = is_complete_intersection(w)
    ring = PolyRing(6, 6)
    for g, site in zip(report.generators, _ci_sites(w)):
        assert g.leading_monomial() == antidiagonal_monomial(ring, *site)


def _ci_sites(w):
    sites = []
    for cell, r in diagram(w).items():
        sites.append((tuple(range(cell.p - r, cell.p + 1)),
                      tuple(range(cell.q - r, cell.q + 1))))
    return sites


def _certifies(w, gens):
    """Whether gens certify I_w = <gens> with neither a Groebner basis of I_w
    nor Nakayama: pairwise coprime leads make gens a Groebner basis
    (Buchberger's first criterion), so a Fulton generator lies in <gens>
    exactly when its normal form is zero."""
    leads = [g.leading_monomial() for g in gens]
    return (all(monomial_lcm(a, b) == monomial_mul(a, b)
                for a, b in itertools.combinations(leads, 2))
            and not any(normal_forms(fulton_generators(w).raw_generators, gens)))


def test_ci_generators_certify_every_verdict_without_a_groebner_basis():
    # Coprime leads also make the generators a regular sequence, so a CI
    # verdict whose ideal they generate is proved by expansion and division
    # alone; their leads are J_w, which proves in(I_w) = J_w as well.  The
    # minors at the diagram cells of a non-CI w, also codim-many, must fail:
    # its ideal needs more generators than its codimension.
    words = [w.one_line() for n in range(1, 7) for w in all_permutations(n)]
    words += random.Random(7).sample(list(itertools.permutations(range(1, 8))), 200)
    ci_words = []
    for word in words:
        w = PartialPermutation(len(word), len(word), word)
        report = is_complete_intersection(w)
        if report.verdict:
            gens = report.generators
            assert len(gens) == coxeter_length(w)
            assert _certifies(w, gens), word
            assert {g.leading_monomial() for g in gens} == set(antidiagonal_ideal(w).gens)
            ci_words.append(word)
        else:
            ring = PolyRing(len(word), len(word))
            assert not _certifies(w, [minor(ring, *site) for site in _ci_sites(w)]), word
    # the CI permutations of S_1 to S_6 number 1 + 2 + 6 + 21 + 80 + 322
    assert sum(len(word) < 7 for word in ci_words) == 432


# ---------------------------------------------------------------------------
# Necessary condition
# ---------------------------------------------------------------------------

def test_necessary_condition_goldens():
    assert necessary_condition(w_("462153")).ok
    assert necessary_condition(PartialPermutation.from_one_line(range(1, 6))).ok
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
    assert minimal_generator_count(PartialPermutation.from_one_line(range(1, 6))) == 0
    mu = minimal_generator_count(w_("361452"))
    assert mu == 10
    assert mu > coxeter_length(w_("361452"))
    assert minimal_generator_count(w_("1532476")) == 9


def test_oracle_matches_the_golden_counts_on_s5_and_s6():
    golden = json.loads((GOLDEN / "minimal_counts.json").read_text())
    assert sorted(golden) == ["5", "6"]
    for n, counts in golden.items():
        assert sorted(counts) == [str(w) for w in all_permutations(int(n))]
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


def test_the_oracle_builds_no_second_diagram(monkeypatch):
    """The classifier's diagram of w is the one the oracle's essential set
    reads: over S_1 to S_5, ``is_complete_intersection(w, with_oracle=True)``
    builds each w's diagram once, and ``necessary_condition`` then builds
    none."""
    real = perm._diagram_ranks
    built = []

    def counting(w):
        built.append(w.one_line())
        return real(w)

    monkeypatch.setattr(perm, "_diagram_ranks", counting)
    words = []
    for n in range(1, 6):
        for w in all_permutations(n):
            report = is_complete_intersection(w, with_oracle=True, char=32003)
            assert necessary_condition(w).ok or not report.verdict
            assert report.mu == len(fulton_generators(w).generators)
            words.append(w.one_line())
    assert built == words


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
