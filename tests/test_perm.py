"""Grid combinatorics: rank functions, diagrams, essential sets, extension,
deletion and block extraction, checked against hand-derived values and
brute-force re-derivations of the definitions."""

import itertools
from fractions import Fraction

import pytest

from msvkit.perm import (Cell, PartialPermutation, PermutationParseError,
                         all_partial_permutations, all_permutations,
                         coxeter_length, delete_row_col, diagram, essential_set,
                         extend_to_permutation, parse_partial_matrix, rank_at,
                         submatrix_w)
from msvkit.ci import necessary_condition
from reference import column_row, extend_by_column_search


def w_(word):
    return PartialPermutation.from_one_line(word)


# ---------------------------------------------------------------------------
# Parsing and construction
# ---------------------------------------------------------------------------

def test_one_line_roundtrip():
    for word in ("1", "21", "35142", "462153"):
        assert str(w_(word)) == word
    big = w_("10 2 1 3 4 5 6 7 8 9")
    assert big.size == 10
    assert big(1) == 10
    assert str(big) == "10 2 1 3 4 5 6 7 8 9"


def test_parse_errors_carry_position():
    with pytest.raises(PermutationParseError) as err:
        w_("35141")
    assert err.value.position == 5
    with pytest.raises(PermutationParseError) as err:
        w_("3x142")
    assert err.value.position == 2
    with pytest.raises(PermutationParseError):
        w_("360")
    with pytest.raises(PermutationParseError):
        w_("")
    # superscript two is a digit to str.isdigit but not to int
    for word, position in (("\u00b2", 1), ("1\u00b2", 2)):
        with pytest.raises(PermutationParseError) as err:
            w_(word)
        assert err.value.position == position
    # decimal digits of other scripts read as int reads them
    assert w_("\u0663\u0661\u0662").one_line() == (3, 1, 2)
    # an empty comma-separated field is an error at its position
    for word, position in (("1,,2", 2), ("2,1,", 3), (",2,1", 1), ("2, ,1", 2)):
        with pytest.raises(PermutationParseError) as err:
            w_(word)
        assert err.value.position == position
    assert w_("1, 2").one_line() == (1, 2)
    assert w_("1 2,3").one_line() == (1, 2, 3)
    # int() also reads a sign and underscores between digits; a separated
    # token takes neither, as the digit-string form does not
    for word, position in (("1 2 +3", 3), ("2 1_0 1 3 4 5 6 7 8 9", 2), ("2,-1", 2),
                           ("1 \u00b2", 2), ("+21", 1)):
        with pytest.raises(PermutationParseError, match=f"position {position}") as err:
            w_(word)
        assert err.value.position == position
    assert w_("\u0662 \u0661").one_line() == (2, 1)


def test_a_column_that_is_not_an_integer_is_refused():
    # int() would truncate 2.7 and 5/2 to 2 and read "+1" and " 2", which the
    # text path refuses, and operator.index reads True as 1, so each word
    # below would become 21 or 12
    for word in ([2.7, 1.2], [Fraction(5, 2), 1], ["+1", " 2"], [1, 2.0], [True, 2],
                 [2, True]):
        position = next(k for k, v in enumerate(word, start=1) if type(v) is not int)
        with pytest.raises(PermutationParseError, match=f"position {position}") as err:
            w_(word)
        assert err.value.position == position
    assert w_(iter([2, 3, 1])).one_line() == (2, 3, 1)
    # a grid whose matrix would be all zeros while its diagram held a rank-1
    # cell, and a bool, which is an int that would render as "True2"
    for assignment in ((1.5, None), (True, 2)):
        with pytest.raises(TypeError, match="^row 1 assigned to .*, which is not an int column$"):
            PartialPermutation(2, 2, assignment)
    # a size of 2.0 printed "21" and then failed inside range, and True was
    # kept as the size True
    for rows, cols in ((2.0, 2), (2, 2.0), (True, True)):
        with pytest.raises(TypeError, match=r"^grid dimension (2\.0|True) is not an int$"):
            PartialPermutation(rows, cols, (1,) * int(rows))
    # a list assignment is kept as a tuple, so the permutation equals the
    # one built from a tuple and hashes
    w = PartialPermutation(2, 2, [2, 1])
    assert w == PartialPermutation(2, 2, (2, 1)) and w.assignment == (2, 1)
    assert hash(w) == hash(PartialPermutation(2, 2, (2, 1)))


def test_matrix_construction_and_validation():
    w = PartialPermutation.from_matrix([[0, 1, 0], [0, 0, 0]])
    assert w.rows == 2 and w.cols == 3
    assert w(1) == 2 and w(2) is None
    assert not w.is_permutation
    with pytest.raises(ValueError):
        PartialPermutation.from_matrix([[1, 1], [0, 0]])
    with pytest.raises(ValueError):
        PartialPermutation.from_matrix([[1, 0], [1, 0]])
    with pytest.raises(ValueError):
        PartialPermutation.from_matrix([[1, 0], [0]])
    with pytest.raises(ValueError):
        PartialPermutation.from_matrix([[2, 0], [0, 0]])


def test_parse_partial_matrix_text():
    w = parse_partial_matrix("0 0 1\n1 0 0\n")
    assert w(1) == 3 and w(2) == 1
    with pytest.raises(ValueError):
        parse_partial_matrix("")


# ---------------------------------------------------------------------------
# Rank function
# ---------------------------------------------------------------------------

def test_rank_at_golden_values():
    assert rank_at(w_("35142"), (2, 4)) == 1
    assert rank_at(PartialPermutation.from_one_line(range(1, 4)), (2, 2)) == 2
    assert rank_at(w_("35142"), (5, 5)) == 5


def test_rank_at_rejects_out_of_grid():
    with pytest.raises(ValueError):
        rank_at(w_("321"), (0, 1))
    with pytest.raises(ValueError):
        rank_at(w_("321"), (1, 4))


def test_rank_monotonicity_and_unit_steps():
    pool = list(all_permutations(4)) + list(all_partial_permutations(3, 2))
    for w in pool:
        for p in range(1, w.rows + 1):
            for q in range(1, w.cols + 1):
                r = rank_at(w, (p, q))
                if p > 1:
                    assert rank_at(w, (p - 1, q)) in (r, r - 1)
                if q > 1:
                    assert rank_at(w, (p, q - 1)) in (r, r - 1)


# ---------------------------------------------------------------------------
# Diagram and essential set
# ---------------------------------------------------------------------------

def test_diagram_35142_golden():
    d = diagram(w_("35142"))
    assert d == {
        Cell(1, 1): 0, Cell(1, 2): 0, Cell(2, 1): 0, Cell(2, 2): 0,
        Cell(2, 4): 1, Cell(4, 2): 1,
    }


def test_diagram_identity_empty():
    assert diagram(PartialPermutation.from_one_line(range(1, 6))) == {}


def test_diagram_positive_cells_361452():
    d = diagram(w_("361452"))
    assert tuple(c for c, r in d.items() if r > 0) == (
        Cell(2, 4), Cell(2, 5), Cell(4, 2), Cell(5, 2))


def test_diagram_positive_cells_352614():
    d = diagram(w_("352614"))
    assert tuple(c for c, r in d.items() if r > 0) == (Cell(2, 4), Cell(4, 4))
    assert d[Cell(4, 4)] == 2


def test_diagram_iterates_row_major():
    # the JSON cells, the CI generators, the certificate and the witness
    # are read in the diagram's own order
    pool = list(all_permutations(5)) + [
        w for l in (1, 2, 3) for m in (1, 2, 3) for w in all_partial_permutations(l, m)]
    for w in pool:
        d = diagram(w)
        assert list(d) == sorted(d)
    for w in all_permutations(6):
        violations = necessary_condition(w).violations
        assert list(violations) == sorted(violations)


def _diagram_by_definition(w):
    """Independent re-derivation: scan every cell against the definition."""
    cells = {}
    for i in range(1, w.rows + 1):
        for j in range(1, w.cols + 1):
            wi = w(i)
            inv = column_row(w, j)
            if (wi is None or wi > j) and (inv is None or inv > i):
                cells[Cell(i, j)] = rank_at(w, (i, j))
    return cells


def test_diagram_matches_definition():
    # the cells and ranks in row-major order, which callers iterate in
    pool = itertools.chain(
        (w for n in range(1, 7) for w in all_permutations(n)),
        (w for rows in range(1, 5) for cols in range(1, 5)
         for w in all_partial_permutations(rows, cols)))
    for w in pool:
        assert list(diagram(w).items()) == list(_diagram_by_definition(w).items()), w


def test_a_permutation_keeps_one_read_only_diagram():
    # two callers, diagram and essential_set, read the one mapping w keeps;
    # equal permutations built apart compute equal diagrams, and the kept
    # one takes no part in ==, hash or repr
    w = w_("35142")
    assert w.kept_diagram is None
    first = diagram(w)
    assert w.kept_diagram is first
    assert essential_set(w) == ((Cell(2, 2), 0), (Cell(2, 4), 1), (Cell(4, 2), 1))
    second = diagram(w)
    assert second is first
    assert first == _diagram_by_definition(w) == diagram(w_("35142"))
    assert w == w_("35142") and hash(w) == hash(w_("35142"))
    assert repr(w) == repr(w_("35142"))
    with pytest.raises(TypeError):
        first[Cell(1, 1)] = 5
    with pytest.raises(TypeError):
        del second[Cell(1, 1)]
    with pytest.raises(AttributeError):
        first.pop(Cell(1, 1))
    assert diagram(w) == _diagram_by_definition(w)


def test_essential_set_goldens():
    assert essential_set(w_("35142")) == (
        (Cell(2, 2), 0), (Cell(2, 4), 1), (Cell(4, 2), 1))
    assert essential_set(PartialPermutation.from_one_line(range(1, 5))) == ()
    positive = tuple((c, r) for c, r in essential_set(w_("352614")) if r > 0)
    assert positive == ((Cell(2, 4), 1), (Cell(4, 4), 2))


def test_essential_cells_are_southeast_maximal_diagram_cells():
    for w in all_permutations(5):
        d = diagram(w)
        essential = essential_set(w)
        for cell, rank in essential:
            assert cell in d
            assert d[cell] == rank
            assert Cell(cell.p + 1, cell.q) not in d
            assert Cell(cell.p, cell.q + 1) not in d
        expected = {c for c in d
                    if Cell(c.p + 1, c.q) not in d
                    and Cell(c.p, c.q + 1) not in d}
        assert {c for c, _ in essential} == expected


# ---------------------------------------------------------------------------
# Coxeter length
# ---------------------------------------------------------------------------

def test_coxeter_length_goldens():
    assert coxeter_length(w_("35142")) == 6
    assert coxeter_length(PartialPermutation.from_one_line(range(1, 8))) == 0
    assert coxeter_length(w_("462153")) == 9


def test_coxeter_length_requires_full_permutation():
    with pytest.raises(ValueError):
        coxeter_length(PartialPermutation.from_matrix([[0, 1], [0, 0]]))


def test_diagram_size_equals_length_up_to_s6():
    for n in range(1, 7):
        for w in all_permutations(n):
            assert len(diagram(w)) == coxeter_length(w)


# ---------------------------------------------------------------------------
# Extension to a permutation
# ---------------------------------------------------------------------------

def test_extend_zero_matrix():
    assert extend_to_permutation(PartialPermutation(1, 1, (None,))).one_line() == (2, 1)


def test_extend_full_identity_has_empty_diagram():
    wt = extend_to_permutation(PartialPermutation.from_one_line(range(1, 4)))
    assert wt.size == 6
    assert diagram(wt) == {}


def test_extension_preserves_diagram_and_essential_set():
    seen = 0
    for l in (1, 2, 3, 4):
        for m in (1, 2, 3, 4):
            for w in all_partial_permutations(l, m):
                wt = extend_to_permutation(w)
                assert wt == extend_by_column_search(w), w
                seen += 1
                assert wt.size == l + m
                assert diagram(wt) == diagram(w)
                assert essential_set(wt) == essential_set(w)
                assert len(diagram(wt)) == len(diagram(w))
    assert seen == 490


# ---------------------------------------------------------------------------
# Deletion and block extraction
# ---------------------------------------------------------------------------

def test_delete_row_col_goldens():
    assert delete_row_col(w_("35142"), 1, 3).one_line() == (4, 1, 3, 2)
    assert delete_row_col(w_("21"), 1, 2).one_line() == (1,)
    w5 = delete_row_col(w_("462153"), 1, 4)
    assert w5.one_line() == (5, 2, 1, 4, 3)
    assert coxeter_length(w5) == 6


def test_delete_row_col_requires_an_entry():
    with pytest.raises(ValueError):
        delete_row_col(w_("35142"), 1, 2)


def _inversions_through_row(word, p0):
    n = len(word)
    return sum(1 for i in range(1, n + 1) for j in range(i + 1, n + 1)
               if word[i - 1] > word[j - 1] and p0 in (i, j))


def test_deletion_drops_exactly_the_inversions_through_the_row():
    for w in all_permutations(5):
        word = w.one_line()
        for p0 in range(1, 6):
            w2 = delete_row_col(w, p0, word[p0 - 1])
            assert coxeter_length(w) - coxeter_length(w2) == \
                _inversions_through_row(word, p0)


def test_submatrix_goldens():
    assert submatrix_w(w_("462153"), (2, 5)) == (((1,),), True)
    sub = submatrix_w(w_("352614"), (4, 4))
    assert sub.block == ((0, 0), (1, 0))
    assert not sub.is_permutation
    assert submatrix_w(w_("35142"), (2, 4)) == (((1,),), True)


def test_submatrix_errors():
    with pytest.raises(ValueError):
        submatrix_w(w_("35142"), (2, 2))  # rank 0
    with pytest.raises(ValueError):
        submatrix_w(w_("21"), (2, 2))  # block would leave the grid


def test_longest_element_diagram_is_staircase():
    w0 = w_(range(4, 0, -1))
    d = diagram(w0)
    assert set(d) == {Cell(p, q) for p in range(1, 5) for q in range(1, 5)
                      if p + q <= 4}
    assert all(r == 0 for r in d.values())
