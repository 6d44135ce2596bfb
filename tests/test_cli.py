"""Command-line front end: grids against the checked-in golden files, JSON
report schemas, exit codes, capability bounds, census behaviour and the
prime-field environment override."""

import argparse
import dataclasses
import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import msvkit.detideal as detideal
from msvkit.cli import main, render_grid
from msvkit.perm import PartialPermutation
from msvkit.ci import minimal_generator_count
from reference import zero_cells

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def validate(payload, schema):
    """Check a payload against the checked-in schema (a JSON Schema subset:
    type unions, required keys, properties, array items)."""
    kinds = schema.get("type")
    if kinds is not None:
        kinds = kinds if isinstance(kinds, list) else [kinds]
        matched = {
            "object": lambda v: isinstance(v, dict),
            "array": lambda v: isinstance(v, list),
            "string": lambda v: isinstance(v, str),
            "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
            "boolean": lambda v: isinstance(v, bool),
            "null": lambda v: v is None,
        }
        assert any(matched[k](payload) for k in kinds), (payload, kinds)
    if isinstance(payload, dict):
        for key in schema.get("required", ()):
            assert key in payload, f"missing key {key}"
        for key, sub in schema.get("properties", {}).items():
            if key in payload and payload[key] is not None:
                validate(payload[key], sub)
    if isinstance(payload, list) and "items" in schema:
        for entry in payload:
            validate(entry, schema["items"])


def load_schema(name):
    return json.loads((GOLDEN / name).read_text())


# ---------------------------------------------------------------------------
# Diagram rendering against golden files
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("word", ["35142", "361452", "352614", "462153"])
def test_diagram_matches_golden_file(capsys, word):
    code, out, _ = run(capsys, "diagram", word)
    assert code == 0
    assert out == (GOLDEN / f"diagram_{word}.txt").read_text()


@pytest.mark.parametrize("word", ["35142", "361452", "352614", "462153"])
def test_golden_ones_and_stars_match_the_figures(word):
    """'1' cells are the permutation entries and '*' cells are exactly the
    positive-rank diagram cells; '.' cells are checked separately."""
    from msvkit.perm import diagram
    w = PartialPermutation.from_one_line(word)
    grid = (GOLDEN / f"diagram_{word}.txt").read_text().splitlines()
    ones, stars, dots = set(), set(), set()
    for i, line in enumerate(grid, start=1):
        for k, ch in enumerate(line):
            if k % 2 == 0 and ch in "1*.":
                cell = (i, k // 2 + 1)
                {"1": ones, "*": stars, ".": dots}[ch].add(cell)
    assert ones == {(i, w(i)) for i in range(1, w.size + 1)}
    d = diagram(w)
    assert stars == {c for c, r in d.items() if r > 0}
    assert dots == set(zero_cells(d))


def test_render_grid_equals_cli_output(capsys):
    code, out, _ = run(capsys, "diagram", "35142")
    assert out == render_grid(PartialPermutation.from_one_line("35142")) + "\n"


def test_diagram_json_lists_every_cell_with_its_rank(capsys):
    assert run(capsys, "diagram", "35142", "--json") == (0, (
        '{"cells": [[1, 1, 0], [1, 2, 0], [2, 1, 0], [2, 2, 0], [2, 4, 1], [4, 2, 1]], '
        '"w": "35142"}\n'), "")


# ---------------------------------------------------------------------------
# Subcommand behaviour and exit codes
# ---------------------------------------------------------------------------

def test_ci_verdict_true_exits_zero(capsys):
    code, out, _ = run(capsys, "ci", "462153")
    assert code == 0
    assert "complete intersection" in out


def test_ci_verdict_false_exits_one_in_text_and_json(capsys):
    code_text, out_text, _ = run(capsys, "ci", "361452")
    code_json, out_json, _ = run(capsys, "ci", "361452", "--json")
    assert code_text == code_json == 1
    payload = json.loads(out_json)
    assert payload["verdict"] is False
    assert payload["witness"]["cell"] == [2, 5]
    assert "not a complete intersection" in out_text


def test_ci_json_schema_and_mu(capsys):
    code, out, _ = run(capsys, "ci", "462153", "--json", "--mu")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"w", "verdict", "codim", "mu", "generators",
                            "witness", "certificate"}
    assert payload["mu"] == 9


def test_gens_lists_the_fulton_generators(capsys):
    code, out, _ = run(capsys, "gens", "35142")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[:4] == ["x[1,1]", "x[1,2]", "x[2,1]", "x[2,2]"]
    assert len(lines) == 6
    code, raw_out, _ = run(capsys, "gens", "35142", "--raw")
    assert len(raw_out.strip().splitlines()) == 16
    assert run(capsys, "gens", "35142", "--json") == (0, (
        '{"cells": [[2, 2, 0], [2, 4, 1], [4, 2, 1]], "generators": ["x[1,1]", "x[1,2]", '
        '"x[2,1]", "x[2,2]", "-x[1,4]*x[2,3] + x[1,3]*x[2,4]", '
        '"-x[3,2]*x[4,1] + x[3,1]*x[4,2]"], "w": "35142"}\n'), "")


def test_essential_output(capsys):
    code, out, _ = run(capsys, "essential", "35142", "--json")
    assert code == 0
    assert json.loads(out)["essential"] == [[2, 2, 0], [2, 4, 1], [4, 2, 1]]
    assert run(capsys, "essential", "35142") == (
        0, "(2,2) rank 0\n(2,4) rank 1\n(4,2) rank 1\n", "")


def test_verify_gb_ok(capsys):
    code, out, _ = run(capsys, "verify-gb", "35142", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["match"] is True
    assert set(payload) == {"w", "match", "gb_leading", "antidiagonal"}


def test_verify_gb_corrupted_generators_exit_one(capsys, monkeypatch):
    real = detideal.fulton_generators

    def corrupted(w, ring=None, **kwargs):
        schubert = real(w, ring, **kwargs)
        import dataclasses
        return dataclasses.replace(schubert, generators=schubert.generators[:-1])

    monkeypatch.setattr(detideal, "fulton_generators", corrupted)
    code, out, _ = run(capsys, "verify-gb", "35142", "--json")
    assert code == 1
    assert json.loads(out)["match"] is False
    # without the last generator, the minor at (4,2), its antidiagonal
    # x[3,2]*x[4,1] leads nothing
    assert run(capsys, "verify-gb", "35142") == (1, (
        "groebner leading terms vs antidiagonals: MISMATCH\n"
        "  leading: x[2,1], x[2,2], x[1,1], x[1,2], x[1,4]*x[2,3]\n"
        "  antidiagonal: x[2,1], x[2,2], x[1,1], x[1,2], x[3,2]*x[4,1], x[1,4]*x[2,3]\n"), "")


def test_verify_lemma2_and_localize(capsys):
    code, out, _ = run(capsys, "verify-lemma2", "35142", "--json")
    assert code == 0
    assert json.loads(out)["lemma2"] is True
    code, out, _ = run(capsys, "verify-localize", "35142", "--json")
    assert code == 0
    assert json.loads(out)["I_eq_Iprime"] is True


def test_verify_all_json_schema(capsys):
    code, out, _ = run(capsys, "verify-all", "35142", "--json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"w", "c", "lemma1", "lemma2", "lemma3_nzd",
                            "I_eq_Iprime", "skipped"}
    assert payload["c"] == [1, 3]
    assert all(payload[k] is True for k in ("lemma1", "lemma2", "lemma3_nzd",
                                            "I_eq_Iprime"))


def test_verify_skips_regular_permutations(capsys):
    code, out, _ = run(capsys, "verify-all", "4321", "--json")
    assert code == 0
    assert json.loads(out)["skipped"] is True


def test_malformed_permutation_is_a_usage_error(capsys):
    code, _, err = run(capsys, "ci", "35141")
    assert code == 2
    assert "position 5" in err
    code, _, err = run(capsys, "diagram", "1,,2")
    assert code == 2
    assert "position 2" in err
    # a signed or underscored token, which int() would read
    for word, position in (("1 2 +3", 3), ("2 1_0 1 3 4 5 6 7 8 9", 2)):
        code, out, err = run(capsys, "ci", word)
        assert (code, out) == (2, "")
        assert f"position {position}" in err


def test_capability_bound_names_the_limit(capsys):
    code, _, err = run(capsys, "verify-lemma2", "4621537", "--json")
    assert code == 2
    assert "n <= 5" in err
    code, _, err = run(capsys, "verify-gb", "46215378", "--json")
    assert code == 2
    assert "n <= 6" in err


def test_diagram_and_essential_are_bounded_before_any_diagram(capsys, tmp_path, monkeypatch):
    import msvkit.cli as cli

    def refuse(w):
        raise AssertionError("a diagram was computed")

    monkeypatch.setattr(cli.perm, "diagram", refuse)
    monkeypatch.setattr(cli.perm, "essential_set", refuse)
    word = " ".join(map(str, range(cli.DIAGRAM_BOUND + 1, 0, -1)))
    wide = tmp_path / "wide.txt"
    wide.write_text("1" + " 0" * cli.DIAGRAM_BOUND + "\n")
    for command in ("diagram", "essential"):
        for target in ((word,), ("--file", str(wide))):
            code, out, err = run(capsys, command, *target)
            assert (code, out) == (2, ""), (command, target)
            assert f"n <= {cli.DIAGRAM_BOUND}" in err


def test_an_oversized_file_is_refused_before_it_is_parsed(capsys, tmp_path):
    import msvkit.cli as cli
    # a parse would stop at the last row, which is not an integer
    tall = tmp_path / "tall.txt"
    tall.write_text("1\n" + "0\n" * cli.DIAGRAM_BOUND + "x\n")
    code, out, err = run(capsys, "essential", "--file", str(tall))
    assert (code, out) == (2, "")
    assert err == (f"error: essential is bounded at n <= {cli.DIAGRAM_BOUND}; "
                   f"got a {cli.DIAGRAM_BOUND + 2}x1 input\n")


def test_refusing_a_multi_megabyte_file_holds_only_the_lines_within_the_bound(capsys, tmp_path):
    import tracemalloc
    import msvkit.cli as cli
    # 8000 rows of 400 zeros: 6.4 MB, refused for its rows and its columns
    big = tmp_path / "big.txt"
    big.write_text(("0 " * 399 + "0\n") * 8000)
    size = big.stat().st_size
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "essential", "--file", str(big))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err == (f"error: essential is bounded at n <= {cli.DIAGRAM_BOUND}; "
                   f"got a 8000x400 input\n")
    # the kept lines are about bound * 800 bytes, an eightieth of the file
    assert peak < size / 20, (peak, size)


def test_refusing_a_line_of_ten_million_tokens_holds_only_a_piece_of_it(capsys, tmp_path):
    import tracemalloc
    import msvkit.cli as cli
    # one line of 10^7 zeros, 20 MB: its tokens are counted a piece at a
    # time, and none of its text is kept once they pass the bound
    long = tmp_path / "long.txt"
    long.write_text("0 " * (10 ** 7 - 1) + "0\n")
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "essential", "--file", str(long))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err == (f"error: essential is bounded at n <= {cli.DIAGRAM_BOUND}; "
                   f"got a 1x{10 ** 7} input\n")
    assert peak < 2 ** 20, peak


def test_an_accepted_file_is_held_without_its_padding(tmp_path):
    import tracemalloc
    import msvkit.cli as cli
    # a 2x2 file whose first line pads its two tokens apart by 10^7 spaces:
    # only the tokens are kept, never the whitespace between them
    padded = tmp_path / "padded.txt"
    padded.write_text("1" + " " * 10 ** 7 + "0\n0 1\n")
    args = argparse.Namespace(command="diagram", file=str(padded))
    tracemalloc.start()
    try:
        w = cli._load_target(args, bound=cli.DIAGRAM_BOUND)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert w == PartialPermutation.from_one_line("12")
    assert peak < 2 ** 20, peak


def test_refusing_a_ten_million_digit_token_holds_only_a_cut_of_it(capsys, tmp_path):
    import tracemalloc
    # a 2x2 file whose first token is 10^7 digits, past any int's limit: the
    # token is kept cut, and int refuses the cut as it refuses the whole
    long = tmp_path / "long.txt"
    long.write_text("1" * 10 ** 7 + " 0\n0 1\n")
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "diagram", "--file", str(long))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err == "error: partial permutation file must contain integers\n"
    assert peak < 2 ** 20, peak


@pytest.mark.parametrize("piece", [None, 7])
def test_a_cut_token_is_read_as_int_reads_the_whole_one(capsys, tmp_path, piece):
    import sys
    import msvkit.cli as cli
    import msvkit.perm as perm
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("int has no digit limit before Python 3.10.7")
    # under a limit of 640 digits, the longest token the parser accepts is
    # 640 decimal digits; it takes no sign and no underscore, which int reads
    longest = "0" * 639 + "1"
    path = tmp_path / "grid.txt"
    identity = run(capsys, "diagram", "12")
    saved = sys.get_int_max_str_digits(), cli.FILE_PIECE
    cli.FILE_PIECE = piece or cli.FILE_PIECE
    try:
        sys.set_int_max_str_digits(640)
        grid = longest + " 0\n0 1\n"
        path.write_text(grid)
        assert perm.parse_partial_matrix(grid) == PartialPermutation.from_one_line("12")
        assert run(capsys, "diagram", "--file", str(path)) == identity
        # 641 and 642 characters: cut at 640 they would read as the longest
        for token in (longest + "1", longest + "11", longest + "1_", longest + "+"):
            path.write_text(token + " 0\n0 1\n")
            code, out, err = run(capsys, "diagram", "--file", str(path))
            assert (code, out) == (2, "")
            assert err == "error: partial permutation file must contain integers\n"
        sys.set_int_max_str_digits(0)  # no limit: nothing is cut
        path.write_text("0" * 2000 + "1 0\n0 1\n")
        assert run(capsys, "diagram", "--file", str(path)) == identity
    finally:
        sys.set_int_max_str_digits(saved[0])
        cli.FILE_PIECE = saved[1]


@pytest.mark.parametrize("token, at", [("+1", 0), ("-0", 1), ("0_0", 2)])
def test_a_signed_or_underscored_file_entry_is_refused(capsys, tmp_path, token, at):
    import msvkit.perm as perm
    # int() reads these, but a one-line word refuses them, and so does a file
    entries = ["1", "0", "0", "1"]
    entries[at] = token
    grid = f"{entries[0]} {entries[1]}\n{entries[2]} {entries[3]}\n"
    with pytest.raises(ValueError, match="^partial permutation file must contain integers$"):
        perm.parse_partial_matrix(grid)
    path = tmp_path / "grid.txt"
    path.write_text(grid)
    assert run(capsys, "diagram", "--file", str(path)) == (
        2, "", "error: partial permutation file must contain integers\n")
    assert run(capsys, "diagram", f"{token} 2")[0] == 2


_ENTRY = st.sampled_from(["0", "1", "2", "x", "+1", "0_1", "-0", "\uff11"])
_GAP = st.text(" \t\u00a0\u3000\x1f", min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.lists(st.tuples(_ENTRY, _GAP), min_size=1, max_size=4),
                     min_size=1, max_size=4),
       margins=st.lists(st.text(" \t", max_size=3), min_size=2, max_size=2),
       breaks=st.lists(st.sampled_from(["\n", "\n\n", " \n", "\u2028", "\v", "\f", "\x85",
                                        "\x1c"]), min_size=4, max_size=4),
       piece=st.integers(1, 5))
def test_a_file_read_in_pieces_parses_as_its_whole_text(tmp_path_factory, rows, margins,
                                                         breaks, piece):
    """Whatever the piece size, a file's kept tokens load as its whole text
    parses, to the same partial permutation or the same error."""
    import msvkit.cli as cli
    import msvkit.perm as perm

    def outcome(load):
        try:
            return load()
        except ValueError as exc:  # not integers, a row with two 1s, ragged rows
            return str(exc)

    text = "".join(margins[0] + "".join(e + gap for e, gap in row[:-1]) + row[-1][0]
                   + margins[1] + brk for row, brk in zip(rows, breaks))
    expected = outcome(lambda: perm.parse_partial_matrix(text))
    path = tmp_path_factory.mktemp("pieces") / "grid.txt"
    path.write_text(text, encoding="utf-8")
    args = argparse.Namespace(command="diagram", file=str(path))
    saved = cli.FILE_PIECE
    cli.FILE_PIECE = piece
    try:
        w = outcome(lambda: cli._load_target(args, bound=cli.DIAGRAM_BOUND))
    finally:
        cli.FILE_PIECE = saved
    assert w == expected


def test_partial_permutation_file_target(capsys, tmp_path):
    path = tmp_path / "partial.txt"
    path.write_text("0 0 1\n0 0 0\n")
    code, out, _ = run(capsys, "diagram", "--file", str(path))
    assert code == 0
    assert out.splitlines()[0] == ". . 1"
    code, out, _ = run(capsys, "verify-gb", "--file", str(path))
    assert code == 0
    # a grid that is not a permutation is reported as its 0/1 matrix
    path.write_text("1 0 0\n0 0 0\n")
    assert run(capsys, "gens", "--file", str(path), "--json") == (0, (
        '{"cells": [[2, 3, 1]], "generators": ["-x[1,2]*x[2,1] + x[1,1]*x[2,2]", '
        '"-x[1,3]*x[2,1] + x[1,1]*x[2,3]", "-x[1,3]*x[2,2] + x[1,2]*x[2,3]"], '
        '"w": {"cols": 3, "matrix": [[1, 0, 0], [0, 0, 0]], "rows": 2}}\n'), "")


def test_file_and_inline_targets_are_mutually_exclusive(capsys):
    code, _, _ = run(capsys, "diagram", "35142", "--file", "whatever.txt")
    assert code == 2


@pytest.fixture
def no_expansion(monkeypatch):
    """Make the entry points of `gens` and `ci` fail the test if called."""
    import msvkit.ci as ci

    def refuse(*args, **kwargs):
        raise AssertionError("a determinant expansion started")

    monkeypatch.setattr(detideal, "fulton_generators", refuse)
    monkeypatch.setattr(ci, "is_complete_intersection", refuse)


def test_an_unreadable_file_is_a_usage_error(capsys, tmp_path, no_expansion):
    for path, reason in ((tmp_path / "missing.txt", "No such file"),
                         (tmp_path, "Is a directory")):
        code, out, err = run(capsys, "gens", "--file", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read ") and reason in err
        assert "Traceback" not in err


def test_gens_and_ci_are_bounded_before_any_expansion(capsys, tmp_path, no_expansion):
    import msvkit.cli as cli
    word = " ".join(map(str, [*range(1, 10), 11, 10]))
    wide = tmp_path / "wide.txt"
    wide.write_text("1" + " 0" * 10 + "\n")  # 1 x 11: the bound reads max(rows, cols)
    # 10 x 10 with row 10 empty: its essential cell (10,10) has rank 9, so its
    # one minor is 10 x 10, larger than any minor of S_10
    deep = tmp_path / "deep.txt"
    deep.write_text("".join(" ".join("1" if j == i < 10 else "0" for j in range(1, 11)) + "\n"
                            for i in range(1, 11)))
    for argv in (("gens", word), ("gens", word, "--raw"), ("ci", word),
                 ("ci", word, "--mu"), ("ci", word, "--mu", "--field", "prime"),
                 ("gens", "--file", str(wide)), ("ci", "--file", str(wide)),
                 ("gens", "--file", str(deep)), ("gens", "--file", str(deep), "--raw"),
                 ("ci", "--file", str(deep))):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert f"n <= {cli.EXPANSION_BOUND}" in err
    assert cli.EXPANSION_BOUND == 10


def test_gens_is_bounded_by_the_terms_it_expands(capsys, tmp_path, no_expansion):
    # 10 x 10 grids with rows 1..k on the diagonal and the rest empty: the one
    # essential cell (10,10) has rank k, so gens would expand every minor of
    # k + 1 rows of the whole grid, 9 rows at most, within the row bound
    import msvkit.cli as cli
    for k, terms in ((7, "81,648,000"), (8, "36,288,000")):
        grid = tmp_path / f"diagonal{k}.txt"
        grid.write_text("".join(" ".join("1" if j == i <= k else "0" for j in range(1, 11)) + "\n"
                                for i in range(1, 11)))
        for extra in ((), ("--raw",), ("--diagram-cells",), ("--raw", "--json")):
            code, out, err = run(capsys, "gens", "--file", str(grid), *extra)
            assert (code, out) == (2, ""), (k, extra)
            assert err == ("error: gens is bounded at 1,000,000 terms of Fulton minors; "
                           f"got {terms}\n")
    assert cli.GENS_TERM_BOUND == 10 ** 6


def test_gens_answers_a_word_with_a_minor_of_nine_rows(capsys, monkeypatch):
    # the essential cell (9,9) of rank 8 asks for the 9 x 9 minor (362,880
    # terms); the cells (2,4) and (3,2) of rank 1 share the site
    # ((1,2),(1,2)), so 10 of the 11 raw minors are distinct, and all are kept
    word = "1 5 3 2 4 7 6 8 10 9"
    schubert = detideal.fulton_generators(PartialPermutation.from_one_line(word))
    assert (len(schubert.raw_generators), len(schubert.generators)) == (11, 10)
    assert schubert.sites[-1] == (tuple(range(1, 10)),) * 2
    assert len(schubert.generators[-1]) == 362880
    # the CLI admits it and prints what the Fulton layer selects; the stand-in
    # leaves out the minors of 6 and 9 rows, whose rendering takes seconds
    small = dataclasses.replace(schubert, generators=schubert.generators[:8])
    monkeypatch.setattr(detideal, "fulton_generators", lambda w, **kwargs: small)
    code, out, _ = run(capsys, "gens", word)
    assert (code, out.splitlines()) == (0, list(map(str, small.generators)))


def test_ci_keeps_the_nine_row_bound(capsys):
    # a false verdict expands nothing, so ci answers the same word at once
    code, out, _ = run(capsys, "ci", "1 5 3 2 4 7 6 8 10 9")
    assert code == 1 and "not a complete intersection" in out


# ---------------------------------------------------------------------------
# Census
# ---------------------------------------------------------------------------

def test_census_emits_sorted_json_lines_and_matches_the_oracle(capsys):
    code, out, _ = run(capsys, "census", "--n", "4", "--json", "--jobs", "1")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 24
    words = [line["w"] for line in lines]
    assert words == sorted(words)
    for line in lines:
        w = PartialPermutation.from_one_line(line["w"])
        mu = minimal_generator_count(w)
        assert line["verdict"] == (mu == line["codim"])


# sha256 of `msvkit census --n 6 --json --jobs 1`: 720 report lines with
# their generators, certificates and witnesses, recorded before the
# classifier computed its generators on demand.
CENSUS_S6_JSON_SHA256 = "6800b2aa5036ec58b93d78d3e823b73953cf11d505d0ec08aa1ff9eeb3f39afd"


def test_census_json_on_s6_matches_the_pinned_digest(capsys):
    code, out, _ = run(capsys, "census", "--n", "6", "--json", "--jobs", "1")
    assert code == 0
    assert len(out.splitlines()) == 720
    assert hashlib.sha256(out.encode()).hexdigest() == CENSUS_S6_JSON_SHA256


def test_ci_text_output_lists_the_generators(capsys):
    golden = (GOLDEN / "ci_462153.txt").read_text()
    assert run(capsys, "ci", "462153") == (0, golden, "")
    # the oracle's count follows the verdict line
    verdict, generators = golden.split("\n", 1)
    assert run(capsys, "ci", "462153", "--mu") == (
        0, f"{verdict}\nminimal generators: 9\n{generators}", "")


def test_ci_expands_the_generators_once_per_report(capsys, monkeypatch):
    import msvkit.ci as ci
    calls = []
    expand = ci._ci_generator_tuple
    monkeypatch.setattr(ci, "_ci_generator_tuple",
                        lambda w: calls.append(w.one_line()) or expand(w))
    for argv in (("ci", "462153"), ("ci", "462153", "--json")):
        calls.clear()
        assert run(capsys, *argv)[0] == 0
        # the JSON certificate also lists the generators of each CI block
        assert calls[0] == (4, 6, 2, 1, 5, 3)
        assert len(calls) == len(set(calls)), argv


def test_census_filters(capsys):
    golden = json.loads((GOLDEN / "ci_census_counts.json").read_text())
    for n in (3, 4):
        code, out, _ = run(capsys, "census", "--n", str(n), "--filter", "ci",
                           "--jobs", "1")
        assert code == 0
        assert len(out.strip().splitlines()) == golden[str(n)]
    code, out, _ = run(capsys, "census", "--n", "3", "--filter", "non-ci",
                       "--jobs", "1")
    assert len(out.strip().splitlines()) == 6 - golden["3"]


def test_json_reports_validate_against_the_checked_in_schemas(capsys):
    ci_schema = load_schema("schema_ci_report.json")
    for word in ("462153", "361452", "352614"):
        _, out, _ = run(capsys, "ci", word, "--json", "--mu")
        validate(json.loads(out), ci_schema)
    gb_schema = load_schema("schema_groebner_report.json")
    _, out, _ = run(capsys, "verify-gb", "35142", "--json")
    validate(json.loads(out), gb_schema)
    verify_schema = load_schema("schema_verification_report.json")
    for word in ("35142", "4321"):
        _, out, _ = run(capsys, "verify-all", word, "--json")
        validate(json.loads(out), verify_schema)
    _, out, _ = run(capsys, "census", "--n", "4", "--json", "--jobs", "1")
    for line in out.strip().splitlines():
        validate(json.loads(line), ci_schema)


def test_census_s5_ci_count_matches_the_golden_file(capsys):
    golden = json.loads((GOLDEN / "ci_census_counts.json").read_text())
    code, out, _ = run(capsys, "census", "--n", "5", "--filter", "ci", "--jobs", "1")
    assert code == 0
    assert len(out.strip().splitlines()) == golden["5"]


def test_census_parallel_output_is_identical_to_serial(capsys):
    _, serial, _ = run(capsys, "census", "--n", "4", "--json", "--jobs", "1")
    _, parallel, _ = run(capsys, "census", "--n", "4", "--json", "--jobs", "2")
    assert serial == parallel


def test_census_jobs_are_clamped_to_the_cores(capsys, monkeypatch):
    import msvkit.cli as cli
    pools = []

    class SerialPool:
        def __init__(self, processes):
            pools.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, items, chunksize=1):
            return (fn(item) for item in items)

    monkeypatch.setattr(cli, "Pool", SerialPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    _, serial, _ = run(capsys, "census", "--n", "4", "--jobs", "1")
    code, clamped, _ = run(capsys, "census", "--n", "4", "--jobs", "10000")
    assert code == 0
    assert pools == [2]
    assert clamped == serial


def test_census_negative_jobs_is_a_usage_error(capsys, monkeypatch):
    import msvkit.cli as cli

    def refuse(n):
        raise AssertionError("the census started")

    monkeypatch.setattr(cli.perm, "all_permutations", refuse)
    code, out, err = run(capsys, "census", "--n", "3", "--jobs", "-4")
    assert (code, out) == (2, "")
    assert "-4" in err


def test_census_n_is_bounded_before_any_enumeration(capsys, monkeypatch):
    import msvkit.cli as cli

    def refuse(n):
        raise AssertionError(f"S_{n} was enumerated")

    monkeypatch.setattr(cli.perm, "all_permutations", refuse)
    code, out, err = run(capsys, "census", "--n", "12")
    assert code == 2
    assert out == ""
    assert f"n <= {cli.CENSUS_BOUND}" in err
    assert cli.CENSUS_BOUND == 8
    assert run(capsys, "census", "--n", "0") == (2, "", "error: census needs n >= 1\n")


def test_census_mu_bound(capsys):
    code, _, err = run(capsys, "census", "--n", "7", "--mu")
    assert code == 2
    assert "n <= 6" in err


def test_ci_mu_is_bounded_at_the_oracle_bound(capsys, monkeypatch):
    # the oracle on an input of S_10 ran for minutes; past the bound it must
    # not start, though the same inputs classify without --mu
    import msvkit.ci as ci
    import msvkit.cli as cli
    golden = (GOLDEN / "ci_462153.txt").read_text()
    verdict, generators = golden.split("\n", 1)
    assert run(capsys, "ci", "462153", "--mu") == (
        0, f"{verdict}\nminimal generators: 9\n{generators}", "")
    words = ("1 5 3 2 4 7 6 8 10 9", "1532476")
    assert all(run(capsys, "ci", word)[0] in (0, 1) for word in words)

    def refuse(*args, **kwargs):
        raise AssertionError("the classifier started")

    monkeypatch.setattr(ci, "is_complete_intersection", refuse)
    for word in words:
        for field in ("rational", "prime"):
            code, out, err = run(capsys, "ci", word, "--mu", "--field", field)
            assert (code, out) == (2, ""), (word, field)
            assert f"n <= {cli.ORACLE_BOUND}" in err
    assert cli.ORACLE_BOUND == 6


# ---------------------------------------------------------------------------
# Prime-field environment override
# ---------------------------------------------------------------------------

def test_msvkit_prime_env_override(capsys, monkeypatch):
    monkeypatch.setenv("MSVKIT_PRIME", "101")
    code, out, _ = run(capsys, "census", "--n", "3", "--mu", "--field", "prime",
                       "--json", "--jobs", "1")
    assert code == 0
    for line in out.strip().splitlines():
        payload = json.loads(line)
        w = PartialPermutation.from_one_line(payload["w"])
        assert payload["mu"] == minimal_generator_count(w)


def test_msvkit_prime_is_bounded(capsys, monkeypatch):
    monkeypatch.setenv("MSVKIT_PRIME", "618970019642690137449562111")
    code, _, err = run(capsys, "ci", "321", "--mu", "--field", "prime")
    assert code == 2
    assert "2^31" in err


def test_msvkit_prime_rejects_composites(capsys, monkeypatch, no_expansion):
    # 0 would otherwise build a ring over the rationals
    for value in ("6", "0", "abc"):
        monkeypatch.setenv("MSVKIT_PRIME", value)
        code, _, err = run(capsys, "ci", "321", "--mu", "--field", "prime")
        assert code == 2
        assert "MSVKIT_PRIME must be a prime" in err


# ---------------------------------------------------------------------------
# Pivot verification commands: exact stdout and exit codes
# ---------------------------------------------------------------------------

VERIFY_GOLDEN = json.loads((GOLDEN / "verify_commands.json").read_text())
# the hard input named in the ROADMAP, S_7 and so refused at GB_BOUND = 6
HARD_GOLDEN = json.loads((GOLDEN / "verify_gb_1532476.json").read_text())


@pytest.mark.parametrize("case", VERIFY_GOLDEN, ids=lambda case: " ".join(case["argv"]))
def test_verify_commands_match_the_golden_output(capsys, case):
    code, out, _ = run(capsys, *case["argv"])
    assert (code, out) == (case["code"], case["stdout"])


@pytest.mark.parametrize("case", HARD_GOLDEN, ids=lambda case: " ".join(case["argv"]))
def test_verify_gb_on_the_hard_input_matches_the_golden_output(capsys, case):
    assert run(capsys, *case["argv"]) == (case["code"], case["stdout"], case["stderr"])


def test_verify_commands_report_a_failed_check(capsys, monkeypatch):
    import msvkit.frlab as frlab

    class Failed:
        ok = False

    monkeypatch.setattr(frlab, "verify_localization_identity", lambda setup: Failed())
    code, out, _ = run(capsys, "verify-localize", "3142")
    assert (code, out) == (1, "localization identity at pivot (2,1): FAILED\n")
    code, out, _ = run(capsys, "verify-localize", "3142", "--json")
    assert code == 1
    assert json.loads(out) == {"w": "3142", "c": [2, 1], "I_eq_Iprime": False,
                               "skipped": False}
    code, out, _ = run(capsys, "verify-all", "3142")
    assert code == 1
    assert out.splitlines() == ["pivot: (2,1)", "window fact:        ok",
                                "minor membership:   ok", "initial ideal:      ok",
                                "nonzerodivisor:     ok", "localization:       FAILED"]
    code, _, _ = run(capsys, "verify-lemma2", "3142")
    assert code == 0
