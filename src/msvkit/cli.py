"""Command-line front end.

Subcommands::

    diagram          render the diagram of a permutation as an ASCII grid
    essential        list the essential set with ranks
    gens             print the Fulton generators (n <= 10)
    ci               classify a matrix Schubert variety (n <= 10; exit 1 when
                     not CI)
    verify-gb        check the antidiagonal Groebner statement (n <= 6)
    verify-lemma2    check in(<c> + I_w) = <c> + J_w at the pivot (n <= 5)
    verify-localize  check the localization identity I = I' (n <= 5)
    verify-all       run every pivot verification (n <= 5)
    census           classify all of S_n, one report per line (n <= 8)

``gens`` and ``ci`` are also bounded by their largest minor: an input whose
essential set asks for a minor of more than 9 rows, the most a permutation of
S_10 needs, is refused before anything is expanded.  Text grids put '1' at
the permutation's entries, '*' at positive-rank diagram cells and '.' at
rank-0 diagram cells.  Exit status: 0 on success or a true
verdict, 1 when a verification or classification comes back false, 2 on usage
or capability errors.  The environment variable MSVKIT_PRIME overrides the
prime-field modulus used when ``--field prime`` is selected (default 32003;
it must be a prime below 2^31).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from multiprocessing import Pool
from typing import Optional, Sequence

from . import ci, detideal, frlab, perm, poly

USAGE_ERROR = 2
DEFAULT_PRIME = 32003
EXPANSION_BOUND = 10  # gens and ci expand minors of up to (n-1)! terms
GB_BOUND = 6
CENSUS_BOUND = 8
CENSUS_CHUNK = 64  # permutations per task sent to a census worker
PIVOT_BOUND = 5
ORACLE_BOUND = 6


class CapabilityError(ValueError):
    """The requested size exceeds what a subcommand is prepared to compute."""


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.handler(args)
    except ValueError as exc:  # PermutationParseError and CapabilityError too
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msvkit",
        description="Exact computations with matrix Schubert varieties.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, *, partial_ok: bool = False):
        p = sub.add_parser(name)
        if partial_ok:
            group = p.add_mutually_exclusive_group(required=True)
            group.add_argument("w", nargs="?", help="permutation in one-line notation")
            group.add_argument("--file", help="partial permutation file (0/1 matrix)")
        else:
            p.add_argument("w", help="permutation in one-line notation")
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        p.set_defaults(handler=handler)
        return p

    add("diagram", _cmd_diagram, partial_ok=True)
    add("essential", _cmd_essential, partial_ok=True)
    gens = add("gens", _cmd_gens, partial_ok=True)
    gens.add_argument("--raw", action="store_true",
                      help="list every defining minor instead of the minimal set")
    gens.add_argument("--diagram-cells", action="store_true",
                      help="enumerate minors over the whole diagram, not the essential set")
    ci_cmd = add("ci", _cmd_ci, partial_ok=True)
    ci_cmd.add_argument("--mu", action="store_true",
                        help="also run the minimal-generator-count oracle")
    ci_cmd.add_argument("--field", choices=("rational", "prime"), default="rational",
                        help="coefficient field for the oracle")
    add("verify-gb", _cmd_verify_gb, partial_ok=True)
    for name in VERIFY_COMMANDS:
        add(name, _cmd_verify)
    census = sub.add_parser("census")
    census.add_argument("--n", type=int, required=True, help="classify all of S_n")
    census.add_argument("--filter", choices=("ci", "non-ci", "all"), default="all")
    census.add_argument("--json", action="store_true")
    census.add_argument("--mu", action="store_true",
                        help="include the minimal-generator-count oracle")
    census.add_argument("--field", choices=("rational", "prime"), default="rational")
    census.add_argument("--jobs", type=int, default=0,
                        help="worker processes (default and cap: all cores)")
    census.set_defaults(handler=_cmd_census)
    return parser


def _oracle_char(args) -> int:
    if getattr(args, "field", "rational") == "rational":
        return 0
    value = os.environ.get("MSVKIT_PRIME", str(DEFAULT_PRIME))
    try:
        p = int(value)
        if p == 0:  # a ring of characteristic 0 would be the rationals
            raise ValueError
        poly.PolyRing(1, 1, p)  # its field rejects every other non-prime
    except ValueError:
        raise ValueError(f"MSVKIT_PRIME must be a prime below 2^31, got {value!r}") from None
    return p


def _load_target(args, *, permutation_only: bool = False,
                 bound: Optional[int] = None) -> perm.PartialPermutation:
    if getattr(args, "file", None):
        try:
            with open(args.file, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read {args.file}: {exc.strerror}") from None
        w = perm.parse_partial_matrix(text)
    else:
        w = perm.PartialPermutation.from_one_line(args.w)
    if permutation_only and not w.is_permutation:
        raise ValueError(f"{args.command} requires a full permutation")
    if bound is not None and max(w.rows, w.cols) > bound:
        raise CapabilityError(
            f"{args.command} is bounded at n <= {bound}; "
            f"got a {w.rows}x{w.cols} input")
    return w


def _load_expandable(args) -> perm.PartialPermutation:
    """The input of gens or ci, refused before any expansion when its grid or
    one of its Fulton minors is larger than those of S_10, whose minors
    have at most 9 rows."""
    w = _load_target(args, bound=EXPANSION_BOUND)
    size = max((r + 1 for _, r in perm.essential_set(w)), default=0)
    if size > EXPANSION_BOUND - 1:
        raise CapabilityError(
            f"{args.command} is bounded at n <= {EXPANSION_BOUND}; "
            f"got a {w.rows}x{w.cols} input with a {size}x{size} minor")
    return w


def render_grid(w: perm.PartialPermutation) -> str:
    """ASCII grid: '1' at entries of w, '*' at positive-rank diagram cells,
    '.' at rank-0 diagram cells, blank elsewhere."""
    d = perm.diagram(w)
    lines = []
    for i in range(1, w.rows + 1):
        row = []
        for j in range(1, w.cols + 1):
            if w(i) == j:
                row.append("1")
            elif (i, j) in d:
                row.append("*" if d.ranks[perm.Cell(i, j)] > 0 else ".")
            else:
                row.append(" ")
        lines.append(" ".join(row).rstrip())
    return "\n".join(lines)


def _print_json(payload) -> None:
    print(json.dumps(payload, sort_keys=True))


def _cmd_diagram(args) -> int:
    w = _load_target(args)
    if args.json:
        d = perm.diagram(w)
        _print_json({
            "w": w.to_json(),
            "cells": [[c.p, c.q, d.ranks[c]] for c in d.sorted_cells()],
        })
    else:
        print(render_grid(w))
    return 0


def _cmd_essential(args) -> int:
    w = _load_target(args)
    cells = perm.essential_set(w)
    if args.json:
        _print_json({"w": w.to_json(),
                     "essential": [[c.p, c.q, r] for c, r in cells]})
    else:
        for c, r in cells:
            print(f"({c.p},{c.q}) rank {r}")
    return 0


def _cmd_gens(args) -> int:
    w = _load_expandable(args)
    mode = "diagram" if args.diagram_cells else "essential"
    schubert = detideal.fulton_generators(w, cells=mode)
    gens = schubert.raw_generators if args.raw else schubert.generators
    if args.json:
        _print_json({
            "w": w.to_json(),
            "cells": [[c.p, c.q, r] for c, r in schubert.cells],
            "generators": [str(g) for g in gens],
        })
    else:
        for g in gens:
            print(g)
    return 0


def _cmd_ci(args) -> int:
    w = _load_expandable(args)
    report = ci.is_complete_intersection(w, with_oracle=args.mu,
                                         char=_oracle_char(args))
    if args.json:
        _print_json(report.to_json())
    else:
        word = perm.render_one_line(perm.PartialPermutation.from_one_line(report.w))
        verdict = "a complete intersection" if report.verdict else "not a complete intersection"
        print(f"{word}: {verdict} (codim {report.codim})")
        if report.mu is not None:
            print(f"minimal generators: {report.mu}")
        generators = report.generators
        if generators is not None:
            for g in generators:
                print(f"  {g}")
        if report.failure_witness is not None:
            wit = report.failure_witness
            print(f"  witness at ({wit.cell.p},{wit.cell.q}): {wit.detail}")
    return 0 if report.verdict else 1


def _cmd_verify_gb(args) -> int:
    w = _load_target(args, bound=GB_BOUND)
    report = detideal.verify_groebner(w)
    if args.json:
        _print_json(report.to_json())
    else:
        status = "match" if report.match else "MISMATCH"
        print(f"groebner leading terms vs antidiagonals: {status}")
        if not report.match:
            print(f"  leading: {', '.join(report.gb_leading.rendered())}")
            print(f"  antidiagonal: {', '.join(report.antidiagonal.rendered())}")
    return 0 if report.match else 1


# verify command -> (the JSON key it reports besides w, c and skipped, or None
# for every key; its text lines as (text, the VerificationSummary field whose
# status follows the text, or None, status words for true and false))
VERIFY_COMMANDS = {
    "verify-lemma2": ("lemma2", [
        ("initial ideal of <c> + I at pivot ({p},{q}): ", "initial_ideal_ok", "match", "MISMATCH")]),
    "verify-localize": ("I_eq_Iprime", [
        ("localization identity at pivot ({p},{q}): ", "localization_ok", "verified", "FAILED")]),
    "verify-all": (None, [
        ("pivot: ({p},{q})", None, "", ""),
        ("window fact:        ", "window", "ok", "FAILED"),
        ("minor membership:   ", "minors_ok", "ok", "FAILED"),
        ("initial ideal:      ", "initial_ideal_ok", "ok", "FAILED"),
        ("nonzerodivisor:     ", "nonzerodivisor_ok", "ok", "FAILED"),
        ("localization:       ", "localization_ok", "ok", "FAILED")]),
}


def _cmd_verify(args) -> int:
    key, lines = VERIFY_COMMANDS[args.command]
    w = _load_target(args, permutation_only=True, bound=PIVOT_BOUND)
    try:
        setup = frlab.build_localization(w)
    except frlab.NoPivotError:
        setup = None
    pivot = None if setup is None else setup.c_cell
    results = {} if setup is None else {
        field: frlab.PIVOT_CHECKS[field](setup) for _, field, _, _ in lines if field}
    if args.json:
        summary = frlab.VerificationSummary(w=w, pivot=pivot, skipped=pivot is None, **results)
        payload = summary.to_json()
        _print_json(payload if key is None else
                    {k: payload[k] for k in ("w", "c", key, "skipped")})
    elif pivot is None:
        print("skipped: no pivot (defining ideal generated by variables)")
    else:
        for text, field, yes, no in lines:
            status = "" if field is None else (yes if results[field] else no)
            print(text.format(p=pivot.p, q=pivot.q) + status)
    return 0 if all(results.values()) else 1


def _census_line(payload) -> tuple[str, bool]:
    word, with_mu, char, as_json = payload
    w = perm.PartialPermutation.from_one_line(word)
    report = ci.is_complete_intersection(w, with_oracle=with_mu, char=char)
    if as_json:
        return json.dumps(report.to_json(), sort_keys=True), report.verdict
    verdict = "ci" if report.verdict else "non-ci"
    return f"{perm.render_one_line(w)} {verdict} codim={report.codim}" + (
        f" mu={report.mu}" if report.mu is not None else ""), report.verdict


def _cmd_census(args) -> int:
    if args.n < 1:
        raise ValueError("census needs n >= 1")
    if args.n > CENSUS_BOUND:
        raise CapabilityError(f"census is bounded at n <= {CENSUS_BOUND}")
    if args.mu and args.n > ORACLE_BOUND:
        raise CapabilityError(f"census --mu is bounded at n <= {ORACLE_BOUND}")
    char = _oracle_char(args)
    payloads = ((w.one_line(), args.mu, char, args.json)
                for w in perm.all_permutations(args.n))
    count = math.factorial(args.n)
    cores = os.cpu_count() or 1
    jobs = min(args.jobs, cores) if args.jobs > 0 else cores
    if jobs > 1 and count > 1:
        with Pool(processes=min(jobs, count)) as pool:
            _print_census(pool.imap(_census_line, payloads, chunksize=CENSUS_CHUNK),
                          args.filter)
    else:
        _print_census(map(_census_line, payloads), args.filter)
    return 0


def _print_census(results, keep: str) -> None:
    """Print each census line as it arrives, in the order of S_n."""
    for line, verdict in results:
        if keep == "ci" and not verdict:
            continue
        if keep == "non-ci" and verdict:
            continue
        print(line)


if __name__ == "__main__":
    sys.exit(main())
