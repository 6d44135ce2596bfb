"""Tests of the benchmark's own code: input generation, the independent
checks, the tracer, the output contract, and exact repetition of the
per-layer counts at a fixed seed.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from math import factorial
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import msvkit  # noqa: E402
from msvkit import PartialPermutation, ci, frlab, perm  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (CI_PATTERNS, WORKLOADS, census_stratum, contains_pattern,  # noqa: E402
                       inversions, is_ci_by_patterns, largest_generator_size, order, unrank)


def as_perm(word) -> PartialPermutation:
    return PartialPermutation(len(word), len(word), word)


def test_unrank_follows_the_census_order():
    for n in range(1, 7):
        assert ([unrank(n, r) for r in range(factorial(n))]
                == [w.one_line() for w in perm.all_permutations(n)])


def test_pattern_test_matches_brute_force_containment_on_s7():
    for r in range(factorial(7)):
        w = unrank(7, r)
        assert is_ci_by_patterns(w) == (not any(contains_pattern(w, p) for p in CI_PATTERNS))


def test_checks_agree_with_the_classifier_on_s6():
    words = [unrank(6, r) for r in range(720)]
    assert sum(map(is_ci_by_patterns, words)) == 322
    for w in words:
        report = ci.is_complete_intersection(as_perm(w))
        assert report.verdict == is_ci_by_patterns(w)
        assert report.codim == inversions(w) == perm.coxeter_length(as_perm(w))
        if report.verdict:
            degrees = [g.total_degree() for g in report.generators]
            assert max(degrees, default=1) == largest_generator_size(w)


def test_localize_population_is_the_long_pivot_admitting_part_of_s6():
    expected = [r for r in range(720)
                if frlab.find_pivot(as_perm(unrank(6, r))) is not None
                and inversions(unrank(6, r)) >= 8]
    assert WORKLOADS["localize"].population() == expected
    assert len(expected) == 267


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_order_is_a_seeded_permutation_of_the_population(name):
    workload = WORKLOADS[name]
    first = order(workload, 5)
    assert first == order(workload, 5)
    assert first != order(workload, 6)
    assert sorted(first) == sorted(workload.population())


def test_every_prefix_of_the_census_order_holds_each_stratum_in_proportion():
    ranks = order(WORKLOADS["census"], 3)
    strata = [census_stratum(r) for r in ranks]
    sizes = Counter(strata)
    for length in (500, 2000, 8000, 20000):
        seen = Counter(strata[:length])
        for s, m in sizes.items():
            assert abs(seen[s] - length * m / len(ranks)) <= len(sizes) + 1


def test_tracer_records_nested_spans_and_restores_the_functions():
    original = msvkit.detideal.buchberger
    tracer = Tracer()
    tracer.install(msvkit)
    try:
        assert msvkit.detideal.buchberger is msvkit.poly.buchberger is not original
        msvkit.detideal.verify_groebner(PartialPermutation.from_one_line("35142"))
    finally:
        tracer.uninstall()
    assert msvkit.detideal.buchberger is msvkit.poly.buchberger is original
    stats = tracer.layer_stats()
    assert stats["detideal.verify_groebner.calls"] == 1
    assert stats["poly.buchberger.calls"] == 1
    assert stats["poly.buchberger.gens_in"] == stats["detideal.fulton_generators.min_gens"]
    names = [tracer.names[i] for i in tracer.name_of]
    assert names[tracer.parent[names.index("poly.buchberger")]] == "detideal.verify_groebner"
    root = names.index("detideal.verify_groebner")
    all_self = sum(v for k, v in stats.items() if k.endswith(".self_s"))
    assert all_self == pytest.approx(tracer.end[root] - tracer.start[root])


@pytest.mark.parametrize("name,items,entry", [
    ("census", 400, "ci.is_complete_intersection"),
    ("oracle", 40, "ci.is_complete_intersection"),
    ("gb", 40, "detideal.verify_groebner"),
    ("localize", 6, "frlab.verify_all"),
])
def test_counts_repeat_exactly_at_a_fixed_seed(tmp_path, name, items, entry):
    order_file = tmp_path / "order.txt"
    order_file.write_text(" ".join(map(str, order(WORKLOADS[name], 7))))
    counts = []
    for hash_seed in ("1", "2"):
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", name, "--order",
             str(order_file), "--items", str(items), "--trace"],
            env={**os.environ, "PYTHONHASHSEED": hash_seed}, capture_output=True, text=True,
            check=True, timeout=300)
        result = json.loads(done.stdout.splitlines()[-1])
        assert result["failed"] == 0 and result["items"] == items
        counts.append({k: v for k, v in result["layers"].items() if not k.endswith("_s")})
    assert counts[0] == counts[1]
    assert counts[0][f"{entry}.calls"] == items


def run_benchmark(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_last_line_carries_every_metric_of_the_spec(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = run_benchmark("--workload", "census", "--seed", "2", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [m["name"] for m in spec[key]]
    for m in spec[key]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert "failed_ratio = 0" in done.stdout


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_benchmark("--workload", "gb", "--seed", "1", "--seconds", "1", "--trace", "0",
                         cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
