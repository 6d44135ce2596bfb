"""Outside-in tracing of msvkit's layers, without touching the package.

``Tracer.install`` replaces every public function of ``perm``, ``poly``,
``detideal``, ``ci`` and ``frlab`` with a wrapper that records a span: its
name, start, end, parent span and the benchmark item it belongs to.  The
wrapper is installed under every name that refers to the function, so the
names modules import from each other (``detideal.buchberger``,
``frlab.saturate``, ``ci.minor`` ...) and the package's re-exports record
spans too.  Spans stay in memory until ``write_spans``.

A few wrapped functions also record counts that do not depend on the machine
(``COUNTERS``): generators in and out of Buchberger and of the Nakayama
selection, terms of each expanded minor, raw and minimal Fulton generators.
"""
from __future__ import annotations

import functools
import inspect
import time
from array import array
from pathlib import Path

MODULES = ("perm", "poly", "detideal", "ci", "frlab")

# Per-term monomial primitives run millions of times inside division and the
# pair update; a span around each would cost far more than the work it times.
UNTRACED = frozenset({
    "poly.compare", "poly.monomial_mul", "poly.monomial_divides",
    "poly.monomial_quotient", "poly.monomial_lcm", "poly.monomial_coprime",
})


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _buchberger_counts(args, kwargs, result):
    gens = _arg(args, kwargs, 0, "generators")
    return len(getattr(gens, "generators", gens)), len(result)


# name -> (count keys, function of (args, kwargs, result) giving their increments)
COUNTERS = {
    "poly.minor": (("terms",), lambda args, kwargs, result: (len(result),)),
    "poly.buchberger": (("gens_in", "basis_out"), _buchberger_counts),
    "detideal.graded_minimal_generators": (
        ("gens_in", "kept"),
        lambda args, kwargs, result: (len(_arg(args, kwargs, 1, "gens")), result[1])),
    "detideal.fulton_generators": (
        ("raw_gens", "min_gens"),
        lambda args, kwargs, result: (len(result.raw_generators), len(result.generators))),
}


class Tracer:
    """Spans of one traced run, in parallel arrays indexed by span id."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.item_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, dict[str, int]] = {}
        self.item = -1  # set by the benchmark loop before each item
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self, package) -> None:
        wrappers = {}
        for mod_name in MODULES:
            module = getattr(package, mod_name)
            for attr, value in vars(module).items():
                name = f"{mod_name}.{attr}"
                if (attr.startswith("_") or name in UNTRACED or not inspect.isfunction(value)
                        or value.__module__ != module.__name__):
                    continue
                wrappers[id(value)] = self._wrap(name, value)
        for module in [package] + [getattr(package, m) for m in MODULES]:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        keys, counter = COUNTERS.get(name, ((), None))
        counts = self.counts.setdefault(name, dict.fromkeys(keys, 0))
        stack, name_of, parent, item_of = self._stack, self.name_of, self.parent, self.item_of
        start, end = self.start, self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(start)
            name_of.append(idx)
            parent.append(stack[-1] if stack else -1)
            item_of.append(self.item)
            end.append(0.0)
            stack.append(span)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = clock()
                stack.pop()
            if counter is not None:
                for key, value in zip(keys, counter(args, kwargs, result)):
                    counts[key] += value
            return result

        return wrapper

    def layer_stats(self) -> dict[str, float]:
        """Flat ``<module>.<function>.<stat>`` statistics over all spans:
        ``calls``, ``self_s`` (duration minus the time of child spans),
        ``total_s`` (duration of activations not nested in one of the same
        function), the recorded counts, and two derived ratios."""
        n = len(self.start)
        dur = [self.end[s] - self.start[s] for s in range(n)]
        child = [0.0] * n
        for s in range(n):
            if self.parent[s] >= 0:
                child[self.parent[s]] += dur[s]
        stats: dict[str, float] = {}
        for name in self.names:
            stats[f"{name}.calls"] = 0
            stats[f"{name}.self_s"] = 0.0
            stats[f"{name}.total_s"] = 0.0
        for s in range(n):
            name = self.names[self.name_of[s]]
            stats[f"{name}.calls"] += 1
            stats[f"{name}.self_s"] += dur[s] - child[s]
            p = self.parent[s]
            while p >= 0 and self.name_of[p] != self.name_of[s]:
                p = self.parent[p]
            if p < 0:
                stats[f"{name}.total_s"] += dur[s]
        for name, counts in self.counts.items():
            for key, value in counts.items():
                stats[f"{name}.{key}"] = value
        # Diagrams computed directly under a classifier query: one per
        # recursion node not answered from the classify cache, plus one per
        # CI-generator expansion.
        ci_idx = self.names.index("ci.is_complete_intersection")
        diagram_idx = self.names.index("perm.diagram")
        nodes = sum(1 for s in range(n) if self.name_of[s] == diagram_idx
                    and self.parent[s] >= 0 and self.name_of[self.parent[s]] == ci_idx)
        queries = stats["ci.is_complete_intersection.calls"]
        stats["ci.nodes_per_query"] = nodes / queries if queries else 0.0
        gens_in = stats["detideal.graded_minimal_generators.gens_in"]
        stats["detideal.graded_minimal_generators.kept_ratio"] = (
            stats["detideal.graded_minimal_generators.kept"] / gens_in if gens_in else 0.0)
        return stats

    def write_spans(self, path: Path) -> None:
        """One span per line: id, parent id, item, name, start and end in
        seconds on the run's ``perf_counter`` clock."""
        with open(path, "w") as out:
            out.write("span\tparent\titem\tname\tstart_s\tend_s\n")
            for s in range(len(self.start)):
                out.write(f"{s}\t{self.parent[s]}\t{self.item_of[s]}\t"
                          f"{self.names[self.name_of[s]]}\t{self.start[s]:.9f}\t{self.end[s]:.9f}\n")

