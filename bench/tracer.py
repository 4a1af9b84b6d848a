"""In-memory span tracer that wraps nandarrange's public functions from outside.

A traced run swaps each listed function for a wrapper at every nandarrange
module that binds it (``from .scoring import build_score_tensor`` gives
``solvers`` and ``neural`` their own name for the same object), so no source
file changes. Spans are recorded only inside a ``cli.main`` call, which is the
root span of every operation; the benchmark's own output checks call the same
functions untraced. ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

ROOT = "cli"


def _pattern_cells(args, kwargs, result):
    pattern = args[0]
    return {"cell_lookups": pattern.num_wordlines**3 * pattern.cells_per_page}


def _evaluations(args, kwargs, result):
    return {"evaluations": result.evaluations}


def _bytes_in(args, kwargs, result):
    return {"bytes": len(args[0])}


def _bytes_out(args, kwargs, result):
    return {"bytes": len(result)}


# (module, function, counter): every layer boundary the per-layer metrics use.
TARGETS = [
    ("cli", "main", None),
    ("scoring", "build_score_tensor", _pattern_cells),
    ("scoring", "block_score", None),
    ("solvers", "greedy_arrange", _evaluations),
    ("solvers", "simulated_annealing", _evaluations),
    ("solvers", "random_search", _evaluations),
    ("solvers", "exhaustive_best", _evaluations),
    ("neural", "backward", None),
    ("neural", "train", None),
    ("neural", "lstm_forward", None),
    ("neural", "head_forward", None),
    ("neural", "seqgen_transform", None),
    ("neural", "combination_probability", None),
    ("neural", "extract_permutation", None),
    ("neural", "arrange", None),
    ("neural", "write_checkpoint", _bytes_out),
    ("neural", "read_checkpoint", _bytes_in),
    ("data_io", "read_pattern", _bytes_in),
    ("data_io", "write_mapping_table", _bytes_out),
    ("data_io", "read_mapping_table", _bytes_in),
    ("retention", "simulate_retention", None),
    ("retention", "read_back", None),
    ("retention", "measure_ber", None),
]


class Tracer:
    """Records spans [name, start, end, parent index, op id] and per-op counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.op = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack and name != ROOT:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                for stat, value in counter(args, kwargs, result).items():
                    self.counts[self.op][f"{name}.{stat}"] += value
            return result

        return wrapper

    def install(self) -> None:
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "nandarrange" or key.startswith("nandarrange."))
        ]
        for module_name, function, counter in TARGETS:
            original = getattr(sys.modules[f"nandarrange.{module_name}"], function)
            name = ROOT if module_name == ROOT else f"{module_name}.{function}"
            wrapper = self._wrap(name, original, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def check_tree(self, op: int) -> list[str]:
        """Children nest inside their parent, siblings do not overlap, and the
        op's self times add up to the wall time of its root spans."""
        errors = []
        indices = [i for i, s in enumerate(self.spans) if s[4] == op]
        children = defaultdict(list)
        for i in indices:
            children[self.spans[i][3]].append(i)
        for parent, kids in children.items():
            if parent >= 0:
                _, p_start, p_end, _, _ = self.spans[parent]
                if any(self.spans[k][1] < p_start or self.spans[k][2] > p_end for k in kids):
                    errors.append(f"op {op}: a child of {self.spans[parent][0]} leaves its interval")
            elif any(self.spans[k][0] != ROOT for k in kids):
                errors.append(f"op {op}: a root span is not {ROOT}")
            ordered = sorted(kids, key=lambda k: self.spans[k][1])
            if any(self.spans[b][1] < self.spans[a][2] for a, b in zip(ordered, ordered[1:])):
                errors.append(f"op {op}: sibling spans overlap")
        own = self.self_times()
        wall = sum(self.spans[k][2] - self.spans[k][1] for k in children[-1])
        total = sum(own[i] for i in indices)
        if abs(total - wall) > 1e-9 * (1.0 + wall):
            errors.append(f"op {op}: self times sum to {total!r}, root spans to {wall!r}")
        return errors

    def per_op(self, ops: int) -> dict[str, float]:
        """Self time, call count and counters per layer, averaged over `ops`."""
        totals: dict[str, float] = defaultdict(float)
        for (name, *_), own in zip(self.spans, self.self_times()):
            totals[f"{name}.self_s"] += own
            totals[f"{name}.calls"] += 1
        for counts in self.counts.values():
            for key, value in counts.items():
                totals[key] += value
        return {key: value / ops for key, value in totals.items()}

    def op_counts(self, op: int) -> dict[str, int]:
        """Exact work counts of one op: calls per layer plus its counters."""
        counts: dict[str, int] = defaultdict(int)
        for name, _, _, _, span_op in self.spans:
            if span_op == op:
                counts[f"{name}.calls"] += 1
        counts.update(self.counts.get(op, {}))
        return dict(sorted(counts.items()))

    def dump(self) -> dict:
        names = sorted({s[0] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        return {
            "fields": ["name", "start", "end", "parent", "op"],
            "names": names,
            "spans": [[index[n], s, e, p, o] for n, s, e, p, o in self.spans],
        }
