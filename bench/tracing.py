"""Per-layer tracing for the benchmark's traced runs.

Wrappers are installed from here, around the public functions of the
program's modules, at every module attribute a caller looks them up by (so
``condaudit.cli.pairwise_tallies`` and ``condaudit.model.pairwise_tallies``
both lead to the same wrapper).  Nothing in the program is edited, and the
timed runs never install them.

Each wrapped call records a span (name, start, end, parent, operation) in
memory.  The hot leaf calls named in ``LEAVES`` are aggregated instead: a
count, total time and, for ``kk_pvalue_trace``, the draws traced.  A span's
self time is its duration minus the time of the wrapped calls inside it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

PACKAGE = "condaudit"
MODULES = ("ballots", "model", "tabulation", "assertions", "audit", "cli")

LEAVES = {"assertions.assorter_value", "audit.kk_update", "audit.kk_pvalue_trace"}

# ``prefers`` is called only from inside the assorter_value leaf, where a
# wrapper per preference test would cost more than the test itself.
UNWRAPPED = {"model.prefers"}

# Per-layer metric prefix -> the wrapped functions whose self time it sums.
GROUPS = {
    "ballots.parse_path": ("ballots.parse_path", "ballots.parse_native", "ballots.parse_preflib"),
    "model.pairwise_tallies": ("model.pairwise_tallies",),
    "tabulation.tabulate": (
        "tabulation.condorcet_winner", "tabulation.irv_tabulate", "tabulation.kemeny_tabulate",
        "tabulation.minimax_tabulate", "tabulation.ranked_pairs_tabulate", "tabulation.smith_set",
    ),
    "assertions.generate": (
        "assertions.condorcet_assertions", "assertions.kemeny_assertions",
        "assertions.minimax_assertions", "assertions.ranked_pairs_assertions",
        "assertions.smith_assertions",
    ),
    "assertions.import_assertions": ("assertions.import_assertions",),
    "assertions.assorter_mean": ("assertions.assorter_mean",),
    "assertions.assorter_value": ("assertions.assorter_value",),
    "audit.simulate_trials": ("audit.simulate_trials",),
    "audit.kk_pvalue_trace": ("audit.kk_pvalue_trace",),
    "audit.kk_update": ("audit.kk_update",),
    "audit.run_audit": ("audit.run_audit",),
    "audit.load_samples": ("audit.load_samples",),
    "cli": ("cli.main", "cli.build_parser"),
}
GROUP_OF = {fn: group for group, fns in GROUPS.items() for fn in fns}


class Tracer:
    """Spans and counters for the operations run while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.ops: list[defaultdict] = []
        self._stack: list[list] = []  # [span id, seconds spent in wrapped children]
        self._lengths: list[int] = []  # input lengths seen at kk_pvalue_trace
        self._patched: list[tuple] = []

    # -- operations -------------------------------------------------------

    def begin_op(self) -> None:
        self.ops.append(defaultdict(float))

    def _add(self, name: str, seconds: float) -> None:
        op = self.ops[-1]
        group = GROUP_OF.get(name, "other")
        op[group + ".self_s"] += seconds
        op[group + ".calls"] += 1

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else -1
            span = [name, perf_counter(), None, parent, len(self.ops) - 1]
            self._stack.append([len(self.spans), 0.0])
            self.spans.append(span)
            mark = len(self._lengths)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                _, children = self._stack.pop()
                duration = span[2] - span[1]
                if self._stack:
                    self._stack[-1][1] += duration
                self._add(name, duration - children)
            self._observe(name, result, mark)
            return result

        return wrapper

    def _leaf(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            duration = perf_counter() - start
            if self._stack:
                self._stack[-1][1] += duration
            self._add(name, duration)
            if name == "audit.kk_pvalue_trace":
                self._lengths.append(len(args[0]))
                self.ops[-1]["audit.kk_pvalue_trace.draws"] += len(args[0])
            return result

        return wrapper

    def _observe(self, name: str, result, mark: int) -> None:
        op = self.ops[-1]
        if name == "audit.simulate_trials":
            # One kk_pvalue_trace call per trial, in trial order (one worker).
            lengths = self._lengths[mark:]
            del self._lengths[mark:]
            op["audit.trials"] += len(result)
            for stop, length in zip(result.tolist(), lengths):
                op["useful_draws"] += min(stop, length)
                op["traced_draws"] += length
        elif name == "ballots.parse_path":
            op["ballots.signatures"] = len(result.election.profile)
        elif name.startswith("assertions.") and hasattr(result, "assertions"):
            op["assertions.count"] = len(result.assertions)  # the outermost set returns last

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        wrappers: dict[int, object] = {}
        for short, mod in zip(MODULES, modules):
            for attr, fn in vars(mod).items():
                name = f"{short}.{attr}"
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in UNWRAPPED):
                    wrappers[id(fn)] = (self._leaf if name in LEAVES else self._span)(name, fn)
        for mod in modules + [importlib.import_module(PACKAGE)]:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    setattr(mod, attr, wrappers[id(value)])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def write(self, path: Path, meta: dict) -> None:
        """Write the spans (times relative to the first span) and per-op counters."""
        origin = self.spans[0][1] if self.spans else 0.0
        doc = dict(meta)
        doc["span_fields"] = ["name", "start_s", "end_s", "parent", "op"]
        doc["spans"] = [[n, round(s - origin, 7), round(e - origin, 7), p, o] for n, s, e, p, o in self.spans]
        doc["ops"] = [dict(op) for op in self.ops]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc), encoding="utf-8")
