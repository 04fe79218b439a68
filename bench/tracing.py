"""Spans timed from outside ctxgames.

The traced run replaces module-level names that ctxgames calls through
(for example `ctxgames.harness.iso_grpo_round`) with wrappers that record
a span per call, and restores the originals afterwards. Spans stay in
memory as parallel lists and are written out once, at the end of a run.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# (span name, module, attribute): each call through the attribute is a span.
# The span name's prefix before the last dot is the layer.
WRAPS = (
    ("game.loss", "ctxgames.learning", "game_loss_vector"),
    ("learning.round", "ctxgames.harness", "iso_grpo_round"),
    ("harness.loop", "ctxgames.harness", "simulate"),
    ("prediction.predict", "ctxgames.harness", "predict"),
    ("prediction.ledger", "ctxgames.harness", "record_and_count"),
    ("prediction.contexts", "ctxgames.harness", "generate_contexts"),
    ("metrics.run", "ctxgames.harness", "compute_run_metrics"),
    ("harness.csv", "ctxgames.harness", "_trace_csv"),
    ("harness.write", "ctxgames.harness", "_write_atomic"),
    ("harness.config", "ctxgames.harness", "parse_config"),
    ("game.resolve", "ctxgames.harness", "_resolve_game"),
)
# Each call of a sweep cell starts a new cell id; its self time is harness.other.
CELL_WRAP = ("harness.cell", "ctxgames.harness", "_sweep_cell")


class Tracer:
    """Records (name, start, end, parent, cell) spans for wrapped calls."""

    def __init__(self, wraps=WRAPS, cell_wrap=CELL_WRAP):
        self.wraps = tuple(wraps)
        self.cell_wrap = cell_wrap
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.cells: list = []
        self.cell = -1
        self.unmeasured = sorted({name for name, module, attr in self.wraps
                                  if _target(module, attr) is None})
        self._stack = [-1]
        self._saved: list = []

    def new_cell(self) -> None:
        self.cell += 1

    def _wrap(self, name: str, fn, starts_cell: bool):
        names, starts, ends = self.names, self.starts, self.ends
        parents, cells, stack = self.parents, self.cells, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if starts_cell:
                self.cell += 1
            i = len(starts)
            names.append(name)
            parents.append(stack[-1])
            cells.append(self.cell)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def __enter__(self):
        targets = [(w, False) for w in self.wraps] + [(self.cell_wrap, True)]
        for (name, module, attr), starts_cell in targets:
            fn = _target(module, attr)
            if fn is None:
                continue
            mod = importlib.import_module(module)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(name, fn, starts_cell))
        return self

    def __exit__(self, *exc):
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)
        return False

    def self_times(self) -> list:
        return self_times(self.starts, self.ends, self.parents)

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent,cell\n")
            for row in zip(self.names, self.starts, self.ends, self.parents, self.cells):
                fh.write("%s,%.9f,%.9f,%d,%d\n" % row)


def _target(module: str, attr: str):
    try:
        return getattr(importlib.import_module(module), attr, None)
    except ImportError:
        return None


def self_times(starts, ends, parents) -> list:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = [e - s for s, e in zip(starts, ends)]
    for p, kids in children.items():
        lo, hi = starts[p], ends[p]
        covered, reach = 0.0, lo
        for k in sorted(kids, key=starts.__getitem__):
            s, e = max(starts[k], reach), min(ends[k], hi)
            if e > s:
                covered += e - s
                reach = e
        out[p] -= covered
    return out


def totals_by_name(names, self_time) -> tuple[dict, dict]:
    """Summed self time and call count per span name."""
    seconds, calls = defaultdict(float), defaultdict(int)
    for name, t in zip(names, self_time):
        seconds[name] += t
        calls[name] += 1
    return dict(seconds), dict(calls)
