"""Span tracer for the benchmark's traced run, applied to the program from outside.

The tracer replaces public functions and strategy methods of the package with
wrappers; the package itself carries no tracing code.  Two kinds of wrapper:

* A *span* records name, start, end and parent span.  Spans of one game or one
  solve share a group id.  Every span stays in memory until the run ends.
* A *leaf* is a hot call (``legal_colors``, ``apply_move``) that would cost
  too much memory as one span per call.  Its calls and time are summed into
  the innermost open span instead.  A leaf called inside another leaf (as
  ``apply_move`` calls ``legal_colors``) is charged to the outer leaf's
  nested time, so no interval is subtracted twice.

Self time of a span is its duration minus the part of its interval covered by
its direct child spans, minus the time of the leaves it called directly.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict
from typing import Callable, Optional

# Percentiles considered for a tail figure, lowest first.
TAIL_PERCENTILES = (50, 90, 99, 99.9, 99.99)
TAIL_MIN_BEYOND = 10


class Span:
    __slots__ = ("name", "start", "end", "parent", "group", "tag", "leaves", "leaf_cover")

    def __init__(self, name: str, parent: int, group: int):
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.parent = parent  # index into Tracer.spans, -1 for a top-level span
        self.group = group  # game or solve id; 0 outside any game or solve
        self.tag = None  # set by a span's after-hook, e.g. the priority tier of a move
        self.leaves: Optional[dict] = None  # leaf name -> [calls, total_s, nested_s]
        self.leaf_cover = 0.0  # time of leaves called directly from this span


def covered_time(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the given intervals."""
    total = 0.0
    run_start = run_end = None
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if run_end is None or s > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = s, e
        else:
            run_end = max(run_end, e)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: list) -> list:
    """Self time of every span, in the order given."""
    children = defaultdict(list)
    for sp in spans:
        if sp.parent >= 0:
            children[sp.parent].append((sp.start, sp.end))
    return [
        (sp.end - sp.start) - covered_time(sp.start, sp.end, children.get(i, ())) - sp.leaf_cover
        for i, sp in enumerate(spans)
    ]


def nearest_rank(sorted_values: list, pct: float) -> float:
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(values) -> tuple:
    """(percentile, value, samples beyond it) for the highest percentile in
    TAIL_PERCENTILES that leaves at least TAIL_MIN_BEYOND samples above its
    nearest rank.  With fewer than 2 * TAIL_MIN_BEYOND samples none does, and
    the median is returned with its (short) count beyond."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    n = len(ordered)
    chosen = TAIL_PERCENTILES[0]
    for pct in TAIL_PERCENTILES:
        if n - max(1, math.ceil(pct / 100 * n)) >= TAIL_MIN_BEYOND:
            chosen = pct
    beyond = n - max(1, math.ceil(chosen / 100 * n))
    return chosen, nearest_rank(ordered, chosen), beyond


class Tracer:
    """Records spans and leaf totals while installed; see the module docstring."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.root = Span("<root>", -1, 0)  # owns leaves called outside every span
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._leaf_stack: list[list] = []  # [nested time] per open leaf
        self._next_group = 1
        self._patches: list[tuple] = []

    # -- wrappers -----------------------------------------------------------

    def span(self, name: str, fn: Callable, group_root: bool = False, after: Optional[Callable] = None):
        """Wrap fn as a span.  after(span, args, kwargs, result) runs once the
        span is closed, so its own cost is not charged to the span."""
        spans, stack, clock = self.spans, self._stack, self.clock

        def wrapped(*args, **kwargs):
            parent = stack[-1] if stack else -1
            group = spans[parent].group if parent >= 0 else 0
            if group_root and not group:
                group = self._next_group
                self._next_group += 1
            sp = Span(name, parent, group)
            stack.append(len(spans))
            spans.append(sp)
            sp.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                sp.end = clock()
                stack.pop()
            if after is not None:
                after(sp, args, kwargs, result)
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    def leaf(self, name: str, fn: Callable):
        """Wrap fn as a leaf whose calls are summed into the innermost open span."""
        spans, stack, leaf_stack, clock, root = self.spans, self._stack, self._leaf_stack, self.clock, self.root

        def wrapped(*args, **kwargs):
            frame = [0.0]
            leaf_stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                d = clock() - t0
                leaf_stack.pop()
                owner = spans[stack[-1]] if stack else root
                if owner.leaves is None:
                    owner.leaves = {}
                row = owner.leaves.get(name)
                if row is None:
                    row = owner.leaves[name] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += d
                row[2] += frame[0]
                if leaf_stack:
                    leaf_stack[-1][0] += d
                else:
                    owner.leaf_cover += d

        wrapped.__wrapped__ = fn
        return wrapped

    # -- installation -------------------------------------------------------

    def patch_function(self, module, name: str, wrapper_factory: Callable[[Callable], Callable], package: str) -> None:
        """Replace module.name, and every other binding of the same function in
        the package's loaded modules, by one wrapper."""
        original = getattr(module, name)
        wrapper = wrapper_factory(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def patch_method(self, cls, name: str, wrapper_factory: Callable[[Callable], Callable]) -> None:
        original = cls.__dict__[name]
        self._patches.append((cls, name, original))
        setattr(cls, name, wrapper_factory(original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- aggregation --------------------------------------------------------

    def span_stats(self) -> dict:
        """name -> {'calls', 'incl_s', 'self_s', 'by_tag': {tag: incl_s}}."""
        out: dict = {}
        for sp, own in zip(self.spans, self_times(self.spans)):
            row = out.get(sp.name)
            if row is None:
                row = out[sp.name] = {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "by_tag": defaultdict(float)}
            row["calls"] += 1
            row["incl_s"] += sp.end - sp.start
            row["self_s"] += own
            if sp.tag is not None:
                row["by_tag"][sp.tag] += sp.end - sp.start
        return out

    def leaf_stats(self) -> dict:
        """name -> {'calls', 'total_s', 'self_s'} summed over every owner."""
        out: dict = {}
        for sp in [self.root, *self.spans]:
            for name, (calls, total, nested) in (sp.leaves or {}).items():
                row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                row["calls"] += calls
                row["total_s"] += total
                row["self_s"] += total - nested
        return out

    def durations(self, name: str) -> list:
        return [sp.end - sp.start for sp in self.spans if sp.name == name]
