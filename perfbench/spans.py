"""Outside-in span tracing for the benchmark's traced run.

The benchmark wraps the public entry points of each sdcps layer from here,
without touching the package: class methods are replaced on the class, and
functions are replaced in the module namespace where callers look them up.
Spans live in flat arrays in memory and are written out once, at the end.

`copy.deepcopy` is never wrapped: it recurses through every object of a
world, so a span per call would swamp the trace and distort twin costs.
"""

from __future__ import annotations

import contextlib
import functools
from array import array
from time import perf_counter

NO_PARENT = -1
NO_OP = -1


class Tracer:
    """Records one span per wrapped call: name, start, end, parent span and
    the operation (a physical tick, a rehearsal, set-up) it belongs to."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.ops: list[str] = []
        self.op = NO_OP
        self.name = array("i")
        self.parent = array("i")
        self.in_op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self.tallies: dict[str, dict[str, int]] = {}

    def begin_op(self, label: str) -> None:
        """Tag every span from now on with `label` (e.g. "tick:12")."""
        self.ops.append(label)
        self.op = len(self.ops) - 1

    def op_kind(self) -> str:
        return self.ops[self.op].split(":", 1)[0] if self.op != NO_OP else "none"

    def wrap(self, span_name: str, fn, tally=None):
        """Return `fn` wrapped in a span. `tally(result)`, if given, is added
        to `tallies[span_name][current op kind]` after each call."""
        if span_name not in self._name_ids:
            self._name_ids[span_name] = len(self.names)
            self.names.append(span_name)
        nid = self._name_ids[span_name]
        opened = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(opened[-1] if opened else NO_PARENT)
            self.in_op.append(self.op)
            self.end.append(0.0)
            opened.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                opened.pop()
            if tally is not None:
                by_kind = self.tallies.setdefault(span_name, {})
                kind = self.op_kind()
                by_kind[kind] = by_kind.get(kind, 0) + tally(result)
            return result

        return traced

    def self_times(self) -> list[float]:
        return self_times(self.start, self.end, self.parent)

    def totals(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, summed self time in seconds)."""
        calls = [0] * len(self.names)
        own = [0.0] * len(self.names)
        for nid, s in zip(self.name, self.self_times()):
            calls[nid] += 1
            own[nid] += s
        return {n: (calls[i], own[i]) for i, n in enumerate(self.names)}

    def write(self, path) -> None:
        """Write every span as one tab-separated line."""
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\top\tparent\tstart_s\tend_s\tself_s\n")
            for i in range(len(self.start)):
                op = self.ops[self.in_op[i]] if self.in_op[i] != NO_OP else "-"
                fh.write(
                    f"{i}\t{self.names[self.name[i]]}\t{op}\t{self.parent[i]}\t"
                    f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t{own[i]:.9f}\n"
                )


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover. Spans come from one thread, so a parent's children never
    overlap one another; each child is clipped to its parent's interval."""
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p != NO_PARENT:
            covered = min(end[i], end[p]) - max(start[i], start[p])
            if covered > 0:
                own[p] -= covered
    return own


@contextlib.contextmanager
def instrument(tracer: Tracer, targets):
    """Wrap each (owner, attribute, span name[, tally]) target for the
    duration of the block and restore the originals afterwards."""
    saved = []
    try:
        for owner, attr, span_name, *tally in targets:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(span_name, original, *tally))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
