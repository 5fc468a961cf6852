"""Spans and call counters for the traced run.

Spans are recorded from the benchmark's own files around each public call
into a coverfit module; each has a name, start, end, parent span and op id,
is kept in memory, and is written out when the run ends.  Call counts come
from wrapping public functions and methods in place for the duration of the
traced phase; a counter can also count the calls made while a span of a
given name is open.  A wrap target that no longer exists is recorded as
absent, so its counters read as absent rather than zero.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from pathlib import Path


class NullTracer:
    """Stand-in used for untraced runs: spans cost one attribute lookup."""

    op_id = None

    def span(self, name: str):
        return contextlib.nullcontext()

    def paused(self):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op_id: int | None = None
        self.counters: dict[str, dict[str, int]] = {}
        self._open: dict[str, int] = defaultdict(int)
        self.absent: set[str] = set()
        self._counting = True
        self._restore: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op_id,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        self._open[name] += 1
        try:
            yield
        finally:
            rec["end_ns"] = time.perf_counter_ns()
            self._stack.pop()
            self._open[name] -= 1

    @contextlib.contextmanager
    def paused(self):
        """Stop counting wrapped calls, e.g. while the benchmark checks outputs."""
        was, self._counting = self._counting, False
        try:
            yield
        finally:
            self._counting = was

    def wrap(
        self, owner: object, attr: str, key: str, rows_arg: int | None = None, within: str | None = None
    ) -> None:
        """Count calls to owner.attr (and rows of positional argument rows_arg),
        and as calls_within the calls made while a span named `within` is open."""
        original = getattr(owner, attr, None)
        if original is None:
            self.absent.add(key)
            return
        stat = self.counters.setdefault(key, {"calls": 0, "rows": 0, "ns": 0, "calls_within": 0})

        def counted(*args, **kwargs):
            if not self._counting:
                return original(*args, **kwargs)
            t0 = time.perf_counter_ns()
            try:
                return original(*args, **kwargs)
            finally:
                stat["ns"] += time.perf_counter_ns() - t0
                stat["calls"] += 1
                if within is not None and self._open[within]:
                    stat["calls_within"] += 1
                if rows_arg is not None:
                    stat["rows"] += len(args[rows_arg])

        setattr(owner, attr, counted)
        self._restore.append((owner, attr, original))

    def unwrap(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def durations_ms(self, name: str) -> list[float]:
        return [(s["end_ns"] - s["start_ns"]) / 1e6 for s in self.spans if s["name"] == name]

    def self_time_ms(self) -> dict[str, float]:
        """Total self time per span name: duration minus what child spans cover."""
        child_ns: dict[int, int] = defaultdict(int)
        for s in self.spans:
            if s["parent"] is not None:
                child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
        totals: dict[str, float] = defaultdict(float)
        for s in self.spans:
            totals[s["name"]] += (s["end_ns"] - s["start_ns"] - child_ns[s["id"]]) / 1e6
        return dict(totals)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
