"""In-memory spans for the traced run.

A span is (name, start, end, parent); spans are recorded only around the
benchmark's own calls into the program's public functions, kept in a list
and written out once when the run ends.  `NO_TRACE` has the same interface
and records nothing, so the untraced run pays one no-op context manager per
call.
"""
from __future__ import annotations

import contextlib
import json
import statistics
import time


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def count(self, name: str, amount: int):
        self.counts[name] = self.counts.get(name, 0) + int(amount)

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def median(self, name: str) -> float:
        """Median duration in seconds; a missing span is a benchmark bug."""
        vals = self.durations(name)
        if not vals:
            raise KeyError(f"no span named {name!r} was recorded")
        return statistics.median(vals)

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, median seconds."""
        own = self.self_times()
        out: dict[str, dict] = {}
        for s, self_t in zip(self.spans, own):
            row = out.setdefault(s[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "_d": []})
            row["calls"] += 1
            row["total_s"] += s[2] - s[1]
            row["self_s"] += self_t
            row["_d"].append(s[2] - s[1])
        for row in out.values():
            row["median_s"] = statistics.median(row.pop("_d"))
        return out

    def dump(self, path: str, extra: dict):
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = dict(extra)
        doc["summary"] = self.summary()
        doc["counts"] = self.counts
        doc["spans"] = [
            {"name": n, "start_s": a - t0, "end_s": b - t0, "parent": p}
            for n, a, b, p in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)


class _NoTrace:
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def count(self, name: str, amount: int):
        pass


NO_TRACE = _NoTrace()
