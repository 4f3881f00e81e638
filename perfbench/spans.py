"""In-memory span and count recorder for the traced benchmark run.

A span is (id, name, parent id, start, end) on the `time.perf_counter`
clock, which on Linux is CLOCK_MONOTONIC and so comparable across the
processes of one run; spans nest through `with tracer.span(name):`.
Counts are exact integers keyed by name, either summed (`count`) or kept
at their largest value (`set_max`).  Nothing is written until the run
ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self.maxima: dict[str, int] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(n)

    def set_max(self, name: str, n: int) -> None:
        self.maxima[name] = max(self.maxima.get(name, 0), int(n))

    def merge(self, other: dict) -> None:
        """Adopt the spans and counts another tracer exported with `to_json`."""
        base = len(self.spans)
        for s in other["spans"]:
            parent = None if s["parent"] is None else s["parent"] + base
            self.spans.append(dict(s, id=s["id"] + base, parent=parent))
        for name, n in other["counts"].items():
            self.count(name, n)
        for name, n in other["maxima"].items():
            self.set_max(name, n)

    def all_counts(self) -> dict[str, int]:
        return {**self.counts, **self.maxima}

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span's duration minus its children's."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in self.spans:
            out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) - child[s["id"]]
        return out

    def to_json(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "maxima": self.maxima}
