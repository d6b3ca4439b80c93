"""In-memory spans recorded around the benchmark's calls into each layer.

A span is (name, start, end, parent, run id).  Spans live in memory and
are written out once, when the run ends.  A layer's self time is its
spans' duration minus the part of it covered by child spans.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, run_id: str, enabled: bool) -> None:
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        """Record ``name`` around the block; a no-op when tracing is off."""
        if not self.enabled:
            yield {}
            return
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "run_id": self.run_id,
            "start": time.perf_counter(),
            "end": None,
            "attrs": dict(attrs),
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec["attrs"]
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def graft(self, spans: list[dict]) -> None:
        """Append spans recorded by another process under the innermost
        open span.  ``time.perf_counter`` reads the system-wide monotonic
        clock on Linux, so their times need no shift."""
        if not self.enabled or not spans:
            return
        base, root = len(self.spans), self._open[-1]
        for s in spans:
            self.spans.append(
                {
                    **s,
                    "id": base + s["id"],
                    "parent": root if s["parent"] is None else base + s["parent"],
                    "run_id": self.run_id,
                }
            )

    def self_times(self) -> dict[str, float]:
        """Self time summed per span name."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s, covered in zip(self.spans, child_time):
            out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) - covered
        return out

    def walls(self) -> dict[str, float]:
        """Total duration summed per span name."""
        out: dict[str, float] = {}
        for s in self.spans:
            out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"]
        return out

    def dump(self, path: str, **extra) -> None:
        with open(path, "w") as f:
            json.dump({"run_id": self.run_id, "spans": self.spans, **extra}, f, indent=1)
