"""In-memory spans around the benchmark's calls into the library.

A span is (name, start, end, parent span index, job id).  Spans are kept in
a list while the run lasts and summarised or written out when it ends; the
library itself is never instrumented.  With tracing disabled ``call`` is a
plain function call, so untraced runs pay one extra Python frame per call.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

Span = Tuple[str, float, float, Optional[int], str]


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.job = "setup"
        self.spans: List[Optional[Span]] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs), recorded as span `name` when enabled."""
        if not self.enabled:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.job)

    def count(self, name: str, n: int) -> None:
        """Add a computed work count, recorded only when tracing."""
        if self.enabled:
            self.counts[name] += int(n)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, busy_ms and self_ms (busy minus children)."""
        child_s: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span is not None and span[3] is not None:
                child_s[span[3]] += span[2] - span[1]
        out: Dict[str, Dict[str, float]] = {}
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, end, _, _ = span
            row = out.setdefault(name, {"calls": 0, "busy_ms": 0.0,
                                        "self_ms": 0.0})
            row["calls"] += 1
            row["busy_ms"] += (end - start) * 1e3
            row["self_ms"] += (end - start - child_s[index]) * 1e3
        return out

    def write(self, path, extra: dict) -> None:
        """Dump every span and the summary as one JSON document."""
        origin = min((s[1] for s in self.spans if s is not None), default=0.0)
        spans = [{"name": s[0], "start_ms": (s[1] - origin) * 1e3,
                  "end_ms": (s[2] - origin) * 1e3, "parent": s[3], "job": s[4]}
                 for s in self.spans if s is not None]
        doc = dict(extra, summary=self.summary(), counts=dict(self.counts),
                   spans=spans)
        with open(path, "w") as fh:
            json.dump(doc, fh)
