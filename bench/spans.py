"""In-memory span recorder for the benchmark's traced runs.

A span is (name, start, end, parent, task id).  Spans are opened only
around calls the benchmark's own code makes into qcurv, never inside the
library, and are kept in a list until the run writes them out.  When
tracing is off a span records nothing, and an untraced run pays a few
microseconds per library call.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.enabled = False
        self.task_id: int | None = None
        # each span: [name, start, end, parent index or -1, task id]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        with self.span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def span(self, name: str):
        """A span around the body of a ``with`` block."""
        if not self.enabled:
            yield
            return
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def count(self, name: str, value: float = 1) -> None:
        if self.enabled:
            self.counts[name] += value

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _clock(), 0.0, parent, self.task_id])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = _clock()
        self._stack.pop()

    # -- summaries -----------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total seconds, self seconds).

        Self time is a span's duration minus the durations of its direct
        children; spans nest and never overlap, since the benchmark runs
        one task at a time on one thread.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            agg = out[name]
            agg[0] += 1
            agg[1] += end - start
            agg[2] += end - start - child_time[i]
        return {k: tuple(v) for k, v in out.items()}

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as f:
            for name, start, end, parent, task in self.spans:
                f.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "task": task}
                    )
                    + "\n"
                )
