"""In-memory spans and counters for the traced run.

A span records a name, its start and end (``time.perf_counter`` seconds),
the span open around it and the op it belongs to.  Counters are plain
totals recorded at the same boundaries.  Nothing is written until the run
ends, so tracing adds no I/O to the timed loop.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.counts: Counter = Counter()
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, op):
        record = [name, time.perf_counter(), None, self._open[-1] if self._open else None, op]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def busy_ms(self, name: str, factor) -> float:
        """Total duration of the spans with this name, in milliseconds, each
        multiplied by ``factor`` at its midpoint."""
        return 1000.0 * sum(
            (end - start) * factor((start + end) / 2)
            for span_name, start, end, _, _ in self.spans
            if span_name == name
        )

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                out.write(json.dumps(
                    {"id": i, "name": name, "start": start, "end": end, "parent": parent, "op": op}
                ) + "\n")
            out.write(json.dumps({"counts": dict(self.counts)}) + "\n")
