"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded from the outside. For one traced iteration the benchmark
replaces the public names that a workload's callers use (for example
``riskchoice.pipeline.fit_logistic``) with wrappers, and puts the originals
back afterwards, so the untraced iterations run the program untouched and
nothing under ``src/`` knows about tracing. A call that one module makes to
another through its own imported name is not wrapped; its time counts towards
the calling layer.

A span's layer is the part of its name before the first dot. A layer's self
time is the time its spans cover minus the time their child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict


class Tracer:
    """Collects spans in memory; :meth:`write` saves them once, at the end."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.run_id: str | None = None
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "run_id": self.run_id,
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._open.pop()

    def wrap(self, fn, name):
        """Wrap ``fn`` in a span; ``name`` is a string or a function of the
        call's (args, kwargs) that returns one."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name(args, kwargs) if callable(name) else name):
                return fn(*args, **kwargs)

        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Wrap each ``(owner, attribute, span name)`` for the duration."""
        saved = []
        try:
            for owner, attr, name in targets:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


def summarize(spans: list[dict], run_id: str) -> dict:
    """Per-run totals: seconds by span name, self seconds by layer, the root
    span's self time and the span count."""
    mine = [s for s in spans if s["run_id"] == run_id]
    child_ns: dict[int, int] = defaultdict(int)
    for s in mine:
        if s["parent"] is not None:
            child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
    by_name: dict[str, float] = defaultdict(float)
    self_by_layer: dict[str, float] = defaultdict(float)
    root = None
    for s in mine:
        duration = s["end_ns"] - s["start_ns"]
        by_name[s["name"]] += duration / 1e9
        self_by_layer[s["name"].split(".", 1)[0]] += (duration - child_ns[s["id"]]) / 1e9
        if s["parent"] is None:
            root = s
    return {
        "by_name": dict(by_name),
        "self_by_layer": dict(self_by_layer),
        "root_self_s": (root["end_ns"] - root["start_ns"] - child_ns[root["id"]]) / 1e9,
        "spans": len(mine),
    }
