"""Spans recorded from the benchmark's own code, around calls into sympac.

A span is (name, start_ns, end_ns, parent, request, ok).  Spans stay in
memory while a workload runs; ``write_jsonl`` writes them out at the end,
and ``self_times`` subtracts each span's direct children from its
duration.  Nothing under ``src/`` is changed: wrappers replace module
attributes for the duration of a ``patched`` block and are then removed.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.request: object = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span named ``name``."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def timed(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            ok = False
            start = clock()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.request, ok)

        return timed

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, request, ok) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "request": request,
                            "ok": ok,
                        }
                    )
                    + "\n"
                )

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, failed calls, total and self seconds."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "failed": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for sid, (name, start, end, _, _, ok) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["failed"] += not ok
            row["total_s"] += (end - start) / 1e9
            row["self_s"] += (end - start - child_ns[sid]) / 1e9
        return dict(out)


def add_self_times(total: dict, stats: dict) -> None:
    """Accumulate one ``Tracer.self_times`` result into ``total``."""
    for name, row in stats.items():
        acc = total.setdefault(name, dict.fromkeys(row, 0))
        for key, value in row.items():
            acc[key] += value


@contextlib.contextmanager
def patched(tracer: Tracer, targets):
    """Wrap ``module.attr`` for each (module, attr, span name[, post]) that
    exists; ``post``, when given, is applied to each result inside the span.

    Attributes missing from the module are skipped, so the benchmark
    keeps running when a later version of the library moves a function;
    its time then falls into the caller's self time.
    """
    saved = []
    try:
        for module, attr, name, *post in targets:
            if hasattr(module, attr):
                original = getattr(module, attr)
                saved.append((module, attr, original))
                fn = original
                if post:
                    def fn(*args, _original=original, _post=post[0], **kwargs):
                        return _post(_original(*args, **kwargs))
                setattr(module, attr, tracer.wrap(name, fn))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


class TimedModel:
    """A NextTokenModel proxy whose ``score`` calls are recorded as spans."""

    def __init__(self, model, tracer: Tracer) -> None:
        self._model = model
        self.context_limit = model.context_limit
        self.score = tracer.wrap("lm.score", model.score)

    def __getattr__(self, name):
        return getattr(self._model, name)
