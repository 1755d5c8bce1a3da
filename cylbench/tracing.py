"""Spans around cylbill's public functions, for the benchmark's traced pass.

A `Tracer` replaces each target function by a wrapper that records one span
per call: name, start, end, the enclosing span and the operation it belongs
to.  The wrapper is bound under every name that refers to the original in
every loaded ``cylbill`` module, because modules import functions by name
(``torusflow`` binds ``is_transitive`` at import, so patching
``classify.is_transitive`` alone would miss its calls).  Methods are patched
on their class.

Spans stay in memory; `summary` turns them into per-name call counts,
inclusive time and self time (a span's duration minus the time its child
spans cover), and `write` dumps them as JSON lines when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import Counter


class Tracer:
    def __init__(self):
        # each span: [name, start, end, parent index, operation id]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[int] = []
        self._paused = False
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, observe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0.0, 0.0, parent, self.op]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[name + ".errors"] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                observe(self.counts, result)
            return result

        return traced

    def _patch(self, owner, key, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    @contextlib.contextmanager
    def installed(self, targets):
        """Patch ``targets`` — tuples ``(owner, attribute, span name,
        observe)``, where ``owner`` is a module or a class and ``observe``
        is None or ``f(counts, result)`` — for the duration of the block."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "cylbill"
                                         or n.startswith("cylbill."))]
        try:
            for owner, attr, name, observe in targets:
                original = getattr(owner, attr)
                traced = self._wrap(name, original, observe)
                if isinstance(owner, type):
                    self._patch(owner, attr, traced)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, traced)
            yield self
        finally:
            while self._patches:
                owner, key, original = self._patches.pop()
                setattr(owner, key, original)

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside the block (correctness checks) record nothing."""
        before = self._paused
        self._paused = True
        try:
            yield
        finally:
            self._paused = before

    @contextlib.contextmanager
    def discarding(self):
        """Spans and counts recorded inside the block are dropped: the calls
        pay the tracing cost but leave the per-layer figures unchanged."""
        kept = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        try:
            yield
        finally:
            self.spans, self.counts = kept

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - covered[idx]
        return out

    def write(self, path) -> None:
        """One JSON line per span, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, round(start - t0, 9),
                                     round(end - t0, 9), parent, op]))
                fh.write("\n")
