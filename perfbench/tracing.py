"""Spans around the benchmark's own calls into the library.

A span is ``(name, start, end, parent, op)``.  Names are
``<layer>.<function>`` with an optional variant suffix such as ``.n20``
or ``.g1025``; the layer is the library module the call goes into.  The
span of one whole operation is named ``op.<kind>`` and is the parent of
the layer spans recorded while it runs.  Spans stay in memory until
:meth:`Tracer.write`, so writing them costs nothing while measuring.
"""

from __future__ import annotations

import json
import statistics
from contextlib import nullcontext
from time import perf_counter

OP_LAYER = "op"


def _blame(exc: BaseException, name: str) -> None:
    """Remember the innermost traced call an exception came out of."""
    if not hasattr(exc, "bench_call"):
        try:
            exc.bench_call = name
        except AttributeError:  # exception types without an instance dict
            pass


class NullTracer:
    """Records nothing; used for the untraced, end-to-end runs."""

    _no_span = nullcontext()

    def call(self, name: str, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            _blame(exc, name)
            raise

    def op(self, op_id: int, kind: str):
        return self._no_span


class _OpSpan:
    __slots__ = ("tracer", "op_id", "kind", "index")

    def __init__(self, tracer: "Tracer", op_id: int, kind: str) -> None:
        self.tracer, self.op_id, self.kind = tracer, op_id, kind

    def __enter__(self):
        t = self.tracer
        t._op = self.op_id
        self.index = len(t.spans)
        t.spans.append([f"{OP_LAYER}.{self.kind}", perf_counter(), 0.0, None,
                        self.op_id])
        t._stack.append(self.index)

    def __exit__(self, *exc_info):
        t = self.tracer
        t.spans[self.index][2] = perf_counter()
        t._stack.pop()
        t._op = None
        return False


class Tracer(NullTracer):
    """Keeps every span in memory; :meth:`write` puts them in a file."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = None

    def call(self, name: str, fn, *args, **kwargs):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                self._op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            _blame(exc, name)
            raise
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def op(self, op_id: int, kind: str):
        return _OpSpan(self, op_id, kind)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op}) + "\n")

    def metrics(self, failures_by_layer: dict[str, int]) -> dict[str, float]:
        """Per-call medians, and calls, self time and failures per layer.

        ``<name>.us`` is the median duration of the spans called ``name``.
        A layer's ``busy_s`` is its self time: each span's duration minus
        the part covered by its child spans.
        """
        durations: dict[str, list[float]] = {}
        self_time = [end - start for _, start, end, _, _ in self.spans]
        for name, start, end, parent, _ in self.spans:
            durations.setdefault(name, []).append(end - start)
            if parent is not None:
                self_time[parent] -= end - start
        out: dict[str, float] = {}
        for name, values in durations.items():
            if not name.startswith(OP_LAYER + "."):
                out[f"{name}.us"] = statistics.median(values) * 1e6
        for (name, *_), busy in zip(self.spans, self_time):
            layer = name.split(".", 1)[0]
            if layer == OP_LAYER:
                continue
            out[f"{layer}.calls"] = out.get(f"{layer}.calls", 0) + 1
            out[f"{layer}.busy_s"] = out.get(f"{layer}.busy_s", 0.0) + busy
        for layer in {k.split(".", 1)[0] for k in out}:
            out[f"{layer}.failures"] = failures_by_layer.get(layer, 0)
        return out
