"""Call recording for the benchmark: a plain pass-through for measured
runs and an in-memory span recorder for traced runs.

Spans are kept as tuples (name, start_ns, end_ns, parent, op_id, error) and
written out once the run ends.  Only calls the benchmark itself makes are
recorded; the library is not instrumented.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import nullcontext
from time import perf_counter_ns


class Direct:
    """Untraced calls: no bookkeeping beyond the function call itself."""

    traced = False

    def call(self, name, fn, *args, **kw):
        return fn(*args, **kw)

    def add(self, counter, value=1):
        pass

    def op(self, op_id):
        return nullcontext()


class Recorder:
    """Traced calls: every call becomes a span; counters sit beside them."""

    traced = True

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._op = None

    def call(self, name, fn, *args, **kw):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = perf_counter_ns()
        error = None
        try:
            return fn(*args, **kw)
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self._op, error)

    def add(self, counter, value=1):
        self.counters[counter] += value

    def op(self, op_id):
        return _OpSpan(self, op_id)

    def dump(self, fh, pass_no: int):
        """Write the spans as JSON lines; `parent` indexes this pass's spans."""
        for name, start, end, parent, op_id, error in self.spans:
            fh.write(json.dumps({"pass": pass_no, "name": name, "start_ns": start,
                                 "end_ns": end, "parent": parent, "op": op_id,
                                 "error": error}) + "\n")


class _OpSpan:
    """Root span of one op; calls made inside it become its children."""

    def __init__(self, rec: Recorder, op_id):
        self.rec = rec
        self.op_id = op_id

    def __enter__(self):
        rec = self.rec
        rec._op = self.op_id
        self.idx = len(rec.spans)
        rec.spans.append(None)
        rec._stack.append(self.idx)
        self.start = perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb):
        end = perf_counter_ns()
        rec = self.rec
        rec._stack.pop()
        # later calls (re-run sub-steps, model checks) keep this op id but
        # have no parent: they sit outside the op's timed region
        rec.spans[self.idx] = ("op", self.start, end, None, self.op_id,
                               exc_type.__name__ if exc_type else None)
        return False


def layer_times(spans) -> dict[str, dict[str, float]]:
    """Busy and self time per layer (the span-name prefix before the first
    dot), in milliseconds.  Self time is a span's duration minus the part
    covered by its children; busy time counts only spans whose parent lies
    in another layer, so nested calls of one layer are not counted twice."""
    child_ns = defaultdict(int)
    for name, start, end, parent, _op, _err in spans:
        if parent is not None:
            child_ns[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for idx, (name, start, end, parent, _op, _err) in enumerate(spans):
        layer = name.split(".", 1)[0]
        row = out.setdefault(layer, {"busy_ms": 0.0, "self_ms": 0.0, "spans": 0})
        dur = end - start
        row["spans"] += 1
        row["self_ms"] += (dur - child_ns[idx]) / 1e6
        if parent is None or spans[parent][0].split(".", 1)[0] != layer:
            row["busy_ms"] += dur / 1e6
    return out


def span_totals(spans) -> tuple[dict[str, float], dict[str, int], dict[str, int]]:
    """Per span name: total milliseconds, call count, and calls that raised
    BudgetExceededError."""
    ms: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    budget: dict[str, int] = defaultdict(int)
    for name, start, end, _parent, _op, err in spans:
        ms[name] += (end - start) / 1e6
        calls[name] += 1
        if err == "BudgetExceededError":
            budget[name] += 1
    return ms, calls, budget
