"""Seeded benchmark for polyplane.

Run from the repository root:

    python3 perfbench/run.py --workload sat_sweep --seed 1 --seconds 20 --trace 0

One process, one closed-loop client: the workload's ops run one after
another in a fixed order, pass after pass, until --seconds have elapsed
(at least one pass).  Each op's library calls are timed, and an op's
latency is its fastest pass; answers are checked on the first pass and
must repeat on every later pass.  perfbench/README.md describes the
workloads, the metrics and how the run copes with a noisy machine.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
and traced passes, prints the per-layer metrics from the traced ones and
the tracing overhead against the untraced ones, and writes the spans to
perfbench/out/.  The line before the result is a JSON report with the
environment, step budgets, input fingerprint and every failed op.  The
last line is the result; the exit code is 1 when an answer is wrong.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3


def load_library() -> float:
    """Import polyplane from this checkout's src/ and return the seconds it
    took.  Raises ImportError when the checkout has no library."""
    src = ROOT / "src"
    if not (src / "polyplane" / "__init__.py").is_file():
        raise ImportError(f"no polyplane package under {src}")
    sys.path.insert(0, str(src))
    start = perf_counter()
    import polyplane
    took = perf_counter() - start
    if Path(polyplane.__file__).resolve().parent != (src / "polyplane").resolve():
        raise ImportError(f"polyplane imported from {polyplane.__file__}, not {src}")
    sys.path.insert(0, str(HERE))
    return took


def git_sha() -> str | None:
    """HEAD commit read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"git_sha": git_sha(), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "nproc": nproc}


def fingerprint(ops) -> dict:
    digest = hashlib.sha256()
    for op in ops:
        digest.update(f"{op.kind}\t{op.text}\n".encode())
    return {"ops": len(ops), "ast_nodes": sum(op.nodes for op in ops),
            "sha256": digest.hexdigest()}


def _short(text: str) -> str:
    return text if len(text) <= 120 else f"{text[:100]}... ({len(text)} chars)"


class CpuPicker:
    """Keeps the process on whichever allowed CPU runs a short fixed loop
    fastest, re-chosen between ops every RESELECT_S seconds.

    On the 2-CPU VM this was tuned on, each CPU drops to about 0.6x speed
    for seconds at a time, often while the other does not.  Only this
    process's own affinity is changed, and it is restored at the end.
    """

    RESELECT_S = 0.5

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
        self.cpu = None
        self.last = float("-inf")
        self.moves = 0

    @staticmethod
    def _probe() -> int:
        start = perf_counter_ns()
        acc = 0
        for i in range(20_000):
            acc += i * i % 7
        return perf_counter_ns() - start

    def maybe_pick(self):
        if len(self.cpus) < 2 or perf_counter() - self.last < self.RESELECT_S:
            return
        timings = []
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            timings.append((min(self._probe() for _ in range(2)), cpu))
        best = min(timings)[1]
        os.sched_setaffinity(0, {best})
        self.moves += self.cpu is not None and best != self.cpu
        self.cpu = best
        self.last = perf_counter()

    def restore(self):
        if len(self.cpus) >= 2:
            os.sched_setaffinity(0, set(self.cpus))


def run_pass(ops, calls, keys, failures, wrong, picker):
    """One pass over the ops; returns per-op latencies in nanoseconds.

    On the first pass (`keys` empty) every answer is checked and its key
    stored; later passes compare keys.  Failed ops are logged on the first
    pass; unexpected exceptions and rejected answers go to `wrong`."""
    from polyplane.errors import BudgetExceededError
    from checks import WrongAnswer
    from workloads import Failed

    first = not keys
    lat = []
    for i, op in enumerate(ops):
        picker.maybe_pick()
        if op.prepare:
            op.prepare()
        with calls.op(i):
            start = perf_counter_ns()
            try:
                ans = op.run(calls)
            except (BudgetExceededError, RecursionError) as exc:
                ans = Failed(type(exc).__name__, str(exc))
            except Exception as exc:  # any other error is a wrong answer
                ans = exc
            lat.append(perf_counter_ns() - start)
        if isinstance(ans, Exception):
            wrong.append({"op": i, "kind": op.kind, "input": _short(op.text),
                          "problem": f"raised {type(ans).__name__}: {ans}"})
            if first:
                keys.append(None)
            continue
        try:
            if first:
                if isinstance(ans, Failed):
                    failures.append({"op": i, "kind": op.kind,
                                     "input": _short(op.text),
                                     "error": ans.error, "message": ans.message})
                else:
                    op.check(ans, calls)
                keys.append(op.key(ans))
            elif op.key(ans) != keys[i]:
                raise WrongAnswer("answer differs from the first pass")
            if calls.traced and op.substeps and not isinstance(ans, Failed):
                op.substeps(ans, calls)
        except WrongAnswer as exc:
            wrong.append({"op": i, "kind": op.kind, "input": _short(op.text),
                          "problem": str(exc)})
        except Exception as exc:  # a check that cannot finish proves nothing
            wrong.append({"op": i, "kind": op.kind, "input": _short(op.text),
                          "problem": f"check raised {type(exc).__name__}: {exc}"})
    return lat


def layer_values(rec) -> dict:
    """Per-layer metrics of one traced pass."""
    from spans import span_totals
    ms, calls, budget = span_totals(rec.spans)
    c = rec.counters
    v = {
        "formula.parse_ms": ms["formula.parse"],
        "formula.nodes": c["formula.nodes"],
        "mosaic.decide_sat_ms": ms["mosaic.decide_sat"],
        "mosaic.calls": calls["mosaic.decide_sat"],
        "mosaic.budget_outs": budget["mosaic.decide_sat"],
    }
    for name in ("roots_tried", "labels_built", "arcs", "components",
                 "pool_size", "crown_n"):
        v["mosaic." + name] = c["mosaic." + name]
    roots = c["mosaic.roots_tried"]
    v["mosaic.root_hit_ratio"] = c["mosaic.sat_answers"] / roots if roots else 0.0
    v.update({
        "mosaic.label_space_ms": ms["mosaic.label_space"],
        "mosaic.root_labels_ms": ms["mosaic.root_labels"],
        "mosaic.root_labels": c["mosaic.root_labels"],
        "mosaic.extract_ms": ms["mosaic.extract"],
        "crown.oracle_ms": ms["crown.oracle"],
        "crown.oracle_calls": calls["crown.oracle"],
        "crown.oracle_n": c["crown.oracle_n"],
        "crown.reduce_ms": ms["crown.reduce"],
        "crown.reduce_calls": calls["crown.reduce"],
        "crown.reduce_worlds": c["crown.reduce_worlds"],
        "axioms.classify_ms": ms["axioms.classify"],
        "axioms.classify_calls": calls["axioms.classify"],
        "axioms.refuted": c["axioms.refuted"],
    })
    for i in range(1, 6):
        v[f"axioms.find_B{i}_ms"] = ms[f"axioms.find_B{i}"]
    v.update({
        "kripke.valid_exhaustive_ms": ms["kripke.valid_exhaustive"],
        "kripke.valid_sampled_ms": ms["kripke.valid_sampled"],
        "kripke.valuations_checked": c["kripke.valuations_checked"],
        "kripke.eval_ms": ms["kripke.eval"],
        "geometry.build_ms": ms["geometry.build"],
        "geometry.builds": calls["geometry.build"],
        "geometry.cells": c["geometry.cells"],
        "geometry.scene_frame_ms": ms["geometry.scene_frame"],
        "geometry.eval_scene_ms": ms["geometry.eval_scene"],
        "geometry.eval_scene_calls": calls["geometry.eval_scene"],
        "geometry.realize_ms": ms["geometry.realize"],
        "geometry.realize_calls": calls["geometry.realize"],
    })
    return v


def latency_figures(per_op: list[float]) -> dict:
    """Throughput and latency percentiles over per-op latencies in ms."""
    return {"ops_per_s": len(per_op) / (sum(per_op) / 1e3),
            "latency_p50_ms": statistics.median(per_op),
            "latency_p90_ms": statistics.quantiles(per_op, n=10)[8]}


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 import_s: float = 0.0, tiny: bool = False,
                 out_dir: Path | None = None,
                 picker: CpuPicker | None = None) -> tuple[dict, dict]:
    """Set up, measure and check one workload; returns (result, report)."""
    import workloads
    from spans import Direct, Recorder, layer_times

    picker = picker or CpuPicker()
    setup_times = []
    keys: list = []
    failures: list = []
    wrong: list = []
    plain: list = []       # per-op latencies of each untraced pass
    traced: list = []      # (latencies, recorder) of each traced pass
    try:
        for _ in range(SETUP_REPEATS):
            picker.maybe_pick()
            start = perf_counter()
            ops = workloads.build(name, seed, tiny)
            setup_times.append(perf_counter() - start)
        start = perf_counter()
        while True:
            if trace and len(plain) > len(traced):
                rec = Recorder()
                traced.append((run_pass(ops, rec, keys, failures, wrong, picker), rec))
            else:
                plain.append(run_pass(ops, Direct(), keys, failures, wrong, picker))
            if perf_counter() - start >= seconds and (traced or not trace):
                break
    finally:
        picker.restore()

    attempted = len(ops) * (len(plain) + len(traced))
    failed = len(failures) * (len(plain) + len(traced))
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        **environment(),
        "budgets": {"decide_sat_steps": workloads.SAT_BUDGET,
                    "oracle_max_n": workloads.ORACLE_MAX_N,
                    "classify_steps": workloads.CLASSIFY_BUDGET,
                    "validity_samples": workloads.SAMPLES,
                    "hard_corpus_seed": workloads.HARD_CORPUS_SEED},
        "fingerprint": fingerprint(ops),
        "op_kinds": {k: sum(1 for op in ops if op.kind == k)
                     for k in sorted({op.kind for op in ops})},
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "cpu_moves": picker.moves,
        "pass_busy_s": [round(sum(p) / 1e9, 6) for p in plain],
        "setup_runs_s": setup_times,
        "import_s": import_s,
        "failed_frac": len(failures) / len(ops),
        "failures": failures,
        "wrong": wrong,
    }
    if trace:
        busy_plain = statistics.median(sum(p) for p in plain)
        busy_traced = statistics.median(sum(lat) for lat, _ in traced)
        passes = [layer_values(rec) for _, rec in traced]
        metrics = {k: statistics.median(p[k] for p in passes) for k in passes[0]}
        metrics["trace.overhead_pct"] = 100.0 * (busy_traced / busy_plain - 1.0)
        report["layers"] = layer_times(traced[-1][1].spans)
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            path = out_dir / f"spans-{name}-seed{seed}.jsonl"
            with open(path, "w", encoding="utf-8") as fh:
                for k, (_, rec) in enumerate(traced):
                    rec.dump(fh, k)
            report["spans_file"] = str(path.relative_to(ROOT))
    else:
        # an op's latency is its fastest over the passes: on the 2-CPU VM this
        # was tuned on, the same loop slows by up to 40% in bursts of 1-3 s
        # (CPU time too, so it is not descheduling), and between runs the
        # per-op median spread 0.16-0.31 of its median where the minimum
        # spread 0.04-0.17
        per_op = [min(p[i] for p in plain) / 1e6 for i in range(len(ops))]
        metrics = {
            **latency_figures(per_op),
            "ok_frac": 1.0 - len(failures) / len(ops),
            "setup_s": import_s + statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        report["sections"] = {
            section: {**latency_figures([t for t, op in zip(per_op, ops)
                                         if op.section == section]),
                      "ops": sum(1 for op in ops if op.section == section),
                      "failed": sum(1 for f in failures
                                    if ops[f["op"]].section == section)}
            for section in workloads.WORKLOADS[name]}
    units = {"ops_per_s": "1/s", "ok_frac": "ratio", "setup_s": "s",
             "peak_rss_mb": "MB"}
    result = {"correct": not wrong, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units.get(k) or unit_of(k)}
                          for k, v in metrics.items()}}
    return result, report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Seeded benchmark for polyplane.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    picker = CpuPicker()
    picker.maybe_pick()
    try:
        import_s = load_library()
    except ImportError as exc:
        print(f"perfbench: cannot load the library: {exc}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    result, report = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), import_s=import_s,
                                  out_dir=HERE / "out", picker=picker)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
