"""Benchmark runner: one workload, one process, one thread, closed loop.

    python3 perfbench/run.py --workload pss --seed 1 --seconds 42 --trace 0

Run from the root of a checkout; the library is imported from ``src/``
of that checkout and nothing needs building.  Set-up builds the
workload's inputs from ``--seed`` (three times, reporting the median).
Ops then run back to back, each started when the previous one ends,
until ``--seconds`` have passed.  Each op's output is hashed and checked
by ``checker.py`` outside its timed region.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs a fixed
list of inputs in whole passes, each input once untraced and once under
the span tracer, and prints the per-layer metrics, the tracing overhead
and the cross-layer count reconciliation.

The last line of stdout is the result object; the line before it holds
the details (versions, load, op times, digests, failures), which are
also written to ``perfbench/out/``, as are the spans of a traced run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
DEFAULT_SEED = 1
HELD_OUT_SEED = 9001  # gain claims must also hold here; see BASELINE.md
SETUP_REPEATS = 3
MAX_FAILURES_SHOWN = 20


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=42.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repo."""
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


def host_probe() -> float:
    """Median time of a fixed pure-Python loop.

    The load average inside a container does not see other tenants of a
    shared host, whose speed can drift by a quarter within minutes; this
    probe, taken before and after the run, makes such drift visible.
    """
    times = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for k in range(200_000):
            total += k * k
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least 10 ops beyond it, and its value.

    With fewer than 11 ops no such percentile exists; the maximum is
    returned as percentile 100.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


class Ledger:
    """Digests and checker verdicts of every op in the run."""

    def __init__(self, wl) -> None:
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        self._verdicts: dict[tuple[str, str], list[str]] = {}

    def record(self, item, out, extra: list[str] = ()) -> str | None:
        """Hash and check one op's output; returns its digest."""
        self.attempted += 1
        problems = list(extra)
        digest = None
        try:
            digest = self.wl.digest(item, out)
            key = (item.label, digest)
            if key not in self._verdicts:
                self._verdicts[key] = self.wl.check(item, out)
            problems += self._verdicts[key]
            if self.digests.setdefault(item.label, digest) != digest:
                problems.append("output differs from an earlier op on the same input")
        except Exception:  # a checker crash is a failed op, not a dead run
            problems.append("checker raised: " + traceback.format_exc(limit=3))
        self.fail(item.label, problems)
        return digest

    def fail(self, label: str, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            self.failures += [f"{label}: {p}" for p in problems][:MAX_FAILURES_SHOWN]


def run_op(wl, item, ledger: Ledger):
    """Time one op; an exception counts as a failed op."""
    started = time.perf_counter()
    try:
        out = wl.op(*item.args)
    except Exception:
        ledger.attempted += 1
        ledger.fail(item.label, ["op raised: " + traceback.format_exc(limit=3)])
        return None, time.perf_counter() - started
    return out, time.perf_counter() - started


def measure(wl, seed: int, seconds: float, ledger: Ledger) -> dict:
    import workloads

    setup_times, prints = [], set()
    for _ in range(SETUP_REPEATS):
        items = None  # let the previous build go before timing the next
        gc.collect()
        started = time.perf_counter()
        items = wl.setup(seed)
        wl.warmup(seed)
        setup_times.append(time.perf_counter() - started)
        prints.add(workloads.fingerprint(items))
    if len(prints) != 1:
        ledger.fail("setup", ["set-up built different inputs from the same seed"])

    # Set-up objects stay alive all run; freezing keeps the collector from
    # walking them during ops, so op times do not depend on their number.
    gc.collect()
    gc.freeze()
    times: list[float] = []
    began = time.perf_counter()
    while time.perf_counter() - began < seconds:
        item = items[len(times) % len(items)]
        out, elapsed = run_op(wl, item, ledger)
        times.append(elapsed)
        if out is not None:
            ledger.record(item, out)
        del out
    pct, tail_value = tail(times)
    return {
        "metrics": {
            "setup_s": (statistics.median(setup_times), "s"),
            "op_s_p50": (statistics.median(times), "s"),
            "op_s_tail": (tail_value, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        },
        "detail": {"setup_runs_s": setup_times, "ops": len(times),
                   "distinct_inputs": len(items), "tail_percentile": pct,
                   "op_times_s": times},
    }


def measure_traced(wl, seed: int, seconds: float, ledger: Ledger, spans_path: Path) -> dict:
    import checker
    import spans

    tracer = spans.Tracer()
    tracer.install()
    try:
        items = wl.setup(seed)
    finally:
        tracer.uninstall()
    wl.warmup(seed)
    chosen = items[:wl.trace_items]

    untraced, traced, labels, passes = [], [], [], []
    mismatches: list[str] = []
    gc.collect()
    gc.freeze()
    began = time.perf_counter()
    while True:
        pass_began = time.perf_counter()
        pass_ops = []
        for item in chosen:
            out, elapsed = run_op(wl, item, ledger)
            untraced.append(elapsed)
            if out is not None:
                ledger.record(item, out)
            del out
            tracer.current_op = len(labels)
            labels.append(item.label)
            pass_ops.append(tracer.current_op)
            tracer.install()
            try:
                out, elapsed = run_op(wl, item, ledger)
            finally:
                tracer.uninstall()
                tracer.current_op = spans.SETUP_OP
            traced.append(elapsed)
            if out is not None:
                # The ledger also fails an output that differs from the untraced twin's.
                problems = spans.Summary(tracer).reconcile(pass_ops[-1])
                mismatches += problems
                ledger.record(item, out, problems)
            del out
        passes.append(pass_ops)
        pass_time = time.perf_counter() - pass_began
        if time.perf_counter() - began + pass_time > seconds:
            break

    summary = spans.Summary(tracer)
    counts = [summary.exact_counts(ops) for ops in passes]
    for k, c in enumerate(counts[1:], 2):
        if c != counts[0]:
            mismatches.append(f"pass {k}: exact counts differ from pass 1")
            ledger.fail(f"pass{k}", [mismatches[-1]])
    op_ids = [op for ops in passes for op in ops]
    metrics = summary.layer_metrics(op_ids)
    metrics["codegen.four_cycles_left"] = (
        sum(checker.four_cycles(g) for g in summary.generated_graphs()), "count")
    metrics["trace.overhead_s"] = (
        statistics.median(traced) - statistics.median(untraced), "s")
    metrics["trace.ops"] = (len(traced), "count")
    metrics["trace.count_mismatches"] = (len(mismatches), "count")
    OUT.mkdir(exist_ok=True)
    tracer.save(spans_path, labels)
    return {
        "metrics": metrics,
        "detail": {"passes": len(passes), "inputs_per_pass": len(chosen),
                   "exact_counts": counts[0], "count_mismatches": mismatches,
                   "untraced_op_times_s": untraced, "traced_op_times_s": traced,
                   "spans_file": str(spans_path.relative_to(ROOT)),
                   "spans": len(tracer.start)},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "burstldpc" / "__init__.py").is_file():
        print(f"perfbench: no library at {SRC}/burstldpc; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import burstldpc
    import numpy
    import workloads

    if Path(burstldpc.__file__).resolve().parent != SRC / "burstldpc":
        print(f"perfbench: imported burstldpc from {burstldpc.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    stamp = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "python": platform.python_version(),
             "numpy": numpy.__version__, "nproc": os.cpu_count(),
             "affinity": len(os.sched_getaffinity(0)), "git_commit": git_commit(),
             "platform": platform.platform(), "loadavg_before": os.getloadavg(),
             "host_probe_before_s": host_probe()}
    ledger = Ledger(wl)
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        run = measure_traced(wl, args.seed, args.seconds, ledger, OUT / f"spans-{tag}.npz")
    else:
        run = measure(wl, args.seed, args.seconds, ledger)
    stamp["loadavg_after"] = os.getloadavg()
    stamp["host_probe_after_s"] = host_probe()

    detail = {**stamp, **run["detail"], "attempted": ledger.attempted,
              "failed": ledger.failed, "error_rate": ledger.failed / max(ledger.attempted, 1),
              "failures": ledger.failures, "digests": ledger.digests,
              "metrics": {k: [v, u] for k, (v, u) in run["metrics"].items()}}
    OUT.mkdir(exist_ok=True)
    (OUT / f"detail-{tag}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in run["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
