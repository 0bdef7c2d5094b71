"""blockspot benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 bench/run.py --workload signs --seed 1 --seconds 25 --trace 0

Generates the workload's documents from the seed, drives them through the
public API one document at a time, checks every output against the
generator's truth, and prints each metric by name with its unit.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` measures
the end-to-end metrics with tracing off; ``--trace 1`` runs a fixed amount
of work once untraced and once traced and reports the per-layer metrics.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from checks import Tally
from pace import REFERENCE_S, kernel_seconds

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
PROBES = 3  # fresh interpreters for setup_s before, halfway through and after the loop
SEGMENT_S = 0.25  # seconds of documents between two timings of the pace kernel


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "blockspot" / "__init__.py").is_file():
        print(f"error: blockspot sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from flow import Runner

    if args.workload == "all":
        return _run_all(args, workloads.WORKLOADS)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {workloads.WORKLOADS} or all", file=sys.stderr)
        return 2

    load_before = os.getloadavg()
    out = BENCH / "out"
    scratch = out / f"{args.workload}-{args.seed}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.build(args.workload, args.seed)
        runner = Runner(workload, scratch)
        runner.process(workload.warmup)  # not counted
        if args.trace:
            tally, metrics, report = _traced(runner, out / f"spans-{args.workload}-seed{args.seed}.jsonl")
        else:
            tally, metrics, report = _measure(runner, args.seconds, lambda: _probe(runner.transcript))
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    machine = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
    }
    docs = len(workload.cases)
    print(f"# workload {workload.name} seed {args.seed}: {docs} documents, "
          f"{workload.blocks} output blocks, {sum(c.lines for c in workload.cases)} lines")
    print(f"# machine {json.dumps(machine)}")
    for line in report:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    ratio = tally.failed / tally.attempted
    print(f"failed_ratio {ratio:.6g} ({tally.failed}/{tally.attempted} operations)")
    for problem in tally.problems:
        print(f"failure: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def _run_all(args, names) -> int:
    """Each workload in its own process, one after another; a combined last line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        *lines, last = done.stdout.strip().splitlines()
        print("\n".join(lines))
        result = json.loads(last)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def _probe(transcript: Path | None) -> float:
    """Fresh interpreter: import blockspot and build the workload's backend.

    Scaled by the pace kernel timed before and after it, like the flow.
    """
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(SRC)]
    if transcript is not None:
        cmd.append(str(transcript))
    before = kernel_seconds()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
    after = kernel_seconds()
    return float(done.stdout.strip().splitlines()[-1]) * REFERENCE_S / ((before + after) / 2)


def _measure(runner, seconds: float, probe):
    """Closed loop over the documents in segments, and set-up probes.

    A segment is one document or more, at least ``SEGMENT_S`` of them, with
    the pace kernel timed before and after it (see pace.py).  Every time in
    a segment that keeps the processor busy is scaled by ``REFERENCE_S``
    over the mean of the two kernel times, so the metrics read as if the
    machine ran at its reference speed throughout.  The order half of a
    workload whose backend sleeps is not scaled: waiting does not slow down
    with the machine.  Rates are medians over segments; latency is a median
    over documents.  Set-up is probed, and scaled, before, halfway through
    and after the loop.
    """
    workload = runner.workload
    cases = workload.cases
    scale_order = workload.send_delay_s == 0
    tally = Tally()
    setups = [probe() for _ in range(PROBES)]
    order_rates, eval_rates, latencies, raw_latencies = [], [], [], []
    measured = 0.0
    done = 0
    kernel = kernel_seconds()
    while measured < seconds:
        if len(setups) == PROBES and measured >= seconds / 2:
            setups += [probe() for _ in range(PROBES)]
            kernel = kernel_seconds()
        segment, started = [], time.perf_counter()
        while not segment or time.perf_counter() - started < SEGMENT_S:
            result = runner.process(cases[done % len(cases)])
            done += 1
            tally.add(result.tally)
            segment.append(result)
        measured += time.perf_counter() - started
        after = kernel_seconds()
        eval_scale = REFERENCE_S / ((kernel + after) / 2)
        order_scale = eval_scale if scale_order else 1.0
        kernel = after
        timed = [r for r in segment if r.order_s + r.eval_s > 0]  # a document that raised is not timed
        if timed:
            order_rates.append(_rate(sum(r.blocks for r in timed), order_scale * sum(r.order_s for r in timed)))
            eval_rates.append(_rate(sum(r.pred_blocks for r in timed), eval_scale * sum(r.eval_s for r in timed)))
            raw_latencies += [(r.order_s + r.eval_s) * 1000 for r in timed]
            latencies += [(order_scale * r.order_s + eval_scale * r.eval_s) * 1000 for r in timed]
    setups += [probe() for _ in range(PROBES)]

    report = [f"# measured {len(order_rates)} segments, {done} documents; scaled to the pace kernel's "
              f"reference speed: eval times" + (", order times" if scale_order else "")]
    if raw_latencies:
        report.append(f"# doc latency p50 before scaling {statistics.median(raw_latencies):.6g} ms")
    if len(latencies) >= 100:
        p90 = statistics.quantiles(latencies, n=10)[-1]
        report.append(f"doc_latency_p90_ms {p90:.6g} ms (n={len(latencies)})")
    metrics = {
        "order_blocks_per_s": (statistics.median(order_rates) if order_rates else 0.0, "1/s"),
        "eval_blocks_per_s": (statistics.median(eval_rates) if eval_rates else 0.0, "1/s"),
        "doc_latency_p50_ms": (statistics.median(latencies) if latencies else 0.0, "ms"),
        "setup_s": (statistics.median(setups), "s"),
    }
    return tally, metrics, report


def _rate(blocks: int, seconds: float) -> float:
    """Blocks per second; 0.0 when nothing was timed (every document raised)."""
    return blocks / seconds if seconds > 0 else 0.0


def _traced(runner, spans_path: Path):
    """The same fixed documents untraced, then traced; per-layer metrics."""
    from tracer import Tracer

    workload = runner.workload
    cases = [workload.cases[i % len(workload.cases)] for i in range(workload.trace_docs)]
    tally = Tally()

    untraced_s = 0.0
    for case in cases:
        result = runner.process(case)
        tally.add(result.tally)
        untraced_s += result.order_s + result.eval_s

    tracer = Tracer()
    strategies: Counter[str] = Counter()
    origin = time.perf_counter()
    tracer.install(runner.backend)
    try:
        for case in cases:
            result = runner.process(case, flow=lambda c: tracer.span("bench.doc", runner.flow, c))
            tally.add(result.tally)
            strategies.update(result.strategies)
    finally:
        tracer.uninstall()
    tracer.write_spans(spans_path, origin)

    self_s, total_s, calls, counts, peaks = tracer.totals()
    wall = total_s["bench.doc"]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m = {
        "model.parse_s": (self_s["model.parse"], "s"),
        "model.parse_calls": (calls["model.parse"], "count"),
        "model.serialize_s": (self_s["model.serialize"], "s"),
        "model.line_by_id_calls": (calls["model.line_by_id"], "count"),
        "model.line_by_id_s": (self_s["model.line_by_id"], "s"),
        "geometry.plan_s": (self_s["geometry.plan"], "s"),
        "geometry.plan_lines": (counts["geometry.plan_lines"], "count"),
        "geometry.iou_calls": (counts["geometry.iou_calls"], "count"),
        "evaluation.match_s": (self_s["evaluation.match"], "s"),
        "evaluation.hull_s": (self_s["evaluation.hull"], "s"),
        "evaluation.evaluate_s": (self_s["evaluation.evaluate"], "s"),
        "evaluation.report_s": (self_s["evaluation.report"], "s"),
        "evaluation.pairs": (counts["evaluation.pairs"], "count"),
        "geo_order.s": (self_s["geo_order"], "s"),
        "geo_order.calls": (calls["geo_order"], "count"),
        "geo_order.lines": (counts["geo_order.lines"], "count"),
        "geo_order.max_lines": (peaks["geo_order.max_lines"], "count"),
        "prompting.build_s": (self_s["prompting.build"], "s"),
        "prompting.builds": (calls["prompting.build"], "count"),
        "prompting.chars": (counts["prompting.chars"], "count"),
        "prompting.sent_ratio": (ratio(calls["llm.complete"], calls["prompting.build"]), "ratio"),
        "llm.complete_s": (self_s["llm.complete"], "s"),
        "llm.send_s": (self_s["llm.send"], "s"),
        "llm.calls": (calls["llm.complete"], "count"),
        "llm.attempts": (calls["llm.send"], "count"),
        "llm.accept_ratio": (ratio(strategies["llm"], calls["llm.complete"]), "ratio"),
        "pipeline.recognize_s": (self_s["pipeline.recognize"], "s"),
        "pipeline.run_s": (self_s["pipeline.run"], "s"),
        "pipeline.order_block_s": (self_s["pipeline.order_block"], "s"),
        "pipeline.parallelism": (ratio(total_s["pipeline.order_block"], total_s["pipeline.run"]), "ratio"),
    }
    from workloads import STRATEGIES

    for name in STRATEGIES:
        m[f"pipeline.strategy.{name}"] = (strategies[name], "count")
    m.update({
        "fuzzy.s": (self_s["fuzzy"], "s"),
        "fuzzy.calls": (calls["fuzzy"], "count"),
        "fuzzy.oracle_cells": (counts["fuzzy.oracle_cells"], "count"),
        "fuzzy.comparisons": (counts["fuzzy.comparisons"], "count"),
        "metrics.s": (self_s["metrics"], "s"),
        "metrics.calls": (calls["metrics"], "count"),
        "bench.glue_s": (self_s["bench.doc"], "s"),
        "trace.wall_s": (wall, "s"),
        "trace.untraced_s": (untraced_s, "s"),
        "trace.overhead_ratio": (ratio(wall - untraced_s, untraced_s), "ratio"),
    })

    layers: Counter[str] = Counter()
    for name, value in self_s.items():
        layers[name.split(".")[0]] += value
    report = [f"# traced {len(cases)} documents; {len(tracer.spans)} spans -> {spans_path.name}"]
    report += [f"# self {layer:<10} {value:9.4f} s {ratio(value, wall):7.1%}" for layer, value in layers.most_common()]
    report.append(f"# self total {sum(layers.values()):.4f} s of {wall:.4f} s traced wall; "
                  f"untraced {untraced_s:.4f} s; overhead {wall - untraced_s:+.4f} s")
    return tally, m, report


if __name__ == "__main__":
    sys.exit(main())
