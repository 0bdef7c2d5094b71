"""Tests of the benchmark itself: generators, correctness checks, tracer.

Small versions of each workload keep these fast.  The fault-injection tests
show that a wrong block text, a wrong match and a worse-than-source
alignment are each counted as failures, both when injected into the
outputs and when injected into the program.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

import blockspot.evaluation
import blockspot.pipeline
import workloads
from checks import check_case, edit_distance
from flow import Runner
from tracer import Tracer


def small(name: str, seed: int = 3) -> workloads.Workload:
    if name == "signs":
        cases = workloads.signs_cases(seed, n_docs=8)  # document 7 carries a poster
        return workloads.Workload(name, cases, cases[0], True, 0.0, trace_docs=8)
    if name == "slow_provider":
        cases = workloads.signs_cases(seed, n_docs=8)
        return workloads.Workload(name, cases, cases[0], True, 0.005, trace_docs=8)
    if name == "dense_pages":
        cases = workloads.dense_cases(seed, n_docs=1, n_blocks=60)
    else:
        cases = workloads.paragraph_cases(seed, n_docs=1, sizes=(3, 4, 5))
    return workloads.Workload(name, cases, cases[0], False, 0.0, trace_docs=1)


def outputs(runner: Runner, case):
    _, _, outcomes, pred, report = runner.flow(case)
    return outcomes, pred, report


def test_generators_are_deterministic():
    assert workloads.signs_cases(5, n_docs=4) == workloads.signs_cases(5, n_docs=4)
    assert workloads.dense_cases(5, 1, 40) == workloads.dense_cases(5, 1, 40)
    assert workloads.paragraph_cases(5, 1, (3, 4)) == workloads.paragraph_cases(5, 1, (3, 4))
    assert workloads.signs_cases(5, n_docs=4) != workloads.signs_cases(6, n_docs=4)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_clean_run_has_no_failures(name, tmp_path):
    workload = small(name)
    runner = Runner(workload, tmp_path)
    strategies = set()
    for case in workload.cases:
        result = runner.process(case)
        assert result.tally.failed == 0, result.tally.problems
        assert result.tally.attempted == 1 + len(case.expected_blocks) + len(case.expected_pairs)
        strategies.update(result.strategies)
    if workload.uses_llm and name == "signs":
        assert strategies == set(workloads.STRATEGIES) - {workloads.GEO_ONLY}


def test_wrong_block_text_is_a_failure(tmp_path):
    workload = small("signs")
    runner = Runner(workload, tmp_path)
    case = workload.cases[0]
    outcomes, pred, report = outputs(runner, case)
    blocks = list(pred.blocks)
    blocks[0] = replace(blocks[0], text=blocks[0].text + " X")
    tally = check_case(case, outcomes, pred.with_blocks(blocks), report)
    assert tally.failed == 1 and "block 0" in tally.problems[0]


def test_wrong_match_is_a_failure(tmp_path):
    workload = small("dense_pages")
    runner = Runner(workload, tmp_path)
    case = workload.cases[0]
    outcomes, pred, report = outputs(runner, case)
    pairs = list(report.pairs)
    pairs[4] = replace(pairs[4], gt_block_index=pairs[4].gt_block_index + 1)
    tally = check_case(case, outcomes, pred, replace(report, pairs=tuple(pairs)))
    assert tally.failed == 1 and "matched to gt block" in tally.problems[0]


def test_worse_alignment_is_a_failure(tmp_path):
    workload = small("paragraph_fragments")
    runner = Runner(workload, tmp_path)
    case = workload.cases[0]
    outcomes, pred, report = outputs(runner, case)
    pair = report.pairs[0]
    gt_text = case.gt_texts[pair.gt_block_index]
    worse = gt_text[-len(pair.gt_substring) :]  # still a substring, but of the wrong span
    assert worse in gt_text and worse != pair.gt_substring
    pairs = (replace(pair, gt_substring=worse),) + report.pairs[1:]
    tally = check_case(case, outcomes, pred, replace(report, pairs=pairs))
    assert tally.failed == 1 and "further than the source span" in tally.problems[0]


def test_faults_in_the_program_are_counted(tmp_path, monkeypatch):
    workload = small("dense_pages")
    runner = Runner(workload, tmp_path)
    case = workload.cases[0]
    reversed_order = blockspot.pipeline.geometric_order
    monkeypatch.setattr(blockspot.pipeline, "geometric_order", lambda lines: reversed_order(lines)[::-1])
    assert runner.process(case).tally.failed > 0
    monkeypatch.undo()
    monkeypatch.setattr(blockspot.evaluation, "quad_iou", lambda a, b: 0.5)
    assert runner.process(case).tally.failed > 0
    monkeypatch.undo()
    assert runner.process(case).tally.failed == 0


def test_edit_distance_matches_full_dynamic_programming():
    def full(a, b):
        prev = list(range(len(b) + 1))
        for i, ca in enumerate(a, 1):
            cur = [i]
            for j, cb in enumerate(b, 1):
                cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
            prev = cur
        return prev[-1]

    rng = random.Random(7)
    for _ in range(300):
        a = "".join(rng.choice("abc ") for _ in range(rng.randint(0, 12)))
        b = "".join(rng.choice("abc ") for _ in range(rng.randint(0, 12)))
        limit = rng.randint(0, 8)
        d = full(a, b)
        assert edit_distance(a, b, limit) == (d if d <= limit else limit + 1)


def traced_totals(runner: Runner, cases):
    tracer = Tracer()
    tracer.install(runner.backend)
    try:
        for case in cases:
            assert runner.process(case, flow=lambda c: tracer.span("bench.doc", runner.flow, c)).tally.failed == 0
    finally:
        tracer.uninstall()
    return tracer.totals()


@pytest.mark.parametrize("name", ["signs", "slow_provider"])
def test_self_times_account_for_traced_wall_time(name, tmp_path):
    workload = small(name)
    runner = Runner(workload, tmp_path)
    original_run = blockspot.pipeline.run
    self_s, total_s, calls, counts, _ = traced_totals(runner, workload.cases)
    assert blockspot.pipeline.run is original_run  # uninstalled
    assert "send" not in vars(runner.backend)
    assert sum(self_s.values()) == pytest.approx(total_s["bench.doc"], rel=1e-6)
    assert calls["bench.doc"] == len(workload.cases)
    assert calls["llm.complete"] > 0 and counts["geometry.iou_calls"] > 0
    if name == "slow_provider":
        # two pool workers wait on the provider at once
        assert total_s["pipeline.order_block"] / total_s["pipeline.run"] > 1.2


def test_traced_counts_repeat_exactly(tmp_path):
    workload = small("signs")
    first = traced_totals(Runner(workload, tmp_path), workload.cases)
    second = traced_totals(Runner(workload, tmp_path), workload.cases)
    assert first[2] == second[2]  # calls per span name
    assert first[3] == second[3]  # counts


def test_runs_report_exactly_the_declared_metrics(tmp_path):
    import json
    from pathlib import Path

    import run

    declared = json.loads((Path(run.BENCH).parent / "BENCHMARK.json").read_text())
    runner = Runner(small("signs"), tmp_path)
    tally, metrics, _ = run._measure(runner, 0.5, lambda: 0.1)
    metrics["peak_rss_mb"] = (1.0, "MB")  # added by main
    assert tally.failed == 0
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == {k: u for k, (_, u) in metrics.items()}
    tally, metrics, _ = run._traced(runner, tmp_path / "spans.jsonl")
    assert tally.failed == 0
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == {k: u for k, (_, u) in metrics.items()}
    assert (tmp_path / "spans.jsonl").read_text().count("\n") > 0


@pytest.mark.parametrize("name, order_per_s, latency_ms", [("dense_pages", 200, 150), ("slow_provider", 100, 200)])
def test_times_are_scaled_by_the_pace_kernel_unless_waiting(name, order_per_s, latency_ms, tmp_path, monkeypatch):
    import run
    from checks import Tally
    from flow import DocResult

    runner = Runner(small(name), tmp_path)
    # every document: 10 blocks ordered in 0.1 s, 20 evaluated in 0.2 s
    monkeypatch.setattr(runner, "process", lambda case: DocResult(0.1, 0.2, 10, 20, [], Tally(attempted=1)))
    # the kernel takes twice its reference time: the machine runs at half speed
    monkeypatch.setattr(run, "kernel_seconds", lambda: 2 * run.REFERENCE_S)
    _, metrics, _ = run._measure(runner, 1.0, lambda: 0.1)
    assert metrics["order_blocks_per_s"][0] == pytest.approx(order_per_s)
    assert metrics["eval_blocks_per_s"][0] == pytest.approx(200)
    assert metrics["doc_latency_p50_ms"][0] == pytest.approx(latency_ms)


def test_a_run_where_every_document_raises_ends_and_counts_them(tmp_path, monkeypatch):
    import run
    from checks import Tally
    from flow import DocResult

    runner = Runner(small("dense_pages"), tmp_path)
    monkeypatch.setattr(runner, "process", lambda case: DocResult(0.0, 0.0, 0, 0, [], Tally(2, 2)))
    tally, metrics, _ = run._measure(runner, 0.3, lambda: 0.1)
    assert tally.attempted == tally.failed > 0
    assert metrics["eval_blocks_per_s"][0] == 0.0
