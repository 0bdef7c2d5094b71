"""The per-document flow the benchmark drives through blockspot's public API.

order: parse_document -> recognize_document(EchoRecognizer) -> run -> serialize_document
eval:  parse_document (prediction and ground truth) -> evaluate -> report_to_json

Calls go through module attributes (``model.parse_document``, ...) so that
the traced run can swap in timing wrappers without touching the program.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass
from pathlib import Path

from blockspot import evaluation, llm, model, pipeline

from checks import Tally, check_case, failed_document
from workloads import LLM_CONFIG, Case, FlakyBackend, Workload

CONCURRENCY = 2  # = nproc of the 2-vCPU reference machine

# ``run`` may lose its concurrency knob for offline backends; pass it only
# while it exists.
_HAS_CONCURRENCY = "concurrency" in inspect.signature(pipeline.run).parameters


def _run(doc, backend, config, concurrency: int):
    if _HAS_CONCURRENCY:
        return pipeline.run(doc, backend, config, concurrency=concurrency)
    return pipeline.run(doc, backend, config)


@dataclass
class DocResult:
    order_s: float
    eval_s: float
    blocks: int  # blocks ordered
    pred_blocks: int  # predicted blocks evaluated
    strategies: list[str]
    tally: Tally


class Runner:
    """Holds one workload's backend and runs documents through the flow."""

    def __init__(self, workload: Workload, scratch: Path):
        self.workload = workload
        self.config = llm.LlmConfig(**LLM_CONFIG)
        self.transcript: Path | None = None
        self.backend: FlakyBackend | None = None
        if workload.uses_llm:
            self.transcript = scratch / "transcript.jsonl"
            record_transcript(workload.cases, self.transcript, self.config)
            self.backend = FlakyBackend(llm.ReplayBackend(self.transcript), workload.send_delay_s)

    def order(self, case: Case):
        """parse -> recognize -> run -> serialize; returns seconds and outputs."""
        if self.backend is not None:
            self.backend.begin(case)
        started = time.perf_counter()
        doc = model.parse_document(case.pred_json)
        doc = pipeline.recognize_document(doc, pipeline.EchoRecognizer(doc))
        ordered, outcomes = _run(doc, self.backend, self.config, CONCURRENCY)
        blob = model.serialize_document(ordered)
        return time.perf_counter() - started, outcomes, blob

    def evaluate(self, case: Case, blob: bytes):
        """parse (prediction, ground truth) -> evaluate -> report_to_json."""
        started = time.perf_counter()
        pred = model.parse_document(blob)
        gt = model.parse_document(case.gt_json, model.DocumentKind.GROUND_TRUTH)
        report = evaluation.evaluate(pred, gt)
        evaluation.report_to_json(report)
        return time.perf_counter() - started, pred, report

    def flow(self, case: Case):
        order_s, outcomes, blob = self.order(case)
        eval_s, pred, report = self.evaluate(case, blob)
        return order_s, eval_s, outcomes, pred, report

    def process(self, case: Case, flow=None) -> DocResult:
        """Run one document through ``flow`` (default: untraced) and check it."""
        try:
            order_s, eval_s, outcomes, pred, report = (flow or self.flow)(case)
        except Exception as e:  # a raising document is a counted failure
            return DocResult(0.0, 0.0, 0, 0, [], failed_document(case, e))
        return DocResult(
            order_s,
            eval_s,
            len(outcomes),
            len(pred.blocks),
            [o.strategy.value for o in outcomes],
            check_case(case, outcomes, pred, report),
        )


def record_transcript(cases, path: Path, config) -> None:
    """Record every reply the signs documents will ask for, as a live run would."""
    path.unlink(missing_ok=True)
    for case in cases:
        doc = model.parse_document(case.pred_json)
        doc = pipeline.recognize_document(doc, pipeline.EchoRecognizer(doc))
        recorder = llm.TranscriptRecorder(llm.ScriptedBackend(case.replies), path)
        _run(doc, recorder, config, 1)
