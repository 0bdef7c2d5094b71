"""Acceptance suite: one check per criterion, each printing a PASS line.

Run under pytest (``pytest tests/test_acceptance.py -v -s``) or standalone
(``python tests/test_acceptance.py``), which prints one pass/fail line per
criterion and exits nonzero on any failure.  Everything here runs offline:
the only backends used are scripted ones, and criterion 9 re-runs the
end-to-end flow with socket creation disabled outright.

Criterion 1's trial distribution mirrors how the matcher is used by the
evaluation protocol: the corpus is a random "normal" string (alphanumeric
plus spaces, no character run longer than 3) and the query is a corpus
excerpt passed through up to 25% character corruption, like recognizer
output for a span of the ground truth.
"""

from __future__ import annotations

import json
import random
import socket
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from conftest import sign_doc, synthetic_gt
from test_fuzzy import corrupt, exact_best, normal_string
from test_geometry import raster_iou, rect_quad, rotated_rect_quad
from test_metrics import jaro_winkler_reference, nld_reference, ro_reference

from blockspot.cli import main
from blockspot.fuzzy import best_fuzzy_substring
from blockspot.geo_order import geometric_order
from blockspot.geometry import (
    AlignedRect,
    RecognizerSpec,
    iou,
    split_for_recognizer,
    translate_block_boxes,
)
from blockspot.llm import LlmConfig, ScriptedBackend
from blockspot.metrics import jaro_winkler, normalized_levenshtein, ratcliff_obershelp
from blockspot.model import save_document
from blockspot.pipeline import Strategy, order_block, run
from test_geo_order import make_line as make_geo_line
from test_prompt_golden import GOLDEN_PATH, build_all


def _config(**overrides):
    defaults = dict(api_key="offline", retry_backoff=0.0)
    defaults.update(overrides)
    return LlmConfig(**defaults)


def criterion_1_fuzzy_agreement():
    """1000/1000 exact agreement with the test-side oracle: substring, start, end, distance."""
    rng = random.Random(20260810)
    started = time.perf_counter()
    for _ in range(1000):
        corpus = normal_string(rng, rng.randint(40, 200))
        qlen = rng.randint(5, 40)
        lo = rng.randint(0, max(0, len(corpus) - qlen))
        query = corrupt(rng, corpus[lo : lo + qlen], rng.uniform(0.0, 0.25))[:40] or "a"
        got = best_fuzzy_substring(query, corpus)
        want = exact_best(query, corpus)
        assert got == want, f"{query!r} in {corpus!r}: got {got}, oracle {want}"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"agreement suite took {elapsed:.1f}s"
    return f"1000/1000 equal, {elapsed:.1f}s"


def criterion_2_fuzzy_speed():
    """On a 10k corpus / 30-char query, the oracle's answer within 1 s."""
    rng = random.Random(17)
    corpus = normal_string(rng, 10_000)
    lo = rng.randint(0, len(corpus) - 30)
    query = corrupt(rng, corpus[lo : lo + 30], 0.15)[:30]
    started = time.perf_counter()
    got = best_fuzzy_substring(query, corpus)
    elapsed = time.perf_counter() - started
    want = exact_best(query, corpus)
    assert got == want, f"got {got}, oracle {want}"
    assert elapsed <= 1.0, f"search took {elapsed:.2f}s"
    return f"distance {got.distance} at {got.start}, {elapsed:.2f}s"


def criterion_3_metric_oracles():
    """Named worked examples plus 500 random pairs against references."""
    assert abs(normalized_levenshtein("kitten", "sitting") - 3 / 7) <= 1e-9
    assert abs(jaro_winkler("MARTHA", "MARHTA") - 0.961111) <= 1e-6
    assert abs(ratcliff_obershelp("WIKIMEDIA", "WIKIMANIA") - 14 / 18) <= 1e-9

    alphabet = "abcdefghijklmnopqrstuvwxyz ABC0123456789"
    rng = random.Random(53)
    for _ in range(500):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
        assert abs(normalized_levenshtein(a, b) - nld_reference(a, b)) <= 1e-9
        assert abs(jaro_winkler(a, b) - jaro_winkler_reference(a, b)) <= 1e-9
        assert abs(ratcliff_obershelp(a, b) - ro_reference(a, b)) <= 1e-9
    return "3 worked examples + 500 random pairs within 1e-9"


def criterion_4_sign_end_to_end():
    """Scripted backend reads by meaning, geometric-only by position; 5x stable."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        doc_path = tmp_path / "sign.json"
        save_document(sign_doc(), doc_path)
        replies = tmp_path / "replies.json"
        replies.write_text(json.dumps({"block-0": "20 REASONS TO LOVE CYCLING"}))

        llm_payloads = set()
        geo_payloads = set()
        for i in range(5):
            out = tmp_path / f"llm{i}.json"
            assert (
                main(["order", str(doc_path), "--backend", f"scripted:{replies}", "--out", str(out)])
                == 0
            )
            llm_payloads.add(out.read_bytes())
            text = json.loads(out.read_text())["blocks"][0]["text"]
            assert text == "20 REASONS TO LOVE CYCLING"

            geo_out = tmp_path / f"geo{i}.json"
            assert (
                main(["order", str(doc_path), "--backend", "geometric-only", "--out", str(geo_out)])
                == 0
            )
            geo_payloads.add(geo_out.read_bytes())
            geo_text = json.loads(geo_out.read_text())["blocks"][0]["text"]
            assert geo_text == "TO LOVE CYCLING 20 REASONS"
        assert len(llm_payloads) == 1 and len(geo_payloads) == 1, "outputs drifted across runs"
    return "meaningful vs positional order both correct, byte-stable across 5 runs"


def criterion_5_fallback_guard_matrix():
    """Length-guard boundaries at expected 26, plus the context fallback."""
    doc = sign_doc()
    block = doc.blocks[0]

    for reply_len, expected_strategy in (
        (12, Strategy.GEOMETRIC_FALLBACK_LENGTH),
        (13, Strategy.LLM),
        (52, Strategy.LLM),
        (53, Strategy.GEOMETRIC_FALLBACK_LENGTH),
    ):
        backend = ScriptedBackend({"block-0": "x" * reply_len})
        outcome = order_block(doc, block, backend, _config(), 0)
        assert outcome.expected_len == 26
        assert outcome.strategy is expected_strategy, (
            f"reply of {reply_len} chars gave {outcome.strategy}"
        )
        if expected_strategy is Strategy.GEOMETRIC_FALLBACK_LENGTH:
            assert outcome.block_text == "TO LOVE CYCLING 20 REASONS"

    calls = []

    class Spy(ScriptedBackend):
        def send(self, prompt, cfg, key):
            calls.append(key)
            return super().send(prompt, cfg, key)

    tight = _config(max_context_tokens=50, max_output_tokens=10)
    outcome = order_block(doc, block, Spy({"block-0": "never"}), tight, 0)
    assert outcome.strategy is Strategy.GEOMETRIC_FALLBACK_CONTEXT
    assert calls == [], "context fallback must not call the backend"
    return "reject at 12/53, accept at 13/52, context overflow with zero calls"


def criterion_6_self_evaluation():
    """eval(gt, gt) on a 20-block document reports 0.0 / 1.0 / 1.0."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        gt_path = tmp_path / "gt.json"
        save_document(synthetic_gt(20), gt_path)
        report_path = tmp_path / "report.json"
        assert main(["eval", str(gt_path), str(gt_path), "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["num_pairs"] == 20
        assert abs(report["mean_normalized_levenshtein"] - 0.0) <= 1e-12
        assert abs(report["mean_jaro_winkler"] - 1.0) <= 1e-12
        assert abs(report["mean_ratcliff_obershelp"] - 1.0) <= 1e-12
    return "20 matched blocks, means 0.0000 / 1.0000 / 1.0000"


def criterion_7_geometry_suite():
    """IoU laws, rasterization agreement, split tiling, translate min-zero."""
    rng = random.Random(61)

    for _ in range(1000):
        a = rotated_rect_quad(
            rng.uniform(0, 100), rng.uniform(0, 100), rng.uniform(2, 60), rng.uniform(2, 60),
            rng.uniform(-90, 90),
        )
        b = rotated_rect_quad(
            rng.uniform(0, 100), rng.uniform(0, 100), rng.uniform(2, 60), rng.uniform(2, 60),
            rng.uniform(-90, 90),
        )
        ab, ba = iou(a, b), iou(b, a)
        assert 0.0 <= ab <= 1.0
        assert abs(ab - ba) <= 1e-9
        assert abs(iou(a, a) - 1.0) <= 1e-12

    for _ in range(200):
        def int_rect():
            x0, y0 = rng.randint(0, 95), rng.randint(0, 95)
            return AlignedRect(x0, y0, rng.randint(x0 + 1, 100), rng.randint(y0 + 1, 100))

        ra, rb = int_rect(), int_rect()
        exact = iou(rect_quad(ra.x_min, ra.y_min, ra.x_max, ra.y_max),
                    rect_quad(rb.x_min, rb.y_min, rb.x_max, rb.y_max))
        assert abs(exact - raster_iou(ra, rb)) <= 0.01

    spec = RecognizerSpec()
    for _ in range(500):
        x0, y0 = rng.uniform(-50, 50), rng.uniform(-50, 50)
        rect = AlignedRect(x0, y0, x0 + rng.uniform(1, 2500), y0 + rng.uniform(1, 90))
        parts = split_for_recognizer(rect, spec)
        assert parts[0].x_min == rect.x_min and parts[-1].x_max == rect.x_max
        assert abs(sum(p.width for p in parts) - rect.width) <= 1e-6
        for left, right in zip(parts, parts[1:]):
            assert abs(left.x_max - right.x_min) <= 1e-9
        for p in parts:
            assert p.width / p.height <= spec.aspect + 1e-9

    for _ in range(500):
        quads = [
            rotated_rect_quad(rng.uniform(0, 800), rng.uniform(0, 800),
                              rng.uniform(2, 120), rng.uniform(2, 120), rng.uniform(-45, 45))
            for _ in range(rng.randint(1, 10))
        ]
        out = translate_block_boxes(quads)
        assert min(r.x_min for r in out) == 0
        assert min(r.y_min for r in out) == 0
        assert all(r.x_min >= 0 and r.y_min >= 0 for r in out)
    return "1000 IoU pairs, 200 raster checks, 500 splits, 500 translations"


def criterion_8_determinism():
    """Golden prompts byte-stable; geometric order translation-invariant."""
    golden = json.loads(GOLDEN_PATH.read_text("utf-8"))
    built = build_all()
    assert len(built) == 50
    for got, want in zip(built, golden):
        assert got["system"].encode() == want["system"].encode()
        assert got["user"].encode() == want["user"].encode()
    rebuilt = build_all()
    assert built == rebuilt

    rng = random.Random(71)
    for _ in range(200):
        lines = []
        for i in range(rng.randint(2, 9)):
            x, y = rng.uniform(0, 400), rng.uniform(0, 400)
            lines.append(
                make_geo_line(i, AlignedRect(x, y, x + rng.uniform(4, 180), y + rng.uniform(4, 50)))
            )
        dx, dy = rng.uniform(-5000, 5000), rng.uniform(-5000, 5000)
        moved = [
            make_geo_line(line.id, AlignedRect(r.x_min + dx, r.y_min + dy, r.x_max + dx, r.y_max + dy))
            for line, r in lines
        ]
        assert geometric_order(lines) == geometric_order(moved)
    return "50 golden prompts byte-identical, 200 translation-invariant orderings"


def criterion_9_offline_completeness():
    """The end-to-end flow works with socket creation disabled."""
    real_socket = socket.socket

    def refuse(*args, **kwargs):
        raise AssertionError("network access attempted during offline run")

    socket.socket = refuse
    try:
        criterion_4_sign_end_to_end()
        criterion_6_self_evaluation()
        doc = sign_doc()
        outcome = order_block(doc, doc.blocks[0], ScriptedBackend({"block-0": "x" * 26}), _config(), 0)
        assert outcome.strategy is Strategy.LLM
        out, outcomes = run(doc, None, _config())
        assert out.blocks[0].text == "TO LOVE CYCLING 20 REASONS"
        match = best_fuzzy_substring("CYCLNG", "20 REASONS TO LOVE CYCLING")
        assert match.substring == "CYCLING"
    finally:
        socket.socket = real_socket
    return "order/eval/fuzzy flows completed with sockets disabled"


CRITERIA = (
    ("1 fuzzy agreement", criterion_1_fuzzy_agreement),
    ("2 fuzzy speed", criterion_2_fuzzy_speed),
    ("3 metric oracles", criterion_3_metric_oracles),
    ("4 sign end-to-end", criterion_4_sign_end_to_end),
    ("5 fallback guard matrix", criterion_5_fallback_guard_matrix),
    ("6 self-evaluation law", criterion_6_self_evaluation),
    ("7 geometry suite", criterion_7_geometry_suite),
    ("8 determinism", criterion_8_determinism),
    ("9 offline completeness", criterion_9_offline_completeness),
)


def _run_and_report(name, fn):
    detail = fn()
    print(f"[acceptance {name}] PASS: {detail}")


def test_criterion_1():
    _run_and_report(*CRITERIA[0])


def test_criterion_2():
    _run_and_report(*CRITERIA[1])


def test_criterion_3():
    _run_and_report(*CRITERIA[2])


def test_criterion_4():
    _run_and_report(*CRITERIA[3])


def test_criterion_5():
    _run_and_report(*CRITERIA[4])


def test_criterion_6():
    _run_and_report(*CRITERIA[5])


def test_criterion_7():
    _run_and_report(*CRITERIA[6])


def test_criterion_8():
    _run_and_report(*CRITERIA[7])


def test_criterion_9():
    _run_and_report(*CRITERIA[8])


if __name__ == "__main__":
    failures = 0
    for name, fn in CRITERIA:
        try:
            _run_and_report(name, fn)
        except AssertionError as e:
            failures += 1
            print(f"[acceptance {name}] FAIL: {e}")
    sys.exit(1 if failures else 0)
