"""Pipeline orchestration tests: recognition planning, ordering, fallbacks."""

from __future__ import annotations

import pytest
from conftest import make_line

from blockspot.geometry import GeometryError, RecognizerSpec
from blockspot.llm import (
    LlmAuthError,
    LlmConfig,
    LlmTransientError,
    LlmTruncatedError,
    ScriptedBackend,
)
from blockspot.model import Block, Document, Line, Quad
from blockspot.pipeline import (
    EchoRecognizer,
    OrderingOutcome,
    PipelineError,
    ScriptedRecognizer,
    Strategy,
    assemble_line_text,
    block_key,
    build_block_prompt,
    order_block,
    plan_recognition,
    recognize_document,
    run,
)


def config(**overrides):
    defaults = dict(api_key="k", retry_backoff=0.0)
    defaults.update(overrides)
    return LlmConfig(**defaults)


class CountingBackend(ScriptedBackend):
    def __init__(self, replies):
        super().__init__(replies)
        self.keys_seen = []
        self.prompts_seen = []

    def send(self, prompt, cfg, key):
        self.keys_seen.append(key)
        self.prompts_seen.append(prompt)
        return super().send(prompt, cfg, key)


class TestPlanRecognition:
    def test_wide_line_split_into_five(self):
        doc = Document(
            image_width=700,
            image_height=100,
            lines=(make_line(4, 10, 30, 650, 62, "wide"),),
        )
        plans = plan_recognition(doc)
        assert len(plans) == 1
        req = plans[0]
        assert req.line_id == 4
        assert req.rotation == pytest.approx(0.0, abs=1e-9)
        assert len(req.parts) == 5
        assert req.parts[0].x_min == req.crop.x_min
        assert req.parts[-1].x_max == req.crop.x_max

    def test_rotated_line_snaps_back(self):
        from blockspot.geometry import rotate_point

        quad = Quad.from_points(
            [rotate_point(p, 30.0) for p in ((100, 100), (300, 100), (300, 140), (100, 140))]
        )
        doc = Document(
            image_width=500,
            image_height=500,
            lines=(Line(id=1, box=quad, text="tilted"),),
        )
        plans = plan_recognition(doc)
        assert plans[0].rotation == pytest.approx(-30.0, abs=1e-9)

    def test_empty_document(self):
        assert plan_recognition(Document(image_width=10, image_height=10)) == []

    def test_geometry_error_names_line(self):
        thin = Quad.from_points([[0, 0], [10, 0], [10, 0.2], [0, 0.2]])
        doc = Document(image_width=20, image_height=20, lines=(Line(id=7, box=thin),))
        with pytest.raises(GeometryError, match="line 7"):
            plan_recognition(doc)


class TestAssemble:
    def test_concatenation_without_separator(self):
        assert assemble_line_text(["HEL", "LO"]) == "HELLO"

    def test_single_part(self):
        assert assemble_line_text(["ONLY"]) == "ONLY"

    def test_interior_space_preserved(self):
        assert assemble_line_text(["A ", "B"]) == "A B"


class TestRecognizeDocument:
    def test_parts_assembled_per_line(self):
        doc = Document(
            image_width=700,
            image_height=100,
            lines=(
                make_line(0, 10, 30, 266, 62, ""),  # 256 wide -> 2 parts
                make_line(1, 10, 70, 110, 95, ""),
            ),
        )
        rec = ScriptedRecognizer({0: ["HEL", "LO"], 1: ["EXIT"]})
        out = recognize_document(doc, rec, RecognizerSpec())
        assert out.line_by_id(0).text == "HELLO"
        assert out.line_by_id(1).text == "EXIT"
        # original is untouched
        assert doc.line_by_id(0).text == ""

    def test_part_count_mismatch_rejected(self):
        doc = Document(
            image_width=700, image_height=100, lines=(make_line(0, 10, 30, 650, 62),)
        )
        with pytest.raises(ValueError, match="parts"):
            recognize_document(doc, ScriptedRecognizer({0: ["just one"]}))

    def test_echo_recognizer_preserves_texts(self):
        doc = Document(
            image_width=700,
            image_height=100,
            lines=(
                make_line(0, 10, 30, 650, 62, "WIDE SIGN TEXT"),  # splits into parts
                make_line(1, 10, 70, 110, 95, "EXIT"),
            ),
        )
        assert recognize_document(doc, EchoRecognizer(doc)) == doc


class TestOrderBlock:
    def test_llm_strategy_with_scripted_backend(self, figure_doc):
        backend = ScriptedBackend({"block-0": "20 REASONS TO LOVE CYCLING"})
        outcome = order_block(figure_doc, figure_doc.blocks[0], backend, config(), 0)
        assert outcome.strategy is Strategy.LLM
        assert outcome.block_text == "20 REASONS TO LOVE CYCLING"
        assert outcome.expected_len == 26
        assert outcome.llm_len == 26

    def test_sends_the_prompt_build_block_prompt_shows(self, figure_doc):
        backend = CountingBackend({"block-0": "20 REASONS TO LOVE CYCLING"})
        order_block(figure_doc, figure_doc.blocks[0], backend, config(), 0)
        assert backend.prompts_seen == [build_block_prompt(figure_doc, figure_doc.blocks[0])]

    def test_short_reply_falls_back_to_geometry(self, figure_doc):
        backend = ScriptedBackend({"block-0": "20 REASONS T"})  # 12 chars
        outcome = order_block(figure_doc, figure_doc.blocks[0], backend, config(), 0)
        assert outcome.strategy is Strategy.GEOMETRIC_FALLBACK_LENGTH
        assert outcome.block_text == "TO LOVE CYCLING 20 REASONS"
        assert outcome.llm_len == 12

    def test_backend_error_falls_back(self, figure_doc):
        class Exploding:
            def send(self, *a):
                raise LlmTransientError("down")

        outcome = order_block(figure_doc, figure_doc.blocks[0], Exploding(), config(max_retries=0), 0)
        assert outcome.strategy is Strategy.GEOMETRIC_FALLBACK_ERROR
        assert outcome.block_text == "TO LOVE CYCLING 20 REASONS"

    def test_truncated_reply_falls_back(self, figure_doc):
        class Truncating:
            def send(self, *a):
                raise LlmTruncatedError("cut off")

        outcome = order_block(figure_doc, figure_doc.blocks[0], Truncating(), config(), 0)
        assert outcome.strategy is Strategy.GEOMETRIC_FALLBACK_ERROR

    def test_auth_error_propagates(self, figure_doc):
        class Revoked:
            def send(self, *a):
                raise LlmAuthError("authentication rejected (HTTP 401)")

        with pytest.raises(LlmAuthError):
            order_block(figure_doc, figure_doc.blocks[0], Revoked(), config(), 0)

    def test_context_overflow_never_calls_backend(self, figure_doc):
        backend = CountingBackend({"block-0": "never used"})
        tight = config(max_context_tokens=50, max_output_tokens=10)
        outcome = order_block(figure_doc, figure_doc.blocks[0], backend, tight, 0)
        assert outcome.strategy is Strategy.GEOMETRIC_FALLBACK_CONTEXT
        assert backend.keys_seen == []

    def test_single_line_block_skips_backend(self):
        doc = Document(
            image_width=200,
            image_height=50,
            lines=(make_line(3, 10, 10, 110, 40, "EXIT"),),
            blocks=(Block(line_ids=(3,)),),
        )
        backend = CountingBackend({})
        outcome = order_block(doc, doc.blocks[0], backend, config(), 0)
        assert outcome.strategy is Strategy.SINGLE_LINE
        assert outcome.block_text == "EXIT"
        assert backend.keys_seen == []

    def test_disabled_backend_uses_geometry(self, figure_doc):
        outcome = order_block(figure_doc, figure_doc.blocks[0], None, config(), 0)
        assert outcome.strategy is Strategy.GEOMETRIC_ONLY
        assert outcome.block_text == "TO LOVE CYCLING 20 REASONS"

    def test_llm_outcome_requires_reply_length(self):
        with pytest.raises(ValueError):
            OrderingOutcome(block_ref=0, strategy=Strategy.LLM, block_text="x", expected_len=1)


class TestRun:
    def make_doc(self):
        lines = (
            make_line(0, 10, 10, 160, 30, "alpha one"),
            make_line(1, 10, 40, 160, 60, "alpha two"),
            make_line(2, 10, 120, 160, 140, "beta one"),
            make_line(3, 10, 150, 160, 170, "beta two"),
            make_line(4, 10, 230, 160, 250, "loner"),
        )
        return Document(
            image_width=300,
            image_height=300,
            lines=lines,
            blocks=(Block(line_ids=(0, 1)), Block(line_ids=(2, 3))),
        )

    def test_all_blocks_texted_and_outcomes_parallel(self):
        doc = self.make_doc()
        backend = ScriptedBackend({"block-0": "alpha one alpha two", "block-1": "beta one beta two"})
        out, outcomes = run(doc, backend, config())
        assert len(out.blocks) == 3  # two grouped + one singleton
        assert [o.block_ref for o in outcomes] == [0, 1, 2]
        assert out.blocks[0].text == "alpha one alpha two"
        assert out.blocks[1].text == "beta one beta two"
        assert out.blocks[2].text == "loner"
        assert outcomes[0].strategy is Strategy.LLM
        assert outcomes[2].strategy is Strategy.SINGLE_LINE

    def test_empty_document_unchanged(self):
        doc = Document(image_width=10, image_height=10)
        out, outcomes = run(doc, None, config())
        assert out == doc
        assert outcomes == []

    def test_oversized_block_falls_back_others_succeed(self):
        doc = self.make_doc()
        backend = CountingBackend(
            {"block-0": "alpha one alpha two", "block-1": "beta one beta two"}
        )
        # budget chosen so both prompts overflow only for the bigger block
        base = config()
        out, outcomes = run(doc, backend, base)
        assert all(o.strategy is Strategy.LLM for o in outcomes[:2])

        tight = config(max_context_tokens=120, max_output_tokens=4)
        backend2 = CountingBackend({"block-0": "alpha one alpha two", "block-1": "beta one beta two"})
        out2, outcomes2 = run(doc, backend2, tight)
        assert outcomes2[0].strategy is Strategy.GEOMETRIC_FALLBACK_CONTEXT
        assert outcomes2[1].strategy is Strategy.GEOMETRIC_FALLBACK_CONTEXT
        assert backend2.keys_seen == []  # singletons never call either

    def test_no_loss_for_fallback_strategies(self):
        doc = self.make_doc()
        out, outcomes = run(doc, None, config())
        for block, outcome in zip(out.blocks, outcomes):
            assert outcome.strategy in (Strategy.GEOMETRIC_ONLY, Strategy.SINGLE_LINE)
            for lid in block.line_ids:
                assert doc.line_by_id(lid).text in outcome.block_text

    def test_deterministic_with_scripted_backend(self):
        doc = self.make_doc()
        backend = ScriptedBackend({"block-0": "alpha one alpha two", "block-1": "beta one beta two"})
        first = run(doc, backend, config())
        second = run(doc, backend, config())
        assert first == second

    def test_block_permutation_permutes_outcomes(self):
        doc = self.make_doc()
        swapped = doc.with_blocks((doc.blocks[1], doc.blocks[0]))
        out_a, outcomes_a = run(doc, None, config())
        out_b, outcomes_b = run(swapped, None, config())
        texts_a = [o.block_text for o in outcomes_a]
        texts_b = [o.block_text for o in outcomes_b]
        assert texts_b[0] == texts_a[1]
        assert texts_b[1] == texts_a[0]
        assert texts_b[2] == texts_a[2]

    def test_serial_and_concurrent_agree(self):
        doc = self.make_doc()
        backend = ScriptedBackend({"block-0": "alpha one alpha two", "block-1": "beta one beta two"})
        serial = run(doc, backend, config(), concurrency=1)
        concurrent = run(doc, backend, config(), concurrency=8)
        assert serial == concurrent

    @pytest.mark.parametrize("concurrency", [1, 4])
    def test_auth_error_aborts_the_run_unwrapped(self, concurrency):
        class Revoked:
            def send(self, *a):
                raise LlmAuthError("authentication rejected (HTTP 403)")

        with pytest.raises(LlmAuthError, match="HTTP 403"):
            run(self.make_doc(), Revoked(), config(), concurrency=concurrency)

    def test_block_key_format(self):
        assert block_key(0) == "block-0"
        assert block_key(12) == "block-12"

    def test_invariant_violations_aggregated(self):
        # hand-built document bypassing validation: both blocks name a
        # line that does not exist
        doc = Document(
            image_width=100,
            image_height=100,
            lines=(make_line(0, 10, 10, 60, 30, "ok"),),
            blocks=(Block(line_ids=(7,)), Block(line_ids=(8, 9))),
        )
        with pytest.raises(PipelineError) as err:
            run(doc, None, config())
        assert "block 0" in str(err.value)
        assert "block 1" in str(err.value)
