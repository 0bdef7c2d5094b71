"""Prompt construction and length-guard tests."""

from __future__ import annotations

import ast
import json
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from blockspot.geometry import AlignedRect
from blockspot.prompting import (
    ChatPrompt,
    build_prompt,
    length_guard,
    render_boxes_literal,
    render_lines_literal,
)


def block_input(*entries):
    """(texts, bounds) for ``build_prompt`` from (text, box) pairs."""
    return [text for text, _ in entries], [AlignedRect(*box) for _, box in entries]


FIGURE_INPUT = block_input(
    ("20 REASONS", (0, 28, 190, 55)),
    ("TO LOVE CYCLING", (4, 0, 160, 26)),
)


def joined_lines_literal(texts):
    """Oracle: each text's JSON literal, joined by ", " inside brackets."""
    return "[" + ", ".join(json.dumps(t, ensure_ascii=False) for t in texts) + "]"


class TestBuildPrompt:
    def test_texts_and_boxes_appear_verbatim(self):
        prompt = build_prompt(*FIGURE_INPUT)
        assert '"20 REASONS"' in prompt.user
        assert '"TO LOVE CYCLING"' in prompt.user
        assert "[0, 28, 190, 55]" in prompt.user
        assert "[4, 0, 160, 26]" in prompt.user
        # entry order is preserved
        assert prompt.user.index("20 REASONS") < prompt.user.index("TO LOVE CYCLING")

    def test_one_definition_one_call(self):
        prompt = build_prompt(*FIGURE_INPUT)
        assert prompt.user.count("def your_task") == 1
        assert prompt.user.count("your_task(") == 2  # the def line plus the call

    def test_system_prompt_nonempty_and_constant(self):
        a = build_prompt(*FIGURE_INPUT)
        b = build_prompt(*block_input(("EXIT", (0, 0, 40, 12))))
        assert a.system == b.system
        assert a.system

    def test_deterministic_bytes(self):
        one = build_prompt(*FIGURE_INPUT)
        two = build_prompt(*FIGURE_INPUT)
        assert one == two
        assert one.user.encode() == two.user.encode()

    def test_quote_characters_escaped_as_code(self):
        tricky = 'SAY "HI" \\ NOW'
        prompt = build_prompt(*block_input((tricky, (0, 0, 50, 10))))
        call_args = render_lines_literal([tricky])
        assert call_args in prompt.user
        assert ast.literal_eval(call_args) == [tricky]

    def test_single_entry_prompt_well_formed(self):
        prompt = build_prompt(*block_input(("EXIT", (0, 0, 40, 12))))
        assert '"EXIT"' in prompt.user
        assert prompt.user.count("your_task(") == 2

    def test_requires_translated_boxes(self):
        # the prompt anchors raw bounds at the block minimum itself
        prompt = build_prompt(*block_input(("X", (5, 5, 10, 10))))
        assert "[[0, 0, 5, 5]]" in prompt.user

    def test_requires_entries(self):
        with pytest.raises(ValueError):
            build_prompt([], [])

    def test_rendered_literals_parse_as_python(self):
        rng = random.Random(47)
        for _ in range(50):
            texts = [
                "".join(rng.choice(' abcXYZ"\'\\é9') for _ in range(rng.randint(0, 12)))
                for _ in range(rng.randint(1, 5))
            ]
            literal = render_lines_literal(texts)
            assert ast.literal_eval(literal) == texts

    @given(
        st.lists(
            st.one_of(
                st.text(alphabet='ab "\\\u2028\u2029\n\té'),
                st.text(st.characters(blacklist_categories=())),  # lone surrogates too
            ),
            max_size=6,
        )
    )
    @example([])
    @example([""])
    @example(['"', "\\"])
    @example(["\u2028", "\ud800", "\udfff x"])
    @settings(max_examples=300, deadline=None)
    def test_lines_literal_equals_the_per_text_join(self, texts):
        assert render_lines_literal(texts) == joined_lines_literal(texts)

    def test_boxes_rendered_as_int_quadruples(self):
        boxes = [AlignedRect(0, 0, 12, 7), AlignedRect(3, 1, 9, 22)]
        assert render_boxes_literal(boxes) == "[[0, 0, 12, 7], [3, 1, 9, 22]]"

    def test_chat_prompt_validates(self):
        with pytest.raises(ValueError):
            ChatPrompt(system="", user="x")

    @pytest.mark.parametrize("text", ["a {{BOXES}} b", "a {{LINES}} b"])
    def test_placeholder_in_a_line_text_is_kept_verbatim(self, text):
        prompt = build_prompt(*block_input((text, (0, 0, 5, 5)), ("c", (0, 6, 5, 9))))
        assert render_lines_literal([text, "c"]) in prompt.user
        assert prompt.user.count("[[0, 0, 5, 5], [0, 6, 5, 9]]") == 1


class TestLengthGuard:
    def test_rejects_below_half(self):
        assert length_guard("x" * 12, 26) is False

    def test_accepts_exactly_half_boundary(self):
        assert length_guard("x" * 13, 26) is True

    def test_accepts_exactly_double(self):
        assert length_guard("x" * 52, 26) is True

    def test_rejects_above_double(self):
        assert length_guard("x" * 53, 26) is False

    def test_expected_must_be_positive(self):
        with pytest.raises(ValueError):
            length_guard("x", 0)

    @given(st.lists(st.text(alphabet="abc XYZ0", max_size=10), min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_space_join_always_accepted(self, texts):
        joined = " ".join(texts)
        # a lone empty text gives expected 0, outside the guard's domain
        assume(len(joined) >= 1)
        assert length_guard(joined, len(joined)) is True
