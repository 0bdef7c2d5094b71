"""Prompt construction for ordering a block's lines with an LLM.

The user prompt is a code-interleaved task: one Python function definition
whose body mixes real control flow with natural-language instructions, and
one call to it carrying the block's line texts and integer boxes as
arguments; the boxes are the lines' bounds anchored at the block minimum
and rounded to whole pixels.  The wording is this module's string
constants, which :func:`build_prompt` joins around the two rendered
literals, and golden tests freeze it; the system prompt suppresses
commentary and forces a best-effort answer.

Also provides the output-length guard: the expected output is the
space-joined concatenation of the line texts, and a reply shorter than
half or longer than double that length is rejected.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

from .geometry import AlignedRect

_SYSTEM_TEXT = """\
You respond with only the final answer string: no explanations, no quotes,
no code, no labels, no extra words. Always give an answer; if you are not
sure, give the best possible answer for the input you were given."""

# the user text is these two ends around ``<lines literal>, <boxes literal>``
_USER_BEFORE = """\
Below is a Python function definition followed by a single call to it.
Work out what the call returns.

def your_task(lines, boxes):
    # lines is a list of strings: the text of each detected line from one
    # block of text found in a photo, in no particular order.
    # boxes is a list of [x_min, y_min, x_max, y_max] integer pixel
    # boxes; boxes[i] is where lines[i] sits on the image.
    if a meaningful reading order of the lines exists:
        # Prefer meaning over position, and fix obvious recognition
        # mistakes in the text if the meaningful order reveals them.
        answer = the lines joined by single spaces in that meaningful order
    else:
        # No order of the lines reads meaningfully. Fall back to position:
        # order the lines top-to-bottom left-to-right, or left-to-right
        # top-to-bottom, whichever suits the boxes better.
        answer = the lines joined by single spaces in the position order
    return answer

your_task("""

_USER_AFTER = """)

Reply with exactly the string returned by your_task and nothing else."""


class _PromptFields(NamedTuple):
    system: str
    user: str


class ChatPrompt(_PromptFields):
    """A system/user message pair ready for a chat-completion call.

    An immutable 2-tuple ``(system, user)``.  The constructor (and so
    ``copy`` and ``pickle``) checks that neither is empty; the inherited
    ``_replace`` and ``_make`` skip that check.
    """

    __slots__ = ()

    def __new__(cls, system: str, user: str) -> "ChatPrompt":
        if not system or not user:
            raise ValueError("prompts must be non-empty")
        return tuple.__new__(cls, (system, user))

    @property
    def total_chars(self) -> int:
        return len(self.system) + len(self.user)


def render_lines_literal(texts: list[str]) -> str:
    """Python list literal for the line texts (JSON escaping is valid Python).

    ``json`` separates list items with ``", "``, so this is each text's
    literal joined by ``", "`` inside brackets.
    """
    return json.dumps(texts, ensure_ascii=False)


def render_boxes_literal(bounds: list[AlignedRect]) -> str:
    """Python list literal of integer boxes anchored at the block origin.

    All boxes are shifted so the block-wide minimum x and y are 0, and
    coordinates are rounded half up, which for these non-negative values is
    half away from zero.  Boxes thinner than a pixel after rounding are
    widened to 1.
    """
    if not bounds:
        raise ValueError("a block prompt needs at least one line")
    off_x = min(r.x_min for r in bounds)
    off_y = min(r.y_min for r in bounds)
    boxes = []
    for r in bounds:
        x0 = math.floor(r.x_min - off_x + 0.5)
        y0 = math.floor(r.y_min - off_y + 0.5)
        x1 = math.floor(r.x_max - off_x + 0.5)
        y1 = math.floor(r.y_max - off_y + 0.5)
        boxes.append(f"[{x0}, {y0}, {max(x1, x0 + 1)}, {max(y1, y0 + 1)}]")
    return "[" + ", ".join(boxes) + "]"


def build_prompt(texts: list[str], bounds: list[AlignedRect]) -> ChatPrompt:
    """Deterministically render the prompt for line texts and their bounds,
    in geometric order; same input, same bytes."""
    user = f"{_USER_BEFORE}{render_lines_literal(texts)}, {render_boxes_literal(bounds)}{_USER_AFTER}"
    return ChatPrompt(system=_SYSTEM_TEXT, user=user)


def length_guard(output: str, expected: int) -> bool:
    """True when the reply length is within [half, double] of expected.

    Both bounds are strict on the reject side: a reply of exactly half or
    exactly double the expected length is accepted.
    """
    if expected < 1:
        raise ValueError("expected length must be >= 1")
    n = len(output)
    if 2 * n < expected:
        return False
    if n > 2 * expected:
        return False
    return True
