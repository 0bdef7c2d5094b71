"""Prompt construction for ordering a block's lines with an LLM.

The user prompt is a code-interleaved task: one Python function definition
whose body mixes real control flow with natural-language instructions, and
one call to it carrying the block's line texts and integer boxes as
arguments; the boxes are the lines' bounds anchored at the block minimum
and rounded to whole pixels.  The wording lives in ``prompt_template.txt``
(placeholders ``{{LINES}}`` and ``{{BOXES}}``) and is frozen by golden
tests; the system prompt suppresses commentary and forces a best-effort
answer.

Also provides the output-length guard: the expected output is the
space-joined concatenation of the line texts, and a reply shorter than
half or longer than double that length is rejected.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources

from .geometry import AlignedRect

_TEMPLATE_RESOURCE = "prompt_template.txt"


@dataclass(frozen=True)
class ChatPrompt:
    """A system/user message pair ready for a chat-completion call."""

    system: str
    user: str

    def __post_init__(self) -> None:
        if not self.system or not self.user:
            raise ValueError("prompts must be non-empty")

    @property
    def total_chars(self) -> int:
        return len(self.system) + len(self.user)


def _load_template(raw: str) -> tuple[str, tuple[str, str, str]]:
    """The system text, and the user text cut at its two placeholders.

    The user text must hold ``{{LINES}}`` once and then ``{{BOXES}}`` once;
    cutting it once here means a line text that holds a placeholder is
    never rewritten.
    """
    head, _, rest = raw.partition("[system]\n")
    if head:
        raise ValueError("template must start with [system]")
    system, sep, user = rest.partition("[user]\n")
    if not sep:
        raise ValueError("template is missing the [user] section")
    before, lines_sep, rest = user.strip("\n").partition("{{LINES}}")
    between, boxes_sep, after = rest.partition("{{BOXES}}")
    parts = (before, between, after)
    if not (lines_sep and boxes_sep) or any("{{LINES}}" in p or "{{BOXES}}" in p for p in parts):
        raise ValueError("the [user] section must hold {{LINES}} once, then {{BOXES}} once")
    return system.strip("\n"), parts


_SYSTEM_TEXT, _USER_PARTS = _load_template(
    resources.files(__package__).joinpath(_TEMPLATE_RESOURCE).read_text("utf-8")
)


def render_lines_literal(texts: list[str]) -> str:
    """Python list literal for the line texts (JSON escaping is valid Python)."""
    return "[" + ", ".join(json.dumps(t, ensure_ascii=False) for t in texts) + "]"


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
    before, between, after = _USER_PARTS
    user = before + render_lines_literal(texts) + between + render_boxes_literal(bounds) + after
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
