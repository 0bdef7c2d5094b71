"""Prompt construction for ordering a block's lines with an LLM.

The user prompt is a code-interleaved task: one Python function definition
whose body mixes real control flow with natural-language instructions, and
one call to it carrying the block's line texts and integer boxes as
arguments.  The wording lives in ``prompt_template.txt`` (placeholders
``{{LINES}}`` and ``{{BOXES}}``) and is frozen by golden tests; the system
prompt suppresses commentary and forces a best-effort answer.

Also provides the output-length guard: the expected output is the
space-joined concatenation of the line texts, and a reply shorter than
half or longer than double that length is rejected.
"""

from __future__ import annotations

import json
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


@dataclass(frozen=True)
class BlockPromptInput:
    """Line texts and their translated integer boxes, in geometric order."""

    entries: tuple[tuple[str, AlignedRect], ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("a block prompt needs at least one line")
        if min(r.x_min for _, r in self.entries) != 0 or min(r.y_min for _, r in self.entries) != 0:
            raise ValueError("boxes must be translated so the block minimum is (0, 0)")


def _load_template() -> tuple[str, str]:
    raw = resources.files(__package__).joinpath(_TEMPLATE_RESOURCE).read_text("utf-8")
    head, _, rest = raw.partition("[system]\n")
    if head:
        raise ValueError("template must start with [system]")
    system, sep, user = rest.partition("[user]\n")
    if not sep:
        raise ValueError("template is missing the [user] section")
    return system.strip("\n"), user.strip("\n")


_SYSTEM_TEXT, _USER_TEMPLATE = _load_template()


def render_lines_literal(texts: list[str]) -> str:
    """Python list literal for the line texts (JSON escaping is valid Python)."""
    return "[" + ", ".join(json.dumps(t, ensure_ascii=False) for t in texts) + "]"


def render_boxes_literal(rects: list[AlignedRect]) -> str:
    return (
        "["
        + ", ".join(
            f"[{int(r.x_min)}, {int(r.y_min)}, {int(r.x_max)}, {int(r.y_max)}]" for r in rects
        )
        + "]"
    )


def build_prompt(block_input: BlockPromptInput) -> ChatPrompt:
    """Deterministically render the block prompt; same input, same bytes."""
    user = _USER_TEMPLATE.replace(
        "{{LINES}}", render_lines_literal([t for t, _ in block_input.entries])
    ).replace("{{BOXES}}", render_boxes_literal([r for _, r in block_input.entries]))
    return ChatPrompt(system=_SYSTEM_TEXT, user=user)


def expected_length(texts: list[str]) -> int:
    """Length of the space-joined concatenation, in unicode code points."""
    if not texts:
        raise ValueError("expected_length of an empty block is undefined")
    return sum(len(t) for t in texts) + len(texts) - 1


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
