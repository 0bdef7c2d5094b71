"""Golden-file test freezing the prompt wording and rendering.

Any change to the prompt wording (the string constants in
``blockspot.prompting``) or to the serialization shows up here as a
byte-level diff.  Regenerate (after deliberate wording changes) with::

    python tests/test_prompt_golden.py --regen
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from blockspot.geometry import AlignedRect, quad_bounds
from blockspot.prompting import build_prompt

GOLDEN_PATH = Path(__file__).parent / "golden" / "prompts.json"

TEXT_POOL = (
    "20 REASONS",
    "TO LOVE CYCLING",
    "EXIT",
    "OPEN 24 HOURS",
    'SAY "CHEESE"',
    "NO\\PARKING",
    "CAFÉ RENÉ",
    "ЗООПАРК",
    "50% OFF TODAY",
    "mind the gap",
    "a'postrophe",
    "",
)


def fixture_inputs(count: int = 50) -> list[tuple[list[str], list[AlignedRect]]]:
    """Deterministic synthetic blocks with awkward texts and layouts."""
    rng = random.Random(987654321)
    inputs = []
    for _ in range(count):
        n = rng.randint(1, 6)
        texts = [rng.choice(TEXT_POOL) for _ in range(n)]
        quads = []
        y = rng.uniform(0, 400)
        for _ in range(n):
            x = rng.uniform(0, 400)
            w = rng.uniform(8, 280)
            h = rng.uniform(6, 60)
            quads.append(((x, y), (x + w, y), (x + w, y + h), (x, y + h)))
            y += h + rng.uniform(2, 40)
        inputs.append((texts, [quad_bounds(q) for q in quads]))
    return inputs


def build_all() -> list[dict[str, str]]:
    return [
        {"system": prompt.system, "user": prompt.user}
        for prompt in (build_prompt(*block) for block in fixture_inputs())
    ]


def test_prompts_match_golden_file():
    golden = json.loads(GOLDEN_PATH.read_text("utf-8"))
    built = build_all()
    assert len(built) == len(golden) == 50
    for i, (got, want) in enumerate(zip(built, golden)):
        assert got == want, f"prompt {i} deviates from the golden file"


def test_rebuild_is_byte_identical():
    first = build_all()
    second = build_all()
    for a, b in zip(first, second):
        assert a["user"].encode("utf-8") == b["user"].encode("utf-8")
        assert a["system"].encode("utf-8") == b["system"].encode("utf-8")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps(build_all(), ensure_ascii=False, indent=1) + "\n", encoding="utf-8"
        )
        print(f"wrote {GOLDEN_PATH}")
    else:
        print("pass --regen to rewrite the golden file", file=sys.stderr)
        sys.exit(1)
