"""Deterministic document generators for the benchmark's four workloads.

Every generator takes a seed and returns :class:`Case` objects: the
prediction input and ground truth as JSON bytes (the program only ever sees
these), plus the truth the generator knows by construction: each output
block's text and strategy, and each predicted block's source ground-truth
block with the edit distance to its source span.  Layouts are built so that
the geometric order is known without running the program: rows are
separated by more than half a line height, columns by more than half a line
width, and rotated blocks only ever take strategies whose text does not
depend on geometric order.

The signs transcript replies and the benchmark-side backends live here too,
because they are part of a workload's definition.
"""

from __future__ import annotations

import json
import math
import random
import threading
import time
from dataclasses import dataclass, field

from blockspot.llm import LlmTransientError

from checks import edit_distance

LLM = "llm"
CONTEXT = "geometric_fallback_context"
LENGTH = "geometric_fallback_length"
ERROR = "geometric_fallback_error"
SINGLE = "single_line"
GEO_ONLY = "geometric_only"
STRATEGIES = (LLM, CONTEXT, LENGTH, ERROR, SINGLE, GEO_ONLY)

# A prompt fits when ceil(chars / 4) + 256 <= 768, i.e. at most 2048 chars.
# The frozen prompt template takes 1306 of them.  The line and box literals
# of a sign block (at most four 24-char lines) stay under 250 chars; those
# of a 36-line poster take at least 36 * 23 = 828, so posters never fit.
LLM_CONFIG = dict(
    api_key="offline",
    retry_backoff=0.0,
    max_retries=1,
    max_context_tokens=768,
    max_output_tokens=256,
)

_SYLLABLES = (
    "ka ro mi te su na po le vi da gu shi to ne ba ri mo ze fa lu "
    "qui pre sto cor ban dal mer tin gol ash rev ond ult ept"
).split()
_SIGN_WORDS = (
    "EXIT OPEN SALE CAFE PARKING STOP HOTEL BAR PHARMACY BANK TAXI METRO "
    "NORTH SOUTH EAST WEST STREET AVENUE MARKET BAKERY BOOKS FRESH PIZZA "
    "SUSHI RAMEN TICKETS PLATFORM GATE FLOOR LOBBY ENTRANCE CLOSED DAILY"
).split()


@dataclass(frozen=True)
class Case:
    """One document pair plus everything the checks compare against."""

    pred_json: bytes
    gt_json: bytes
    expected_blocks: tuple[tuple[str, str], ...]  # (text, strategy) per output block
    expected_pairs: tuple[tuple[int, int], ...]  # (source gt block, distance to source span) per pred block
    gt_texts: tuple[str, ...]
    lines: int
    replies: dict[str, str] = field(default_factory=dict)  # transcript replies by block key
    flaky_keys: frozenset[str] = frozenset()  # fail once with a transient error, then answer
    down_keys: frozenset[str] = frozenset()  # fail every attempt with a transient error


@dataclass(frozen=True)
class Workload:
    name: str
    cases: tuple[Case, ...]
    warmup: Case  # run once, untimed, before measuring
    uses_llm: bool
    send_delay_s: float  # sleep per backend send; 0 for none
    trace_docs: int  # fixed work of a traced run: documents, cycling over the cases

    @property
    def blocks(self) -> int:
        return sum(len(c.expected_blocks) for c in self.cases)


# --------------------------------------------------------------------------
# small helpers


def _word(rng: random.Random) -> str:
    return "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(1, 3)))


def _sentence_line(rng: random.Random, target: int) -> str:
    words = []
    length = -1
    while length < target:
        w = _word(rng)
        if rng.random() < 0.1:
            w = w.capitalize()
        if rng.random() < 0.08:
            w += str(rng.randint(0, 99))
        words.append(w)
        length += len(w) + 1
    return " ".join(words)


def _sign_text(rng: random.Random, lo: int, hi: int) -> str:
    while True:
        parts = [rng.choice(_SIGN_WORDS) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.5:
            parts.append(str(rng.randint(1, 999)))
        text = " ".join(parts)
        if lo <= len(text) <= hi:
            return text


def _rect(x0: float, y0: float, x1: float, y1: float) -> list[list[float]]:
    return [[x0, y0], [x1, y0], [x1, y1], [x0, y1]]


def _rotated(rect: list[list[float]], cx: float, cy: float, theta: float) -> list[list[float]]:
    c, s = math.cos(theta), math.sin(theta)
    return [[round(cx + x * c - y * s, 2), round(cy + x * s + y * c, 2)] for x, y in rect]


def _doc_json(width: int, height: int, lines: list[dict], blocks: list[dict]) -> bytes:
    data = {"image_width": width, "image_height": height, "lines": lines, "blocks": blocks}
    return json.dumps(data, ensure_ascii=False).encode("utf-8")


# --------------------------------------------------------------------------
# signs: small scene-text photos through the replayed LLM

_CELL = 400
_GRID_COLS, _GRID_ROWS = 4, 3


def _sign_block(rng: random.Random, kind: str, k: int, cx: float, cy: float):
    """Lines of one block as (vertices, text), gold order, and geometric order.

    ``kind`` is ``horizontal``, ``vertical`` or ``rotated``; blocks stay
    inside a 400 px cell centred on (cx, cy).
    """
    if kind == "vertical":
        cw = rng.uniform(9, 14)
        w = 1.2 * cw
        texts = [rng.choice(_SIGN_WORDS)[: rng.randint(3, 8)] for _ in range(k)]  # words have 3+ letters
        x0 = cx - (k * 1.8 * w) / 2
        items = []
        for j, t in enumerate(texts):
            top = cy - 150 + rng.uniform(0, 0.3 * cw)
            x = x0 + j * 1.8 * w
            items.append((_rect(round(x, 2), round(top, 2), round(x + w, 2), round(top + len(t) * cw * 1.1, 2)), t))
        geo = list(range(k))  # left to right
        gold = geo[::-1]  # vertical signage reads right to left
        return items, gold, geo

    rotated = kind == "rotated"
    cw = rng.uniform(8, 12) if rotated else rng.uniform(8, 14)
    h = 1.6 * cw
    pitch = 1.5 * h
    hi = 14 if rotated else 24
    texts = [_sign_text(rng, 3, hi) for _ in range(k)]
    # rows: normally one line each; sometimes the last two share a row
    rows = list(range(k))
    if not rotated and k >= 3 and rng.random() < 0.3 and (len(texts[-2]) + len(texts[-1]) + 2) * cw < 330:
        rows[-1] = rows[-2]
    n_rows = rows[-1] + 1
    local = []
    x_next: dict[int, float] = {}
    for j, t in enumerate(texts):
        w = len(t) * cw
        r = rows[j]
        if r in x_next:
            x = x_next[r]
        elif rotated:
            x = -w / 2 + rng.uniform(-10, 10)
        else:
            row_w = sum(len(texts[i]) + 2 for i in range(k) if rows[i] == r) * cw
            x = rng.uniform(-170, 170 - row_w)
        x_next[r] = x + w + 2 * cw
        y = -n_rows * pitch / 2 + r * pitch
        local.append(_rect(x, y, x + w, y + h))
    if rotated:
        theta = math.radians(rng.choice((-1, 1)) * rng.uniform(10, 60))
        items = [(_rotated(rect, cx, cy, theta), t) for rect, t in zip(local, texts)]
        order = list(range(k))
        return items, order, order
    items = [
        ([[round(cx + x, 2), round(cy + y, 2)] for x, y in rect], t) for rect, t in zip(local, texts)
    ]
    geo = sorted(range(k), key=lambda j: (rows[j], local[j][0][0]))
    gold = list(range(k))
    if rng.random() < 0.3:
        gold = gold[1:] + gold[:1]  # the meaningful order differs from position
    return items, gold, geo


def _poster(rng: random.Random, top: float):
    """An 18-row, two-column block of short words, over the context budget."""
    cw, h, pitch = 8.0, 13.0, 20.0
    items = []
    for r in range(18):
        y = top + r * pitch
        for c in range(2):
            t = rng.choice(_SIGN_WORDS)[: rng.randint(3, 6)]
            x = 40 + c * 120
            items.append((_rect(x, y, x + len(t) * cw, y + h), t))
    order = list(range(len(items)))
    return items, order, order, 18 * pitch + 40


def _sign_case(rng: random.Random, n_blocks: int, poster: bool) -> Case:
    cells = [(c, r) for r in range(_GRID_ROWS) for c in range(_GRID_COLS)]
    rng.shuffle(cells)
    n_free = rng.randint(0, min(2, len(cells) - n_blocks))
    lines: list[dict] = []
    specs = []  # (line ids, gold order, geo order, role)

    def add_lines(items) -> list[int]:
        ids = []
        for vertices, text in items:
            ids.append(len(lines))
            lines.append({"id": len(lines), "vertices": vertices, "text": text})
        return ids

    height = _GRID_ROWS * _CELL
    for b in range(n_blocks):
        col, row = cells[b]
        cx, cy = (col + 0.5) * _CELL, (row + 0.5) * _CELL
        k = rng.randint(1, 4)
        kind = rng.choices(("horizontal", "vertical", "rotated"), (45, 20, 35))[0]
        if k == 1 and kind == "vertical":
            kind = "horizontal"
        items, gold, geo = _sign_block(rng, kind, k, cx, cy)
        r = rng.random()
        if k == 1:
            role = SINGLE
        elif kind == "rotated":
            role = "flaky" if r < 0.15 else LLM
        else:
            role = LENGTH if r < 0.12 else ERROR if r < 0.2 else "flaky" if r < 0.3 else LLM
        specs.append((add_lines(items), gold, geo, role))
    if poster:
        items, gold, geo, poster_h = _poster(rng, height + 20)
        specs.append((add_lines(items), gold, geo, CONTEXT))
        height += int(poster_h) + 40
    ungrouped = []
    for col, row in cells[n_blocks : n_blocks + n_free]:
        t = _sign_text(rng, 3, 20)
        x, y = col * _CELL + 30, row * _CELL + rng.uniform(40, 300)
        ungrouped += add_lines([(_rect(x, y, x + 10 * len(t), y + 16), t)])

    texts = [ln["text"] for ln in lines]
    pred_blocks, gt_blocks, expected, pairs = [], [], [], []
    replies: dict[str, str] = {}
    flaky, down = set(), set()
    for index, (ids, gold, geo, role) in enumerate(specs):
        gold_text = " ".join(texts[ids[j]] for j in gold)
        geo_text = " ".join(texts[ids[j]] for j in geo)
        key = f"block-{index}"
        if role in (LLM, "flaky"):
            replies[key] = gold_text
            if role == "flaky":
                flaky.add(key)
            got, strategy = gold_text, LLM
        elif role == LENGTH:
            bad = gold_text[: max(1, len(gold_text) // 3)].strip() or "X"
            replies[key] = bad if rng.random() < 0.5 else " ".join([gold_text] * 3)
            got, strategy = geo_text, LENGTH
        elif role == ERROR:
            replies[key] = gold_text
            down.add(key)
            got, strategy = geo_text, ERROR
        else:  # SINGLE or CONTEXT
            got, strategy = geo_text, role
        pred_blocks.append({"line_ids": ids})
        gt_blocks.append({"line_ids": [ids[j] for j in gold], "text": gold_text})
        expected.append((got, strategy))
        pairs.append((index, edit_distance(got, gold_text, max(len(got), len(gold_text)))))
    for lid in ungrouped:  # the pipeline appends these as singleton blocks
        gt_blocks.append({"line_ids": [lid], "text": texts[lid]})
        expected.append((texts[lid], SINGLE))
        pairs.append((len(pairs), 0))

    width = _GRID_COLS * _CELL
    return Case(
        pred_json=_doc_json(width, height, lines, pred_blocks),
        gt_json=_doc_json(width, height, lines, gt_blocks),
        expected_blocks=tuple(expected),
        expected_pairs=tuple(pairs),
        gt_texts=tuple(b["text"] for b in gt_blocks),
        lines=len(lines),
        replies=replies,
        flaky_keys=frozenset(flaky),
        down_keys=frozenset(down),
    )


def signs_cases(seed: int, n_docs: int = 120) -> tuple[Case, ...]:
    """Photos of 1 to 12 blocks; every block count occurs equally often in
    120 photos, in an order the seed shuffles, so that a seed changes which
    photo is how large but not the mix the median latency is taken over."""
    rng = random.Random(f"signs:{seed}")
    sizes = [1 + i % 12 for i in range(n_docs)]
    rng.shuffle(sizes)
    return tuple(_sign_case(rng, sizes[i], poster=i % 30 == 7) for i in range(n_docs))


# --------------------------------------------------------------------------
# dense_pages: large multi-column pages, geometric-only


def _dense_case(rng: random.Random, n_blocks: int) -> Case:
    # Three columns on every page: how much work a matcher can prune depends on
    # the column count, so a seed must not change it.
    n_cols = 3
    per_col = math.ceil(n_blocks / n_cols)
    # fixed line-count mix: 30% one line, 30% two, 40% three
    sizes = [1] * (n_blocks * 3 // 10) + [2] * (n_blocks * 3 // 10)
    sizes += [3] * (n_blocks - len(sizes))
    rng.shuffle(sizes)
    multi = [b for b, k in enumerate(sizes) if k > 1]
    split = set(rng.sample(multi, n_blocks // 10))  # 10% of blocks predicted in two parts

    # blocks 8 px apart: jittered boxes (at most 5 px out) never touch a neighbour
    cw, h, pitch, gap, col_w = 7.0, 14.0, 21.0, 8.0, 260.0
    gt_lines, pred_lines, gt_blocks, block_lines = [], [], [], []
    y_col = [20.0] * n_cols
    for b, k in enumerate(sizes):
        c = b // per_col
        ids = []
        for j in range(k):
            t = _sentence_line(rng, rng.randint(10, 28))[:30]
            x0, y0 = 20 + c * col_w, y_col[c]
            x1, y1 = x0 + len(t) * cw, y0 + h
            lid = len(gt_lines)
            gt_lines.append({"id": lid, "vertices": _rect(x0, y0, x1, y1), "text": t})
            dx, dy = rng.uniform(-3, 3), rng.uniform(-3, 3)
            sx, sy = rng.uniform(-2, 2), rng.uniform(-2, 2)
            pred_lines.append(
                {"id": lid, "vertices": _rect(round(x0 + dx, 2), round(y0 + dy, 2), round(x1 + dx + sx, 2), round(y1 + dy + sy, 2)), "text": t}
            )
            ids.append(lid)
            y_col[c] += pitch
        y_col[c] += h - pitch + gap
        block_lines.append(ids)
        gt_blocks.append({"line_ids": ids, "text": " ".join(gt_lines[i]["text"] for i in ids)})

    pred_blocks, expected, pairs = [], [], []
    for g, ids in enumerate(block_lines):
        cut = rng.randint(1, len(ids) - 1) if g in split else len(ids)
        for part in (ids[:cut], ids[cut:]):
            if not part:
                continue
            pred_blocks.append({"line_ids": part})
            text = " ".join(gt_lines[i]["text"] for i in part)
            expected.append((text, SINGLE if len(part) == 1 else GEO_ONLY))
            pairs.append((g, 0))
    width = int(20 + n_cols * col_w)
    height = int(max(y_col) + 20)
    return Case(
        pred_json=_doc_json(width, height, pred_lines, pred_blocks),
        gt_json=_doc_json(width, height, gt_lines, gt_blocks),
        expected_blocks=tuple(expected),
        expected_pairs=tuple(pairs),
        gt_texts=tuple(b["text"] for b in gt_blocks),
        lines=len(gt_lines),
    )


def dense_cases(seed: int, n_docs: int = 10, n_blocks: int = 300) -> tuple[Case, ...]:
    rng = random.Random(f"dense_pages:{seed}")
    return tuple(_dense_case(rng, n_blocks) for _ in range(n_docs))


# --------------------------------------------------------------------------
# paragraph_fragments: paragraph ground truth, corrupted 1-2 line fragments

_CONFUSABLE = {"o": "0", "O": "0", "l": "1", "i": "l", "e": "c", "a": "o", "s": "5", "t": "f", "u": "v", "n": "m"}


def _corrupt(rng: random.Random, text: str, rate: float) -> tuple[str, int]:
    """Recognizer-style noise; returns the text and the number of edits made."""
    out = []
    edits = 0
    for ch in text:
        r = rng.random()
        if r >= rate:
            out.append(ch)
            continue
        edits += 1
        op = rng.random()
        if op < 0.6:
            out.append(_CONFUSABLE.get(ch, "x" if ch != "x" else "y"))
        elif op < 0.8:
            pass  # dropped character
        else:
            out.append(ch)
            out.append(rng.choice("il.,'"))
    if not out:
        return text, 0
    return "".join(out), edits


# Every paragraph line has exactly this many characters, so a document's
# fuzzy-search work depends on its fixed line-count mix and not on the seed.
_PARAGRAPH_LINE = 85


def _paragraph_case(rng: random.Random, sizes: tuple[int, ...]) -> Case:
    sizes = list(sizes)
    rng.shuffle(sizes)
    n_paragraphs = len(sizes)
    cw, h, pitch, para_gap, col_w = 8.0, 16.0, 24.0, 30.0, 840.0
    n_cols = 2
    per_col = math.ceil(n_paragraphs / n_cols)
    gt_lines, pred_lines, gt_blocks, pred_blocks, expected, pairs = [], [], [], [], [], []
    y_col = [20.0] * n_cols
    for g, k in enumerate(sizes):
        c = g // per_col
        ids, texts = [], []
        for _ in range(k):
            t = _sentence_line(rng, _PARAGRAPH_LINE)[: _PARAGRAPH_LINE - 1] + "s"
            x0, y0 = 20 + c * col_w, y_col[c]
            ids.append(len(gt_lines))
            texts.append(t)
            gt_lines.append({"id": len(gt_lines), "vertices": _rect(x0, y0, x0 + len(t) * cw, y0 + h), "text": t})
            y_col[c] += pitch
        y_col[c] += para_gap
        gt_blocks.append({"line_ids": ids, "text": " ".join(texts)})
        j, step = 0, 1
        while j < k:
            part = list(range(j, min(k, j + step)))
            j += len(part)
            step = 3 - step  # alternate 1- and 2-line fragments
            rate = rng.uniform(0.0, 0.15)
            noisy, edits = [], 0
            for i in part:
                t, n = _corrupt(rng, texts[i], rate)
                pred_lines.append(dict(gt_lines[ids[i]], text=t))
                noisy.append(t)
                edits += n
            got = " ".join(noisy)
            source = " ".join(texts[i] for i in part)
            pred_blocks.append({"line_ids": [ids[i] for i in part]})
            expected.append((got, SINGLE if len(part) == 1 else GEO_ONLY))
            pairs.append((g, edit_distance(got, source, edits)))
    width = int(20 + n_cols * col_w)
    height = int(max(y_col) + 20)
    return Case(
        pred_json=_doc_json(width, height, pred_lines, pred_blocks),
        gt_json=_doc_json(width, height, gt_lines, gt_blocks),
        expected_blocks=tuple(expected),
        expected_pairs=tuple(pairs),
        gt_texts=tuple(b["text"] for b in gt_blocks),
        lines=len(gt_lines),
    )


def paragraph_cases(
    seed: int, n_docs: int = 12, sizes: tuple[int, ...] = (3, 5, 7, 8, 10, 12)
) -> tuple[Case, ...]:
    """Pages of paragraphs with ``sizes`` lines; every page has the same mix."""
    rng = random.Random(f"paragraph_fragments:{seed}")
    return tuple(_paragraph_case(rng, sizes) for _ in range(n_docs))


# --------------------------------------------------------------------------
# benchmark-side backends


class FlakyBackend:
    """Wraps a backend with a per-send delay and transient failures.

    ``begin`` names the current document's keys that fail once and those
    that fail on every attempt; a document is processed by one ``run`` at a
    time, so per-document state is exact.
    """

    def __init__(self, inner, delay_s: float = 0.0):
        self._inner = inner
        self._delay_s = delay_s
        self._flaky: frozenset[str] = frozenset()
        self._down: frozenset[str] = frozenset()
        self._failed: set[str] = set()
        self._lock = threading.Lock()

    def begin(self, case: Case) -> None:
        self._flaky, self._down = case.flaky_keys, case.down_keys
        self._failed = set()

    def send(self, prompt, config, key):
        if self._delay_s:
            time.sleep(self._delay_s)  # a provider round trip
        if key in self._down:
            raise LlmTransientError(f"{key}: provider unavailable")
        if key in self._flaky:
            with self._lock:
                first = key not in self._failed
                self._failed.add(key)
            if first:
                raise LlmTransientError(f"{key}: connection reset")
        return self._inner.send(prompt, config, key)


# --------------------------------------------------------------------------
# the workloads

# Per-send sleep of slow_provider: 20x the ~0.5 ms a signs block costs
# through parse, recognize, run and serialize on a 2-vCPU x86_64 VM
# (order_blocks_per_s of about 2000).  The order half is timed unscaled
# (see run.py), so the longer the sleep, the less the machine's speed and
# its wake-up latency after a sleep show in it.
SLOW_SEND_S = 0.010


def build(name: str, seed: int) -> Workload:
    if name in ("signs", "slow_provider"):
        cases = signs_cases(seed)
        delay = SLOW_SEND_S if name == "slow_provider" else 0.0
        return Workload(name, cases, cases[0], True, delay, trace_docs=len(cases) * (1 if delay else 4))
    if name == "dense_pages":
        warmup = dense_cases(-seed - 1, n_docs=1, n_blocks=50)[0]
        return Workload(name, dense_cases(seed), warmup, False, 0.0, trace_docs=3)
    if name == "paragraph_fragments":
        warmup = paragraph_cases(-seed - 1, n_docs=1, sizes=(3, 4))[0]
        return Workload(name, paragraph_cases(seed), warmup, False, 0.0, trace_docs=6)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("signs", "dense_pages", "paragraph_fragments", "slow_provider")
