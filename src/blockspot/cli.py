"""Command-line entry point.

Subcommands::

    blockspot order   input.json --backend KIND --out out.json
    blockspot eval    pred.json gt.json [--out report.json]
    blockspot fuzzy   QUERY CORPUS_OR_FILE
    blockspot prompt  input.json BLOCK_INDEX

Backend kinds: ``http``, ``scripted:replies.json``, ``replay:transcript.jsonl``
and ``geometric-only`` (no LLM; every block uses the position order).

Settings merge as flags > environment > config file > defaults.  The only
environment setting is the API key (``BLOCKSPOT_API_KEY``); ``--config``
(``order`` and ``eval`` only) names a JSON file whose keys mirror the flag
names and whose values must have the setting's type.  The LLM settings,
their defaults and their range checks are :class:`LlmConfig`'s; both
commands build one, so both reject the same file.  Every report embeds the
effective configuration so runs can be reproduced.

Every file argument may be a pipe such as ``<(...)``.  Exit codes: 0
success, 2 unreadable or invalid input (including an output path that
cannot be written, and ``order --outcomes`` naming the ``--out`` file) and
a block that violated an ordering invariant (``PipelineError``), 3 backend
configuration errors (also a bad endpoint or key, a config, scripted
replies or replay file that ``model.read_json`` cannot read or decode, a
missing one included, and a replay transcript with no entries) and refused
requests (a missing or rejected API key, an HTTP status other than 200 and
the retried ones): ``main`` maps every ``LlmError`` that reaches it to 3.
``HttpBackend`` refuses a missing key before its first request, so a run
with no block to send needs none.  A run that fails leaves no output file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import get_type_hints

from .evaluation import evaluate, render_table, report_to_json
from .fuzzy import best_fuzzy_substring
from .llm import (
    HttpBackend,
    LlmBackend,
    LlmConfig,
    LlmError,
    ReplayBackend,
    ScriptedBackend,
)
from .model import DocumentError, DocumentKind, load_document, read_json, serialize_document
from .pipeline import PipelineError, build_block_prompt, run

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BACKEND = 3


class BackendConfigError(Exception):
    pass


class InputError(Exception):
    """A file named on the command line cannot be read or written."""


def _write(path: Path, data: bytes) -> None:
    try:
        path.write_bytes(data)
    except OSError as e:
        raise InputError(f"cannot write output: {e}") from e


def _check_writable(path: Path) -> None:
    try:
        if path.is_dir():
            raise InputError(f"cannot write output {path}: it is a directory")
        if not path.parent.is_dir():
            raise InputError(f"cannot write output {path}: no directory {path.parent}")
    except OSError as e:  # such as a name too long for the file system
        raise InputError(f"cannot write output: {e}") from e


# The LlmConfig fields that a flag or a config key may set, in echo order.
_LLM_SETTINGS = (
    "model", "temperature", "max_context_tokens", "max_output_tokens",
    "request_timeout", "max_retries", "endpoint_url",
)


class Settings(SimpleNamespace):
    """Effective run settings after flag/env/file merging; mutable, and
    ``==`` and ``repr`` cover every field."""

    backend: str
    min_iou: float
    llm: LlmConfig

    def __init__(self, backend: str = "geometric-only", min_iou: float = 0.0, llm: LlmConfig | None = None):
        super().__init__(backend=backend, min_iou=min_iou, llm=LlmConfig() if llm is None else llm)

    def echo(self) -> dict:
        """Reproducibility record; never includes the API key."""
        llm = {key: getattr(self.llm, key) for key in _LLM_SETTINGS}
        return {"backend": self.backend, **llm, "min_iou": self.min_iou}


# Exact JSON value types a config file may give for each setting's type.
_CONFIG_TYPES = {str: {str}, int: {int}, float: {int, float}}


def _merge_settings(args: argparse.Namespace) -> Settings:
    hints = {**get_type_hints(Settings), **get_type_hints(LlmConfig)}
    types = {key: hints[key] for key in ("backend", "min_iou", *_LLM_SETTINGS)}
    values = {}
    config_path = getattr(args, "config", None)
    if config_path:
        data = read_json(config_path, BackendConfigError, "config file")
        if not isinstance(data, dict):
            raise BackendConfigError(f"{config_path}: config file must hold a JSON object")
        for key, value in data.items():
            if key not in types:
                raise BackendConfigError(f"unknown config key {key!r}")
            expected = types[key]
            try:
                if type(value) not in _CONFIG_TYPES[expected]:
                    raise TypeError
                values[key] = expected(value)  # float() overflows on a huge int
            except (TypeError, OverflowError):
                raise BackendConfigError(
                    f"config key {key!r} must be {expected.__name__}, got {json.dumps(value)}"
                ) from None
    for key in types:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            values[key] = flag_value
    llm = {key: values.pop(key) for key in _LLM_SETTINGS if key in values}
    settings = Settings(**values)
    if not 0.0 <= settings.min_iou < 1.0:  # a pair needs IoU > min_iou; NaN fails too
        raise BackendConfigError(f"min_iou must be in [0, 1), got {settings.min_iou}")
    try:
        settings.llm = LlmConfig(**llm)  # api_key defaults from BLOCKSPOT_API_KEY
    except ValueError as e:
        raise BackendConfigError(str(e)) from e
    return settings


def _make_backend(settings: Settings) -> LlmBackend | None:
    kind, colon, arg = settings.backend.partition(":")
    if kind in ("geometric-only", "http") and colon:
        raise BackendConfigError(f"{kind} backend takes no argument, got {settings.backend!r}")
    if kind == "geometric-only":
        return None
    if kind == "http":
        return HttpBackend()
    if kind in ("scripted", "replay") and not arg:
        raise BackendConfigError(f"{kind} backend needs a path: {kind}:FILE")
    if kind == "scripted":
        return ScriptedBackend.from_json(arg)
    if kind == "replay":
        backend = ReplayBackend(arg)
        if not backend.entries:  # a recording that sent nothing writes no file at all
            raise BackendConfigError(f"replay transcript holds no entries: {arg}")
        return backend
    raise BackendConfigError(f"unknown backend kind {settings.backend!r}")


def cmd_order(args: argparse.Namespace) -> int:
    settings = _merge_settings(args)
    backend = _make_backend(settings)
    doc = load_document(args.input, DocumentKind.PREDICTION)
    out_path = Path(args.out)
    _check_writable(out_path)  # before with_suffix, which fails on "." and "/"
    outcomes_path = Path(args.outcomes) if args.outcomes else out_path.with_suffix(
        ".outcomes.json"
    )
    _check_writable(outcomes_path)
    if os.path.realpath(outcomes_path) == os.path.realpath(out_path):
        raise InputError(f"--outcomes {outcomes_path} is the --out file {out_path}")

    out_doc, outcomes = run(doc, backend, settings.llm)

    payload = {
        "config": settings.echo(),
        "outcomes": [
            {
                "block": o.block_ref,
                "strategy": o.strategy.value,
                "text": o.block_text,
                "expected_len": o.expected_len,
                "llm_len": o.llm_len,
            }
            for o in outcomes
        ],
    }
    # encoded before --out is written; backslashreplace writes a lone surrogate
    # in a setting (such as argv bytes that are not UTF-8) as its JSON escape
    outcomes_data = json.dumps(payload, ensure_ascii=False, indent=2).encode("utf-8", "backslashreplace")
    _write(out_path, serialize_document(out_doc) + b"\n")
    try:
        _write(outcomes_path, outcomes_data + b"\n")
    except InputError:
        out_path.unlink()
        raise
    strategies = [o.strategy.value for o in outcomes]
    print(f"ordered {len(outcomes)} blocks -> {out_path}")
    for name in sorted(set(strategies)):
        print(f"  {name}: {strategies.count(name)}")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    settings = _merge_settings(args)
    pred = load_document(args.pred, DocumentKind.PREDICTION)
    gt = load_document(args.gt, DocumentKind.GROUND_TRUTH)
    try:
        report = evaluate(pred, gt, min_iou=settings.min_iou)
    except ValueError as e:
        raise InputError(str(e)) from e
    if args.out:
        _write(Path(args.out), (report_to_json(report) + "\n").encode())
    print(render_table(report))
    return EXIT_OK


def _read_corpus(arg: str) -> str:
    """The text of the file ``arg`` names, or ``arg`` itself if it names none."""
    path = Path(arg)
    try:
        if not path.exists() or path.is_dir():  # a pipe such as <(...) is no regular file
            return arg
    except OSError:  # cannot be a path, e.g. too long for a file name
        return arg
    try:
        corpus = path.read_text("utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise InputError(f"cannot read corpus file {arg}: {e}") from e
    return corpus[:-1] if corpus.endswith("\n") else corpus


def cmd_fuzzy(args: argparse.Namespace) -> int:
    match = best_fuzzy_substring(args.query, _read_corpus(args.corpus))
    print(json.dumps(match._asdict(), ensure_ascii=False))
    return EXIT_OK


def cmd_prompt(args: argparse.Namespace) -> int:
    doc = load_document(args.input, DocumentKind.PREDICTION)
    if not 0 <= args.block_index < len(doc.blocks):
        raise InputError(
            f"block index {args.block_index} out of range "
            f"(document has {len(doc.blocks)} blocks)"
        )
    prompt = build_block_prompt(doc, doc.blocks[args.block_index])
    sys.stdout.write(f"[system]\n{prompt.system}\n[user]\n{prompt.user}\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockspot",
        description="Order detected text lines into block text and evaluate the result.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    order = sub.add_parser("order", help="order every block's lines and emit block texts")
    order.add_argument("input", help="recognized prediction document (JSON)")
    order.add_argument("--backend", help="http | scripted:FILE | replay:FILE | geometric-only")
    order.add_argument("--model")
    order.add_argument("--max-context-tokens", dest="max_context_tokens", type=int)
    order.add_argument("--max-output-tokens", dest="max_output_tokens", type=int)
    order.add_argument("--out", required=True, help="output document path")
    order.add_argument("--outcomes", help="outcomes path (default: <out>.outcomes.json)")
    order.add_argument("--config", help="JSON config file (lowest precedence)")
    order.set_defaults(func=cmd_order)

    ev = sub.add_parser("eval", help="compare a prediction against ground truth")
    ev.add_argument("pred")
    ev.add_argument("gt")
    ev.add_argument("--min-iou", dest="min_iou", type=float)
    ev.add_argument("--out", help="write the full report as JSON")
    ev.add_argument("--config", help="JSON config file (lowest precedence)")
    ev.set_defaults(func=cmd_eval)

    fz = sub.add_parser("fuzzy", help="best fuzzy substring match of QUERY in a corpus")
    fz.add_argument("query")
    fz.add_argument("corpus", help="corpus text, or a file to read it from")
    fz.set_defaults(func=cmd_fuzzy)

    pr = sub.add_parser("prompt", help="print the prompt a block would produce")
    pr.add_argument("input")
    pr.add_argument("block_index", type=int)
    pr.set_defaults(func=cmd_prompt)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DocumentError, InputError, PipelineError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except (BackendConfigError, LlmError) as e:  # a refusal, or a backend file that cannot be loaded
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BACKEND


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
