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
names and whose values must have the setting's type.  Every report embeds
the effective configuration so runs can be reproduced.

Exit codes: 0 success, 2 unreadable or invalid input (including an output
path that cannot be written, and ``order --outcomes`` naming the ``--out``
file) and a block that violated an ordering invariant (``PipelineError``),
3 backend configuration errors (also a bad endpoint or key) and refused
requests (rejected credentials, an HTTP status other than 200 and the
retried ones).  A run that fails leaves no output file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import get_type_hints

from .evaluation import evaluate, render_table, report_to_json
from .fuzzy import best_fuzzy_substring
from .llm import (
    HttpBackend,
    LlmBackend,
    LlmConfig,
    LlmRefusedError,
    LlmRequestError,
    ReplayBackend,
    ScriptedBackend,
)
from .model import DocumentError, DocumentKind, load_document, serialize_document
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
    if path.is_dir():
        raise InputError(f"cannot write output {path}: it is a directory")
    if not path.parent.is_dir():
        raise InputError(f"cannot write output {path}: no directory {path.parent}")


@dataclass
class Settings:
    """Effective run settings after flag/env/file merging."""

    backend: str = "geometric-only"
    model: str = "gpt-3.5-turbo"
    temperature: float = 0.0
    max_context_tokens: int = 4096
    max_output_tokens: int = 512
    request_timeout: float = 30.0
    max_retries: int = 3
    endpoint_url: str = ""
    min_iou: float = 0.0

    def echo(self) -> dict:
        """Reproducibility record; never includes the API key."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


# JSON value types a config file may give for each Settings field type;
# bool is excluded separately because it is an int subclass.
_CONFIG_TYPES = {str: (str,), int: (int,), float: (int, float)}


def _merge_settings(args: argparse.Namespace) -> Settings:
    settings = Settings()
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            data = json.loads(Path(config_path).read_text("utf-8"))
        except OSError as e:
            raise BackendConfigError(f"cannot read config file: {e}") from e
        except ValueError as e:
            raise BackendConfigError(f"config file is not valid JSON: {e}") from e
        if not isinstance(data, dict):
            raise BackendConfigError("config file must hold a JSON object")
        types = get_type_hints(Settings)
        for key, value in data.items():
            if key not in types:
                raise BackendConfigError(f"unknown config key {key!r}")
            expected = types[key]
            if isinstance(value, bool) or not isinstance(value, _CONFIG_TYPES[expected]):
                raise BackendConfigError(
                    f"config key {key!r} must be {expected.__name__}, got {json.dumps(value)}"
                )
            setattr(settings, key, expected(value))
    for f in fields(Settings):
        flag_value = getattr(args, f.name, None)
        if flag_value is not None:
            setattr(settings, f.name, flag_value)
    if not math.isfinite(settings.min_iou):
        raise BackendConfigError(f"min_iou must be finite, got {settings.min_iou}")
    return settings


def _llm_config(settings: Settings) -> LlmConfig:
    kwargs = dict(
        model_name=settings.model,
        temperature=settings.temperature,
        max_context_tokens=settings.max_context_tokens,
        max_output_tokens=settings.max_output_tokens,
        request_timeout=settings.request_timeout,
        max_retries=settings.max_retries,
    )
    if settings.endpoint_url:
        kwargs["endpoint_url"] = settings.endpoint_url
    try:
        return LlmConfig(**kwargs)  # api_key defaults from BLOCKSPOT_API_KEY
    except ValueError as e:
        raise BackendConfigError(str(e)) from e


def _make_backend(settings: Settings, config: LlmConfig) -> LlmBackend | None:
    kind, _, arg = settings.backend.partition(":")
    if kind == "geometric-only":
        return None
    if kind == "http":
        if not config.api_key:
            raise BackendConfigError(
                "http backend needs an API key; set BLOCKSPOT_API_KEY"
            )
        return HttpBackend()
    if kind == "scripted":
        if not arg:
            raise BackendConfigError("scripted backend needs a path: scripted:replies.json")
        if not Path(arg).is_file():
            raise BackendConfigError(f"scripted replies file not found: {arg}")
        try:
            return ScriptedBackend.from_json(arg)
        except (LlmRequestError, ValueError) as e:
            raise BackendConfigError(str(e)) from e
    if kind == "replay":
        if not arg or not Path(arg).is_file():
            raise BackendConfigError(f"replay transcript not found: {arg or '(missing path)'}")
        try:
            return ReplayBackend(arg)
        except LlmRequestError as e:
            raise BackendConfigError(str(e)) from e
    raise BackendConfigError(f"unknown backend kind {settings.backend!r}")


def cmd_order(args: argparse.Namespace) -> int:
    settings = _merge_settings(args)
    config = _llm_config(settings)
    backend = _make_backend(settings, config)
    doc = load_document(args.input, DocumentKind.PREDICTION)
    out_path = Path(args.out)
    _check_writable(out_path)  # before with_suffix, which fails on "." and "/"
    outcomes_path = Path(args.outcomes) if args.outcomes else out_path.with_suffix(
        ".outcomes.json"
    )
    _check_writable(outcomes_path)
    if os.path.realpath(outcomes_path) == os.path.realpath(out_path):
        raise InputError(f"--outcomes {outcomes_path} is the --out file {out_path}")

    out_doc, outcomes = run(doc, backend, config)

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
    _write(out_path, serialize_document(out_doc) + b"\n")
    try:
        _write(outcomes_path, (json.dumps(payload, ensure_ascii=False, indent=2) + "\n").encode())
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
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    if args.out:
        _write(Path(args.out), (report_to_json(report) + "\n").encode())
    print(render_table(report))
    return EXIT_OK


def _read_corpus(arg: str) -> str:
    """The text of the file ``arg`` names, or ``arg`` itself if it names none."""
    path = Path(arg)
    try:
        if not path.is_file():
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
    print(
        json.dumps(
            {
                "substring": match.substring,
                "start": match.start,
                "end": match.end,
                "distance": match.distance,
            },
            ensure_ascii=False,
        )
    )
    return EXIT_OK


def cmd_prompt(args: argparse.Namespace) -> int:
    doc = load_document(args.input, DocumentKind.PREDICTION)
    if not 0 <= args.block_index < len(doc.blocks):
        print(
            f"error: block index {args.block_index} out of range "
            f"(document has {len(doc.blocks)} blocks)",
            file=sys.stderr,
        )
        return EXIT_INPUT
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
    except (BackendConfigError, LlmRefusedError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BACKEND


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
