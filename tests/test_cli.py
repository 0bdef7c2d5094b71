"""CLI tests: subcommands, exit codes, config precedence, determinism."""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import HOSTILE_DOCUMENTS, StubHandler, ok_reply, sign_doc, sign_gt, synthetic_gt

import blockspot
from blockspot import cli, pipeline
from blockspot.cli import main
from blockspot.llm import DEFAULT_ENDPOINT, prompt_fingerprint
from blockspot.model import save_document
from blockspot.pipeline import build_block_prompt


@pytest.fixture
def sign_fixture(tmp_path):
    doc_path = tmp_path / "sign.json"
    save_document(sign_doc(), doc_path)
    replies = tmp_path / "replies.json"
    replies.write_text(json.dumps({"block-0": "20 REASONS TO LOVE CYCLING"}))
    return doc_path, replies


class TestOrder:
    def test_scripted_backend_yields_llm_text(self, tmp_path, sign_fixture, capsys):
        doc_path, replies = sign_fixture
        out = tmp_path / "ordered.json"
        code = main(
            ["order", str(doc_path), "--backend", f"scripted:{replies}", "--out", str(out)]
        )
        assert code == 0
        result = json.loads(out.read_text())
        assert result["blocks"][0]["text"] == "20 REASONS TO LOVE CYCLING"
        outcomes = json.loads(out.with_suffix(".outcomes.json").read_text())
        assert outcomes["outcomes"][0]["strategy"] == "llm"
        assert outcomes["config"]["backend"].startswith("scripted:")
        assert "llm: 1" in capsys.readouterr().out

    def test_geometric_only_reads_by_position(self, tmp_path, sign_fixture):
        doc_path, _ = sign_fixture
        out = tmp_path / "geo.json"
        code = main(["order", str(doc_path), "--backend", "geometric-only", "--out", str(out)])
        assert code == 0
        result = json.loads(out.read_text())
        assert result["blocks"][0]["text"] == "TO LOVE CYCLING 20 REASONS"

    def test_missing_input_exits_2_and_names_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        code = main(["order", str(missing), "--backend", "geometric-only", "--out", str(tmp_path / "o.json")])
        assert code == 2
        assert str(missing) in capsys.readouterr().err

    def test_unknown_backend_exits_3(self, tmp_path, sign_fixture):
        doc_path, _ = sign_fixture
        code = main(["order", str(doc_path), "--backend", "quantum", "--out", str(tmp_path / "o.json")])
        assert code == 3

    def test_missing_scripted_file_exits_3(self, tmp_path, sign_fixture, capsys):
        doc_path, _ = sign_fixture
        for kind, what in (("scripted", "scripted replies"), ("replay", "transcript")):
            code = main(
                ["order", str(doc_path), "--backend", f"{kind}:/does/not/exist.json", "--out", str(tmp_path / "o.json")]
            )
            assert code == 3
            assert capsys.readouterr().err.startswith(f"error: /does/not/exist.json: cannot read {what}: [Errno 2] ")

    @pytest.mark.parametrize("content", [b"\xff\xfe{}", b"{not json"], ids=["undecodable", "not-json"])
    def test_unreadable_scripted_file_exits_3_and_names_path(
        self, tmp_path, sign_fixture, capsys, content
    ):
        doc_path, _ = sign_fixture
        bad = tmp_path / "bad.bin"
        bad.write_bytes(content)
        out = tmp_path / "o.json"
        code = main(["order", str(doc_path), "--backend", f"scripted:{bad}", "--out", str(out)])
        assert code == 3
        assert str(bad) in capsys.readouterr().err
        assert not out.exists()

    def test_http_without_key_exits_3(self, tmp_path, sign_fixture, monkeypatch):
        monkeypatch.delenv("BLOCKSPOT_API_KEY", raising=False)
        doc_path, _ = sign_fixture
        code = main(["order", str(doc_path), "--backend", "http", "--out", str(tmp_path / "o.json")])
        assert code == 3

    def test_rejected_credentials_exit_3_without_output(
        self, tmp_path, sign_fixture, stub_server, monkeypatch, capsys
    ):
        monkeypatch.setenv("BLOCKSPOT_API_KEY", "revoked-key")
        StubHandler.script = [(401, {"error": "invalid api key"})]
        doc_path, _ = sign_fixture
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"endpoint_url": stub_server}))
        out = tmp_path / "out" / "o.json"
        out.parent.mkdir()
        argv = ["order", str(doc_path), "--backend", "http", "--config", str(config), "--out", str(out)]
        assert main(argv) == 3
        assert capsys.readouterr().err == "error: authentication rejected (HTTP 401)\n"
        assert len(StubHandler.requests_seen) == 1
        assert list(out.parent.iterdir()) == []

    def test_refused_request_exits_3_without_output(
        self, tmp_path, sign_fixture, stub_server, monkeypatch, capsys
    ):
        monkeypatch.setenv("BLOCKSPOT_API_KEY", "test-key")
        StubHandler.script = [(404, {"error": "model not found"})]
        doc_path, _ = sign_fixture
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"endpoint_url": stub_server, "model": "no-such-model"}))
        out = tmp_path / "out" / "o.json"
        out.parent.mkdir()
        argv = ["order", str(doc_path), "--backend", "http", "--config", str(config), "--out", str(out)]
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith("error: request refused (HTTP 404)")
        assert len(StubHandler.requests_seen) == 1
        assert list(out.parent.iterdir()) == []

    def test_lone_surrogate_reply_falls_back(
        self, tmp_path, sign_fixture, stub_server, monkeypatch, capsys
    ):
        monkeypatch.setenv("BLOCKSPOT_API_KEY", "test-key")
        # the stub escapes it as JSON "\\ud83d", which decodes to a lone surrogate
        StubHandler.script = [(200, ok_reply("20 REASONS \ud83d TO LOVE CYCLING"))]
        doc_path, _ = sign_fixture
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"endpoint_url": stub_server}))
        out = tmp_path / "o.json"
        argv = ["order", str(doc_path), "--backend", "http", "--config", str(config), "--out", str(out)]
        assert main(argv) == 0
        assert len(StubHandler.requests_seen) == 1
        result = json.loads(out.read_bytes().decode("utf-8"))
        assert result["blocks"][0]["text"] == "TO LOVE CYCLING 20 REASONS"
        outcomes = json.loads(out.with_suffix(".outcomes.json").read_bytes().decode("utf-8"))
        assert outcomes["outcomes"][0]["strategy"] == "geometric_fallback_error"

    def test_lone_surrogate_setting_is_echoed_as_its_escape(self, tmp_path, sign_fixture):
        # argv bytes that are not UTF-8 arrive as lone surrogates; so can a config string
        doc_path, _ = sign_fixture
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"model": "\ud800"}))
        out = tmp_path / "o.json"
        assert main(["order", str(doc_path), "--config", str(config), "--out", str(out)]) == 0
        assert json.loads(out.read_bytes().decode("utf-8"))["blocks"][0]["text"] == "TO LOVE CYCLING 20 REASONS"
        outcomes = out.with_suffix(".outcomes.json").read_bytes()
        assert b'"model": "\\ud800"' in outcomes
        assert json.loads(outcomes.decode("utf-8"))["config"]["model"] == "\ud800"

    @pytest.mark.parametrize(
        ("key", "config_text"),
        [
            ("test-key", '{"endpoint_url": "not-a-url"}'),
            ("test-key", '{"endpoint_url": ""}'),
            ("sk-secret\n", '{"endpoint_url": "STUB"}'),
            ("sk-secret-\u043a\u043b\u044e\u0447", '{"endpoint_url": "STUB"}'),
            ("test-key", '{"endpoint_url": "STUB", "temperature": NaN}'),
            ("test-key", '{"endpoint_url": "STUB", "request_timeout": Infinity}'),
        ],
        ids=[
            "endpoint-not-a-url",
            "endpoint-empty",
            "key-with-newline",
            "non-latin-1-key",
            "nan-temperature",
            "infinite-timeout",
        ],
    )
    def test_bad_http_setting_exits_3_without_output(
        self, tmp_path, sign_fixture, stub_server, monkeypatch, capsys, key, config_text
    ):
        monkeypatch.setenv("BLOCKSPOT_API_KEY", key)
        doc_path, _ = sign_fixture
        config = tmp_path / "cfg.json"
        config.write_text(config_text.replace("STUB", stub_server))
        out = tmp_path / "out" / "o.json"
        out.parent.mkdir()
        argv = ["order", str(doc_path), "--backend", "http", "--config", str(config), "--out", str(out)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert "sk-secret" not in err
        assert StubHandler.requests_seen == []
        assert list(out.parent.iterdir()) == []

    @pytest.mark.parametrize("raw", list(HOSTILE_DOCUMENTS.values()), ids=list(HOSTILE_DOCUMENTS))
    def test_hostile_document_exits_2(self, tmp_path, capsys, raw):
        doc_path = tmp_path / "hostile.json"
        doc_path.write_text(raw)
        assert main(["order", str(doc_path), "--out", str(tmp_path / "o.json")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {doc_path}: ")
        assert not (tmp_path / "o.json").exists()

    def test_concurrency_flag_is_gone(self, tmp_path, sign_fixture, capsys):
        doc_path, _ = sign_fixture
        with pytest.raises(SystemExit) as exit_info:
            main(["order", str(doc_path), "--concurrency", "2", "--out", str(tmp_path / "o.json")])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --concurrency" in capsys.readouterr().err

    def test_empty_scripted_reply_falls_back(self, tmp_path, sign_fixture, capsys):
        doc_path, replies = sign_fixture
        replies.write_text(json.dumps({"block-0": ""}))
        out = tmp_path / "o.json"
        argv = ["order", str(doc_path), "--backend", f"scripted:{replies}", "--out", str(out)]
        assert main(argv) == 0
        assert json.loads(out.read_text())["blocks"][0]["text"] == "TO LOVE CYCLING 20 REASONS"
        outcomes = json.loads(out.with_suffix(".outcomes.json").read_text())
        assert outcomes["outcomes"][0]["strategy"] == "geometric_fallback_error"
        assert "geometric_fallback_error: 1" in capsys.readouterr().out

    def test_deterministic_across_runs(self, tmp_path, sign_fixture):
        doc_path, replies = sign_fixture
        payloads = set()
        for i in range(5):
            out = tmp_path / f"run{i}.json"
            assert main(
                ["order", str(doc_path), "--backend", f"scripted:{replies}", "--out", str(out)]
            ) == 0
            payloads.add(out.read_bytes())
            payloads.add(out.with_suffix(".outcomes.json").read_bytes())
        assert len(payloads) == 2  # one document payload + one outcomes payload


class TestEval:
    def test_self_evaluation(self, tmp_path, capsys):
        gt_path = tmp_path / "gt.json"
        save_document(synthetic_gt(20), gt_path)
        report_path = tmp_path / "report.json"
        code = main(["eval", str(gt_path), str(gt_path), "--out", str(report_path)])
        assert code == 0
        table = capsys.readouterr().out
        assert "Jaro-Winkler Similarity" in table
        report = json.loads(report_path.read_text())
        assert report["mean_normalized_levenshtein"] == pytest.approx(0.0)
        assert report["mean_jaro_winkler"] == pytest.approx(1.0)
        assert report["mean_ratcliff_obershelp"] == pytest.approx(1.0)

    def test_disjoint_documents_note_zero_pairs(self, tmp_path, capsys):
        from blockspot.model import Block, Document

        from conftest import make_line

        pred_path = tmp_path / "pred.json"
        gt_path = tmp_path / "gt.json"
        pred = Document(
            image_width=1000,
            image_height=1000,
            lines=(make_line(0, 800, 800, 950, 830, "far away"),),
            blocks=(Block(line_ids=(0,), text="far away"),),
        )
        gt = Document(
            image_width=1000,
            image_height=1000,
            lines=(make_line(0, 10, 10, 150, 40, "near origin"),),
            blocks=(Block(line_ids=(0,), text="near origin"),),
            is_ground_truth=True,
        )
        save_document(pred, pred_path)
        save_document(gt, gt_path)
        code = main(["eval", str(pred_path), str(gt_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "matched pairs: 0" in out
        assert "n/a" in out

    def test_corrupt_gt_exits_2(self, tmp_path, capsys):
        pred_path = tmp_path / "pred.json"
        save_document(sign_gt(), pred_path)
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["eval", str(pred_path), str(bad)]) == 2

    def test_untexted_prediction_exits_2(self, tmp_path, sign_fixture, capsys):
        doc_path, _ = sign_fixture  # its one block has no text
        gt_path = tmp_path / "gt.json"
        save_document(sign_gt(), gt_path)
        assert main(["eval", str(doc_path), str(gt_path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: prediction block 0 has no text\n"

    def test_min_iou_flag_respected(self, tmp_path, capsys):
        gt_path = tmp_path / "gt.json"
        save_document(synthetic_gt(3), gt_path)
        assert main(["eval", str(gt_path), str(gt_path), "--min-iou", "0.99"]) == 0
        assert "matched pairs: 3" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_min_iou_flag_exits_3(self, tmp_path, capsys, value):
        # best_iou > nan never holds, so a NaN cut would match nothing and exit 0
        gt_path = tmp_path / "gt.json"
        save_document(sign_gt(), gt_path)
        report_path = tmp_path / "report.json"
        argv = ["eval", str(gt_path), str(gt_path), f"--min-iou={value}", "--out", str(report_path)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "min_iou" in err
        assert not report_path.exists()

    @pytest.mark.parametrize("value", ["-0.1", "1", "2"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_min_iou_outside_unit_interval_exits_3(self, tmp_path, capsys, source, value):
        # a pair needs IoU > min_iou, so from 1 up nothing could match
        gt_path = tmp_path / "gt.json"
        save_document(synthetic_gt(3), gt_path)
        report_path = tmp_path / "report.json"
        argv = ["eval", str(gt_path), str(gt_path), "--out", str(report_path)]
        if source == "flag":
            argv.append(f"--min-iou={value}")
        else:
            (tmp_path / "cfg.json").write_text(f'{{"min_iou": {value}}}')
            argv += ["--config", str(tmp_path / "cfg.json")]
        assert main(argv) == 3
        assert capsys.readouterr().err == f"error: min_iou must be in [0, 1), got {float(value)}\n"
        assert not report_path.exists()

    def test_min_iou_config_respected(self, tmp_path, capsys):
        gt_path = tmp_path / "gt.json"
        save_document(synthetic_gt(3), gt_path)
        (tmp_path / "cfg.json").write_text('{"min_iou": 0.99}')
        assert main(["eval", str(gt_path), str(gt_path), "--config", str(tmp_path / "cfg.json")]) == 0
        assert "matched pairs: 3" in capsys.readouterr().out

    @pytest.mark.parametrize("config_text", ['{"min_iou": NaN}', '{"min_iou": Infinity}'])
    def test_non_finite_min_iou_config_exits_3(self, tmp_path, capsys, config_text):
        gt_path = tmp_path / "gt.json"
        save_document(sign_gt(), gt_path)
        config = tmp_path / "cfg.json"
        config.write_text(config_text)
        report_path = tmp_path / "report.json"
        argv = ["eval", str(gt_path), str(gt_path), "--config", str(config), "--out", str(report_path)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "min_iou" in err
        assert not report_path.exists()


class TestFuzzy:
    def test_two_stage_match(self, capsys):
        code = main(["fuzzy", "CYCLNG", "20 REASONS TO LOVE CYCLING"])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result == {"substring": "CYCLING", "start": 19, "end": 26, "distance": 1}

    def test_empty_query(self, capsys):
        assert main(["fuzzy", "", "anything"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["distance"] == 0
        assert result["substring"] == ""

    def test_corpus_from_file(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("20 REASONS TO LOVE CYCLING\n")
        assert main(["fuzzy", "REASONS", str(corpus)]) == 0
        assert json.loads(capsys.readouterr().out)["substring"] == "REASONS"


class TestBadPaths:
    @pytest.mark.parametrize(
        ("argv", "code"),
        [
            (["fuzzy", "abc", "x" * 4997 + "abc"], 0),
            (["fuzzy", "abc", "{tmp}/corpus.bin"], 2),
            (["order", "{pred}", "--out", "{tmp}/missing_dir/x.json"], 2),
            (["order", "{pred}", "--out", "{tmp}/o.json", "--outcomes", "{tmp}/missing_dir/o.json"], 2),
            (["eval", "{gt}", "{gt}", "--out", "{tmp}/missing_dir/r.json"], 2),
        ],
        ids=["long-literal-corpus", "non-utf8-corpus", "order-out", "order-outcomes", "eval-out"],
    )
    def test_no_traceback(self, tmp_path, sign_fixture, capsys, argv, code):
        pred_path, _ = sign_fixture
        gt_path = tmp_path / "gt.json"
        save_document(synthetic_gt(3), gt_path)
        (tmp_path / "corpus.bin").write_bytes(b"abc \xff\xfe\x80")
        argv = [a.format(tmp=tmp_path, pred=pred_path, gt=gt_path) for a in argv]
        assert main(argv) == code
        captured = capsys.readouterr()
        if code == 0:
            assert json.loads(captured.out)["distance"] == 0
        else:
            assert captured.err.startswith("error: ")
            assert not (tmp_path / "missing_dir").exists()

    @pytest.mark.parametrize(
        "outcomes", ["{tmp}/missing_dir/o.json", "{tmp}"], ids=["no-parent", "is-a-directory"]
    )
    def test_failed_outcomes_write_leaves_no_output(self, tmp_path, sign_fixture, capsys, outcomes):
        pred_path, _ = sign_fixture
        out = tmp_path / "o.json"
        argv = ["order", str(pred_path), "--out", str(out), "--outcomes", outcomes.format(tmp=tmp_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("out", [".", "/", "{tmp}"], ids=["dot", "root", "directory"])
    def test_out_without_a_file_name_exits_2(
        self, tmp_path, sign_fixture, capsys, monkeypatch, out
    ):
        pred_path, _ = sign_fixture
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.iterdir())
        assert main(["order", str(pred_path), "--out", out.format(tmp=tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize(
        "outcomes", ["o.json", "./o.json", "{tmp}/o.json", "link.json"],
        ids=["same", "dot-slash", "absolute", "symlink"],
    )
    def test_outcomes_at_out_path_exits_2(self, tmp_path, sign_fixture, capsys, monkeypatch, outcomes):
        pred_path, _ = sign_fixture
        monkeypatch.chdir(tmp_path)
        (tmp_path / "link.json").symlink_to(tmp_path / "o.json")

        def refuse(*args, **kwargs):
            raise AssertionError("ordered before the paths were checked")

        monkeypatch.setattr(cli, "run", refuse)
        before = sorted(tmp_path.iterdir())
        argv = ["order", str(pred_path), "--out", "o.json", "--outcomes", outcomes.format(tmp=tmp_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: --outcomes ")
        assert sorted(tmp_path.iterdir()) == before

    def test_pipeline_error_exits_2_without_output(self, tmp_path, sign_fixture, capsys, monkeypatch):
        pred_path, _ = sign_fixture

        def broken(*args, **kwargs):
            raise RuntimeError("invariant broken")

        monkeypatch.setattr(pipeline, "order_block", broken)
        out = tmp_path / "out" / "o.json"
        out.parent.mkdir()
        assert main(["order", str(pred_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: block 0: invariant broken")
        assert list(out.parent.iterdir()) == []


# bad contents for every JSON file that configures a run
BAD_JSON_FILES = {
    "deep-array": b"[" * 100_000,
    "deep-object": b'{"a":' * 100_000,
    "non-utf8": b'{"block-0": "\xe9"}',
    "wrong-type": b"[1]",
    "empty": b"",
}
# argv reading the file {bad}; each writes {out} when it succeeds
JSON_READERS = {
    "order-config": ["order", "{doc}", "--out", "{out}", "--config", "{bad}"],
    "eval-config": ["eval", "{doc}", "{doc}", "--out", "{out}", "--config", "{bad}"],
    "scripted": ["order", "{doc}", "--out", "{out}", "--backend", "scripted:{bad}"],
    "replay": ["order", "{doc}", "--out", "{out}", "--backend", "replay:{bad}"],
}


class TestBadJsonFiles:
    """Config, scripted replies and replay transcripts go through one reader:
    any file it cannot decode, or that decodes to the wrong shape, is a
    backend configuration error, never a traceback."""

    @pytest.mark.parametrize("content", BAD_JSON_FILES.values(), ids=BAD_JSON_FILES.keys())
    @pytest.mark.parametrize("argv", JSON_READERS.values(), ids=JSON_READERS.keys())
    def test_exits_3_without_output(self, tmp_path, sign_fixture, capsys, argv, content):
        doc_path, _ = sign_fixture
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        out = tmp_path / "out" / "o.json"
        out.parent.mkdir()
        argv = [a.format(doc=doc_path, out=out, bad=bad) for a in argv]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(bad) in err
        assert list(out.parent.iterdir()) == []

    def test_bad_transcript_line_is_named(self, tmp_path, sign_fixture, capsys):
        doc_path, _ = sign_fixture
        transcript = tmp_path / "t.jsonl"
        transcript.write_bytes(b"\n\n" + b"[" * 100_000 + b"\n")
        argv = ["order", str(doc_path), "--out", str(tmp_path / "o.json"), "--backend", f"replay:{transcript}"]
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith(f"error: {transcript}:3: cannot read transcript: ")


def _replay_transcript() -> str:
    """A transcript that serves the sign's one block, as a live run recorded it."""
    doc = sign_doc()
    prompt = build_block_prompt(doc, doc.blocks[0])
    entry = {"key": "block-0", "prompt_hash": prompt_fingerprint(prompt), "reply": "20 REASONS TO LOVE CYCLING"}
    return json.dumps(entry) + "\n"


# argv with one file argument read from {pipe}, and what a run that read it prints
PIPE_READERS = {
    "order-input": (["order", "{pipe}", "--out", "{out}"], "document", "geometric_only: 1"),
    "eval-pred": (["eval", "{pipe}", "{gt}"], "gt", "matched pairs: 1 "),
    "eval-gt": (["eval", "{gt}", "{pipe}"], "gt", "matched pairs: 1 "),
    "config": (["order", "{doc}", "--out", "{out}", "--config", "{pipe}"], "config", "llm: 1"),
    "scripted": (["order", "{doc}", "--out", "{out}", "--backend", "scripted:{pipe}"], "replies", "llm: 1"),
    "replay": (["order", "{doc}", "--out", "{out}", "--backend", "replay:{pipe}"], "transcript", "llm: 1"),
    "fuzzy-corpus": (["fuzzy", "CYCLNG", "{pipe}"], "corpus", '"distance": 1'),
}


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd on this system")
@pytest.mark.parametrize(("argv", "content", "printed"), PIPE_READERS.values(), ids=PIPE_READERS.keys())
def test_every_file_argument_reads_a_pipe(tmp_path, sign_fixture, capsys, argv, content, printed):
    """``<(...)`` passes a pipe as ``/dev/fd/N``: no regular file, read once."""
    doc_path, replies = sign_fixture
    gt_path = tmp_path / "gt.json"
    save_document(sign_gt(), gt_path)
    contents = {
        "document": doc_path.read_text(),
        "gt": gt_path.read_text(),
        "config": json.dumps({"backend": f"scripted:{replies}"}),
        "replies": replies.read_text(),
        "transcript": _replay_transcript(),
        "corpus": "20 REASONS TO LOVE CYCLING\n",
    }
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, contents[content].encode("utf-8"))
        os.close(write_end)
        pipe = f"/dev/fd/{read_end}"
        argv = [a.format(pipe=pipe, doc=doc_path, gt=gt_path, out=tmp_path / "o.json") for a in argv]
        assert main(argv) == 0
    finally:
        os.close(read_end)
    assert printed in capsys.readouterr().out


class TestPrompt:
    def test_prompt_contains_texts_verbatim(self, tmp_path, sign_fixture, capsys):
        doc_path, _ = sign_fixture
        code = main(["prompt", str(doc_path), "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("[system]\n")
        assert '"20 REASONS"' in out
        assert '"TO LOVE CYCLING"' in out

    def test_out_of_range_index_exits_2(self, tmp_path, sign_fixture, capsys):
        doc_path, _ = sign_fixture
        assert main(["prompt", str(doc_path), "5"]) == 2
        assert "out of range" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path, sign_fixture, capsys):
        doc_path, _ = sign_fixture
        main(["prompt", str(doc_path), "0"])
        first = capsys.readouterr().out
        main(["prompt", str(doc_path), "0"])
        second = capsys.readouterr().out
        assert first == second


class TestConfigPrecedence:
    def test_file_then_flag_override(self, tmp_path, sign_fixture):
        doc_path, replies = sign_fixture
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"backend": "geometric-only", "max_retries": 1}))

        out = tmp_path / "from_file.json"
        assert main(["order", str(doc_path), "--config", str(config), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["blocks"][0]["text"] == "TO LOVE CYCLING 20 REASONS"

        out2 = tmp_path / "flag_wins.json"
        assert (
            main(
                [
                    "order",
                    str(doc_path),
                    "--config",
                    str(config),
                    "--backend",
                    f"scripted:{replies}",
                    "--out",
                    str(out2),
                ]
            )
            == 0
        )
        assert json.loads(out2.read_text())["blocks"][0]["text"] == "20 REASONS TO LOVE CYCLING"

    @pytest.mark.parametrize(
        "command", [["prompt", "{doc}", "0"], ["fuzzy", "abc", "abc"]], ids=["prompt", "fuzzy"]
    )
    def test_config_rejected_where_unused(self, tmp_path, sign_fixture, capsys, command):
        doc_path, _ = sign_fixture
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"turbo": True}))
        argv = [a.format(doc=doc_path) for a in command] + ["--config", str(config)]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err

    def test_unknown_config_key_exits_3(self, tmp_path, sign_fixture):
        doc_path, _ = sign_fixture
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"turbo": True}))
        assert main(["order", str(doc_path), "--config", str(config), "--out", str(tmp_path / "o.json")]) == 3

    def test_concurrency_config_key_is_unknown(self, tmp_path, sign_fixture, capsys):
        doc_path, _ = sign_fixture
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"concurrency": 1}))
        assert main(["order", str(doc_path), "--config", str(config), "--out", str(tmp_path / "o.json")]) == 3
        assert "unknown config key 'concurrency'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("command", "setting"),
        [
            ("order", {"max_retries": "4"}),
            ("order", {"max_retries": True}),
            ("order", {"max_retries": 2.5}),
            ("order", {"backend": None}),
            ("order", {"temperature": [0]}),
            ("eval", {"min_iou": "0.5"}),
            ("eval", {"min_iou": False}),
            ("eval", {"min_iou": 10**400}),
            ("order", {"request_timeout": 10**400}),
        ],
    )
    def test_mistyped_config_value_exits_3(self, tmp_path, sign_fixture, capsys, command, setting):
        doc_path, _ = sign_fixture
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(setting))
        args = [str(doc_path), "--config", str(config)]
        args += ["--out", str(tmp_path / "o.json")] if command == "order" else [str(doc_path)]
        assert main([command, *args]) == 3
        assert f"config key {next(iter(setting))!r} must be" in capsys.readouterr().err

    def test_llm_setting_checked_by_order_and_eval(self, tmp_path, sign_fixture, capsys):
        doc_path, _ = sign_fixture
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"max_output_tokens": -1}))
        order = ["order", str(doc_path), "--config", str(config), "--out", str(tmp_path / "o.json")]
        assert main(order) == 3
        assert main(["eval", str(doc_path), str(doc_path), "--config", str(config)]) == 3
        err = capsys.readouterr().err
        assert err.count("error: need max_context_tokens > max_output_tokens > 0\n") == 2
        assert list(tmp_path.glob("o.*")) == []

    def test_int_config_value_accepted_for_float(self, tmp_path, sign_fixture):
        doc_path, _ = sign_fixture
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"temperature": 0, "max_retries": 1}))
        out = tmp_path / "o.json"
        assert main(["order", str(doc_path), "--config", str(config), "--out", str(out)]) == 0
        echoed = json.loads(out.with_suffix(".outcomes.json").read_text())["config"]
        assert echoed["temperature"] == 0.0 and isinstance(echoed["temperature"], float)

    def test_config_echo_in_outcomes(self, tmp_path, sign_fixture):
        doc_path, replies = sign_fixture
        out = tmp_path / "echo.json"
        main(
            [
                "order",
                str(doc_path),
                "--backend",
                f"scripted:{replies}",
                "--max-context-tokens",
                "2048",
                "--out",
                str(out),
            ]
        )
        echoed = json.loads(out.with_suffix(".outcomes.json").read_text())["config"]
        assert echoed["max_context_tokens"] == 2048
        assert "api_key" not in echoed

    def test_outcomes_echo_the_default_endpoint(self, tmp_path, sign_fixture):
        doc_path, _ = sign_fixture
        out = tmp_path / "o.json"
        assert main(["order", str(doc_path), "--out", str(out)]) == 0
        echoed = json.loads(out.with_suffix(".outcomes.json").read_text())["config"]
        assert echoed["endpoint_url"] == DEFAULT_ENDPOINT

    def test_default_echo_is_every_setting_and_reads_back(self, tmp_path, sign_fixture):
        doc_path, _ = sign_fixture
        out = tmp_path / "o.json"
        assert main(["order", str(doc_path), "--out", str(out)]) == 0
        echoed = json.loads(out.with_suffix(".outcomes.json").read_text())["config"]
        assert list(echoed.items()) == [
            ("backend", "geometric-only"),
            ("model", "gpt-3.5-turbo"),
            ("temperature", 0.0),
            ("max_context_tokens", 4096),
            ("max_output_tokens", 512),
            ("request_timeout", 30.0),
            ("max_retries", 3),
            ("endpoint_url", DEFAULT_ENDPOINT),
            ("min_iou", 0.0),
        ]
        # every echoed key is settable, and every settable key is echoed
        config = tmp_path / "echo.json"
        config.write_text(json.dumps(echoed))
        again = tmp_path / "again.json"
        assert main(["order", str(doc_path), "--config", str(config), "--out", str(again)]) == 0
        assert json.loads(again.with_suffix(".outcomes.json").read_text())["config"] == echoed


# Config files for the argv fuzz: wrong types, out-of-range and non-finite
# values, a non-object, broken JSON, and one good file.
FUZZ_CONFIGS = {
    "good": "{}",
    "mistyped-float": '{"min_iou": "x"}',
    "float-for-int": '{"max_context_tokens": 1.5}',
    "nan": '{"temperature": NaN}',
    "infinite-iou": '{"min_iou": Infinity}',
    "huge-iou": '{"min_iou": 1e308}',
    "negative-retries": '{"max_retries": -5}',
    "huge-int": '{"max_context_tokens": 100000000000000000000000000000}',
    "huge-int-float": '{"min_iou": 1' + "0" * 400 + "}",
    "negative-output": '{"max_output_tokens": -1}',
    "zero-timeout": '{"request_timeout": 0}',
    "int-backend": '{"backend": 5}',
    "missing-script": '{"backend": "scripted:/does/not/exist.json"}',
    "null": '{"model": null}',
    "list": "[1]",
    "broken": "{not json",
}
FUZZ_NUMBERS = ["0", "1", "-1", "-99999999999", "9" * 30, "nan", "inf", "-inf", "1e309", "0.5", "abc", ""]
FUZZ_INPUTS = [
    "{tmp}/pred.json", "{tmp}/gt.json", "{tmp}/hostile.json", "{tmp}/broken.json", "{tmp}/latin1.json",
    "{tmp}/empty.json", "{tmp}/missing.json", "{tmp}/nodir/x.json", "{tmp}", ".", "",
    "{tmp}/nan-width.json", "{tmp}/long-width.json",
]
FUZZ_OUTPUTS = ["{out}/o.json", "{out}/r.json", "{tmp}/nodir/o.json", "{out}", ".", "/", ""]
FUZZ_CONFIG_PATHS = [f"{{tmp}}/cfg-{name}.json" for name in FUZZ_CONFIGS] + ["{tmp}/missing.json", "{tmp}"]
FUZZ_BACKENDS = [
    "geometric-only", "http", "scripted:{tmp}/replies.json", "scripted:{tmp}/broken.json",
    "scripted:", "scripted:{tmp}/missing.json", "replay:{tmp}/missing.jsonl",
    "replay:{tmp}/broken.json", "replay:{tmp}/latin1.json", "scripted:{tmp}/latin1.json", "quantum", "",
]
FUZZ_TEXTS = ["", "abc", "CYCLNG", "e\u0301\U0001f600", "nan", "-1", "{tmp}/replies.json"]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fuzz")
    save_document(sign_doc(), tmp / "pred.json")
    save_document(sign_gt(), tmp / "gt.json")
    (tmp / "hostile.json").write_text(HOSTILE_DOCUMENTS["huge-int-vertex"])
    (tmp / "broken.json").write_text("{not json")
    (tmp / "latin1.json").write_bytes(b'{"text": "\xe9"}')
    (tmp / "empty.json").write_text("")
    template = json.dumps({**json.loads((tmp / "pred.json").read_text()), "image_width": "WIDTH"})
    (tmp / "nan-width.json").write_text(template.replace('"WIDTH"', "NaN"))
    (tmp / "long-width.json").write_text(template.replace('"WIDTH"', "9" * 5000))
    (tmp / "replies.json").write_text(json.dumps({"block-0": "20 REASONS TO LOVE CYCLING"}))
    for name, text in FUZZ_CONFIGS.items():
        (tmp / f"cfg-{name}.json").write_text(text)
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("BLOCKSPOT_API_KEY", raising=False)  # "http" must stop at exit 3
        yield tmp


def _often(good: str, vocabulary: list[str]) -> st.SearchStrategy[str]:
    """``good`` about half the time, so that runs get past input checks."""
    return st.one_of(st.just(good), st.sampled_from(vocabulary))


def _options(draw, options: dict) -> list[str]:
    argv = []
    for flag, values in options.items():
        if draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(values))]
    return argv


@st.composite
def cli_argv(draw) -> list[str]:
    command = draw(st.sampled_from(["order", "eval", "fuzzy", "prompt"]))
    if command == "order":
        argv = [command, draw(_often("{tmp}/pred.json", FUZZ_INPUTS))]
        argv += ["--out", draw(_often("{out}/o.json", FUZZ_OUTPUTS))]
        argv += _options(draw, {
            "--backend": FUZZ_BACKENDS,
            "--model": ["m", "", "\udcff"],
            "--max-context-tokens": FUZZ_NUMBERS,
            "--max-output-tokens": FUZZ_NUMBERS,
            "--outcomes": FUZZ_OUTPUTS,
            "--config": FUZZ_CONFIG_PATHS,
        })
    elif command == "eval":
        argv = [command, draw(_often("{tmp}/pred.json", FUZZ_INPUTS))]
        argv += [draw(_often("{tmp}/gt.json", FUZZ_INPUTS))]
        argv += _options(draw, {
            "--min-iou": FUZZ_NUMBERS, "--out": FUZZ_OUTPUTS, "--config": FUZZ_CONFIG_PATHS,
        })
    elif command == "fuzzy":
        argv = [command, draw(st.sampled_from(FUZZ_TEXTS))]
        argv += [draw(st.sampled_from(FUZZ_TEXTS + FUZZ_INPUTS))]
    else:
        argv = [command, draw(_often("{tmp}/pred.json", FUZZ_INPUTS)), draw(_often("0", FUZZ_NUMBERS))]
    return argv + draw(st.sampled_from([[], [], [], ["--bogus"]]))


class TestArgvFuzz:
    @given(cli_argv())
    @settings(max_examples=200, deadline=None)
    def test_no_traceback_and_known_exit_code(self, fuzz_dir, argv):
        out = fuzz_dir / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        argv = [a.format(tmp=fuzz_dir, out=out) for a in argv]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as e:  # argparse rejected the argv
                code = e.code
                assert code == 2 and "error:" in err.getvalue()
            else:
                assert code in (0, 2, 3)
                if code:
                    assert err.getvalue().startswith("error: ")
        if code:
            assert list(out.iterdir()) == []  # a failed run leaves no output


def test_import_leaves_requests_and_difflib_unloaded():
    # an offline run never pays for the HTTP stack, and no kernel uses difflib
    src = str(Path(blockspot.__file__).resolve().parent.parent)
    code = "import sys, blockspot, blockspot.cli; print(sorted({'requests', 'difflib'} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
