"""CLI tests: subcommands, exit codes, config precedence, determinism."""

from __future__ import annotations

import json

import pytest
from conftest import StubHandler, sign_doc, sign_gt, synthetic_gt

from blockspot.cli import main
from blockspot.model import save_document


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
        code = main(
            ["order", str(doc_path), "--backend", "scripted:/does/not/exist.json", "--out", str(tmp_path / "o.json")]
        )
        assert code == 3
        assert "not found" in capsys.readouterr().err

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

    def test_min_iou_flag_respected(self, tmp_path, capsys):
        gt_path = tmp_path / "gt.json"
        save_document(synthetic_gt(3), gt_path)
        assert main(["eval", str(gt_path), str(gt_path), "--min-iou", "0.99"]) == 0
        assert "matched pairs: 3" in capsys.readouterr().out


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
        config.write_text(json.dumps({"backend": "geometric-only", "concurrency": 1}))

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

    @pytest.mark.parametrize(
        ("command", "setting"),
        [
            ("order", {"concurrency": "4"}),
            ("order", {"concurrency": True}),
            ("order", {"concurrency": 2.5}),
            ("order", {"backend": None}),
            ("order", {"temperature": [0]}),
            ("eval", {"min_iou": "0.5"}),
            ("eval", {"min_iou": False}),
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

    def test_int_config_value_accepted_for_float(self, tmp_path, sign_fixture):
        doc_path, _ = sign_fixture
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"temperature": 0, "concurrency": 1}))
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
