"""Document schema parsing, validation, and round-trip tests."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest
from conftest import HOSTILE_DOCUMENTS
from hypothesis import given, settings
from hypothesis import strategies as st

from blockspot.model import (
    Block,
    Document,
    DocumentError,
    DocumentKind,
    Line,
    Quad,
    load_document,
    parse_document,
    serialize_document,
    validate_document,
)


def doc_dict(**overrides):
    base = {
        "image_width": 800,
        "image_height": 600,
        "lines": [
            {
                "id": 1,
                "vertices": [[10, 10], [110, 10], [110, 40], [10, 40]],
                "text": "EXIT",
                "confidence": 0.93,
            }
        ],
        "blocks": [{"line_ids": [1]}],
    }
    base.update(overrides)
    return base


def parse(data, kind=DocumentKind.PREDICTION):
    return parse_document(json.dumps(data), kind)


class TestParse:
    def test_minimal_round_trip(self):
        doc = parse(doc_dict())
        assert len(doc.lines) == 1
        assert len(doc.blocks) == 1
        assert doc.lines[0].text == "EXIT"
        assert doc.lines[0].recognizer_confidence == pytest.approx(0.93)
        assert parse_document(serialize_document(doc)) == doc

    def test_ground_truth_flag_and_order_preserved(self):
        data = doc_dict(
            lines=[
                {"id": 7, "vertices": [[0, 0], [50, 0], [50, 10], [0, 10]], "text": "b"},
                {"id": 3, "vertices": [[0, 20], [50, 20], [50, 30], [0, 30]], "text": "a"},
            ],
            blocks=[{"line_ids": [7, 3], "text": "b a"}],
        )
        doc = parse(data, DocumentKind.GROUND_TRUTH)
        assert doc.is_ground_truth
        assert doc.blocks[0].line_ids == (7, 3)
        assert doc.blocks[0].text == "b a"

    def test_unknown_line_id_rejected(self):
        data = doc_dict(blocks=[{"line_ids": [99]}])
        with pytest.raises(DocumentError, match="unknown line id 99"):
            parse(data)

    def test_line_in_two_blocks_rejected(self):
        data = doc_dict(
            lines=[
                {"id": 3, "vertices": [[0, 0], [50, 0], [50, 10], [0, 10]], "text": "x"},
            ],
            blocks=[{"line_ids": [3]}, {"line_ids": [3]}],
        )
        with pytest.raises(DocumentError, match="multiple blocks"):
            parse(data)

    def test_duplicate_line_id_rejected(self):
        line = {"id": 1, "vertices": [[0, 0], [50, 0], [50, 10], [0, 10]], "text": "x"}
        data = doc_dict(lines=[line, dict(line, text="y")], blocks=[])
        with pytest.raises(DocumentError, match="duplicate line id 1"):
            parse(data)

    def test_malformed_json_names_source(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(DocumentError) as err:
            load_document(path)
        assert str(path) in str(err.value)
        assert "malformed JSON" in str(err.value)

    def test_missing_file_names_path(self, tmp_path):
        with pytest.raises(DocumentError, match="cannot read file"):
            load_document(tmp_path / "absent.json")

    def test_degenerate_quad_rejected(self):
        data = doc_dict(
            lines=[{"id": 1, "vertices": [[0, 0], [10, 0], [20, 0], [30, 0]], "text": "x"}]
        )
        with pytest.raises(DocumentError, match="lines\\[0\\]"):
            parse(data)

    def test_bowtie_quad_rejected(self):
        # zero signed area, so the area check trips before convexity
        data = doc_dict(
            lines=[{"id": 1, "vertices": [[0, 0], [10, 10], [10, 0], [0, 10]], "text": "x"}]
        )
        with pytest.raises(DocumentError, match="lines\\[0\\]"):
            parse(data)

    def test_nonconvex_quad_rejected(self):
        data = doc_dict(
            lines=[{"id": 1, "vertices": [[0, 0], [10, 0], [1, 1], [0, 10]], "text": "x"}]
        )
        with pytest.raises(DocumentError, match="convex"):
            parse(data)

    def test_newline_in_text_rejected(self):
        data = doc_dict(
            lines=[{"id": 1, "vertices": [[0, 0], [10, 0], [10, 5], [0, 5]], "text": "a\nb"}]
        )
        with pytest.raises(DocumentError, match="control characters"):
            parse(data)

    def test_box_far_outside_image_rejected(self):
        data = doc_dict(
            lines=[{"id": 1, "vertices": [[700, 10], [900, 10], [900, 40], [700, 40]], "text": "x"}],
            blocks=[],
        )
        with pytest.raises(DocumentError, match="leaves the image"):
            parse(data)

    def test_box_slightly_outside_tolerated(self):
        data = doc_dict(
            lines=[{"id": 1, "vertices": [[-3, 10], [110, 10], [110, 40], [-3, 40]], "text": "x"}],
            blocks=[{"line_ids": [1]}],
        )
        assert parse(data).lines[0].id == 1

    def test_clockwise_input_normalized_to_ccw(self):
        data = doc_dict(
            lines=[{"id": 1, "vertices": [[10, 40], [110, 41], [110, 10], [10, 11]], "text": "x"}],
            blocks=[{"line_ids": [1]}],
        )
        doc = parse(data)
        from blockspot.geometry import polygon_area

        assert polygon_area(doc.lines[0].box.vertices) > 0

    def test_nonpositive_dims_rejected(self):
        with pytest.raises(DocumentError, match="dimensions"):
            parse(doc_dict(image_width=0))

    def test_error_corpus_never_crashes(self):
        fixtures = [
            "",
            "[]",
            "{}",
            '{"image_width": 10}',
            '{"image_width": "x", "image_height": 5, "lines": [], "blocks": []}',
            '{"image_width": 10, "image_height": 5, "lines": [5], "blocks": []}',
            '{"image_width": 10, "image_height": 5, "lines": [], "blocks": [{}]}',
            '{"image_width": 10, "image_height": 5, "lines": [{"id": 1}], "blocks": []}',
            '{"image_width": 10, "image_height": 5, "lines": [{"id": 1, "vertices": [[0,0]]}], "blocks": []}',
            '{"image_width": 10, "image_height": 5, "lines": [], "blocks": [{"line_ids": "no"}]}',
            '{"image_width": 10, "image_height": 5, "lines": [], "blocks": [{"line_ids": []}]}',
            b"\xff\xfe garbage",
        ]
        for raw in fixtures:
            with pytest.raises(DocumentError):
                parse_document(raw)


class TestHostileInput:
    @pytest.mark.parametrize("raw", list(HOSTILE_DOCUMENTS.values()), ids=list(HOSTILE_DOCUMENTS))
    def test_raises_document_error(self, raw):
        with pytest.raises(DocumentError):
            parse_document(raw)

    # JSON tokens for one value slot, including numbers beyond a float or
    # beyond the interpreter's integer-string limit and nested arrays.
    _TOKENS = st.one_of(
        st.integers(-(10**6), 10**6).map(str),
        st.integers(300, 5000).map(lambda n: "9" * n),
        st.floats().map(json.dumps),
        st.text(max_size=6).map(json.dumps),
        st.integers(1, 3000).map(lambda n: "[" * n + "]" * n),
        st.sampled_from(["null", "true", "{}", '[[0, 0], [1, 0], [1, 1], [0, 1]]', "1e400"]),
    )

    @staticmethod
    def _document_text(w, h, lid, x, y, conf, text, block_id):
        return (
            f'{{"image_width": {w}, "image_height": {h}, "lines": [{{"id": {lid}, '
            f'"vertices": [[{x}, {y}], [110, 10], [110, 40], [10, 40]], "text": {text}, '
            f'"confidence": {conf}}}], "blocks": [{{"line_ids": [{block_id}]}}]}}'
        )

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.builds(_document_text.__func__, *[_TOKENS] * 8),
            st.recursive(
                st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
                lambda inner: st.lists(inner, max_size=4)
                | st.dictionaries(
                    st.sampled_from(["image_width", "image_height", "lines", "blocks", "id",
                                     "vertices", "text", "confidence", "line_ids"]),
                    inner,
                    max_size=5,
                ),
                max_leaves=30,
            ).map(json.dumps),
            st.text(max_size=40),
            st.binary(max_size=40),
        )
    )
    def test_parse_raises_only_document_error(self, raw):
        try:
            parse_document(raw)
        except DocumentError:
            pass


class TestSerialize:
    def test_empty_blocks_round_trip(self):
        doc = parse(doc_dict(blocks=[]))
        again = parse_document(serialize_document(doc))
        assert again == doc
        assert again.blocks == ()

    def test_unicode_survives_byte_exact(self):
        data = doc_dict(
            lines=[{"id": 1, "vertices": [[0, 0], [99, 0], [99, 20], [0, 20]], "text": "ÉCOLE"}],
            blocks=[{"line_ids": [1], "text": "ÉCOLE"}],
        )
        doc = parse(data)
        payload = serialize_document(doc)
        assert "ÉCOLE".encode("utf-8") in payload
        assert parse_document(payload) == doc

    def test_serialization_is_deterministic(self):
        doc = parse(doc_dict())
        assert serialize_document(doc) == serialize_document(doc)

    def test_ground_truth_round_trip_keeps_gold_order(self):
        data = doc_dict(
            lines=[
                {"id": 2, "vertices": [[0, 0], [50, 0], [50, 10], [0, 10]], "text": "two"},
                {"id": 1, "vertices": [[0, 20], [50, 20], [50, 30], [0, 30]], "text": "one"},
            ],
            blocks=[{"line_ids": [2, 1], "text": "two one"}],
        )
        doc = parse(data, "ground_truth")
        again = parse_document(serialize_document(doc), "ground_truth")
        assert again == doc


class TestTypes:
    def test_quad_needs_four_vertices(self):
        with pytest.raises(ValueError):
            Quad(((0, 0), (1, 0), (1, 1)))

    def test_block_rejects_duplicates_and_empty(self):
        with pytest.raises(ValueError):
            Block(line_ids=(1, 1))
        with pytest.raises(ValueError):
            Block(line_ids=())

    def test_line_confidence_bounds(self):
        box = Quad.from_points([[0, 0], [10, 0], [10, 5], [0, 5]])
        with pytest.raises(ValueError):
            Line(id=1, box=box, text="ok", recognizer_confidence=1.5)

    def test_ungrouped_line_ids(self):
        box = Quad.from_points([[0, 0], [10, 0], [10, 5], [0, 5]])
        box2 = Quad.from_points([[0, 10], [10, 10], [10, 15], [0, 15]])
        doc = Document(
            image_width=100,
            image_height=100,
            lines=(Line(1, box, "a"), Line(2, box2, "b")),
            blocks=(Block((1,)),),
        )
        validate_document(doc)
        assert doc.ungrouped_line_ids() == [2]
        assert doc.line_by_id(2).text == "b"
        with pytest.raises(KeyError, match="unknown line id 99"):
            doc.line_by_id(99)

    def test_line_by_id_first_of_repeated_ids_wins(self):
        box = Quad.from_points([[0, 0], [10, 0], [10, 5], [0, 5]])
        doc = Document(image_width=100, image_height=100, lines=(Line(1, box, "first"), Line(1, box, "second")))
        assert doc.line_by_id(1).text == "first"

    def test_line_by_id_follows_replaced_lines(self):
        box = Quad.from_points([[0, 0], [10, 0], [10, 5], [0, 5]])
        doc = Document(image_width=100, image_height=100, lines=(Line(1, box, "old"),))
        assert doc.line_by_id(1).text == "old"
        new = replace(doc, lines=(Line(1, box, "new"),))
        assert new.line_by_id(1).text == "new"
        assert doc.line_by_id(1).text == "old"
        assert doc == Document(image_width=100, image_height=100, lines=(Line(1, box, "old"),))
