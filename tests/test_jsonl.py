import pytest

from corefkit import Document, DocumentError, SchemeConfig, parse_conll, parse_jsonl, synth_corpus, write_conll, write_jsonl
from oracles import structurally_equal


def test_single_doc_round_trip():
    doc = Document("d", [["a", "b"], ["c"]], [((0, 1),), ((2, 2),)], metadata={"k": "v"})
    (back,) = parse_jsonl(write_jsonl([doc]))
    assert structurally_equal(back, doc)
    assert back.metadata == {"k": "v"}


def test_zero_clusters():
    (back,) = parse_jsonl(write_jsonl([Document("d", [["a"]], [])]))
    assert back.clusters == []


def test_malformed_json_reports_line():
    with pytest.raises(DocumentError, match="line 2"):
        parse_jsonl('{"doc_id": "a", "sentences": [["x"]]}\n{broken\n')


def test_missing_field_reports_line():
    with pytest.raises(DocumentError, match="line 1"):
        parse_jsonl('{"doc_id": "a"}\n')


@pytest.mark.parametrize("record", ["[]", '"a"', "1", "null"])
def test_record_that_is_no_object_reports_line(record):
    with pytest.raises(DocumentError, match="^line 2: record is not an object$"):
        parse_jsonl('{"doc_id": "a", "sentences": [["x"]]}\n' + record + "\n")


def test_invalid_spans_rejected():
    with pytest.raises(DocumentError, match="out of range"):
        parse_jsonl('{"doc_id": "a", "sentences": [["x"]], "clusters": [[[0, 5]]]}\n')


def test_cross_format_equivalence():
    docs = synth_corpus(SchemeConfig(num_docs=20, seed=4))
    via_jsonl = parse_jsonl(write_jsonl(docs))
    via_conll = parse_conll(write_conll(docs))
    assert len(via_jsonl) == len(via_conll) == len(docs)
    for a, b in zip(via_jsonl, via_conll):
        assert structurally_equal(a, b)


def test_blank_lines_ignored():
    doc = Document("d", [["a"]], [])
    assert len(parse_jsonl("\n" + write_jsonl([doc]) + "\n\n")) == 1
