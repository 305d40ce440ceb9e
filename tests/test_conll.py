import re

import pytest

from corefkit import (
    ConllParseError,
    Document,
    DocumentError,
    SchemeConfig,
    parse_conll,
    synth_corpus,
    write_conll,
)
from oracles import structurally_equal


def conll_text(rows, doc_id="d"):
    lines = [f"#begin document ({doc_id}); part 000"]
    for sent in rows:
        for i, (token, coref) in enumerate(sent):
            lines.append(f"{doc_id} 0 {i} {token} {coref}")
        lines.append("")
    lines.append("#end document")
    return "\n".join(lines) + "\n"


class TestParse:
    def test_simple_pair(self):
        text = conll_text([[("a", "(1"), ("b", "1)"), ("c", "-")]])
        (doc,) = parse_conll(text)
        assert doc.clusters == [((0, 1),)]
        assert doc.sentences == [["a", "b", "c"]]

    def test_stacked_and_unit(self):
        text = conll_text([[("a", "(1|(2)"), ("b", "1)"), ("c", "-")]])
        (doc,) = parse_conll(text)
        assert doc.clusters == [((0, 0),), ((0, 1),)]

    def test_nested_same_cluster(self):
        # (0,2) and (1,2) in cluster 1, matched innermost-first
        text = conll_text([[("a", "(1"), ("b", "(1"), ("c", "1)|1)")]])
        (doc,) = parse_conll(text)
        assert doc.clusters == [((0, 2), (1, 2))]

    def test_crossing_close_then_open(self):
        text = conll_text([[("a", "(1"), ("b", "1)|(1"), ("c", "1)")]])
        (doc,) = parse_conll(text)
        assert doc.clusters == [((0, 1), (1, 2))]

    def test_unbalanced_open(self):
        text = conll_text([[("a", "(1"), ("b", "-"), ("c", "-")]])
        with pytest.raises(ConllParseError, match="never closed"):
            parse_conll(text)

    def test_close_without_open(self):
        text = conll_text([[("a", "-"), ("b", "1)"), ("c", "-")]])
        with pytest.raises(ConllParseError, match="no matching"):
            parse_conll(text)

    def test_crossing_sentence_boundary(self):
        text = conll_text([[("a", "(1"), ("b", "-")], [("c", "1)")]])
        with pytest.raises(ConllParseError, match="crosses"):
            parse_conll(text)

    def test_duplicate_mention_two_clusters(self):
        text = conll_text([[("a", "(1)|(2)"), ("b", "-")]])
        with pytest.raises(ConllParseError, match="clusters"):
            parse_conll(text)

    def test_malformed_marker(self):
        text = conll_text([[("a", "(x"), ("b", "-")]])
        with pytest.raises(ConllParseError, match="malformed"):
            parse_conll(text)

    def test_missing_end(self):
        text = "#begin document (d); part 000\nd 0 0 a -\n"
        with pytest.raises(ConllParseError, match="missing"):
            parse_conll(text)

    def test_multiple_documents(self):
        text = conll_text([[("a", "-")]], "one") + conll_text([[("b", "(1)")]], "two")
        docs = parse_conll(text)
        assert [d.doc_id for d in docs] == ["one", "two"]
        assert docs[1].clusters == [((0, 0),)]


class TestRoundTrip:
    def assert_round_trip(self, doc):
        (back,) = parse_conll(write_conll([doc]))
        assert structurally_equal(back, doc), (doc.clusters, back.clusters)

    def test_examples_round_trip(self):
        self.assert_round_trip(Document("d", [["a", "b", "c"]], [((0, 1),)]))
        self.assert_round_trip(Document("d", [["a", "b", "c"]], [((0, 1),), ((0, 0),)]))

    def test_no_clusters_writes_dashes(self):
        text = write_conll([Document("d", [["a", "b"]], [])])
        body = [l for l in text.splitlines() if l and not l.startswith("#")]
        assert all(l.endswith(" -") for l in body)

    def test_nested_and_touching_same_cluster(self):
        self.assert_round_trip(Document("d", [["a", "b", "c", "d"]], [((0, 2), (1, 2), (1, 1))]))
        self.assert_round_trip(Document("d", [["a", "b", "c"]], [((0, 1), (1, 2))]))
        sentence = [[f"w{i}" for i in range(8)]]
        self.assert_round_trip(Document("d", sentence, [((0, 7), (1, 6), (2, 2), (2, 5), (5, 5))]))
        self.assert_round_trip(Document("d", sentence, [((3, 5), (5, 7), (3, 7), (3, 3))]))

    @pytest.mark.parametrize("cluster", [((3, 5), (4, 6)), ((3, 5), (4, 5), (4, 6))])
    def test_crossing_mentions_of_one_cluster_rejected(self, cluster):
        """s1 < s2 < e1 < e2 in one cluster has no marker order: the first
        close would end the later start, and the file would read back as
        other mentions."""
        sentence = [[f"w{i}" for i in range(8)]]
        ok = Document("ok", sentence, [((0, 1),)])
        crossing = Document("x", sentence, [((0, 0), (7, 7)), cluster])
        with pytest.raises(DocumentError, match=r"doc 'x': cluster 2 has crossing mentions \(3, 5\) and \(4, 6\)"):
            write_conll([ok, crossing])

    @pytest.mark.parametrize("doc_id, sentence, what", [
        ("a b", ["x", "y", "z"], "doc id"),  # the doc id column would read as the token
        ("a", ["New York", "z"], "token"),  # would read back as New
        ("a", ["", "z"], "token"),  # the doc id would read as the token
        ("a", ["x\ty"], "token"),
        ("a\u00a0b", ["x"], "doc id"),  # unicode whitespace splits a column too
        ("", ["x"], "doc id"),
        ("a;b", ["x"], "doc id"),  # would read back as a
        ("a)b", ["x"], "doc id"),  # would read back as a
        ("#x", ["x"], "doc id"),  # every row would read as a comment
    ])
    def test_ids_and_tokens_that_read_back_otherwise_rejected(self, doc_id, sentence, what):
        """The document is rejected by name, before anything is written."""
        doc = Document(doc_id, [sentence], [((0, 0),)])
        match = "token" if what == "token" else "CoNLL ids"
        with pytest.raises(DocumentError, match="^" + re.escape(f"doc {doc_id!r}: {match}")):
            write_conll([Document("ok", [["w"]], []), doc])

    def test_unusual_ids_and_tokens_round_trip(self):
        self.assert_round_trip(Document("a(b#-|", [["(1)", "#", "-", "x|y", "é"]], [((0, 1),)]))

    def test_crossing_mentions_of_two_clusters_round_trip(self):
        self.assert_round_trip(Document("d", [[f"w{i}" for i in range(8)]], [((3, 5),), ((4, 6),)]))

    def test_shared_boundaries_across_clusters(self):
        self.assert_round_trip(
            Document("d", [["a", "b", "c", "d"]], [((0, 3), (1, 2)), ((0, 1), (2, 3)), ((1, 1),)])
        )

    def test_round_trip_synthetic_corpus(self):
        docs = synth_corpus(SchemeConfig(num_docs=50, seed=11))
        text = write_conll(docs)
        back = parse_conll(text)
        assert len(back) == len(docs)
        for a, b in zip(docs, back):
            assert structurally_equal(b, a)

    def test_byte_stable(self):
        docs = synth_corpus(SchemeConfig(num_docs=50, seed=11))
        once = write_conll(docs)
        assert once == write_conll(parse_conll(once))
