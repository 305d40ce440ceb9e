import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corefkit import Document, DocumentError, segment_document


def make_doc(sent_lengths, clusters=(), doc_id="d"):
    sentences = []
    tok = 0
    for n in sent_lengths:
        sentences.append([f"t{tok + i}" for i in range(n)])
        tok += n
    return Document(doc_id, sentences, list(clusters))


class TestValidation:
    def test_valid_doc(self):
        make_doc([3, 2], [((0, 1),), ((3, 4),)]).validate()

    def test_span_out_of_range(self):
        with pytest.raises(DocumentError, match="out of range"):
            make_doc([3], [((0, 3),)]).validate()

    def test_span_crosses_sentence(self):
        with pytest.raises(DocumentError, match="crosses"):
            make_doc([2, 2], [((1, 2),)]).validate()

    def test_duplicate_mention_across_clusters(self):
        with pytest.raises(DocumentError, match="more than one"):
            make_doc([4], [((0, 1),), ((0, 1), (2, 2))]).validate()

    def test_duplicate_mention_within_cluster(self):
        with pytest.raises(DocumentError, match="more than one"):
            make_doc([4], [((0, 1), (0, 1))]).validate()


class TestSegmentation:
    def test_greedy_packing(self):
        doc = make_doc([100] * 6)
        segments = segment_document(doc, 512)
        assert [len(s) for s in segments] == [500, 100]
        assert segments[0].sentence_lengths == (100,) * 5
        assert segments[1].sentence_lengths == (100,)
        assert segments[0].token_offset == 0
        assert segments[1].token_offset == 500

    def test_single_short_sentence(self):
        doc = make_doc([10])
        segments = segment_document(doc, 512)
        assert len(segments) == 1 and len(segments[0]) == 10

    def test_oversized_sentence_rejected(self):
        doc = make_doc([600])
        with pytest.raises(DocumentError, match="exceeds"):
            segment_document(doc, 512)

    @given(
        lengths=st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=12),
        max_len=st.integers(min_value=30, max_value=80),
    )
    @settings(max_examples=60, deadline=None)
    def test_concatenation_and_bound(self, lengths, max_len):
        doc = make_doc(lengths)
        segments = segment_document(doc, max_len)
        rebuilt = [t for seg in segments for t in seg.tokens]
        assert rebuilt == doc.tokens
        assert all(len(seg) <= max_len for seg in segments)
        offsets = [seg.token_offset for seg in segments]
        assert offsets == sorted(offsets)
