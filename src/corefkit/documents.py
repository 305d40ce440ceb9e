"""Core document model: tokenized sentences plus entity clusters over token spans.

Spans are (start, end) pairs, inclusive, 0-based over the flat token sequence
of a document. This is the single coordinate system used everywhere: parsers,
the resolution engine, and the metrics.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterable, Optional

Span = tuple[int, int]


class DocumentError(ValueError):
    """A document violates the span/cluster invariants."""


def check_unique_ids(docs: Iterable[Document], where: str = "") -> None:
    """Raise DocumentError, its message headed by ``where``, at the first repeated doc_id."""
    seen = set()
    for doc in docs:
        if doc.doc_id in seen:
            raise DocumentError(f"{where}repeated doc_id {doc.doc_id!r}")
        seen.add(doc.doc_id)


def canonical_clusters(clusters: Iterable[Iterable[Span]]) -> list[tuple[Span, ...]]:
    """Sort mentions within each cluster and clusters by their first mention."""
    canon = [tuple(sorted((int(s), int(e)) for (s, e) in cluster)) for cluster in clusters]
    canon = [c for c in canon if c]
    return sorted(canon)


@dataclass
class Document:
    doc_id: str
    sentences: list[list[str]]
    clusters: list[tuple[Span, ...]] = field(default_factory=list)
    metadata: Optional[dict] = None

    def __post_init__(self):
        self.clusters = canonical_clusters(self.clusters)

    @property
    def num_tokens(self) -> int:
        return sum(len(s) for s in self.sentences)

    @property
    def tokens(self) -> list[str]:
        return [t for sent in self.sentences for t in sent]

    def sentence_starts(self) -> list[int]:
        """Flat-token index of the first token of each sentence."""
        return list(accumulate(map(len, self.sentences), initial=0))[:-1]

    def mentions(self) -> set[Span]:
        return {span for cluster in self.clusters for span in cluster}

    def validate(self) -> "Document":
        """Check all span/cluster invariants; raise DocumentError on violation."""
        n = self.num_tokens
        starts = self.sentence_starts()
        seen: set[Span] = set()
        for cluster in self.clusters:
            if not cluster:
                raise DocumentError(f"{self.doc_id}: empty cluster")
            for (s, e) in cluster:
                if not (0 <= s <= e < n):
                    raise DocumentError(
                        f"{self.doc_id}: span ({s}, {e}) out of range for {n} tokens"
                    )
                if bisect_right(starts, s) != bisect_right(starts, e):
                    raise DocumentError(
                        f"{self.doc_id}: span ({s}, {e}) crosses a sentence boundary"
                    )
                if (s, e) in seen:
                    raise DocumentError(
                        f"{self.doc_id}: mention ({s}, {e}) appears in more than one place"
                    )
                seen.add((s, e))
        return self

    def replace_clusters(self, clusters: Iterable[Iterable[Span]]) -> "Document":
        return dataclasses.replace(self, clusters=canonical_clusters(clusters))


@dataclass(frozen=True)
class Segment:
    token_offset: int  # flat index of the segment's first token
    tokens: list[str]
    sentence_lengths: tuple[int, ...] = ()

    def __len__(self) -> int:
        return len(self.tokens)


class SegmentationError(ValueError):
    pass


def segment_document(doc: Document, max_len: int) -> list[Segment]:
    """Greedy sentence packing: append sentences while the segment stays <= max_len.

    Sentences are never split, so a single sentence longer than max_len is an error.
    Concatenating the returned segments reproduces the document token stream.
    """
    if max_len < 1:
        raise SegmentationError(f"max_len must be >= 1, got {max_len}")
    segments: list[Segment] = []
    cur_tokens, cur_lengths, offset = [], [], 0
    for i, sent in enumerate(doc.sentences):
        if len(sent) > max_len:
            raise SegmentationError(
                f"{doc.doc_id}: sentence {i} has {len(sent)} tokens, exceeds max_len {max_len}"
            )
        if cur_tokens and len(cur_tokens) + len(sent) > max_len:
            segments.append(Segment(offset, cur_tokens, tuple(cur_lengths)))
            offset += len(cur_tokens)
            cur_tokens, cur_lengths = [], []
        cur_tokens = cur_tokens + list(sent)
        cur_lengths.append(len(sent))
    if cur_tokens:
        segments.append(Segment(offset, cur_tokens, tuple(cur_lengths)))
    return segments
