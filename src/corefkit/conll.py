"""CoNLL-2012-style reader/writer for coreference-annotated documents.

Documents are delimited by ``#begin document`` / ``#end document`` lines,
sentences by blank lines. The last whitespace-separated column is the
coreference column: ``(id`` opens a mention for cluster ``id``, ``id)`` closes
the innermost open mention of that cluster, ``(id)`` is a single-token
mention. Multiple markers on one token are ``|``-separated; ``-`` means none.

Written files use five columns (doc_id, part, word_number, token, coref) so
the token sits in column 3 and the coreference column last, matching the
shared-task layout. The parser accepts any column count >= 2 and always takes
the token from column 3 when five or more columns are present.
"""

from __future__ import annotations

import re
from typing import Sequence

from .documents import Document, DocumentError, Span


def _error(message: str, line: int, doc_id: str | None = None) -> DocumentError:
    """``message`` headed by where it happened: ``doc 'd' line N: ...``, or ``line N: ...`` with no name."""
    head = f"line {line}" if doc_id is None else f"doc {doc_id!r} line {line}"
    return DocumentError(f"{head}: {message}")


_BEGIN_RE = re.compile(r"#begin document\s*(?:\((?P<paren>[^)]*)\)|(?P<bare>\S.*))?")
_MARKER_RE = re.compile(r"^(\()?(\d+)(\))?$")
# an id that reads back: ';' and ')' end it in the begin line, and a row starting with '#' is a comment
_DOC_ID_RE = re.compile(r"[^\s;)#][^\s;)]*")


def parse_conll(text: str) -> list[Document]:
    docs: list[Document] = []
    doc_id: str | None = None
    sentences: list[list[str]] = []
    sentence: list[str] = []
    # cluster id -> list of open start positions (stack; innermost last)
    open_spans: dict[int, list[tuple[int, int]]] = {}
    clusters: dict[int, list[Span]] = {}
    token_index = 0

    def flush_sentence():
        nonlocal sentence
        if sentence:
            sentences.append(sentence)
            sentence = []

    def finish_document(lineno: int):
        nonlocal doc_id, sentences, open_spans, clusters, token_index
        flush_sentence()
        for cid, stack in open_spans.items():
            if stack:
                raise _error(
                    f"unbalanced coreference bracket: '({cid}' opened at token {stack[-1][0]} never closed",
                    stack[-1][1], doc_id,
                )
        doc = Document(
            doc_id=doc_id or f"doc{len(docs)}",
            sentences=sentences,
            clusters=[tuple(m) for m in clusters.values()],
        )
        try:
            doc.validate()
        except DocumentError as exc:
            raise _error(str(exc), lineno) from exc
        docs.append(doc)
        doc_id, sentences = None, []
        open_spans, clusters, token_index = {}, {}, 0

    begin_line = None  # of the open document; None between documents
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if line.startswith("#begin document"):
            if begin_line is not None:
                raise _error("nested '#begin document'", lineno, doc_id)
            m = _BEGIN_RE.match(line)
            name = (m.group("paren") or m.group("bare") or "").strip() if m else ""
            name = name.split(";")[0].strip()
            doc_id = name or None
            begin_line = lineno
            continue
        if line.startswith("#end document"):
            if begin_line is None:
                raise _error("'#end document' outside a document", lineno)
            finish_document(lineno)
            begin_line = None
            continue
        if begin_line is None:
            if line.strip():
                raise _error("content outside '#begin document'", lineno)
            continue
        if not line.strip():
            flush_sentence()
            continue
        if line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) < 2:
            raise _error(f"expected at least 2 columns, got {len(parts)}", lineno, doc_id)
        token = parts[3] if len(parts) >= 5 else parts[0]
        coref = parts[-1]
        sentence.append(token)
        if coref != "-":
            _apply_coref_column(
                coref, token_index, lineno, doc_id, open_spans, clusters
            )
        token_index += 1
    if begin_line is not None:
        raise _error("missing '#end document'", begin_line, doc_id)
    return docs


def _apply_coref_column(column, token_index, lineno, doc_id, open_spans, clusters):
    for marker in column.split("|"):
        m = _MARKER_RE.match(marker)
        if not m or not (m.group(1) or m.group(3)):  # a bare id is not part of the bracket grammar
            raise _error(f"malformed coreference marker {marker!r}", lineno, doc_id)
        opens, cid, closes = m.group(1), int(m.group(2)), m.group(3)
        if opens and closes:
            clusters.setdefault(cid, []).append((token_index, token_index))
        elif opens:
            open_spans.setdefault(cid, []).append((token_index, lineno))
        else:
            stack = open_spans.get(cid)
            if not stack:
                raise _error(f"'{cid})' has no matching '({cid}'", lineno, doc_id)
            start, _ = stack.pop()
            clusters.setdefault(cid, []).append((start, token_index))


def write_conll(docs: Sequence[Document]) -> str:
    """Serialize documents; output is byte-stable and round-trips via
    parse_conll unless a cluster has crossing mentions.

    Two mentions of one cluster cross when s1 < s2 < e1 < e2: under the
    innermost-first rule no marker order expresses them (the first close
    would end the later start), so such a document raises DocumentError,
    naming the cluster and both spans, before anything is written. So does
    an id or token that would read back as other text, and an empty
    sentence, which would read back as no sentence (docs/formats.md).

    Cluster ids are assigned from the canonical cluster order (1-based). At each
    token the column lists closing brackets first (innermost-first), then
    single-token mentions, then opening brackets of longer spans first. Closes
    must precede opens of the same cluster id, otherwise a close at a token
    where another same-id span opens would pop the fresh open under the
    innermost-first matching rule.
    """
    for doc in docs:
        doc.validate()
        if not _DOC_ID_RE.fullmatch(doc.doc_id):
            raise DocumentError(f"doc {doc.doc_id!r}: CoNLL ids are one word with no ';', ')' or leading '#'")
        for token in doc.tokens:
            if token.split() != [token]:
                raise DocumentError(f"doc {doc.doc_id!r}: token {token!r} is empty or holds whitespace")
        for i, sentence in enumerate(doc.sentences):
            if not sentence:
                raise DocumentError(f"doc {doc.doc_id!r}: sentence {i} is empty")
        for cid, cluster in enumerate(doc.clusters, start=1):
            crossing = _crossing_pair(cluster)
            if crossing is not None:
                raise DocumentError(
                    f"doc {doc.doc_id!r}: cluster {cid} has crossing mentions {crossing[0]} and "
                    f"{crossing[1]}, which CoNLL brackets cannot express"
                )
    lines: list[str] = []
    for doc in docs:
        opens: dict[int, list[tuple[Span, int]]] = {}
        closes: dict[int, list[tuple[Span, int]]] = {}
        units: dict[int, list[int]] = {}
        for cid, cluster in enumerate(doc.clusters, start=1):
            for (s, e) in cluster:
                if s == e:
                    units.setdefault(s, []).append(cid)
                else:
                    opens.setdefault(s, []).append(((s, e), cid))
                    closes.setdefault(e, []).append(((s, e), cid))
        lines.append(f"#begin document ({doc.doc_id}); part 000")
        flat = 0
        for sent in doc.sentences:
            for word_num, token in enumerate(sent):
                markers: list[str] = []
                # innermost (latest-opened) spans close first
                for (span, cid) in sorted(
                    closes.get(flat, []), key=lambda sc: (-sc[0][0], sc[1])
                ):
                    markers.append(f"{cid})")
                for cid in sorted(units.get(flat, [])):
                    markers.append(f"({cid})")
                # outermost (longest) spans open first
                for (span, cid) in sorted(
                    opens.get(flat, []), key=lambda sc: (-sc[0][1], sc[1])
                ):
                    markers.append(f"({cid}")
                coref = "|".join(markers) if markers else "-"
                lines.append(f"{doc.doc_id} 0 {word_num} {token} {coref}")
                flat += 1
            lines.append("")
        lines.append("#end document")
    return "\n".join(lines) + "\n" if lines else ""


def _crossing_pair(cluster) -> tuple[Span, Span] | None:
    """Two mentions (s1, e1), (s2, e2) of the cluster with s1 < s2 < e1 < e2, or None."""
    open_spans: list[Span] = []  # enclosing spans, innermost last
    for span in sorted(cluster, key=lambda se: (se[0], -se[1])):
        # spans ending at or before this start are closed by now
        while open_spans and open_spans[-1][1] <= span[0]:
            open_spans.pop()
        if open_spans and open_spans[-1][1] < span[1]:
            return open_spans[-1], span
        open_spans.append(span)
    return None
