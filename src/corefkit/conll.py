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


class ConllParseError(ValueError):
    def __init__(self, message: str, doc_id: str | None = None, line: int | None = None):
        ctx = []
        if doc_id is not None:
            ctx.append(f"doc {doc_id!r}")
        if line is not None:
            ctx.append(f"line {line}")
        prefix = " ".join(ctx)
        super().__init__(f"{prefix}: {message}" if prefix else message)
        self.doc_id = doc_id
        self.line = line


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
                raise ConllParseError(
                    f"unbalanced coreference bracket: '({cid}' opened at token "
                    f"{stack[-1][0]} never closed",
                    doc_id=doc_id,
                    line=stack[-1][1],
                )
        doc = Document(
            doc_id=doc_id or f"doc{len(docs)}",
            sentences=sentences,
            clusters=[tuple(m) for m in clusters.values()],
        )
        try:
            doc.validate()
        except DocumentError as exc:
            raise ConllParseError(str(exc), doc_id=doc.doc_id, line=lineno) from exc
        docs.append(doc)
        doc_id, sentences = None, []
        open_spans, clusters, token_index = {}, {}, 0

    in_doc = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if line.startswith("#begin document"):
            if in_doc:
                raise ConllParseError("nested '#begin document'", doc_id=doc_id, line=lineno)
            m = _BEGIN_RE.match(line)
            name = (m.group("paren") or m.group("bare") or "").strip() if m else ""
            name = name.split(";")[0].strip()
            doc_id = name or None
            in_doc = True
            continue
        if line.startswith("#end document"):
            if not in_doc:
                raise ConllParseError("'#end document' outside a document", line=lineno)
            finish_document(lineno)
            in_doc = False
            continue
        if not in_doc:
            if line.strip():
                raise ConllParseError("content outside '#begin document'", line=lineno)
            continue
        if not line.strip():
            flush_sentence()
            continue
        if line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) < 2:
            raise ConllParseError(
                f"expected at least 2 columns, got {len(parts)}", doc_id=doc_id, line=lineno
            )
        token = parts[3] if len(parts) >= 5 else parts[0]
        coref = parts[-1]
        sentence.append(token)
        if coref != "-":
            _apply_coref_column(
                coref, token_index, lineno, doc_id, open_spans, clusters
            )
        token_index += 1
    if in_doc:
        raise ConllParseError("missing '#end document'", doc_id=doc_id)
    return docs


def _apply_coref_column(column, token_index, lineno, doc_id, open_spans, clusters):
    for marker in column.split("|"):
        m = _MARKER_RE.match(marker)
        if not m:
            raise ConllParseError(
                f"malformed coreference marker {marker!r}", doc_id=doc_id, line=lineno
            )
        opens, cid, closes = m.group(1), int(m.group(2)), m.group(3)
        if opens and closes:
            _add_mention(clusters, cid, (token_index, token_index), doc_id, lineno)
        elif opens:
            open_spans.setdefault(cid, []).append((token_index, lineno))
        elif closes:
            stack = open_spans.get(cid)
            if not stack:
                raise ConllParseError(
                    f"'{cid})' has no matching '({cid}'", doc_id=doc_id, line=lineno
                )
            start, _ = stack.pop()
            _add_mention(clusters, cid, (start, token_index), doc_id, lineno)
        else:  # bare id: not part of the bracket grammar
            raise ConllParseError(
                f"malformed coreference marker {marker!r}", doc_id=doc_id, line=lineno
            )


def _add_mention(clusters, cid, span, doc_id, lineno):
    for other_cid, mentions in clusters.items():
        if span in mentions:
            raise ConllParseError(
                f"mention {span} assigned to clusters {other_cid} and {cid}",
                doc_id=doc_id,
                line=lineno,
            )
    clusters.setdefault(cid, []).append(span)


def write_conll(docs: Sequence[Document]) -> str:
    """Serialize documents; output is byte-stable and round-trips via
    parse_conll unless a cluster has crossing mentions.

    Two mentions of one cluster cross when s1 < s2 < e1 < e2: under the
    innermost-first rule no marker order expresses them (the first close
    would end the later start), so such a document raises DocumentError,
    naming the cluster and both spans, before anything is written. So does
    an id or token that would read back as other text (docs/formats.md).

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
