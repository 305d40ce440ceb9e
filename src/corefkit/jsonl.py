"""Line-delimited JSON serialization for documents.

One record per line: ``{"doc_id": ..., "sentences": [[...]], "clusters":
[[[s, e], ...], ...], "metadata": {...}}``. The metadata field is optional and
omitted when empty. Round trip with the document model is lossless.
"""

from __future__ import annotations

import json
from typing import Sequence

from .documents import Document, DocumentError


def parse_jsonl(text: str) -> list[Document]:
    docs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            record = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise DocumentError(f"line {lineno}: invalid JSON: {exc.msg}") from exc
        if not isinstance(record, dict):
            raise DocumentError(f"line {lineno}: record is not an object")
        try:
            doc = Document(
                doc_id=str(record["doc_id"]),
                sentences=[[str(t) for t in sent] for sent in record["sentences"]],
                clusters=[
                    tuple((int(s), int(e)) for (s, e) in cluster)
                    for cluster in record.get("clusters", [])
                ],
                metadata=record.get("metadata"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DocumentError(f"line {lineno}: malformed record: {exc}") from exc
        try:
            doc.validate()
        except DocumentError as exc:
            raise DocumentError(f"line {lineno}: {exc}") from exc
        docs.append(doc)
    return docs


def write_jsonl(docs: Sequence[Document]) -> str:
    lines = []
    for doc in docs:
        doc.validate()
        record = {
            "doc_id": doc.doc_id,
            "sentences": doc.sentences,
            "clusters": [[list(span) for span in cluster] for cluster in doc.clusters],
        }
        if doc.metadata:
            record["metadata"] = doc.metadata
        lines.append(json.dumps(record, sort_keys=True))
    return "\n".join(lines) + "\n" if lines else ""
