"""Synthetic coreference corpora with switchable annotation schemes.

Documents are built from pseudo-word fillers plus entities that keep a stable
surface lexicon (a proper-name token and a descriptor noun), so coreference is
learnable from tokens alone. Annotation switches mirror real guideline
differences: singleton clusters can be left unannotated, and gold clusters can
be restricted to a subset of entity types while the mentions stay in the text.

Text generation and annotation filtering are independent: two configs that
differ only in annotation switches produce identical token sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .documents import Document

ENTITY_TYPES = ("person", "place", "org", "artifact")

_CONSONANTS = list("bdfgklmnprstvz")
_VOWELS = list("aeiou")


@dataclass(frozen=True)
class SchemeConfig:
    annotate_singletons: bool = True
    allowed_entity_types: Optional[frozenset[str]] = None
    vocab_size: int = 200
    num_docs: int = 10
    sentences_per_doc: tuple[int, int] = (3, 6)
    entities_per_doc: tuple[int, int] = (2, 4)
    mentions_per_entity: tuple[int, int] = (1, 4)
    seed: int = 0

    def validate(self) -> "SchemeConfig":
        if self.vocab_size < 10:
            raise ValueError("vocab_size must be >= 10")
        if self.num_docs < 1:
            raise ValueError("num_docs must be >= 1")
        for name in ("sentences_per_doc", "entities_per_doc", "mentions_per_entity"):
            lo, hi = getattr(self, name)
            if not (1 <= lo <= hi):
                raise ValueError(f"{name} range ({lo}, {hi}) is empty or non-positive")
        if self.allowed_entity_types is not None:
            if not self.allowed_entity_types:
                raise ValueError("allowed_entity_types is empty; use none for no restriction")
            unknown = set(self.allowed_entity_types) - set(ENTITY_TYPES)
            if unknown:
                raise ValueError(f"unknown entity types: {sorted(unknown)}")
        return self


def _pseudo_word(rng: np.random.Generator, syllables: int) -> str:
    return "".join(
        _CONSONANTS[rng.integers(len(_CONSONANTS))] + _VOWELS[rng.integers(len(_VOWELS))]
        for _ in range(syllables)
    )


def _word_pool(rng: np.random.Generator, count: int, syllables: int, transform=None) -> list[str]:
    pool: list[str] = []
    seen = set()
    while len(pool) < count:
        word = _pseudo_word(rng, syllables)
        if transform:
            word = transform(word)
        if word not in seen:
            seen.add(word)
            pool.append(word)
    return pool


def _sample_range(rng: np.random.Generator, lohi: tuple[int, int]) -> int:
    lo, hi = lohi
    return int(rng.integers(lo, hi + 1))


def synth_corpus(config: SchemeConfig) -> list[Document]:
    """Generate a deterministic corpus for the given scheme configuration."""
    config.validate()
    rng = np.random.default_rng(config.seed)

    fillers = _word_pool(rng, config.vocab_size, syllables=2)
    max_entities = config.entities_per_doc[1]
    names = _word_pool(rng, max(4 * max_entities, 32), syllables=3, transform=str.capitalize)
    descriptors = _word_pool(rng, max(4 * max_entities, 32), syllables=2, transform=lambda w: w + "on")

    docs = []
    for doc_index in range(config.num_docs):
        doc = _generate_document(rng, config, doc_index, fillers, names, descriptors)
        docs.append(doc)
    return docs


def _generate_document(rng, config, doc_index, fillers, names, descriptors) -> Document:
    num_entities = _sample_range(rng, config.entities_per_doc)
    num_sentences = _sample_range(rng, config.sentences_per_doc)

    name_ids = rng.choice(len(names), size=num_entities, replace=False)
    desc_ids = rng.choice(len(descriptors), size=num_entities, replace=False)
    entities = []
    for i in range(num_entities):
        entities.append(
            {
                "type": ENTITY_TYPES[int(rng.integers(len(ENTITY_TYPES)))],
                "name": names[int(name_ids[i])],
                "descriptor": descriptors[int(desc_ids[i])],
                "mentions": _sample_range(rng, config.mentions_per_entity),
            }
        )

    # schedule each mention instance into a sentence
    slots: list[list[int]] = [[] for _ in range(num_sentences)]
    for eid, ent in enumerate(entities):
        for _ in range(ent["mentions"]):
            slots[int(rng.integers(num_sentences))].append(eid)

    sentences: list[list[str]] = []
    spans_by_entity: dict[int, list[tuple[int, int]]] = {eid: [] for eid in range(num_entities)}
    flat = 0
    for sent_slots in slots:
        sentence: list[str] = []

        def emit_fillers(lo, hi):
            for _ in range(_sample_range(rng, (lo, hi))):
                sentence.append(fillers[int(rng.integers(len(fillers)))])

        emit_fillers(1, 3)
        for eid in sent_slots:
            ent = entities[eid]
            start = flat + len(sentence)
            if rng.random() < 0.7:
                sentence.append(ent["name"])
            else:
                sentence.append("the")
                sentence.append(ent["descriptor"])
            spans_by_entity[eid].append((start, flat + len(sentence) - 1))
            emit_fillers(1, 2)
        sentences.append(sentence)
        flat += len(sentence)

    clusters = []
    for eid, ent in enumerate(entities):
        mentions = spans_by_entity[eid]
        if not mentions:
            continue
        if not config.annotate_singletons and len(mentions) < 2:
            continue
        if config.allowed_entity_types is not None and ent["type"] not in config.allowed_entity_types:
            continue
        clusters.append(tuple(mentions))

    doc = Document(
        doc_id=f"synth-{config.seed}-{doc_index:04d}",
        sentences=sentences,
        clusters=clusters,
        metadata={
            "scheme": {
                "annotate_singletons": config.annotate_singletons,
                "allowed_entity_types": sorted(config.allowed_entity_types)
                if config.allowed_entity_types is not None
                else None,
            },
        },
    )
    return doc.validate()
