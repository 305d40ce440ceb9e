import dataclasses

import pytest

from corefkit import SchemeConfig, synth_corpus
from oracles import structurally_equal


def test_deterministic_under_seed():
    cfg = SchemeConfig(num_docs=8, seed=42)
    a = synth_corpus(cfg)
    b = synth_corpus(cfg)
    assert len(a) == len(b) == 8
    for x, y in zip(a, b):
        assert structurally_equal(x, y)


def test_different_seeds_differ():
    a = synth_corpus(SchemeConfig(num_docs=5, seed=1))
    b = synth_corpus(SchemeConfig(num_docs=5, seed=2))
    assert any(x.sentences != y.sentences for x, y in zip(a, b))


def test_no_singletons_when_disabled():
    cfg = SchemeConfig(num_docs=20, seed=3, annotate_singletons=False, mentions_per_entity=(1, 3))
    for doc in synth_corpus(cfg):
        assert all(len(c) >= 2 for c in doc.clusters)


def test_annotation_switch_keeps_tokens():
    base = SchemeConfig(num_docs=15, seed=9, mentions_per_entity=(1, 3))
    with_singletons = synth_corpus(base)
    without = synth_corpus(dataclasses.replace(base, annotate_singletons=False))
    assert all(a.sentences == b.sentences for a, b in zip(with_singletons, without))
    total_with = sum(len(d.clusters) for d in with_singletons)
    total_without = sum(len(d.clusters) for d in without)
    assert total_without < total_with


def test_type_restriction_keeps_tokens_drops_clusters():
    base = SchemeConfig(num_docs=15, seed=9)
    full = synth_corpus(base)
    restricted = synth_corpus(
        dataclasses.replace(base, allowed_entity_types=frozenset({"person"}))
    )
    assert all(a.sentences == b.sentences for a, b in zip(full, restricted))
    assert sum(len(d.clusters) for d in restricted) < sum(len(d.clusters) for d in full)


def test_entities_learnable_from_tokens():
    # mentions of one entity share surface tokens: first tokens of the
    # mention spans of a cluster come from a 2-word lexicon (name / "the")
    for doc in synth_corpus(SchemeConfig(num_docs=10, seed=5)):
        tokens = doc.tokens
        for cluster in doc.clusters:
            heads = {tokens[e] for (s, e) in cluster}
            assert len(heads) <= 2


def test_documents_valid():
    for doc in synth_corpus(SchemeConfig(num_docs=30, seed=6)):
        doc.validate()


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        SchemeConfig(entities_per_doc=(3, 2)).validate()
    with pytest.raises(ValueError):
        SchemeConfig(allowed_entity_types=frozenset({"martian"})).validate()
    # an empty set would drop every cluster; None is the unrestricted scheme
    with pytest.raises(ValueError, match="allowed_entity_types is empty; use none for no restriction"):
        SchemeConfig(allowed_entity_types=frozenset()).validate()
    with pytest.raises(ValueError, match="vocab_size must be >= 10"):
        SchemeConfig(vocab_size=9).validate()
    with pytest.raises(ValueError, match="num_docs must be >= 1"):
        SchemeConfig(num_docs=0).validate()
    SchemeConfig(vocab_size=10, num_docs=1).validate()
