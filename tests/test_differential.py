"""Oracle-differential properties: the fast walks against the per-span and
per-pair references in ``oracles``, on drawn documents and configs."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corefkit import EncoderConfig, EngineConfig, SchemeConfig, document_loss, init_params, synth_corpus
from corefkit.documents import segment_document
from corefkit.engine import resolve_document, span_dim
from oracles import reference_document_loss, reference_resolve

ENC = EncoderConfig(num_layers=2, hidden_dim=8, hash_vocab_size=64, max_position=128)

# few examples and fixed draws: Tier-1 stays fast and reproducible
FEW = settings(max_examples=50, deadline=None, database=None, derandomize=True)


@st.composite
def cases(draw):
    """A small synthetic document cut into 2-4 segments, an engine config, an
    objective and a model whose pair-scorer bias is shifted so that merges happen."""
    sentences = draw(st.integers(2, 5))
    doc = synth_corpus(SchemeConfig(
        num_docs=1, seed=draw(st.integers(0, 10_000)), sentences_per_doc=(sentences, sentences),
        entities_per_doc=(1, draw(st.integers(1, 4))), mentions_per_entity=(1, draw(st.integers(1, 4))),
        annotate_singletons=draw(st.booleans()),
    ))[0]
    lengths = [len(s) for s in doc.sentences]
    max_segment_tokens = max(max(lengths), math.ceil(sum(lengths) / draw(st.integers(2, 4))))
    assume(2 <= len(segment_document(doc, max_segment_tokens)) <= 4)
    eng = EngineConfig(
        max_span_width=draw(st.integers(1, 4)),
        max_segment_tokens=max_segment_tokens,
        pruning_mode=draw(st.sampled_from(["original", "reformulated"])),
        gold_mentions=draw(st.booleans()),
        prune_ratio=draw(st.sampled_from([0.2, 0.4, 1.0])),
        emit_singletons=draw(st.sampled_from([None, False, True])),
        scorer_hidden_dim=6,
        width_embedding_dim=4,
    )
    params = init_params(ENC, eng, seed=draw(st.integers(0, 100)))
    params["score.pair.b2"].value[...] += draw(st.sampled_from([0.0, 1.0, 3.0]))
    objective = draw(st.sampled_from(["antecedent_only", "joint_singleton"]))
    return doc, eng, params, objective


@FEW
@given(cases())
def test_resolve_matches_per_span_reference(case):
    doc, eng, params, _ = case
    dim = span_dim(ENC, eng)
    live = []

    def check_state(i, state):
        assert state.float_state_size() == len(state.clusters) * dim
        live.append(len(state.clusters))

    predicted = resolve_document(doc, params, ENC, eng, on_segment=check_state)
    assert predicted == reference_resolve(doc, params, ENC, eng)
    assert len(live) == len(segment_document(doc, eng.max_segment_tokens))
    mentions = [span for cluster in predicted for span in cluster]
    assert len(mentions) == len(set(mentions))  # clusters are disjoint
    starts = np.cumsum([0] + [len(s) for s in doc.sentences])
    for start, end in mentions:
        # gold mentions are taken as annotated, whatever their width
        assert eng.gold_mentions or end - start < eng.max_span_width
        assert np.searchsorted(starts, start, "right") == np.searchsorted(starts, end, "right")


@FEW
@given(cases())
def test_loss_and_gradients_match_per_pair_reference(case):
    doc, eng, params, objective = case
    params.zero_grads()
    loss = document_loss(doc, params, ENC, eng, objective)
    grads = params.flat_grads().copy()
    params.zero_grads()
    expected = reference_document_loss(doc, params, ENC, eng, objective)
    # one (C, k) matmul and C separate (1, k) ones differ in the last ulp
    assert loss == pytest.approx(expected, rel=1e-12)
    scale = float(np.abs(params.flat_grads()).max())
    np.testing.assert_allclose(grads, params.flat_grads(), rtol=0, atol=1e-12 * scale)
