import numpy as np
import pytest

from corefkit import (
    Document,
    EncoderConfig,
    EngineConfig,
    SchemeConfig,
    enumerate_spans,
    init_params,
    prune_spans,
    resolve_document,
    segment_document,
    synth_corpus,
    width_bucket,
)
from corefkit.encoder import embed_tokens_forward, encode_forward
from corefkit.engine import (
    EngineState,
    ffn_backward,
    ffn_forward,
    pair_features,
    param_layout,
    prune_cap,
    span_dim,
    span_embeddings_backward,
    span_embeddings_forward,
)
from corefkit.numeric import NumericError, grad_check, sigmoid
from oracles import merge_alpha, pair_scores, reference_resolve


@pytest.fixture
def cfg_pair():
    enc = EncoderConfig(num_layers=2, hidden_dim=8, hash_vocab_size=64, max_position=32)
    eng = EngineConfig(
        max_span_width=3, scorer_hidden_dim=6, width_embedding_dim=4,
        pruning_mode="reformulated",
    )
    return enc, eng


@pytest.fixture
def model(cfg_pair):
    enc, eng = cfg_pair
    return init_params(enc, eng, seed=2), enc, eng


class TestParamLayout:
    @pytest.mark.parametrize("enc, eng", [
        (EncoderConfig(num_layers=1, hidden_dim=4, hash_vocab_size=16, max_position=8), EngineConfig()),
        (EncoderConfig(num_layers=2, hidden_dim=8, hash_vocab_size=64, max_position=32),
         EngineConfig(scorer_hidden_dim=5, width_embedding_dim=3)),
        (EncoderConfig(num_layers=3, hidden_dim=6, hash_vocab_size=32, max_position=16),
         EngineConfig(gold_mentions=True, scorer_hidden_dim=7)),
    ], ids=["one_layer", "other_dims", "gold_mentions"])
    def test_matches_init_params(self, enc, eng):
        params = init_params(enc, eng, seed=3)
        described = [(name, shape, group) for name, shape, group, _ in param_layout(enc, eng)]
        assert described == [(name, p.value.shape, p.group) for name, p in params.items()]

    @pytest.mark.parametrize("key", ["max_segment_tokens", "scorer_hidden_dim"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_non_positive_sizes_rejected(self, key, value):
        eng = EngineConfig(**{key: value})
        with pytest.raises(ValueError, match=f"{key} must be >= 1"):
            eng.validate()
        with pytest.raises(ValueError, match=key):
            param_layout(EncoderConfig(), eng)


class TestEnumerate:
    def test_one_sentence_width_three(self):
        spans = enumerate_spans([5], 3)
        assert len(spans) == 5 + 4 + 3
        assert spans == sorted(spans)

    def test_width_one(self):
        assert enumerate_spans([7], 1) == [(i, i) for i in range(7)]

    def test_respects_sentence_boundaries(self):
        spans = enumerate_spans([2, 2], 3)
        assert len(spans) == 6
        assert (1, 2) not in spans

    def test_offset(self):
        spans = enumerate_spans([2], 2, offset=10)
        assert spans == [(10, 10), (10, 11), (11, 11)]


class TestWidthBuckets:
    @pytest.mark.parametrize(
        "width,bucket",
        [(1, 0), (2, 1), (3, 2), (4, 3), (5, 4), (6, 4), (7, 4), (8, 5), (15, 5), (16, 6), (31, 6), (32, 7), (100, 7)],
    )
    def test_bucket_table(self, width, bucket):
        assert width_bucket(width) == bucket


def encode_tokens(params, enc, tokens):
    x, _ = embed_tokens_forward(params, enc, tokens)
    h, _ = encode_forward(params, enc, x)
    return h


class TestSpanEmbedding:
    def test_single_token_span(self, model):
        params, enc, eng = model
        h = encode_tokens(params, enc, ["a", "b", "c"])
        xs, _ = span_embeddings_forward(params, h, [(1, 1)])
        d = enc.hidden_dim
        np.testing.assert_allclose(xs[0, :d], h[1])
        np.testing.assert_allclose(xs[0, d : 2 * d], h[1])
        np.testing.assert_allclose(xs[0, 2 * d : 3 * d], h[1])

    def test_uniform_attention_is_mean(self, model):
        params, enc, eng = model
        params["span.attn_v"].value[...] = 0.0
        h = encode_tokens(params, enc, ["a", "b", "c", "d"])
        xs, _ = span_embeddings_forward(params, h, [(0, 3)])
        d = enc.hidden_dim
        np.testing.assert_allclose(xs[0, 2 * d : 3 * d], h.mean(axis=0), atol=1e-12)

    def test_width_feature_appended(self, model):
        params, enc, eng = model
        h = encode_tokens(params, enc, ["a", "b", "c"])
        xs, _ = span_embeddings_forward(params, h, [(0, 1)])
        d = enc.hidden_dim
        np.testing.assert_allclose(
            xs[0, 3 * d :], params.value("span.width_emb")[width_bucket(2)]
        )
        assert xs.shape[1] == span_dim(enc, eng)

    def test_backward_matches_fd(self, model):
        params, enc, eng = model
        tokens = ["a", "b", "c", "d", "e"]
        spans = [(0, 0), (0, 2), (1, 3), (4, 4)]
        rng = np.random.default_rng(0)
        h0 = rng.normal(size=(5, enc.hidden_dim))
        target = rng.normal(size=(len(spans), span_dim(enc, eng)))

        def loss(backward):
            xs, cache = span_embeddings_forward(params, h0, spans)
            if backward:
                span_embeddings_backward(params, target.copy(), cache)
            return float(np.sum(xs * target))

        assert grad_check(loss, params, eps=1e-6, max_scalars=200, seed=4) < 1e-6


class TestScorers:
    def test_zero_output_layer_gives_bias(self, model):
        params, enc, eng = model
        params["score.mention.w2"].value[...] = 0.0
        params["score.mention.b2"].value[...] = 1.5
        xs = np.random.default_rng(0).normal(size=(3, span_dim(enc, eng)))
        scores, _ = ffn_forward(params, "mention", xs)
        np.testing.assert_allclose(scores, 1.5)

    def test_mention_probability_is_sigmoid(self):
        assert sigmoid(0.0) == 0.5

    def test_batch_pair_scores_match_single(self, model):
        params, enc, eng = model
        rng = np.random.default_rng(1)
        x = rng.normal(size=span_dim(enc, eng))
        cmat = rng.normal(size=(4, span_dim(enc, eng)))
        batch, _ = pair_scores(params, x, cmat)
        for i in range(4):
            single, _ = pair_scores(params, x, cmat[i : i + 1])
            assert float(batch[i]) == pytest.approx(float(single[0]), abs=1e-12)

    def test_scorer_gradients(self, model):
        params, enc, eng = model
        rng = np.random.default_rng(2)
        sd = span_dim(enc, eng)
        x = rng.normal(size=sd)
        c = rng.normal(size=sd)

        for scorer in ("pair", "merge"):
            def loss(backward, scorer=scorer):
                feats = pair_features(x, c[None, :])
                s, cache = ffn_forward(params, scorer, feats)
                if backward:
                    ffn_backward(params, np.ones(1), cache)
                return float(s[0])

            assert grad_check(loss, params, eps=1e-6, max_scalars=150, seed=5) < 1e-6

    def test_merge_alpha_in_unit_interval(self, model):
        params, enc, eng = model
        rng = np.random.default_rng(3)
        sd = span_dim(enc, eng)
        alpha, _ = merge_alpha(params, rng.normal(size=sd), rng.normal(size=sd))
        assert 0.0 < alpha < 1.0

    def test_merge_convex_combination(self):
        x = np.array([1.0, 0.0, -2.0, 0.5])
        c = np.array([0.0, 1.0, 3.0, 0.5])
        for alpha in (0.0, 0.3, 1.0):
            state = EngineState()
            cluster = state.create(c, (0, 0))
            state.merge(cluster, (2, 3), x, alpha)
            merged = state.embeddings()[cluster.cluster_id]
            np.testing.assert_array_equal(merged, alpha * x + (1.0 - alpha) * c)
            assert np.all(merged >= np.minimum(x, c)) and np.all(merged <= np.maximum(x, c))


class TestPruning:
    def test_cap_formula(self):
        assert prune_cap(0.4, 10) == 4
        assert prune_cap(0.4, 11) == 5

    def test_original_top_k(self):
        spans = [(i, i) for i in range(5)]
        scores = np.array([0.1, 0.9, -0.5, 0.8, 0.2])
        kept = prune_spans(spans, scores, 0.4, 5, "original")
        assert [spans[i] for i in kept] == [(1, 1), (3, 3)]

    def test_reformulated_drops_nonpositive(self):
        spans = [(i, i) for i in range(4)]
        scores = np.array([-0.1, -0.9, -0.5, -0.8])
        assert prune_spans(spans, scores, 0.5, 4, "reformulated") == []

    def test_tie_break_earlier_start_then_shorter(self):
        spans = [(2, 3), (2, 2), (0, 1)]
        scores = np.array([1.0, 1.0, 1.0])
        kept = prune_spans(spans, scores, 0.5, 4, "original")
        assert [spans[i] for i in kept] == [(0, 1), (2, 2)]

    def test_reformulated_subset_of_original(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            spans = [(i, i) for i in range(n)]
            scores = rng.normal(size=n)
            k = float(rng.uniform(0.1, 1.0))
            orig = set(prune_spans(spans, scores, k, n, "original"))
            ref = set(prune_spans(spans, scores, k, n, "reformulated"))
            assert ref <= orig
            assert len(orig) <= prune_cap(k, n) and len(ref) <= prune_cap(k, n)

    def test_output_in_document_order(self):
        spans = [(0, 0), (1, 1), (2, 2), (3, 3)]
        scores = np.array([0.1, 0.9, 0.2, 0.8])
        kept = prune_spans(spans, scores, 0.75, 4, "original")
        assert kept == sorted(kept, key=lambda i: spans[i])


def oracle_scorers(gold_entity_of):
    def pair_fn(span, x, cluster):
        same = gold_entity_of.get(span) is not None and gold_entity_of.get(
            cluster.mentions[0]
        ) == gold_entity_of.get(span)
        return 1.0 if same else -1.0

    def alpha_fn(span, x, cluster):
        return 0.5

    return pair_fn, alpha_fn


class TestResolve:
    def test_no_survivors_empty_prediction(self, model):
        params, enc, eng = model
        params["score.mention.w2"].value[...] = 0.0
        params["score.mention.b2"].value[...] = -5.0  # every s_m negative
        doc = Document("d", [["a", "b", "c"]], [])
        assert resolve_document(doc, params, enc, eng) == []

    @pytest.mark.parametrize("scorer", ["mention", "pair", "merge"])
    def test_non_finite_score_rejected(self, model, scorer):
        params, enc, eng = model
        params["score.mention.b2"].value[...] = 5.0  # spans survive pruning
        params["score.pair.b2"].value[...] = 50.0  # and merge into clusters
        params[f"score.{scorer}.b2"].value[...] = np.nan
        doc = Document("d", [[f"t{i}" for i in range(10)]], [])
        with pytest.raises(NumericError, match="non-finite"):
            resolve_document(doc, params, enc, eng)

    def test_gold_mentions_with_oracle_scorer(self, model, tiny_doc):
        params, enc, eng = model
        import dataclasses

        eng = dataclasses.replace(eng, gold_mentions=True)
        gold = {m: i for i, c in enumerate(tiny_doc.clusters) for m in c}
        pair_fn, alpha_fn = oracle_scorers(gold)
        predicted = resolve_document(
            tiny_doc, params, enc, eng, pair_score_fn=pair_fn, alpha_fn=alpha_fn
        )
        assert sorted(predicted) == sorted(tuple(sorted(c)) for c in tiny_doc.clusters)

    def test_gold_mentions_mention_f1_is_one(self, model, tiny_doc):
        import dataclasses

        from corefkit.metrics import PRF, mention_stats

        params, enc, eng = model
        eng = dataclasses.replace(eng, gold_mentions=True, emit_singletons=True)
        predicted = resolve_document(tiny_doc, params, enc, eng)
        pred_mentions = {m for c in predicted for m in c}
        assert PRF.from_stats(*mention_stats(tiny_doc.mentions(), pred_mentions)).f1 == 1.0

    def test_deterministic(self, model, tiny_doc):
        params, enc, eng = model
        assert resolve_document(tiny_doc, params, enc, eng) == resolve_document(
            tiny_doc, params, enc, eng
        )

    def test_tie_joins_lower_cluster_id(self, model):
        import dataclasses

        params, enc, eng = model
        eng = dataclasses.replace(eng, gold_mentions=True, emit_singletons=True)
        doc = Document("d", [["a", "b", "c"]], [((0, 0),), ((1, 1),), ((2, 2),)])

        def pair_fn(span, x, cluster):
            # (1, 1) starts a second cluster; (2, 2) then ties both clusters
            return -1.0 if span == (1, 1) else 1.0

        predicted = resolve_document(
            doc, params, enc, eng, pair_score_fn=pair_fn, alpha_fn=lambda *a: 0.5
        )
        assert predicted == [((0, 0), (2, 2)), ((1, 1),)]

    def test_dummy_zero_is_creation_threshold(self, model):
        import dataclasses

        params, enc, eng = model
        eng = dataclasses.replace(eng, gold_mentions=True, emit_singletons=True)
        doc = Document("d", [["a", "b", "c"]], [((0, 0), (1, 1), (2, 2))])
        # s_m is skipped with gold boundaries, so s_c == the injected pair score:
        # exactly 0 must create a new cluster, any positive value must merge
        at_zero = resolve_document(doc, params, enc, eng, pair_score_fn=lambda *a: 0.0)
        assert at_zero == [((0, 0),), ((1, 1),), ((2, 2),)]
        above = resolve_document(
            doc, params, enc, eng, pair_score_fn=lambda *a: 1e-9, alpha_fn=lambda *a: 0.5
        )
        assert above == [((0, 0), (1, 1), (2, 2))]

    def test_mentions_in_document_order_and_unique(self, model):
        params, enc, eng = model
        doc = Document("d", [[f"t{i}" for i in range(12)], [f"u{i}" for i in range(10)]], [])
        clusters = resolve_document(doc, params, enc, eng)
        seen = set()
        for cluster in clusters:
            assert list(cluster) == sorted(cluster)
            for m in cluster:
                assert m not in seen
                seen.add(m)

    def test_singleton_emission_by_mode(self, model):
        import dataclasses

        params, enc, eng = model
        doc = Document("d", [[f"t{i}" for i in range(10)]], [])
        # pair score forced very negative: every span becomes its own cluster
        def never_merge(span, x, cluster):
            return -100.0

        ref = resolve_document(
            doc, params, enc, dataclasses.replace(eng, pruning_mode="reformulated"),
            pair_score_fn=never_merge,
        )
        orig = resolve_document(
            doc, params, enc, dataclasses.replace(eng, pruning_mode="original"),
            pair_score_fn=never_merge,
        )
        assert all(len(c) == 1 for c in ref) and len(ref) > 0
        assert orig == []  # singletons dropped in postprocessing
        override = resolve_document(
            doc, params, enc,
            dataclasses.replace(eng, pruning_mode="original", emit_singletons=True),
            pair_score_fn=never_merge,
        )
        assert len(override) > 0

    def test_constant_memory_probe(self, cfg_pair):
        import dataclasses

        enc, eng = cfg_pair
        eng = dataclasses.replace(eng, gold_mentions=True, max_segment_tokens=8)
        params = init_params(enc, eng, seed=0)

        # 50 sentences of 8 tokens; 3 entities, each mentioned in every sentence
        sentences = []
        clusters = {0: [], 1: [], 2: []}
        for s in range(50):
            base = s * 8
            sentences.append([f"e{k}" for k in range(3)] + [f"w{s}a", "w", "x", "y", "z"])
            for k in range(3):
                clusters[k].append((base + k, base + k))
        doc = Document("long", sentences, [tuple(v) for v in clusters.values()])

        gold = {m: i for i, c in enumerate(doc.clusters) for m in c}
        pair_fn, alpha_fn = oracle_scorers(gold)
        sizes = []
        resolve_document(
            doc, params, enc, eng, pair_score_fn=pair_fn, alpha_fn=alpha_fn,
            on_segment=lambda i, state: sizes.append(state.float_state_size()),
        )
        assert len(sizes) == 50
        tail = sizes[-40:]
        assert len(set(tail)) == 1  # constant across the final 40 segments
        assert tail[0] == 3 * span_dim(enc, eng)


class TestMatchesPerSpanReference:
    @pytest.mark.parametrize("gold_mentions", [True, False])
    def test_clusters_equal_on_multi_segment_documents(self, cfg_pair, gold_mentions):
        import dataclasses

        enc, eng = cfg_pair
        eng = dataclasses.replace(eng, gold_mentions=gold_mentions, max_segment_tokens=20)
        docs = synth_corpus(SchemeConfig(num_docs=4, seed=7, sentences_per_doc=(4, 6),
                                         entities_per_doc=(2, 4), mentions_per_entity=(2, 4)))
        merged = 0
        for seed in range(3):
            params = init_params(enc, eng, seed=seed)
            for doc in docs:
                assert len(segment_document(doc, 20)) > 1
                predicted = resolve_document(doc, params, enc, eng)
                assert predicted == reference_resolve(doc, params, enc, eng)
                merged += sum(len(c) > 1 for c in predicted)
        assert merged  # the merge gate was reached


class TestState:
    def test_matrix_rows_are_the_cluster_embeddings(self, model, growing_doc, monkeypatch):
        import dataclasses

        params, enc, eng = model
        eng = dataclasses.replace(eng, gold_mentions=True, emit_singletons=True, max_segment_tokens=16)
        gold = {m: i for i, c in enumerate(growing_doc.clusters) for m in c}
        pair_fn, _ = oracle_scorers(gold)
        shadow = []  # each cluster's embedding as an array of its own
        create, merge = EngineState.create, EngineState.merge

        def recording_create(state, embedding, span):
            shadow.append(embedding.copy())
            return create(state, embedding, span)

        def recording_merge(state, cluster, span, x, alpha):
            shadow[cluster.cluster_id] = alpha * x + (1.0 - alpha) * shadow[cluster.cluster_id]
            merge(state, cluster, span, x, alpha)

        monkeypatch.setattr(EngineState, "create", recording_create)
        monkeypatch.setattr(EngineState, "merge", recording_merge)
        live = []

        def check(i, state):
            np.testing.assert_array_equal(state.embeddings(), np.stack(shadow))
            assert state.float_state_size() == len(state.clusters) * span_dim(enc, eng)
            live.append(len(state.clusters))

        # the learned merge gate, so that merges move rows by varied weights
        predicted = resolve_document(growing_doc, params, enc, eng, pair_score_fn=pair_fn, on_segment=check)
        assert len(live) == 6 and max(live) == 24 > EngineState.FIRST_CAPACITY
        assert sorted(predicted) == sorted(growing_doc.clusters)

    def test_state_holds_only_embeddings_and_mentions(self):
        state = EngineState()
        c = state.create(np.ones(5), (0, 1))
        assert state.float_state_size() == 5
        assert c.mentions == [(0, 1)]
        c2 = state.create(np.ones(5), (2, 3))
        assert state.float_state_size() == 10
        assert (c.cluster_id, c2.cluster_id) == (0, 1)
        np.testing.assert_array_equal(state.embeddings(), np.ones((2, 5)))

    def test_merge_moves_embedding_and_adds_mention(self):
        state = EngineState()
        initial = np.zeros(2)
        c = state.create(initial, (0, 0))
        view = state.embeddings()
        state.merge(c, (1, 1), np.array([1.0, 2.0]), 0.25)
        np.testing.assert_array_equal(state.embeddings()[c.cluster_id], [0.25, 0.5])
        np.testing.assert_array_equal(view[c.cluster_id], [0.25, 0.5])  # written in place
        np.testing.assert_array_equal(initial, [0.0, 0.0])  # create copied its input
        assert c.mentions == [(0, 0), (1, 1)]

