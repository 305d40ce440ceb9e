"""Brute-force reference implementations used to verify the metrics.

These deliberately use different machinery than the library: MUC via
union-find connected components, B-cubed via per-mention loops, CEAF and the
assignment solver via explicit permutation enumeration. The dev-set
allocation reference re-scores every sampled subset from cluster lists. The
teacher-forced loss reference scores each (span, cluster) pair on its own,
with soft antecedent weights, keeps a copy of each cluster embedding it
scored, and runs one backward call per pair and per merge. The inference
walk reference scores each span against a copied cluster matrix with one
pair-scorer call and one merge-gate call of its own. The Adam references
update one tensor at a time, each with its own moment arrays: one in the
library's arithmetic, one in the textbook order. Round trips
through the readers and writers are checked with ``structurally_equal``.

The loop versions of the parameter-free steps that the library does as array
operations are kept here too: span enumeration, width buckets, pruning by a
sort key, and the encoder's window mix over one shifted copy per offset.
"""

import itertools
import math
import statistics

import numpy as np

from corefkit.documents import canonical_clusters
from corefkit.engine import (
    DUMMY_SCORE,
    PRUNE_ORIGINAL,
    PRUNE_REFORMULATED,
    ffn_backward,
    ffn_forward,
    plan_document,
    prune_cap,
    segment_forward,
    span_dim,
    span_embeddings_backward,
)
from corefkit.encoder import _WINDOW_OFFSETS, embed_tokens_backward, encode_backward
from corefkit.metrics import score_corpus
from corefkit.numeric import ENCODER_GROUP, NumericError, sigmoid
from corefkit.training import OBJECTIVE_JOINT, select_checkpoint


def oracle_muc_side(clusters, other):
    num = den = 0
    for cluster in clusters:
        members = sorted(cluster)
        parent = {m: m for m in members}

        def find(m):
            while parent[m] != m:
                parent[m] = parent[parent[m]]
                m = parent[m]
            return m

        for x, y in itertools.combinations(members, 2):
            if any(x in oc and y in oc for oc in other):
                parent[find(x)] = find(y)
        components = len({find(m) for m in members})
        num += len(cluster) - components
        den += len(cluster) - 1
    return num, den


def oracle_prf(pn, pd, rn, rd):
    """Precision, recall and F1 of summed counts, in scalar Python."""
    p = pn / pd if pd else 0.0
    r = rn / rd if rd else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


def oracle_muc(key, response):
    rn, rd = oracle_muc_side(key, response)
    pn, pd = oracle_muc_side(response, key)
    return oracle_prf(pn, pd, rn, rd)


def oracle_b_cubed_side(clusters, other):
    total = 0.0
    count = 0
    for cluster in clusters:
        for m in cluster:
            own = next(c for c in clusters if m in c)
            theirs = next((c for c in other if m in c), set())
            total += len(own & theirs) / len(own)
            count += 1
    return total, count


def oracle_b_cubed(key, response):
    rn, rd = oracle_b_cubed_side(key, response)
    pn, pd = oracle_b_cubed_side(response, key)
    return oracle_prf(pn, pd, rn, rd)


def phi4(a, b):
    if not a and not b:
        return 0.0
    return 2.0 * len(a & b) / (len(a) + len(b))


def oracle_ceaf(key, response):
    key = [frozenset(c) for c in key]
    response = [frozenset(c) for c in response]
    if not key or not response:
        return 0.0, 0.0, 0.0
    if len(key) <= len(response):
        small, large = key, response
    else:
        small, large = response, key
    best = 0.0
    for perm in itertools.permutations(range(len(large)), len(small)):
        total = sum(phi4(small[i], large[j]) for i, j in enumerate(perm))
        best = max(best, total)
    return oracle_prf(best, len(response), best, len(key))


def oracle_assignment_total(matrix):
    """The best total over assignments of min(rows, cols) pairs, negative
    cells included."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape[0] > matrix.shape[1]:
        matrix = matrix.T
    rows, cols = matrix.shape
    return max(
        sum(matrix[i, j] for i, j in enumerate(perm))
        for perm in itertools.permutations(range(cols), rows)
    )


def random_clustering(rng, mentions, max_clusters):
    chosen = [m for m in mentions if rng.random() < 0.8]
    rng.shuffle(chosen)
    if not chosen:
        return []
    k = rng.integers(1, min(max_clusters, len(chosen)) + 1)
    cuts = (
        sorted(rng.choice(range(1, len(chosen)), size=k - 1, replace=False))
        if k > 1
        else []
    )
    clusters = []
    prev = 0
    for cut in list(cuts) + [len(chosen)]:
        clusters.append(set(chosen[prev:cut]))
        prev = cut
    return [c for c in clusters if c]


def structurally_equal(a, b):
    """Identity of doc_id, token content and clusters; metadata is ignored."""
    return (
        a.doc_id == b.doc_id
        and a.sentences == b.sentences
        and canonical_clusters(a.clusters) == canonical_clusters(b.clusters)
    )


def oracle_dev_allocation(history, dev_docs, test_docs, spec, patience):
    """dev_allocation_experiment by re-scoring each subset at each epoch."""

    def subset_score(cached_epoch, docs):
        return score_corpus((doc.clusters, cached_epoch[doc.doc_id]) for doc in docs).avg_f1

    dev_cached = [record.dev_predictions for record in history]
    test_cached = [record.extra_predictions for record in history]
    full_scores = [subset_score(epoch, dev_docs) for epoch in dev_cached]
    full_best, _ = select_checkpoint(full_scores, patience)

    rng = np.random.default_rng(spec.seed)
    rows = []
    for size in spec.dev_subset_sizes:
        selected_test = []
        agreement = 0
        for _ in range(spec.num_subsets):
            chosen = rng.choice(len(dev_docs), size=int(size), replace=False)
            subset = [dev_docs[i] for i in chosen]
            scores = [subset_score(epoch, subset) for epoch in dev_cached]
            best, _ = select_checkpoint(scores, patience)
            selected_test.append(subset_score(test_cached[best], test_docs))
            agreement += int(best == full_best)
        rows.append(
            {
                "subset_size": int(size),
                "expected_test_f1": statistics.mean(selected_test),
                "std_test_f1": statistics.pstdev(selected_test),
                "agreement": agreement,
                "num_subsets": spec.num_subsets,
                "full_dev_epoch": full_best + 1,
                "full_dev_test_f1": subset_score(test_cached[full_best], test_docs),
            }
        )
    return rows


def softmax(scores):
    shifted = scores - scores.max()
    e = np.exp(shifted)
    return e / e.sum()


def pair_features(x, cmat):
    """[span; cluster; span*cluster] rows, concatenated: the library fills a buffer it is given."""
    return np.concatenate([np.broadcast_to(x, cmat.shape), cmat, x * cmat], axis=1)


def pair_features_backward(dfeat, x, cmat):
    """The span gradient summed over the rows, and one gradient row per cluster."""
    n = x.shape[0]
    dx = (dfeat[:, :n] + dfeat[:, 2 * n :] * cmat).sum(axis=0)
    dc = dfeat[:, n : 2 * n] + dfeat[:, 2 * n :] * x
    return dx, dc


def pair_scores(params, x, cmat):
    """s_a of one span against a (C, span_dim) matrix of cluster embeddings."""
    return ffn_forward(params, "pair", pair_features(x, cmat))


def merge_alpha(params, x, c):
    """The merge gate's weight for span x joining the cluster with embedding c."""
    logits, cache = ffn_forward(params, "merge", pair_features(x, c[None, :]))
    return float(sigmoid(logits[0])), cache


class _RefCluster:
    def __init__(self, cluster_id, embedding):
        self.cluster_id = cluster_id
        self.embedding = embedding


class _RefState:
    def __init__(self):
        self.clusters = []
        self.by_entity = {}
        self.ant_counts = {}

    def create(self, entity, embedding):
        cluster = _RefCluster(len(self.clusters), embedding.copy())
        self.clusters.append(cluster)
        self.by_entity[entity] = cluster
        return cluster

    def record_antecedent(self, entity, cluster_id):
        counts = self.ant_counts.setdefault(entity, {})
        counts[cluster_id] = counts.get(cluster_id, 0) + 1


def reference_document_loss(doc, params, encoder_cfg, engine_cfg, objective, backward=True):
    """training.document_loss with one pair-scorer call per (span, cluster).

    The antecedent target is a weight per cluster, proportional to how often
    the span's entity chose it; gradients accumulate into ``params``.
    """
    gold = {span: entity for entity, cluster in enumerate(doc.clusters) for span in cluster}
    state = _RefState()
    total = 0.0
    for segment in plan_document(doc, encoder_cfg, engine_cfg).segments:
        total += _reference_segment_loss(
            segment, gold, state, params, encoder_cfg, engine_cfg, objective, backward
        )
    return total


def _reference_segment_loss(
    segment, gold, state, params, encoder_cfg, engine_cfg, objective, backward
):
    fwd = segment_forward(segment, params, encoder_cfg, engine_cfg)
    if fwd is None:
        return 0.0
    spans, xs, sm = fwd.spans, fwd.xs, fwd.mention_scores
    joint = objective == OBJECTIVE_JOINT
    use_mention_terms = joint and not engine_cfg.gold_mentions
    steps = []
    mention_terms = []
    total = 0.0

    for row in fwd.kept:
        span = spans[row]
        entity = gold.get(span)
        x = xs[row]
        score_caches = []
        scores = []
        for cluster in list(state.clusters):
            s, cache = ffn_forward(params, "pair", pair_features(x, cluster.embedding[None, :]))
            score_caches.append((cluster, cluster.embedding.copy(), cache))
            scores.append(float(s[0]))
        sa_vec = np.array(scores + [DUMMY_SCORE])
        if joint:
            logits = sa_vec
        else:
            logits = sa_vec + np.concatenate([np.full(len(scores), sm[row]), [0.0]])
        p = softmax(logits)

        weights = np.zeros(len(p))
        if state.ant_counts.get(entity):
            counts = state.ant_counts[entity]
            n_ant = sum(counts.values())
            for cid, count in counts.items():
                weights[cid] = count / n_ant
        else:
            weights[-1] = 1.0
        q = float(weights @ p)
        total += -np.log(q)

        if use_mention_terms:
            s = sigmoid(sm[row])
            is_mention = entity is not None
            total += -np.log(s) if is_mention else -np.log(1.0 - s)
            mention_terms.append((row, is_mention, s))

        merge_cache = None
        created = None
        if entity is not None:
            existing = state.by_entity.get(entity)
            if existing is None:
                created = state.create(entity, x)
            else:
                alpha, cache = merge_alpha(params, x, existing.embedding)
                merge_cache = (existing, existing.embedding.copy(), alpha, cache)
                existing.embedding = alpha * x + (1.0 - alpha) * existing.embedding
            state.record_antecedent(entity, (created or state.by_entity[entity]).cluster_id)
        steps.append((row, p, weights, q, score_caches, merge_cache, created))

    if use_mention_terms:
        kept = set(fwd.kept)
        for row in (i for i, span in enumerate(spans) if span in gold and i not in kept):
            s = sigmoid(sm[row])
            total += -np.log(s)
            mention_terms.append((row, True, s))
    if not np.isfinite(total):
        raise NumericError("non-finite reference loss")
    if backward:
        _reference_segment_backward(params, fwd, steps, mention_terms, joint)
    return float(total)


def _reference_segment_backward(params, fwd, steps, mention_terms, joint):
    xs = fwd.xs
    dxs = np.zeros_like(xs)
    dsm = np.zeros_like(fwd.mention_scores)
    slots = {}

    for (row, p, weights, q, score_caches, merge_cache, created) in reversed(steps):
        x = xs[row]
        if merge_cache is not None:
            cluster, c_before, alpha, cache = merge_cache
            dc_after = slots.pop(cluster.cluster_id, None)
            if dc_after is not None:
                dalpha = float(dc_after @ (x - c_before))
                dxs[row] += alpha * dc_after
                dlogit = dalpha * alpha * (1.0 - alpha)
                dfeat = ffn_backward(params, np.array([dlogit]), cache)
                dx_f, dc_f = pair_features_backward(dfeat, x, c_before[None, :])
                dxs[row] += dx_f
                slots[cluster.cluster_id] = (1.0 - alpha) * dc_after + dc_f[0]
        if created is not None:
            dc = slots.pop(created.cluster_id, None)
            if dc is not None:
                dxs[row] += dc

        # softmax cross-entropy against soft targets: d s_k = p_k - w_k p_k / q
        dscores = p - weights * p / q
        for k, (cluster, c_snap, cache) in enumerate(score_caches):
            ds = float(dscores[k])
            if not joint:
                dsm[row] += ds
            dfeat = ffn_backward(params, np.array([ds]), cache)
            dx_f, dc_f = pair_features_backward(dfeat, x, c_snap[None, :])
            dxs[row] += dx_f
            slots[cluster.cluster_id] = slots.get(cluster.cluster_id, 0.0) + dc_f[0]

    for (row, is_mention, s) in mention_terms:
        dsm[row] += (s - 1.0) if is_mention else s

    if fwd.mention_cache is not None:
        dxs += ffn_backward(params, dsm, fwd.mention_cache)
    dh = span_embeddings_backward(params, dxs, fwd.span_cache)
    dx0 = encode_backward(params, dh, fwd.enc_caches)
    embed_tokens_backward(params, dx0, fwd.ids)


def reference_resolve(doc, params, encoder_cfg, engine_cfg):
    """engine.resolve_document with the learned scorers, one span at a time.

    Each span is scored with ``pair_scores`` on a copy of the cluster matrix,
    and a merge's weight comes from ``merge_alpha`` on the chosen row.
    """
    clusters = []
    cmat = np.empty((0, span_dim(encoder_cfg, engine_cfg)))
    for segment in plan_document(doc, encoder_cfg, engine_cfg).segments:
        fwd = segment_forward(segment, params, encoder_cfg, engine_cfg)
        for row in fwd.kept if fwd is not None else ():
            span, x = fwd.spans[row], fwd.xs[row]
            best, best_pos = -math.inf, -1
            if clusters:
                sa, _ = pair_scores(params, x, cmat.copy())
                sc = fwd.mention_scores[row] + sa
                best_pos = int(np.argmax(sc))  # ties go to the lower cluster id
                best = float(sc[best_pos])
                if not math.isfinite(best):
                    raise NumericError(f"non-finite cluster score {best} at span {span}")
            if best <= DUMMY_SCORE:
                clusters.append([span])
                cmat = np.vstack([cmat, x])
            else:
                alpha, _ = merge_alpha(params, x, cmat[best_pos].copy())
                cmat[best_pos] = (1.0 - alpha) * cmat[best_pos] + alpha * x
                clusters[best_pos].append(span)
    out = [tuple(c) for c in clusters]
    return out if engine_cfg.keeps_singletons else [c for c in out if len(c) > 1]


def reference_adam_step(opt, params):
    """numeric.AdamOptimizer.step one tensor at a time, in its arithmetic.

    ``opt`` carries ``config`` (a ``TrainConfig``), ``step_count`` and
    per-name ``m``/``v`` arrays of its own; ``params`` is only read and written
    per tensor. The squared norm sums dot products over slices of at most
    8,192 gradients of each tensor's view. Returns the pre-clip global
    gradient norm. The moment decay rates, the denominator guard and the
    slice length are written out here, not imported.
    """
    beta1, beta2, eps, chunk = 0.9, 0.999, 1e-8, 8192
    cfg = opt.config
    sq = 0.0
    for name, p in params.items():
        if p.frozen:
            continue
        if not np.all(np.isfinite(p.grad)):
            raise NumericError(f"non-finite gradient in {name}")
        g = p.grad.ravel()
        for lo in range(0, g.size, chunk):
            sq += float(np.dot(g[lo : lo + chunk], g[lo : lo + chunk]))
    norm = math.sqrt(sq)
    scale = 1.0 if norm <= cfg.clip_norm or norm == 0.0 else cfg.clip_norm / norm

    opt.step_count += 1
    t = opt.step_count
    bc1 = 1.0 - beta1**t
    root_bc2 = math.sqrt(1.0 - beta2**t)
    for name, p in params.items():
        if p.frozen:
            continue
        m = opt.m[name]
        v = opt.v[name]
        v *= beta2
        v += np.square(p.grad * (scale * math.sqrt(1.0 - beta2)))
        m *= beta1
        m += p.grad * (scale * (1.0 - beta1))
        lr = cfg.lr_encoder if p.group == ENCODER_GROUP else cfg.lr_task
        if p.group == ENCODER_GROUP and cfg.weight_decay_encoder > 0.0:
            p.value *= 1.0 - lr * cfg.weight_decay_encoder
        p.value -= (m / (np.sqrt(v) + eps * root_bc2)) * (lr * root_bc2 / bc1)
    params.zero_grads()
    return norm


def textbook_adam_step(opt, params):
    """One per-tensor Adam/AdamW step with global norm clipping, in the
    textbook order: clip the gradient, update the moments, divide each by its
    bias correction. Same arguments as ``reference_adam_step``; the squared
    norm is ``np.sum`` per tensor.
    """
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    cfg = opt.config
    sq = 0.0
    for name, p in params.items():
        if p.frozen:
            continue
        if not np.all(np.isfinite(p.grad)):
            raise NumericError(f"non-finite gradient in {name}")
        sq += float(np.sum(p.grad * p.grad))
    norm = float(np.sqrt(sq))
    scale = 1.0 if norm <= cfg.clip_norm or norm == 0.0 else cfg.clip_norm / norm

    opt.step_count += 1
    t = opt.step_count
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for name, p in params.items():
        if p.frozen:
            continue
        g = p.grad * scale
        m = opt.m[name]
        v = opt.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        lr = cfg.lr_encoder if p.group == ENCODER_GROUP else cfg.lr_task
        if p.group == ENCODER_GROUP and cfg.weight_decay_encoder > 0.0:
            p.value -= lr * cfg.weight_decay_encoder * p.value
        p.value -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
    params.zero_grads()
    return norm


def reference_enumerate_spans(sentence_lengths, max_width, offset=0):
    """engine.enumerate_spans with nested loops over sentences, starts and ends."""
    spans = []
    start = offset
    for length in sentence_lengths:
        for a in range(start, start + length):
            last = min(start + length - 1, a + max_width - 1)
            for b in range(a, last + 1):
                spans.append((a, b))
        start += length
    return sorted(spans)


def reference_width_bucket(width):
    """engine.width_bucket for one width, as a chain of comparisons."""
    if width <= 4:
        return width - 1
    if width <= 7:
        return 4
    if width <= 15:
        return 5
    if width <= 31:
        return 6
    return 7


def reference_width_buckets(widths):
    return np.array([reference_width_bucket(int(w)) for w in widths], dtype=np.intp)


def reference_prune_spans(spans, scores, prune_ratio, n_tokens, mode):
    """engine.prune_spans with Python's sort and a (-score, start, width) key."""
    cap = prune_cap(prune_ratio, n_tokens)
    order = sorted(
        range(len(spans)),
        key=lambda i: (-scores[i], spans[i][0], spans[i][1] - spans[i][0]),
    )
    if mode == PRUNE_REFORMULATED:
        order = [i for i in order if scores[i] > 0.0]
    elif mode != PRUNE_ORIGINAL:
        raise ValueError(f"unknown pruning mode {mode!r}")
    kept = order[:cap]
    return sorted(kept, key=lambda i: spans[i])


def _shift(x, offset):
    """result[t] = x[t + offset], zero beyond the ends."""
    out = np.zeros_like(x)
    n = x.shape[0]
    if offset >= 0:
        if offset < n:
            out[: n - offset] = x[offset:]
    else:
        if -offset < n:
            out[-offset:] = x[: n + offset]
    return out


def reference_encode_forward(params, cfg, x):
    """encoder.encode_forward with the window mix over one shifted copy per offset."""
    h = x
    caches = []
    for i in range(cfg.num_layers):
        w = params.value(f"enc.{i}.W")
        b = params.value(f"enc.{i}.b")
        mix_logits = params.value(f"enc.{i}.mix")
        gate = float(params.value(f"enc.{i}.gate")[0])
        z = h @ w.T + b
        a = np.tanh(z)
        u = a + h
        e = np.exp(mix_logits - mix_logits.max())
        mix_w = e / e.sum()
        m = np.zeros_like(u)
        for j, off in enumerate(_WINDOW_OFFSETS):
            m += mix_w[j] * _shift(u, off)
        out = u + gate * m
        caches.append((h, a, u, m, mix_w, gate, i))
        h = out
    return h, caches


def reference_encode_backward(params, dh, caches):
    """encoder.encode_backward over the caches of ``reference_encode_forward``."""
    for (h_in, a, u, m, mix_w, gate, i) in reversed(caches):
        w = params.value(f"enc.{i}.W")
        du = dh.copy()
        dm = gate * dh
        dgate = float(np.sum(dh * m))
        dmix_w = np.zeros_like(mix_w)
        for j, off in enumerate(_WINDOW_OFFSETS):
            du += mix_w[j] * _shift(dm, -off)
            dmix_w[j] = float(np.sum(dm * _shift(u, off)))
        dmix_logits = mix_w * (dmix_w - float(mix_w @ dmix_w))
        dz = du * (1.0 - a * a)
        params[f"enc.{i}.W"].grad += dz.T @ h_in
        params[f"enc.{i}.b"].grad += dz.sum(axis=0)
        params[f"enc.{i}.mix"].grad += dmix_logits
        params[f"enc.{i}.gate"].grad += np.array([dgate])
        dh = du + dz @ w
    return dh
