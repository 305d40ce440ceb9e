"""Coreference evaluation: MUC, B-cubed, CEAF (phi4), mention F1.

All metrics are computed from numerator/denominator pairs so that scores can
be aggregated over a corpus by summing the pairs across documents, the way the
shared-task scorer does. ``document_stats`` gives one document's pairs as a
float64 (metric, 4) array; any set of documents is then scored by summing
their rows and reporting the total (``CorpusStats``), so a document scored
once can be reused in every corpus or subset that contains it. Degenerate
denominators (all-singleton MUC, an empty side) score zero and are flagged
rather than silently dropped.

MUC recall counts, per key cluster, the links recoverable from the response
partition of that cluster: |K| minus the number of parts K is split into,
where response clusters and unaligned mentions each form a part. B-cubed
recall averages |K(m) n R(m)| / |K(m)| over key mentions (empty R(m) if the
mention is unpredicted); precision is the mirror image. CEAF aligns key and
response clusters one-to-one to maximize total similarity
phi4(K, R) = 2|K n R| / (|K| + |R|), then divides by the cluster counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

Cluster = frozenset
Clustering = Sequence[Iterable]


@dataclass(frozen=True)
class PRF:
    precision: float
    recall: float
    f1: float
    degenerate: bool = False

    @staticmethod
    def from_stats(p_num, p_den, r_num, r_den) -> "PRF":
        degenerate = p_den == 0 or r_den == 0
        p = p_num / p_den if p_den > 0 else 0.0
        r = r_num / r_den if r_den > 0 else 0.0
        f = 2 * p * r / (p + r) if p + r > 0 else 0.0
        return PRF(precision=p, recall=r, f1=f, degenerate=degenerate)


def _as_clusters(clustering: Clustering) -> list[frozenset]:
    return [frozenset(c) for c in clustering if len(frozenset(c)) > 0]


def _mention_map(clusters: list[frozenset]) -> dict:
    mapping = {}
    for i, cluster in enumerate(clusters):
        for m in cluster:
            mapping[m] = i
    return mapping


def muc_stats(key: Clustering, response: Clustering) -> tuple[float, float, float, float]:
    """(p_num, p_den, r_num, r_den) for the link-based metric."""
    key_c, resp_c = _as_clusters(key), _as_clusters(response)
    r_num, r_den = _muc_side(key_c, _mention_map(resp_c))
    p_num, p_den = _muc_side(resp_c, _mention_map(key_c))
    return p_num, p_den, r_num, r_den


def _muc_side(clusters: list[frozenset], other_map: dict) -> tuple[float, float]:
    num = den = 0
    for cluster in clusters:
        parts = set()
        unaligned = 0
        for m in cluster:
            if m in other_map:
                parts.add(other_map[m])
            else:
                unaligned += 1
        num += len(cluster) - (len(parts) + unaligned)
        den += len(cluster) - 1
    return float(num), float(den)


def b_cubed_stats(key: Clustering, response: Clustering) -> tuple[float, float, float, float]:
    key_c, resp_c = _as_clusters(key), _as_clusters(response)
    r_num, r_den = _b_cubed_side(key_c, resp_c)
    p_num, p_den = _b_cubed_side(resp_c, key_c)
    return p_num, p_den, r_num, r_den


def _b_cubed_side(clusters: list[frozenset], other: list[frozenset]) -> tuple[float, float]:
    other_map = _mention_map(other)
    num = 0.0
    den = 0
    for cluster in clusters:
        overlap: dict[int, int] = {}
        for m in cluster:
            j = other_map.get(m)
            if j is not None:
                overlap[j] = overlap.get(j, 0) + 1
        num += sum(c * c for c in overlap.values()) / len(cluster)
        den += len(cluster)
    return num, float(den)


def phi4(a: frozenset, b: frozenset) -> float:
    if not a and not b:
        return 0.0
    return 2.0 * len(a & b) / (len(a) + len(b))


def hungarian_max(scores) -> list[tuple[int, int]]:
    """Row-to-column one-to-one assignment maximizing the total score.

    A rectangular matrix assigns min(rows, cols) pairs.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.size == 0:
        return []
    row_ind, col_ind = linear_sum_assignment(-scores)
    return [(int(r), int(c)) for r, c in zip(row_ind, col_ind)]


def ceaf_phi4_stats(key: Clustering, response: Clustering) -> tuple[float, float, float, float]:
    key_c, resp_c = _as_clusters(key), _as_clusters(response)
    if not key_c or not resp_c:
        return 0.0, float(len(resp_c)), 0.0, float(len(key_c))
    sim = np.array([[phi4(k, r) for r in resp_c] for k in key_c])
    total = sum(sim[r, c] for r, c in hungarian_max(sim))
    return float(total), float(len(resp_c)), float(total), float(len(key_c))


def mention_stats(key_mentions: Iterable, response_mentions: Iterable) -> tuple[float, float, float, float]:
    key_set, resp_set = set(key_mentions), set(response_mentions)
    hits = float(len(key_set & resp_set))
    return hits, float(len(resp_set)), hits, float(len(key_set))


def exact_cluster_stats(key: Clustering, response: Clustering) -> tuple[float, float, float, float]:
    """Whole-cluster exact-set matching (the stricter exact-match reading)."""
    key_set = {frozenset(c) for c in _as_clusters(key)}
    resp_set = {frozenset(c) for c in _as_clusters(response)}
    hits = float(len(key_set & resp_set))
    return hits, float(len(resp_set)), hits, float(len(key_set))


_STATS_FNS = {
    "muc": muc_stats,
    "b_cubed": b_cubed_stats,
    "ceaf_phi4": ceaf_phi4_stats,
    "mention": lambda k, r: mention_stats(_flatten(k), _flatten(r)),
    "exact_cluster": exact_cluster_stats,
}


def _flatten(clustering: Clustering) -> set:
    return {m for c in clustering for m in c}


def document_stats(key: Clustering, response: Clustering) -> np.ndarray:
    """One document's (p_num, p_den, r_num, r_den) per metric.

    A float64 array of shape (metric, 4), rows in _STATS_FNS order (muc,
    b_cubed, ceaf_phi4, mention, exact_cluster); a corpus is scored by
    summing the rows of its documents.
    """
    return np.array([fn(key, response) for fn in _STATS_FNS.values()], dtype=np.float64)


@dataclass
class MetricReport:
    muc: PRF
    b_cubed: PRF
    ceaf_phi4: PRF
    mention: PRF
    exact_cluster: PRF
    avg_f1: float
    flags: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        out = {}
        for name in ("muc", "b_cubed", "ceaf_phi4", "mention", "exact_cluster"):
            prf: PRF = getattr(self, name)
            out[name] = {"precision": prf.precision, "recall": prf.recall, "f1": prf.f1}
        out["avg_f1"] = self.avg_f1
        out["flags"] = list(self.flags)
        return out


def avg_f1(muc_prf: PRF, b_cubed_prf: PRF, ceaf_prf: PRF) -> float:
    """Arithmetic mean of the three coreference F1 scores (the headline number)."""
    return (muc_prf.f1 + b_cubed_prf.f1 + ceaf_prf.f1) / 3.0


class CorpusStats:
    """Accumulates per-document numerators/denominators for corpus-level scores.

    ``totals`` is a (metric, 4) array of ``document_stats`` rows summed in the
    order the documents were added; pass one to report an existing sum.
    """

    def __init__(self, totals: Optional[np.ndarray] = None):
        self.totals = np.zeros((len(_STATS_FNS), 4)) if totals is None else totals

    def add(self, key: Clustering, response: Clustering) -> None:
        self.totals += document_stats(key, response)

    def report(self) -> MetricReport:
        prfs = {name: PRF.from_stats(*row) for name, row in zip(_STATS_FNS, self.totals.tolist())}
        flags = [f"{name}:degenerate" for name in sorted(prfs) if prfs[name].degenerate]
        return MetricReport(
            muc=prfs["muc"],
            b_cubed=prfs["b_cubed"],
            ceaf_phi4=prfs["ceaf_phi4"],
            mention=prfs["mention"],
            exact_cluster=prfs["exact_cluster"],
            avg_f1=avg_f1(prfs["muc"], prfs["b_cubed"], prfs["ceaf_phi4"]),
            flags=flags,
        )


def score_corpus(pairs: Iterable[tuple[Clustering, Clustering]]) -> MetricReport:
    """Corpus-level report; numerators/denominators are summed across documents."""
    stats = CorpusStats()
    for key, response in pairs:
        stats.add(key, response)
    return stats.report()
