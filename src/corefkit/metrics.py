"""Coreference evaluation: MUC, B-cubed, CEAF (phi4), mention F1.

All metrics are computed from numerator/denominator pairs so that scores can
be aggregated over a corpus by summing the pairs across documents, the way the
shared-task scorer does. ``document_stats`` gives one document's pairs as a
float64 (metric, 4) array; any set of documents is then scored by summing
their rows (``MetricReport.from_totals`` reports a total), so a document
scored once can be reused in every corpus or subset that contains it.
Degenerate denominators (all-singleton MUC, an empty side) score zero and
are flagged rather than silently dropped.

MUC recall counts, per key cluster, the links recoverable from the response
partition of that cluster: |K| minus the number of parts K is split into,
where response clusters and unaligned mentions each form a part. B-cubed
recall averages |K(m) n R(m)| / |K(m)| over key mentions (empty R(m) if the
mention is unpredicted); precision is the mirror image. CEAF aligns key and
response clusters one-to-one to maximize total similarity
phi4(K, R) = 2|K n R| / (|K| + |R|), then divides by the cluster counts; the
alignment (``hungarian_max``) is an exact assignment solver in pure Python.
All three read one table of |K n R| counts per document, built in one pass
over the mentions both sides share; each side's clusters must be disjoint.
``avg_f1_totals`` scores many summed totals at once, as a report does.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

Clustering = Sequence[Iterable]


@dataclass(frozen=True)
class PRF:
    precision: float
    recall: float
    f1: float
    degenerate: bool = False


class _Sides:
    """Both sides of one document, built once for every metric: each side's
    non-empty clusters and mentions, and ``shared``, the count |K_i n R_j| of
    every (key i, response j) cluster pair that shares a mention. The key
    comes partitioned, so that one key can be read against many responses."""

    def __init__(self, key: tuple[list[frozenset], dict], response: Clustering):
        self.key, key_map = key
        self.resp, resp_map = _partition(response)
        self.key_mentions, self.resp_mentions = key_map.keys(), resp_map.keys()
        self.shared = Counter((key_map[m], resp_map[m]) for m in key_map.keys() & resp_map.keys())


def _partition(clustering: Clustering) -> tuple[list[frozenset], dict]:
    """Non-empty clusters as frozensets, and mention -> cluster index."""
    clusters = [c for c in map(frozenset, clustering) if c]
    return clusters, {m: i for i, cluster in enumerate(clusters) for m in cluster}


def _muc(s: _Sides) -> tuple[float, float, float, float]:
    # a cluster's links minus its parts (one per other-side cluster it meets,
    # one per mention the other side lacks), summed, is the same on both sides
    num = float(s.shared.total() - len(s.shared))
    return num, float(sum(len(c) - 1 for c in s.resp)), num, float(sum(len(c) - 1 for c in s.key))


def _b_cubed(s: _Sides) -> tuple[float, float, float, float]:
    key_sq, resp_sq = [0] * len(s.key), [0] * len(s.resp)
    for (i, j), n in s.shared.items():
        key_sq[i] += n * n
        resp_sq[j] += n * n
    return (*_b_cubed_side(s.resp, resp_sq), *_b_cubed_side(s.key, key_sq))


def _b_cubed_side(clusters: list[frozenset], squares: list[int]) -> tuple[float, float]:
    num = sum(sq / len(c) for sq, c in zip(squares, clusters))
    return float(num), float(sum(map(len, clusters)))


def hungarian_max(scores: list[list[float]]) -> list[tuple[int, int]]:
    """Row-to-column one-to-one assignment maximizing the total score.

    A rectangular matrix, as a list of row lists, assigns min(rows, cols)
    pairs, listed in row order; a matrix without cells gives ``[]``, and a
    NaN or infinite score raises ValueError.

    Shortest augmenting paths with row and column potentials (Jonker and
    Volgenant), on lists, with rows <= columns: the row duals start at each
    row's best score, a row whose best column is free takes it, and only the
    rows that lose a contested column search for a path.
    """
    if not scores or not scores[0]:
        return []
    w = scores if len(scores) <= len(scores[0]) else list(zip(*scores))
    # any NaN or infinity makes the sum non-finite; a finite sum can still overflow
    if not math.isfinite(sum(map(sum, w))) and not all(math.isfinite(x) for row in w for x in row):
        raise ValueError("hungarian_max: scores contain NaN or infinity")
    if w is scores:
        return list(enumerate(_assign_rows(w)))
    return sorted((row, col) for col, row in enumerate(_assign_rows(w)))


def _assign_rows(w) -> list[int]:
    """Column of each row in a max-weight assignment of a rows <= columns matrix.

    Duals u (rows) and v (columns) keep u[i] + v[j] >= w[i][j], with equality
    on assigned pairs; a search runs Dijkstra over the reduced costs
    u[i] + v[j] - w[i][j], then moves the duals of what it scanned and flips
    the path. Columns are scanned from the last one down and a tie goes to a
    free column, the order of scipy's solver, so that on tied optima the
    pairs, and with them the rounding of a total summed in row order, mostly
    come out as scipy's do.
    """
    m = len(w[0])
    u = [max(row) for row in w]
    v = [0.0] * m
    col_of = [-1] * len(w)
    row_of = [-1] * m
    searching = []
    for i, row in enumerate(w):
        j = row.index(u[i])
        if row_of[j] < 0:
            row_of[j], col_of[i] = i, j
        else:
            searching.append(i)
    for start in searching:
        dist = [math.inf] * m
        pred = [-1] * m  # the row each column was reached from
        todo = list(range(m - 1, -1, -1))  # columns not yet scanned, last first
        scanned = []  # assigned columns scanned, each leading on to its row
        i, base = start, 0.0
        while True:
            ui, wi = u[i], w[i]
            best, best_at = math.inf, -1
            for at, j in enumerate(todo):
                d = base + ui + v[j] - wi[j]
                if d < dist[j]:
                    dist[j], pred[j] = d, i
                d = dist[j]
                if d < best or (d == best and row_of[j] < 0):
                    best, best_at = d, at
            j = todo[best_at]
            todo[best_at] = todo[-1]
            todo.pop()
            base = best
            if row_of[j] < 0:
                break
            scanned.append(j)
            i = row_of[j]
        # scanned columns and their rows move by how much closer than the sink they were
        u[start] -= base
        for k in scanned:
            d = base - dist[k]
            v[k] += d
            u[row_of[k]] -= d
        # flip the path: each column on it takes the row it was reached from
        while True:
            i = pred[j]
            row_of[j] = i
            col_of[i], j = j, col_of[i]
            if i == start:
                break
    return col_of


def _ceaf_phi4(sides: _Sides) -> tuple[float, float, float, float]:
    key_c, resp_c = sides.key, sides.resp
    if not key_c or not resp_c:
        return 0.0, float(len(resp_c)), 0.0, float(len(key_c))
    key_sizes, resp_sizes = [len(c) for c in key_c], [len(c) for c in resp_c]
    # phi4(K, R) = 2|K n R| / (|K| + |R|) of every (key, response) pair
    sim = [[0.0] * len(resp_c) for _ in key_c]
    for (i, j), n in sides.shared.items():
        sim[i][j] = 2.0 * n / (key_sizes[i] + resp_sizes[j])
    # added one at a time in key order, not by sum(), which compensates
    # rounding for floats on newer Pythons
    total = 0.0
    for i, j in hungarian_max(sim):
        total += sim[i][j]
    return total, float(len(resp_c)), total, float(len(key_c))


def _mention_counts(key_set, resp_set) -> tuple[float, float, float, float]:
    hits = float(len(key_set & resp_set))
    return hits, float(len(resp_set)), hits, float(len(key_set))


def _exact_cluster(sides: _Sides) -> tuple[float, float, float, float]:
    """Whole-cluster exact-set matching (the stricter exact-match reading)."""
    return _mention_counts(set(sides.key), set(sides.resp))


_STATS_FNS = {
    "muc": _muc,
    "b_cubed": _b_cubed,
    "ceaf_phi4": _ceaf_phi4,
    "mention": lambda sides: _mention_counts(sides.key_mentions, sides.resp_mentions),
    "exact_cluster": _exact_cluster,
}


def document_stats(key: Clustering, response: Clustering) -> np.ndarray:
    """One document's (p_num, p_den, r_num, r_den) per metric.

    A float64 array of shape (metric, 4), rows in _STATS_FNS order (muc,
    b_cubed, ceaf_phi4, mention, exact_cluster); a corpus is scored by
    summing the rows of its documents. Both sides are built once and every
    metric reads them.
    """
    sides = _Sides(_partition(key), response)
    return np.array([fn(sides) for fn in _STATS_FNS.values()], dtype=np.float64)


def coref_stats(key: Clustering, responses: Sequence[Clustering]) -> np.ndarray:
    """The muc, b_cubed and ceaf_phi4 rows of ``document_stats``, the ones
    avg F1 reads, of each response against one key, as a (response, 3, 4)
    array; the key is partitioned once and the other two rows are skipped."""
    key_side = _partition(key)
    stats = np.zeros((len(responses), 3, 4))
    for r, response in enumerate(responses):
        sides = _Sides(key_side, response)
        stats[r] = [_muc(sides), _b_cubed(sides), _ceaf_phi4(sides)]
    return stats


@dataclass
class MetricReport:
    muc: PRF
    b_cubed: PRF
    ceaf_phi4: PRF
    mention: PRF
    exact_cluster: PRF
    avg_f1: float
    flags: list[str] = field(default_factory=list)

    @classmethod
    def from_totals(cls, totals: np.ndarray) -> "MetricReport":
        """The report of one (metric, 4) array of summed ``document_stats`` rows."""
        rows = zip(_STATS_FNS, *(a.tolist() for a in _prf(totals)), totals[:, 1::2].tolist())
        prfs = {name: PRF(p, r, f, degenerate=0 in denominators) for name, p, r, f, denominators in rows}
        flags = [f"{name}:degenerate" for name in sorted(prfs) if prfs[name].degenerate]
        return cls(**prfs, avg_f1=avg_f1_totals(totals).item(), flags=flags)

    def to_dict(self) -> dict:
        out = {}
        for name in _STATS_FNS:
            prf: PRF = getattr(self, name)
            out[name] = {"precision": prf.precision, "recall": prf.recall, "f1": prf.f1}
        out["avg_f1"] = self.avg_f1
        out["flags"] = list(self.flags)
        return out


def _prf(totals: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(..., metric) precision, recall and F1 of (..., metric, 4) summed counts; 0 over 0 is 0."""
    num, den = totals[..., 0::2], totals[..., 1::2]  # (precision, recall) per metric
    pr = np.divide(num, den, out=np.zeros(num.shape), where=den > 0)
    p, r = pr[..., 0], pr[..., 1]
    f = np.divide(2 * p * r, p + r, out=np.zeros(p.shape), where=p + r > 0)
    return p, r, f


def avg_f1_totals(totals: np.ndarray) -> np.ndarray:
    """avg F1, the mean of the muc, b_cubed and ceaf_phi4 F1s, of every
    (metric, 4) block of summed counts in a (..., metric, 4) array."""
    _, _, f = _prf(totals[..., :3, :])
    return (f[..., 0] + f[..., 1] + f[..., 2]) / 3.0


def score_corpus(pairs: Iterable[tuple[Clustering, Clustering]]) -> MetricReport:
    """Corpus-level report; numerators/denominators are summed across documents."""
    totals = np.zeros((len(_STATS_FNS), 4))
    for key, response in pairs:
        totals += document_stats(key, response)
    return MetricReport.from_totals(totals)
