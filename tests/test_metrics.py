import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corefkit import MetricReport, hungarian_max, score_corpus
from corefkit.metrics import avg_f1_totals, document_stats
from oracles import (
    oracle_assignment_total,
    oracle_b_cubed,
    oracle_ceaf,
    oracle_muc,
    oracle_prf,
    random_clustering,
)

KEY = [{"a", "b", "c"}]
RESP = [{"a", "b"}, {"c"}]


# the rows of document_stats, in order
METRICS = ("muc", "b_cubed", "ceaf_phi4", "mention", "exact_cluster")


def stats_of(metric, key, response):
    """One metric's (p_num, p_den, r_num, r_den), read from document_stats."""
    return tuple(document_stats(key, response)[METRICS.index(metric)].tolist())


def prf_of(metric, key, response):
    """One metric's scores in the report of a one-document corpus."""
    return getattr(score_corpus([(key, response)]), metric)


def singletons(mentions):
    """Each mention a cluster of its own."""
    return [{m} for m in mentions]


# ---------------------------------------------------------------------------
# worked examples
# ---------------------------------------------------------------------------


class TestWorkedCase:
    def test_muc(self):
        prf = prf_of("muc", KEY, RESP)
        assert prf.precision == pytest.approx(1.0, abs=1e-12)
        assert prf.recall == pytest.approx(0.5, abs=1e-12)
        assert prf.f1 == pytest.approx(2 / 3, abs=1e-12)

    def test_b_cubed(self):
        prf = prf_of("b_cubed", KEY, RESP)
        assert prf.precision == pytest.approx(1.0, abs=1e-12)
        assert prf.recall == pytest.approx(5 / 9, abs=1e-12)

    def test_ceaf(self):
        prf = prf_of("ceaf_phi4", KEY, RESP)
        assert prf.recall == pytest.approx(0.8, abs=1e-12)
        assert prf.precision == pytest.approx(0.4, abs=1e-12)
        assert prf.f1 == pytest.approx(2 * 0.8 * 0.4 / 1.2, abs=1e-12)

    def test_avg(self):
        report = score_corpus([(KEY, RESP)])
        b3_f1 = 2 * 1.0 * (5 / 9) / (1.0 + 5 / 9)
        expected = (2 / 3 + b3_f1 + 2 * 0.8 * 0.4 / 1.2) / 3
        assert report.avg_f1 == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.6381, abs=5e-4)


class TestIdentityAndDegenerate:
    @pytest.mark.parametrize("metric", ["muc", "b_cubed", "ceaf_phi4"])
    def test_perfect(self, metric):
        prf = prf_of(metric, KEY, KEY)
        assert (prf.precision, prf.recall, prf.f1) == (1.0, 1.0, 1.0)

    def test_muc_no_shared_links(self):
        prf = prf_of("muc", [{"a", "b"}, {"c", "d"}], [{"a", "c"}, {"b", "d"}])
        assert prf.f1 == 0.0

    def test_muc_all_singletons_flagged(self):
        prf = prf_of("muc", [{"a"}, {"b"}], [{"a"}, {"b"}])
        assert (prf.precision, prf.recall, prf.f1) == (0.0, 0.0, 0.0)
        assert prf.degenerate

    def test_b_cubed_empty_key_flagged(self):
        prf = prf_of("b_cubed", [], [{"a"}])
        assert prf.recall == 0.0 and prf.degenerate

    def test_ceaf_empty_side_flagged(self):
        assert prf_of("ceaf_phi4", [], [{"a"}]).degenerate
        assert prf_of("ceaf_phi4", [{"a"}], []).degenerate

    def test_spurious_singleton_precision(self):
        # response adds singleton {d} not in the key: d contributes 0 to precision
        prf = prf_of("b_cubed", [{"a", "b"}], [{"a", "b"}, {"d"}])
        assert prf.recall == pytest.approx(1.0, abs=1e-12)
        assert prf.precision == pytest.approx(2 / 3, abs=1e-12)
        p, r, f = oracle_b_cubed([{"a", "b"}], [{"a", "b"}, {"d"}])
        assert prf.precision == pytest.approx(p, abs=1e-12)


class TestMentionF1:
    def test_identical(self):
        assert prf_of("mention", [{(0, 1)}], [{(0, 1)}]).f1 == 1.0

    def test_superset(self):
        key, response = singletons([(0, 0), (1, 1), (2, 2)]), singletons([(0, 0), (1, 1), (2, 2), (3, 3)])
        prf = prf_of("mention", key, response)
        assert prf.precision == 0.75 and prf.recall == 1.0

    def test_disjoint(self):
        assert prf_of("mention", [{(0, 0)}], [{(1, 1)}]).f1 == 0.0

    def test_both_empty_flagged(self):
        prf = prf_of("mention", [], [])
        assert prf.f1 == 0.0 and prf.degenerate


class TestExactCluster:
    def test_exact_match_required(self):
        prf = prf_of("exact_cluster", KEY, RESP)
        assert prf.f1 == 0.0
        assert prf_of("exact_cluster", KEY, KEY).f1 == 1.0


class TestHungarian:
    def test_two_by_two(self):
        assignment = hungarian_max([[1.0, 2.0], [3.0, 1.0]])
        assert sorted(assignment) == [(0, 1), (1, 0)]

    def test_diagonal_dominant(self):
        m = np.eye(4) * 10 + 0.1
        assert sorted(hungarian_max(m.tolist())) == [(i, i) for i in range(4)]

    def test_empty(self):
        assert hungarian_max(np.zeros((0, 0)).tolist()) == []
        assert hungarian_max([]) == [] and hungarian_max([[]]) == []
        assert hungarian_max(np.zeros((3, 0)).tolist()) == []

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            hungarian_max([[bad]])
        with pytest.raises(ValueError):
            hungarian_max([[0.0, 1.0], [bad, 0.5], [1.0, 0.0]])

    def test_finite_sum_overflow_accepted(self):
        assert hungarian_max([[1e308, 1e308], [1e308, 0.0]]) == [(0, 1), (1, 0)]

    @pytest.mark.parametrize("shape", [(7, 7), (3, 5), (5, 3)])
    def test_matches_brute_force(self, shape):
        rng = np.random.default_rng(0)
        for _ in range(8):
            m = rng.uniform(0.0, 1.0, size=shape)
            assignment = hungarian_max(m.tolist())
            total = sum(m[r, c] for r, c in assignment)
            assert total == pytest.approx(oracle_assignment_total(m), abs=1e-12)


class TestOracleEquivalence:
    def test_random_clusterings_match_oracles(self):
        rng = np.random.default_rng(123)
        mentions = [f"m{i}" for i in range(8)]
        for _ in range(200):
            key = random_clustering(rng, mentions, 7)
            response = random_clustering(rng, mentions, 7)
            ours = score_corpus([(key, response)])
            for name, oracle in (
                ("muc", oracle_muc),
                ("b_cubed", oracle_b_cubed),
                ("ceaf_phi4", oracle_ceaf),
            ):
                p, r, f = oracle(key, response)
                got = getattr(ours, name)
                assert got.precision == pytest.approx(p, abs=1e-12), name
                assert got.recall == pytest.approx(r, abs=1e-12), name
                assert got.f1 == pytest.approx(f, abs=1e-12), name


class TestDocumentStats:
    def test_summed_rows_report_score_corpus(self):
        rng = np.random.default_rng(124)
        mentions = [f"m{i}" for i in range(9)]
        for _ in range(20):
            pairs = [
                (random_clustering(rng, mentions, 5), random_clustering(rng, mentions, 5))
                for _ in range(int(rng.integers(1, 30)))
            ]
            total = np.zeros((5, 4))
            for key, response in pairs:
                row = document_stats(key, response)
                assert row.dtype == np.float64 and row.shape == (5, 4)
                total = total + row
            assert score_corpus(pairs) == MetricReport.from_totals(total)


clusterings = st.lists(
    st.lists(st.integers(min_value=0, max_value=11), min_size=1, max_size=5),
    min_size=0,
    max_size=6,
)


def dedupe(clustering):
    seen = set()
    out = []
    for cluster in clustering:
        fresh = {m for m in cluster if m not in seen}
        seen |= fresh
        if fresh:
            out.append(fresh)
    return out


class TestProperties:
    @given(key=clusterings, response=clusterings)
    @settings(max_examples=150, deadline=None)
    def test_bounds_and_symmetry(self, key, response):
        key, response = dedupe(key), dedupe(response)
        fwd = score_corpus([(key, response)])
        rev = score_corpus([(response, key)])
        for name in ("muc", "b_cubed", "ceaf_phi4", "mention"):
            a, b = getattr(fwd, name), getattr(rev, name)
            assert 0.0 <= a.precision <= 1.0 and 0.0 <= a.recall <= 1.0 and 0.0 <= a.f1 <= 1.0
            assert a.precision == pytest.approx(b.recall, abs=1e-12)
            assert a.recall == pytest.approx(b.precision, abs=1e-12)

    @given(key=clusterings)
    @settings(max_examples=60, deadline=None)
    def test_perfect_response(self, key):
        key = dedupe(key)
        report = score_corpus([(key, key)])
        if any(len(c) > 1 for c in key):
            assert report.avg_f1 == pytest.approx(1.0, abs=1e-12)

    def test_muc_singleton_blind(self):
        key = [{"a", "b", "c"}]
        resp = [{"a", "b"}, {"c"}]
        assert prf_of("muc", key + [{"z"}], resp + [{"z"}]) == prf_of("muc", key, resp)
        # the same singleton does enter the B3 and CEAF denominators
        assert stats_of("b_cubed", key + [{"z"}], resp + [{"z"}]) != stats_of("b_cubed", key, resp)
        assert stats_of("ceaf_phi4", key + [{"z"}], resp + [{"z"}]) != stats_of("ceaf_phi4", key, resp)

    def test_avg_invariant_under_reordering(self):
        key = [{"a", "b", "c"}, {"d"}]
        resp = [{"a", "b"}, {"c", "d"}]
        base = score_corpus([(key, resp)]).avg_f1
        shuffled = score_corpus([(list(reversed(key)), list(reversed(resp)))]).avg_f1
        assert base == pytest.approx(shuffled, abs=1e-15)


# derandomized, no example database: Tier-1 stays reproducible
FEW = settings(max_examples=40, deadline=None, database=None, derandomize=True)

# summed counts: zeros (so zero denominators and p + r == 0), whole counts
# and fractional ones like B-cubed's
counts = st.one_of(st.just(0.0), st.integers(1, 30).map(float), st.floats(0.25, 30.0))


class TestArrayScoring:
    @FEW
    @given(st.lists(st.lists(counts, min_size=20, max_size=20), min_size=1, max_size=6))
    def test_avg_f1_totals_equals_reports(self, blocks):
        totals = np.array(blocks).reshape(-1, 5, 4)
        expected = []
        for block in totals.tolist():
            # the scalar reference, bit for bit
            prfs = [oracle_prf(*row) for row in block]
            report = MetricReport.from_totals(np.array(block))
            for name, prf, row in zip(METRICS, prfs, block):
                got = getattr(report, name)
                assert (got.precision, got.recall, got.f1) == prf
                assert got.degenerate == (row[1] == 0 or row[3] == 0)
            expected.append((prfs[0][2] + prfs[1][2] + prfs[2][2]) / 3.0)
            assert report.avg_f1 == expected[-1]
        assert avg_f1_totals(totals).tolist() == expected
        assert avg_f1_totals(totals[None]).tolist() == [expected]
        assert avg_f1_totals(totals[0]).tolist() == expected[0]

    @FEW
    @given(key=clusterings, response=clusterings)
    @example(key=[], response=[])
    @example(key=[[1, 2]], response=[])
    @example(key=[], response=[[1, 2]])
    def test_document_stats_rows_match_oracles(self, key, response):
        key, response = dedupe(key), dedupe(response)
        rows = document_stats(key, response).tolist()
        report = score_corpus([(key, response)])
        for name, oracle in zip(METRICS, (oracle_muc, oracle_b_cubed, oracle_ceaf)):
            prf = getattr(report, name)
            assert (prf.precision, prf.recall, prf.f1) == pytest.approx(oracle(key, response), abs=1e-12)
        # the mention and exact-cluster rows count what the two sides share
        for key_set, resp_set, row in (
            ({m for c in key for m in c}, {m for c in response for m in c}, rows[3]),
            (set(map(frozenset, key)), set(map(frozenset, response)), rows[4]),
        ):
            hits = len(key_set & resp_set)
            assert row == [hits, len(resp_set), hits, len(key_set)]


def matrices(elements):
    """Lists of 1-6 rows of 1-6 cells."""
    return st.integers(1, 6).flatmap(
        lambda cols: st.lists(st.lists(elements, min_size=cols, max_size=cols), min_size=1, max_size=6)
    )


# small whole numbers tie often; zeros and negative cells are drawn too
whole = st.integers(-3, 3).map(float)
fractional = st.one_of(whole, st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False))


def _check_assignment(matrix):
    pairs = hungarian_max(matrix)
    rows, cols = zip(*pairs)
    assert len(pairs) == min(len(matrix), len(matrix[0]))
    assert list(rows) == sorted(set(rows)) and len(set(cols)) == len(cols)
    total = 0.0
    for r, c in pairs:
        total += matrix[r][c]
    return total


class TestAssignmentProperties:
    @FEW
    @given(matrices(whole))
    def test_whole_number_totals_are_exact(self, matrix):
        assert _check_assignment(matrix) == oracle_assignment_total(matrix)

    @FEW
    @given(matrices(fractional))
    def test_totals_match_brute_force(self, matrix):
        assert _check_assignment(matrix) == pytest.approx(oracle_assignment_total(matrix), abs=1e-12)

    @FEW
    @given(key=st.lists(st.lists(st.integers(0, 15), min_size=1, max_size=6), min_size=1, max_size=6),
           response=st.lists(st.lists(st.integers(0, 15), min_size=1, max_size=6), min_size=1, max_size=6))
    def test_phi4_totals_equal_scipy_bit_for_bit(self, key, response):
        optimize = pytest.importorskip("scipy.optimize")
        key, response = dedupe(key), dedupe(response)
        # the phi4 table as _ceaf_phi4 builds it
        sim = [[2.0 * len(k & r) / (len(k) + len(r)) for r in response] for k in key]
        rows, cols = optimize.linear_sum_assignment(-np.array(sim))
        expected = 0.0
        for r, c in zip(rows.tolist(), cols.tolist()):
            expected += sim[r][c]
        got = stats_of("ceaf_phi4", key, response)[0]
        if hungarian_max(sim) == list(zip(rows.tolist(), cols.tolist())):
            assert got == expected
        else:
            # another optimum of a tie: its cells, summed in row order, may
            # round differently (about one table in 3,000 drawn from random
            # clusterings of 2-16 mentions, by one unit in the last place)
            assert abs(got - expected) <= 4 * math.ulp(expected)

    def test_tied_optimum_pairs_are_pinned(self):
        """A tie that scipy's solver breaks the other way, to pairs
        (0, 0), (1, 3), (2, 2), (3, 1) summing to 1.3523809523809525 in row
        order. The pairs chosen here are pinned: a change to the tie-breaking
        can move a reported score in its last place."""
        sim = [[0.2857142857142857, 0.0, 0.2857142857142857, 0.25],
               [0.0, 0.2857142857142857, 0.0, 0.4],
               [0.0, 1 / 3, 0.0, 0.0],
               [1 / 3, 2 / 3, 0.0, 0.0],
               [0.0, 0.0, 0.0, 0.0]]
        assert hungarian_max(sim) == [(0, 2), (1, 3), (2, 1), (3, 0)]
        total = _check_assignment(sim)
        assert total == 1.3523809523809522
        assert total == pytest.approx(oracle_assignment_total(sim), abs=1e-15)

    def test_tied_optimum_total_is_the_one_scipy_gave(self):
        """Tied optima of this table sum to 1.5666666666666667 (scipy's
        pairs, and these) or to 1.5666666666666664 (scanning the columns
        first to last); the CEAF numerator keeps the first."""
        key = [{3, 4}, {1, 2}, {0}, {5, 6}]
        response = [{2, 4}, {0, 5}, {1, 3, 6}]
        assert stats_of("ceaf_phi4", key, response)[0] == 1.5666666666666667


def test_no_scipy_at_import():
    """corefkit's only runtime dependency is numpy: importing the package and
    its command line in a fresh interpreter loads no scipy module."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, corefkit, corefkit.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())["project"]
    assert [dep.split(">")[0] for dep in project["dependencies"]] == ["numpy"]
    assert [dep.split(">")[0] for dep in project["optional-dependencies"]["dev"]] == ["pytest", "hypothesis"]
