import csv
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tkmia.core import as_labels, as_scores
from tkmia.metrics import (
    REPORT_COLUMNS,
    AggregateReport,
    MEASURES,
    MetricsRecord,
    UndefinedMetricError,
    ap_at_k,
    delta_report,
    evaluate_instance,
    evaluate_rows,
    ndcg_at_k,
    precision_at_k,
    tk_acc,
    write_report_csv,
)

from support import ranking


def random_instance(rng, c_max=12):
    c = int(rng.integers(2, c_max + 1))
    scores = rng.uniform(0, 1, c)
    y = np.zeros(c, dtype=np.int64)
    y[rng.choice(c, size=int(rng.integers(1, c + 1)), replace=False)] = 1
    k = int(rng.integers(1, c + 1))
    return scores, y, k


class TestTkAcc:
    def test_contained(self):
        assert tk_acc([0.9, 0.8, 0.1], [1, 1, 0], 2) == 1

    def test_not_contained(self):
        assert tk_acc([0.9, 0.1, 0.8], [1, 1, 0], 2) == 0

    def test_pigeonhole(self):
        # More relevant labels than k can never fit in the top k.
        rng = np.random.default_rng(0)
        for _ in range(50):
            scores = rng.uniform(0, 1, 8)
            y = np.zeros(8, dtype=np.int64)
            y[rng.choice(8, size=5, replace=False)] = 1
            assert tk_acc(scores, y, 3) == 0


class TestPrecisionAtK:
    def test_two_of_three(self):
        # ranked labels (1, 0, 1)
        assert precision_at_k([0.9, 0.5, 0.3], [1, 0, 1], 3) == pytest.approx(2 / 3)

    def test_all_relevant(self):
        assert precision_at_k([0.9, 0.5, 0.3], [1, 1, 0], 2) == 1.0

    def test_implied_by_tk_acc(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            scores, y, k = random_instance(rng)
            if tk_acc(scores, y, k) == 1 and y.sum() <= k:
                assert precision_at_k(scores, y, k) == pytest.approx(y.sum() / k)


class TestApAtK:
    def test_perfect_prefix(self):
        # ranked labels (1, 1, 0)
        assert ap_at_k([0.9, 0.8, 0.1], [1, 1, 0], 3) == 1.0

    def test_prefix_reading(self):
        # ranked labels (0, 1) with a single relevant label: (0 + 1/2) / 1
        assert ap_at_k([0.9, 0.3], [0, 1], 2) == pytest.approx(0.5)

    def test_hand_value(self):
        # ranked labels (1, 0, 1): (1 + 2/3) / 2
        assert ap_at_k([0.9, 0.5, 0.3], [1, 0, 1], 3) == pytest.approx(5 / 6)

    def test_one_iff_leading_prefix_relevant(self):
        rng = np.random.default_rng(4)
        seen_one = seen_less = False
        for _ in range(400):
            scores, y, k = random_instance(rng)
            ranked = [int(y[i]) for i in ranking(scores)[:k]]
            nk = min(k, int(y.sum()))
            perfect = all(ranked[i] == 1 for i in range(nk))
            value = ap_at_k(scores, y, k)
            assert (value == pytest.approx(1.0, abs=1e-12)) == perfect
            seen_one |= perfect
            seen_less |= not perfect
        assert seen_one and seen_less

    def test_no_relevant_undefined(self):
        with pytest.raises(UndefinedMetricError):
            ap_at_k([0.9, 0.1], [0, 0], 1)


class TestNdcgAtK:
    def test_ideal_ranking(self):
        assert ndcg_at_k([0.9, 0.8], [1, 1], 2) == pytest.approx(1.0)

    def test_hand_value(self):
        # ranked labels (1, 0, 1): 1.5 / (1 + 1/log2(3)) ~ 0.9197
        expected = 1.5 / (1.0 + 1.0 / np.log2(3.0))
        assert ndcg_at_k([0.9, 0.5, 0.3], [1, 0, 1], 3) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.9197, abs=1e-4)

    def test_no_relevant_in_topk(self):
        assert ndcg_at_k([0.9, 0.8, 0.1], [0, 0, 1], 2) == 0.0

    def test_one_iff_top_positions_exactly_relevant(self):
        rng = np.random.default_rng(6)
        for _ in range(400):
            scores, y, k = random_instance(rng)
            nk = min(k, int(y.sum()))
            ranked = [int(y[i]) for i in ranking(scores)[:nk]]
            assert (ndcg_at_k(scores, y, k) == pytest.approx(1.0, abs=1e-12)) == all(ranked)

    def test_undefined_without_relevant(self):
        with pytest.raises(UndefinedMetricError):
            ndcg_at_k([0.9, 0.1], [0, 0], 1)


@st.composite
def tied_instances(draw):
    """Scores on a 0.1 grid, so several classes often share one score."""
    c = draw(st.integers(2, 12))
    scores = [level / 10 for level in draw(st.lists(st.integers(0, 10), min_size=c, max_size=c))]
    y = draw(st.lists(st.integers(0, 1), min_size=c, max_size=c).filter(any))
    return scores, y, draw(st.integers(1, c))


class TestTiedScores:
    @settings(max_examples=400, deadline=None)
    @given(tied_instances())
    def test_evaluate_instance_matches_tie_break_oracle(self, case):
        scores, y, k = case
        order = ranking(scores)
        ranked = [y[i] for i in order[:k]]
        n_relevant = sum(y)
        hits = 0
        ap = 0.0
        for i, rel in enumerate(ranked, start=1):
            if rel:
                hits += 1
                ap += hits / i
        # numpy sums, in the library's order, so that NDCG compares exactly
        dcg = float(np.sum(np.array(ranked) / np.log2(np.arange(2, k + 2))))
        idcg = float(np.sum(1.0 / np.log2(np.arange(2, min(k, n_relevant) + 2))))
        expected = MetricsRecord(k=k, tk_acc=int(hits == n_relevant), p_at_k=hits / k,
                                 ap_at_k=ap / min(k, n_relevant), ndcg_at_k=dcg / idcg)
        assert evaluate_instance(scores, y, k) == expected


def parent_ranked(scores, labels, k):
    """Labels of the top-k classes and the relevant count, as the
    per-instance evaluation ranked them before the row-wise measures."""
    scores = as_scores(scores)
    labels = as_labels(labels, len(scores))
    top = (-scores).argsort(kind="stable")[:k]
    return labels[top], int(labels.sum())


def parent_ap(ranked, n_relevant):
    hits = 0
    total = 0.0
    for i, rel in enumerate(ranked.tolist(), start=1):
        if rel:
            hits += 1
            total += hits / i
    return total / min(len(ranked), n_relevant)


def parent_ndcg(ranked, n_relevant):
    dcg = float((ranked / np.log2(np.arange(1, len(ranked) + 1) + 1)).sum())
    ideal_len = min(len(ranked), n_relevant)
    idcg = float((1.0 / np.log2(np.arange(1, ideal_len + 1) + 1)).sum())
    return dcg / idcg


def parent_evaluate_instance(scores, labels, k):
    """A frozen copy of the per-instance evaluation the report used before
    it measured score matrices."""
    ranked, n_relevant = parent_ranked(scores, labels, k)
    hits = int(ranked.sum())
    return MetricsRecord(k=int(k), tk_acc=int(hits == n_relevant), p_at_k=float(hits) / k,
                         ap_at_k=parent_ap(ranked, n_relevant),
                         ndcg_at_k=parent_ndcg(ranked, n_relevant))


def as_bytes(record):
    """A record's fields as (type, bytes) pairs: equal only if bit-equal."""
    return [(type(v), np.float64(v).tobytes()) for v in dataclasses.astuple(record)]


def records(arrays, k):
    """evaluate_rows' arrays as one record per row, in the report's Python values."""
    return [MetricsRecord(k, *row) for row in zip(*(array.tolist() for array in arrays))]


@st.composite
def tied_matrices(draw):
    """Up to 8 rows of 0.1-grid scores over c <= 20 classes, some k >= 8."""
    c = draw(st.integers(2, 20))
    n = draw(st.integers(1, 8))
    level = st.integers(0, 10)
    scores = [[v / 10 for v in draw(st.lists(level, min_size=c, max_size=c))]
              for _ in range(n)]
    labels = [draw(st.lists(st.integers(0, 1), min_size=c, max_size=c).filter(any))
              for _ in range(n)]
    return scores, labels, draw(st.integers(1, c))


class TestEvaluateRows:
    @settings(max_examples=300, deadline=None)
    @given(tied_matrices())
    def test_rows_equal_the_parent_evaluation_bit_for_bit(self, case):
        scores, labels, k = case
        columns = evaluate_rows(scores, labels, k)
        assert [len(column) for column in columns] == [len(scores)] * len(MEASURES)
        for s, y, record in zip(scores, labels, records(columns, k)):
            expected = as_bytes(parent_evaluate_instance(s, y, k))
            assert as_bytes(record) == expected
            assert as_bytes(evaluate_instance(s, y, k)) == expected

    def test_wide_rows_cover_numpy_unrolled_sums(self):
        # numpy's pairwise sum unrolls from 8 terms on; NDCG must still
        # match the per-instance sum to the last bit.
        rng = np.random.default_rng(12)
        scores = rng.integers(0, 11, (200, 20)) / 10.0
        labels = (rng.uniform(size=(200, 20)) < 0.5).astype(int)
        labels[:, 0] = 1
        for k in (8, 9, 13, 20):
            for s, y, record in zip(scores, labels, records(evaluate_rows(scores, labels, k), k)):
                assert as_bytes(record) == as_bytes(parent_evaluate_instance(s, y, k))

    def test_values_are_plain_python_numbers(self):
        columns = evaluate_rows([[0.9, 0.2, 0.5]], [[1, 0, 1]], 2)
        assert [column.dtype for column in columns] == [np.int64] + [np.float64] * 3
        record = evaluate_instance([0.9, 0.2, 0.5], [1, 0, 1], 2)
        assert [type(v) for v in dataclasses.astuple(record)] == [int, int, float, float, float]

    @pytest.mark.parametrize("scores, labels, message", [
        ([0.9, 0.1], [[1, 0]], "score matrix must be 2-D"),
        ([[0.9], [0.1]], [[1], [0]], "score matrix must be 2-D with at least 2 columns"),
        ([[0.9, np.nan]], [[1, 0]], "non-finite"),
        ([[0.9, 0.1]], [1, 0], "label matrix must be 2-D"),
        ([[0.9, 0.1]], [[1, 2]], "0 or 1"),
        ([[0.9, 0.1, 0.3]], [[1, 0]], "label vector length 2 != score length 3"),
        ([[0.9, 0.1], [0.2, 0.3]], [[1, 0]], "1 label rows != 2 score rows"),
    ])
    def test_bad_matrix_rejected(self, scores, labels, message):
        with pytest.raises(ValueError, match=message):
            evaluate_rows(scores, labels, 1)

    def test_row_without_relevant_labels_undefined(self):
        with pytest.raises(UndefinedMetricError) as raised:
            evaluate_rows([[0.9, 0.1], [0.2, 0.3]], [[1, 0], [0, 0]], 1)
        assert str(raised.value) == "AP@k undefined without relevant labels"

    @pytest.mark.parametrize("k, message", [
        (0, "k=0 out of range [1, 2]"),
        (-1, "k=-1 out of range [1, 2]"),
        (3, "k=3 out of range [1, 2]"),
        (1.5, "k must be an integer, got 1.5"),
        (True, "k must be an integer, got True"),
    ])
    def test_k_takes_the_one_k_rule(self, k, message):
        # k counts classes: the rule of every measure, with its one message.
        with pytest.raises(ValueError) as raised:
            evaluate_rows([[0.9, 0.2], [0.4, 0.7]], [[1, 0], [0, 1]], k)
        assert str(raised.value) == message

    def test_measures_without_relevant_labels(self):
        # top-k accuracy and P@k stay defined; AP@k and NDCG@k do not
        assert tk_acc([0.9, 0.1], [0, 0], 1) == 1
        assert precision_at_k([0.9, 0.1], [0, 0], 1) == 0.0
        with pytest.raises(UndefinedMetricError, match="NDCG@k"):
            ndcg_at_k([0.9, 0.1], [0, 0], 1)


class TestMonotoneInvariance:
    def test_metrics_depend_only_on_ranking(self):
        transforms = [
            lambda s: s ** 2,
            lambda s: np.sqrt(s),
            lambda s: 0.2 + 0.6 * s,
            lambda s: s ** 3,
            # Maps that leave [0, 1]: a score is any finite vector.
            lambda s: 5 * s - 2,
            lambda s: np.exp(4 * s),
        ]
        rng = np.random.default_rng(7)
        for _ in range(100):
            scores, y, k = random_instance(rng)
            base = evaluate_instance(scores, y, k)
            for tf in transforms:
                mapped = evaluate_instance(tf(scores), y, k)
                assert mapped == base


def columns(*rows):
    """One array per MEASURES entry, from rows of (tk_acc, P@k, AP@k, NDCG@k)."""
    return tuple(np.array(column) for column in zip(*rows))


ONE, HALF, ZERO = (1, 1.0, 1.0, 1.0), (1, 0.5, 1.0, 1.0), (0, 0.0, 0.0, 0.0)


class TestDeltaReport:
    def test_identical_sides_zero_deltas(self):
        clean = columns(ONE, (0, 0.5, 0.6, 0.7))
        rep = delta_report(clean, clean, np.array([1, 0]), np.array([True, False]), np.zeros(2))
        assert rep.delta_tk_acc == 0.0
        assert rep.delta_p_at_k == 0.0
        assert rep.delta_map_at_k == 0.0
        assert rep.delta_ndcg_at_k == 0.0
        assert rep.n == 2

    def test_negative_delta_representable(self):
        # A perturbation can improve a measure; the delta then goes negative.
        rep = delta_report(columns((0, 0.5, 0.5, 0.5)), columns(ONE), np.array([1]),
                           np.array([True]), np.zeros(1))
        assert rep.delta_tk_acc == pytest.approx(-1.0)
        assert rep.delta_p_at_k == pytest.approx(-0.5)

    def test_two_instance_hand_check(self):
        # only the successful outcome (zero epsilon) counts toward APer
        rep = delta_report(columns(ONE, HALF), columns(HALF, HALF), np.array([1, 0]),
                           np.array([True, False]), np.array([0.0, 1.0]))
        assert rep.delta_p_at_k == pytest.approx(0.25)
        assert rep.delta_l == pytest.approx(0.5)
        assert rep.aper == 0.0

    @pytest.mark.parametrize("expelled, mean", [([1, 1, 1, 1], 1.0), ([0], 0.0), ([2, 1], 1.5)])
    def test_delta_l_is_the_mean_expelled_count(self, expelled, mean):
        n = len(expelled)
        rep = delta_report(columns(*[ONE] * n), columns(*[ONE] * n), np.array(expelled),
                           np.ones(n, dtype=bool), np.zeros(n))
        assert rep.delta_l == mean

    def test_no_success_aper_marker(self):
        rep = delta_report(columns(ONE), columns(ONE), np.array([0]), np.array([False]),
                           np.zeros(1))
        assert rep.aper is None

    @pytest.mark.parametrize("clean, perturbed, expelled, success, norms", [
        (columns(ONE), columns(ONE, ONE), [1, 1], [True, True], [0.0, 0.0]),
        (columns(ONE), columns(ONE), [1], [True], [0.0, 0.0]),
        (columns(ONE), columns(ONE), [1], [True, True], [0.0]),
        (columns(ONE), columns(ONE), [1, 1], [True], [0.0]),
        (columns(ONE, ONE), (*columns(ONE, ONE)[:3], np.ones(1)), [1, 1], [True] * 2, [0.0] * 2),
        ((np.array([]),) * 4, (np.array([]),) * 4, [], [], []),
    ], ids=["perturbed", "norms", "success", "expelled", "one-measure", "empty"])
    def test_mismatched_or_empty_rejected(self, clean, perturbed, expelled, success, norms):
        with pytest.raises(ValueError) as raised:
            delta_report(clean, perturbed, np.array(expelled), np.array(success, dtype=bool),
                         np.array(norms))
        assert str(raised.value) == ("clean, perturbed, expelled, success and norms must be "
                                     "non-empty arrays of one length")

    def test_aper_averages_the_norms_of_successes(self):
        rng = np.random.default_rng(3)
        success, norms = np.arange(12) % 3 > 0, rng.uniform(size=12)
        rep = delta_report(columns(*[ONE] * 12), columns(*[HALF] * 12), np.ones(12), success,
                           norms)
        assert rep.aper == float(np.mean(norms[success]))

    def test_map_is_the_mean_over_samples_not_over_categories(self):
        # Per sample, ranked labels (1, 0), (0, 1), (1, 0): APs 1, 1/2, 1, mean
        # 5/6. A per-category mean would rank the instances in each column and
        # read 0.75 here.
        clean = evaluate_rows([[0.9, 0.2], [0.4, 0.3], [0.7, 0.6]], [[1, 0], [0, 1], [1, 0]], 2)
        rep = delta_report(clean, columns(*[ZERO] * 3), np.ones(3), np.ones(3, dtype=bool),
                           np.zeros(3))
        assert rep.delta_map_at_k == pytest.approx(5 / 6, abs=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_map_is_the_mean_of_the_parent_ap_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        n, c = int(rng.integers(1, 40)), int(rng.integers(2, 12))
        tied = rng.integers(0, 11, (n, c)) / 10.0
        labels = (rng.uniform(size=(n, c)) < 0.3).astype(int)
        labels[np.arange(n), rng.integers(0, c, n)] = 1
        zero = columns(*[ZERO] * n)
        for scores in (tied, rng.uniform(size=(n, c))):
            for k in {1, min(3, c), c}:
                rep = delta_report(evaluate_rows(scores, labels, k), zero, np.ones(n),
                                   np.ones(n, dtype=bool), np.zeros(n))
                want = float(np.mean([parent_ap(*parent_ranked(s, y, k))
                                      for s, y in zip(scores, labels)]))
                assert np.float64(rep.delta_map_at_k).tobytes() == np.float64(want).tobytes()

    def test_fields_are_the_csv_columns_of_a_cell(self):
        names = [field.name for field in dataclasses.fields(AggregateReport)]
        assert names == [col for col in REPORT_COLUMNS if col not in ("k", "s_size", "method")]


class TestReportCsv:
    def test_column_order_and_nan_marker(self, tmp_path):
        path = tmp_path / "report.csv"
        row = {
            "k": 3, "s_size": 1, "method": "tkmia",
            "delta_tk_acc": 0.25, "delta_p_at_k": 0.1, "delta_map_at_k": 0.2,
            "delta_ndcg_at_k": 0.15, "delta_l": 1.0, "aper": None, "n": 4,
        }
        write_report_csv(str(path), [row])
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == list(REPORT_COLUMNS)
        assert rows[1][REPORT_COLUMNS.index("aper")] == "nan"
        assert rows[1][REPORT_COLUMNS.index("delta_p_at_k")] == repr(0.1)

    def test_deterministic_bytes(self, tmp_path):
        row = {
            "k": 3, "s_size": 2, "method": "ml_cw_u",
            "delta_tk_acc": 1 / 3, "delta_p_at_k": 0.1, "delta_map_at_k": 0.2,
            "delta_ndcg_at_k": 0.15, "delta_l": 0.5, "aper": 1.25, "n": 7,
        }
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_report_csv(str(a), [row])
        write_report_csv(str(b), [row])
        assert a.read_bytes() == b.read_bytes()
