import json
import math

import numpy as np
import pytest

from tdcae.errors import ConfigError, DimensionError
from tdcae.metrics import (
    AttackInterval,
    ConfusionCounts,
    clf_scores,
    confusion,
    evaluate_flags,
    format_table,
    fuse_edges,
    intervals_from_labels,
    ranking_score,
    report_to_dict,
    report_to_json,
    ttd_score,
)

# Published benchmark rows whose confusion counts reproduce the printed
# rates at +-5e-5: (tp, fp, tn, fn) -> (tpr, tnr, ppv, f1).
BENCHMARK_ROWS = {
    "B1": ((388, 5, 1677, 19), (0.9533, 0.9970, 0.9873, 0.9700)),
    "QDA": ((370, 47, 1635, 37), (0.9091, 0.9721, 0.8873, 0.8981)),
    "B2": ((375, 69, 1613, 32), (0.9214, 0.9590, 0.8446, 0.8813)),
    "B3": ((341, 5, 1677, 66), (0.8378, 0.9970, 0.9855, 0.9057)),
}


def flags_and_labels_for_counts(tp: int, fp: int, tn: int, fn: int):
    """Craft flag/label sequences realizing exact confusion counts."""
    flags = np.concatenate(
        [np.ones(tp, bool), np.ones(fp, bool), np.zeros(tn, bool), np.zeros(fn, bool)]
    )
    labels = np.concatenate(
        [np.ones(tp, int), np.zeros(fp, int), np.zeros(tn, int), np.ones(fn, int)]
    )
    return flags, labels


class TestFusion:
    def test_or_single_edge_flag_propagates(self):
        a = np.zeros(10, bool)
        a[5] = True
        fused = fuse_edges([a, np.zeros(10, bool), np.zeros(10, bool)])
        assert fused[5] and fused.sum() == 1

    def test_all_quiet_stays_quiet(self):
        fused = fuse_edges([np.zeros(8, bool)] * 3)
        assert not fused.any()

    def test_or_is_monotone_in_edges(self, rng):
        edges = [rng.uniform(size=50) > 0.8 for _ in range(3)]
        two = fuse_edges(edges[:2])
        three = fuse_edges(edges)
        assert three.sum() >= two.sum()
        for e in edges:
            assert fuse_edges(edges).sum() >= e.sum()

    def test_majority_rule(self):
        a = np.array([True, True, False])
        b = np.array([True, False, False])
        c = np.array([False, False, False])
        assert np.array_equal(fuse_edges([a, b, c], rule="majority"),
                              np.array([True, False, False]))

    def test_length_mismatch_raises(self):
        with pytest.raises(ConfigError):
            fuse_edges([np.zeros(3, bool), np.zeros(4, bool)])


class TestConfusion:
    def test_perfect_agreement(self):
        labels = np.array([1, 1, 1, 1])
        counts = confusion(np.ones(4, bool), labels)
        assert (counts.fp, counts.fn) == (0, 0)
        assert counts.tp == 4

    def test_crafted_sequences_reproduce_benchmark_counts(self):
        (tp, fp, tn, fn), _ = BENCHMARK_ROWS["B1"]
        flags, labels = flags_and_labels_for_counts(tp, fp, tn, fn)
        counts = confusion(flags, labels)
        assert (counts.tp, counts.fp, counts.tn, counts.fn) == (tp, fp, tn, fn)
        assert counts.total == len(flags)

    def test_all_false_flags_count_positives_as_misses(self):
        labels = np.array([0, 1, 1, 0, 1])
        counts = confusion(np.zeros(5, bool), labels)
        assert counts.fn == 3
        assert counts.tp == 0

    def test_length_mismatch_raises(self):
        with pytest.raises(DimensionError):
            confusion(np.zeros(3, bool), np.zeros(4, int))

    def test_nonbinary_labels_rejected(self):
        with pytest.raises(ConfigError):
            confusion(np.zeros(3, bool), np.array([0, 2, 1]))


class TestClfScores:
    @pytest.mark.parametrize("name", list(BENCHMARK_ROWS))
    def test_benchmark_rows_within_published_rounding(self, name):
        (tp, fp, tn, fn), (tpr, tnr, ppv, f1) = BENCHMARK_ROWS[name]
        scores = clf_scores(ConfusionCounts(tp, fp, tn, fn))
        assert scores.tpr == pytest.approx(tpr, abs=5e-5)
        assert scores.tnr == pytest.approx(tnr, abs=5e-5)
        assert scores.ppv == pytest.approx(ppv, abs=5e-5)
        assert scores.f1 == pytest.approx(f1, abs=5e-5)

    def test_b1_classification_score(self):
        scores = clf_scores(ConfusionCounts(388, 5, 1677, 19))
        assert scores.s_clf == pytest.approx(0.9752, abs=5e-5)

    def test_perfect_detector(self):
        scores = clf_scores(ConfusionCounts(10, 0, 90, 0))
        assert (scores.tpr, scores.tnr, scores.ppv, scores.f1, scores.s_clf) == (
            1.0, 1.0, 1.0, 1.0, 1.0,
        )

    def test_zero_denominators_surface_as_nan(self):
        scores = clf_scores(ConfusionCounts(0, 0, 5, 0))  # no positives at all
        assert math.isnan(scores.tpr)
        assert math.isnan(scores.ppv)
        assert math.isnan(scores.f1)
        assert scores.tnr == 1.0


class TestTtd:
    def test_immediate_detection_everywhere_is_one(self):
        flags = np.zeros(100, bool)
        flags[10] = True
        flags[50] = True
        intervals = [AttackInterval(10, 19), AttackInterval(50, 69)]
        assert ttd_score(flags, intervals) == 1.0

    def test_nothing_detected_is_zero(self):
        intervals = [AttackInterval(5, 14), AttackInterval(30, 49)]
        assert ttd_score(np.zeros(60, bool), intervals) == 0.0

    def test_half_duration_offset(self):
        flags = np.zeros(30, bool)
        flags[15] = True  # attack [10, 19], duration 10, detected at offset 5
        assert ttd_score(flags, [AttackInterval(10, 19)]) == pytest.approx(0.5)

    def test_flags_outside_interval_do_not_count(self):
        flags = np.zeros(30, bool)
        flags[9] = True
        flags[20] = True
        assert ttd_score(flags, [AttackInterval(10, 19)]) == 0.0

    def test_earlier_detection_never_scores_worse(self):
        interval = [AttackInterval(10, 29)]
        scores = []
        for offset in (15, 10, 5, 0):
            flags = np.zeros(40, bool)
            flags[10 + offset] = True
            scores.append(ttd_score(flags, interval))
        assert scores == sorted(scores)

    def test_mean_over_attacks(self):
        flags = np.zeros(60, bool)
        flags[10] = True  # immediate on [10, 19]
        # never detected on [40, 49]
        score = ttd_score(flags, [AttackInterval(10, 19), AttackInterval(40, 49)])
        assert score == pytest.approx(0.5)

    def test_empty_interval_list_raises(self):
        with pytest.raises(ConfigError):
            ttd_score(np.zeros(10, bool), [])

    def test_out_of_bounds_interval_raises(self):
        with pytest.raises(ConfigError):
            ttd_score(np.zeros(10, bool), [AttackInterval(5, 12)])

    def test_overlapping_intervals_raise(self):
        with pytest.raises(ConfigError):
            ttd_score(
                np.zeros(30, bool), [AttackInterval(5, 14), AttackInterval(10, 19)]
            )

    def test_interval_validation(self):
        with pytest.raises(ConfigError):
            AttackInterval(7, 3)


class TestRankingScore:
    def test_benchmark_row(self):
        assert ranking_score(0.9650, 0.9752) == pytest.approx(0.9701, abs=5e-5)

    def test_perfect(self):
        assert ranking_score(1.0, 1.0) == 1.0

    def test_headline_row(self):
        assert ranking_score(0.9974, 0.9555) == pytest.approx(0.9765, abs=5e-5)

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            ranking_score(1.2, 0.5)


class TestIntervalsFromLabels:
    def test_runs_extracted(self):
        labels = np.array([0, 1, 1, 0, 0, 1, 0, 1, 1, 1])
        intervals = intervals_from_labels(labels)
        assert [(iv.start, iv.end) for iv in intervals] == [(1, 2), (5, 5), (7, 9)]

    def test_no_attacks_gives_empty(self):
        assert intervals_from_labels(np.zeros(5, int)) == []

    def test_full_span(self):
        intervals = intervals_from_labels(np.ones(4, int))
        assert [(iv.start, iv.end) for iv in intervals] == [(0, 3)]


class TestReports:
    def test_evaluate_flags_composes_everything(self):
        labels = np.zeros(50, int)
        labels[10:20] = 1
        flags = np.zeros(50, bool)
        flags[10:20] = True
        report = evaluate_flags(flags, labels)
        assert report.s == 1.0
        assert report.s_ttd == 1.0
        assert report.s_clf == 1.0
        assert report.counts.tp == 10

    def test_json_serializes_nan_as_null(self):
        labels = np.ones(5, int)  # no negatives: tnr undefined
        report = evaluate_flags(np.ones(5, bool), labels)
        doc = json.loads(report_to_json(report))
        assert doc["tnr"] is None
        assert doc["tpr"] == 1.0

    def test_table_columns_in_challenge_order(self):
        flags, labels = flags_and_labels_for_counts(388, 5, 1677, 19)
        report = evaluate_flags(flags, labels)
        table = format_table({"B1": report})
        header = table.splitlines()[0].split()
        assert header == [
            "name", "S", "S_TTD", "S_CLF", "F1", "TPR", "TNR", "PPV",
            "TP", "FP", "TN", "FN",
        ]
        row = table.splitlines()[1].split()
        assert row[0] == "B1"
        assert row[8:] == ["388", "5", "1677", "19"]

    def test_report_dict_counts(self):
        flags, labels = flags_and_labels_for_counts(3, 1, 4, 2)
        doc = report_to_dict(evaluate_flags(flags, labels))
        assert (doc["tp"], doc["fp"], doc["tn"], doc["fn"]) == (3, 1, 4, 2)
