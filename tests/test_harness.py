"""Class-weighted F1 scoring and the per-task / unified evaluation report."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulesmith import (
    EvaluationError,
    LabelTaxonomy,
    Prediction,
    PredictionSource,
    evaluate,
    weighted_f1,
)
from _helpers import brute_force_weighted_f1, intent_sample, scene_sample

TAX = LabelTaxonomy(intent=("ia", "ib"), image_scene=("sa", "sb"))


def predictor_prediction(sample_id: str, label: str) -> Prediction:
    return Prediction(sample_id, label, PredictionSource.PREDICTOR, None, label)


def confusion_lists(n_a, n_b, x, y, a, b):
    """Gold/pred label lists with x errors a->b and y errors b->a."""
    gold = [a] * n_a + [b] * n_b
    pred = [a] * (n_a - x) + [b] * x + [a] * y + [b] * (n_b - y)
    return gold, pred


class TestWeightedF1:
    def test_hand_case_is_two_thirds(self):
        assert weighted_f1(["a", "a", "b"], ["a", "b", "b"], {"a", "b"}) == pytest.approx(
            2 / 3, abs=1e-12
        )

    def test_perfect_prediction_scores_one(self):
        gold = ["a", "b", "a", "c"]
        assert weighted_f1(gold, list(gold), {"a", "b", "c"}) == 1.0

    def test_total_miss_scores_zero(self):
        assert weighted_f1(["a", "a"], ["b", "b"], {"a", "b"}) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(EvaluationError, match="lengths differ"):
            weighted_f1(["a"], ["a", "b"], {"a", "b"})

    def test_empty_input_rejected(self):
        with pytest.raises(EvaluationError, match="empty"):
            weighted_f1([], [], {"a"})

    def test_gold_label_outside_label_set_rejected(self):
        with pytest.raises(EvaluationError, match="'z'"):
            weighted_f1(["z"], ["a"], {"a"})

    def test_prediction_outside_label_set_counts_as_a_miss(self):
        # e.g. an abstain sentinel: hurts recall, credits nothing.
        score = weighted_f1(["a", "a"], ["a", "__abstain__"], {"a"})
        assert score == pytest.approx(brute_force_weighted_f1(["a", "a"], ["a", "__abstain__"], {"a"}))

    def test_matches_brute_force_on_randomized_fixtures(self):
        labels = ["a", "b", "c", "d"]
        for trial in range(300):
            rng = random.Random(trial)
            n = rng.randint(1, 40)
            gold = [rng.choice(labels) for _ in range(n)]
            pred = [rng.choice(labels + ["__abstain__"]) for _ in range(n)]
            fast = weighted_f1(gold, pred, labels)
            slow = brute_force_weighted_f1(gold, pred, labels)
            assert abs(fast - slow) <= 1e-12

    def test_matches_brute_force_on_a_large_corpus(self):
        rng = random.Random(7)
        labels = ["a", "b", "c", "d", "e", "f"]
        gold = [rng.choice(labels) for _ in range(10_000)]
        pred = [rng.choice(labels) for _ in range(10_000)]
        fast = weighted_f1(gold, pred, labels)
        slow = brute_force_weighted_f1(gold, pred, labels)
        assert abs(fast - slow) <= 1e-12

    @given(st.data())
    @settings(max_examples=200)
    def test_joint_permutation_leaves_the_score_unchanged(self, data):
        labels = ["a", "b", "c"]
        n = data.draw(st.integers(min_value=1, max_value=25))
        gold = data.draw(st.lists(st.sampled_from(labels), min_size=n, max_size=n))
        pred = data.draw(st.lists(st.sampled_from(labels), min_size=n, max_size=n))
        order = data.draw(st.permutations(range(n)))
        base = weighted_f1(gold, pred, labels)
        shuffled = weighted_f1([gold[i] for i in order], [pred[i] for i in order], labels)
        assert shuffled == pytest.approx(base, abs=1e-12)


def build_eval_fixture(intent_counts, scene_counts):
    """Assemble samples and predictions from per-task confusion settings."""

    samples = []
    predictions = []
    if intent_counts:
        n_a, n_b, x, y = intent_counts
        gold, pred = confusion_lists(n_a, n_b, x, y, "ia", "ib")
        for i, (g, p) in enumerate(zip(gold, pred)):
            samples.append(intent_sample(f"i{i}", g, "text"))
            predictions.append(predictor_prediction(f"i{i}", p))
    if scene_counts:
        n_a, n_b, x, y = scene_counts
        gold, pred = confusion_lists(n_a, n_b, x, y, "sa", "sb")
        for i, (g, p) in enumerate(zip(gold, pred)):
            samples.append(scene_sample(f"s{i}", g, "ocr"))
            predictions.append(predictor_prediction(f"s{i}", p))
    return samples, predictions


class TestEvaluate:
    # Frozen confusion counts reproducing the published per-task scores:
    # intent 2000/3000 with 199 and 500 cross errors -> 0.8614,
    # image scene 2400/2600 with 598/598 -> 0.7608; equal task supports.
    INTENT_COUNTS = (2000, 3000, 199, 500)
    SCENE_COUNTS = (2400, 2600, 598, 598)

    def test_balanced_fixture_reproduces_published_arithmetic(self):
        samples, predictions = build_eval_fixture(self.INTENT_COUNTS, self.SCENE_COUNTS)
        report = evaluate(predictions, samples, TAX)
        assert report.dis == pytest.approx(0.8614, abs=1e-4)
        assert report.iss == pytest.approx(0.7608, abs=1e-4)
        assert report.oss == pytest.approx(0.8111, abs=1e-4)
        assert report.intent_count == report.image_scene_count == 5000

    def test_equal_support_identity(self):
        samples, predictions = build_eval_fixture(self.INTENT_COUNTS, self.SCENE_COUNTS)
        report = evaluate(predictions, samples, TAX)
        assert abs(report.oss - (report.dis + report.iss) / 2) <= 1e-9
        assert report.oss_mean == pytest.approx((report.dis + report.iss) / 2, abs=1e-12)

    def test_all_correct_scores_one_everywhere(self):
        samples, predictions = build_eval_fixture((3, 2, 0, 0), (2, 3, 0, 0))
        report = evaluate(predictions, samples, TAX)
        assert report.dis == report.iss == report.oss == 1.0

    def test_intent_only_dataset_flags_iss_absent(self):
        samples, predictions = build_eval_fixture((4, 4, 1, 0), None)
        report = evaluate(predictions, samples, TAX)
        assert report.iss is None
        assert report.oss == pytest.approx(report.dis, abs=1e-12)
        assert report.image_scene_count == 0

    def test_unbalanced_supports_use_support_weighting(self):
        samples, predictions = build_eval_fixture((6, 2, 2, 0), (1, 1, 0, 0))
        report = evaluate(predictions, samples, TAX)
        n_intent, n_scene = 8, 2
        expected = (n_intent * report.dis + n_scene * report.iss) / (n_intent + n_scene)
        assert report.oss == pytest.approx(expected, abs=1e-12)
        assert report.oss_mean == pytest.approx((report.dis + report.iss) / 2, abs=1e-12)

    def test_missing_prediction_is_an_error_naming_the_id(self):
        samples, predictions = build_eval_fixture((2, 2, 0, 0), None)
        with pytest.raises(EvaluationError, match=predictions[0].sample_id):
            evaluate(predictions[1:], samples, TAX)

    def test_per_class_supports_sum_to_sample_counts(self):
        samples, predictions = build_eval_fixture((5, 3, 1, 1), (4, 2, 1, 0))
        report = evaluate(predictions, samples, TAX)
        assert sum(s.support for s in report.per_class) == len(samples)
        intent_support = sum(
            s.support for s in report.per_class if s.label in TAX.intent
        )
        assert intent_support == report.intent_count

    def test_gold_sample_without_label_rejected(self):
        samples = [intent_sample("i0", None, "text")]
        predictions = [predictor_prediction("i0", "ia")]
        with pytest.raises(EvaluationError, match="i0"):
            evaluate(predictions, samples, TAX)

    def test_gold_label_outside_the_taxonomy_rejected_naming_it(self):
        samples = [intent_sample("i0", "ia", "text"), intent_sample("i1", "iz", "text")]
        predictions = [predictor_prediction("i0", "ia"), predictor_prediction("i1", "ia")]
        with pytest.raises(
            EvaluationError, match="gold label 'iz' is not in the given label set"
        ):
            evaluate(predictions, samples, TAX)

    def test_missing_prediction_wins_over_an_unknown_gold_label(self):
        samples = [intent_sample("i0", "ia", "text"), intent_sample("i1", "iz", "text")]
        predictions = [predictor_prediction("i0", "ia")]
        with pytest.raises(EvaluationError, match="no prediction for sample id 'i1'"):
            evaluate(predictions, samples, TAX)

    def test_unknown_intent_gold_label_is_reported_before_an_image_scene_one(self):
        # A scene label is outside the intent taxonomy, and vice versa.
        samples = [scene_sample("s0", "ia", "ocr"), intent_sample("i0", "sa", "text")]
        predictions = [predictor_prediction("s0", "sa"), predictor_prediction("i0", "ia")]
        with pytest.raises(EvaluationError, match="gold label 'sa'"):
            evaluate(predictions, samples, TAX)

    @given(st.data())
    @settings(max_examples=200)
    def test_matches_an_independent_recount_with_cross_task_predictions(self, data):
        every_label = list(TAX.joint_labels()) + ["__abstain__"]
        rows = []  # (task labels, gold, predicted)
        for labels, n in (
            (TAX.intent, data.draw(st.integers(min_value=0, max_value=15))),
            (TAX.image_scene, data.draw(st.integers(min_value=0, max_value=15))),
        ):
            for _ in range(n):
                gold = data.draw(st.sampled_from(labels))
                rows.append((labels, gold, data.draw(st.sampled_from(every_label))))
        if not rows:
            rows.append((TAX.intent, "ia", data.draw(st.sampled_from(every_label))))
        order = data.draw(st.permutations(range(len(rows))))
        samples, predictions = [], []
        for i in order:
            labels, gold, pred = rows[i]
            make = intent_sample if labels is TAX.intent else scene_sample
            samples.append(make(f"x{i}", gold, "text"))
            predictions.append(predictor_prediction(f"x{i}", pred))
        report = evaluate(predictions, samples, TAX)

        def task_score(labels):
            gold = [g for task_labels, g, _ in rows if task_labels is labels]
            pred = [p for task_labels, _, p in rows if task_labels is labels]
            return brute_force_weighted_f1(gold, pred, labels) if gold else None

        gold = [g for _, g, _ in rows]
        pred = [p for _, _, p in rows]
        dis, iss = task_score(TAX.intent), task_score(TAX.image_scene)
        present = [score for score in (dis, iss) if score is not None]
        for got, want in (
            (report.dis, dis),
            (report.iss, iss),
            (report.oss, brute_force_weighted_f1(gold, pred, TAX.joint_labels())),
            (report.oss_mean, sum(present) / len(present)),
        ):
            assert (got is None) == (want is None)
            if want is not None:
                assert abs(got - want) <= 1e-12
        assert report.intent_count == sum(1 for labels, _, _ in rows if labels is TAX.intent)
        assert report.image_scene_count == len(rows) - report.intent_count
        assert [row.label for row in report.per_class] == list(TAX.joint_labels())
        for row in report.per_class:
            tp = sum(1 for g, p in zip(gold, pred) if g == p == row.label)
            support = gold.count(row.label)
            predicted = pred.count(row.label)
            precision = tp / predicted if predicted else 0.0
            recall = tp / support if support else 0.0
            f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
            assert row.support == support
            assert abs(row.precision - precision) <= 1e-12
            assert abs(row.recall - recall) <= 1e-12
            assert abs(row.f1 - f1) <= 1e-12


class TestReportSerialization:
    def test_round_trip_through_file(self, tmp_path):
        from rulesmith.harness import load_report, report_to_dict, save_report

        samples, predictions = build_eval_fixture((5, 3, 1, 1), (4, 2, 1, 0))
        report = evaluate(predictions, samples, TAX)
        path = tmp_path / "report.json"
        save_report(report, path)
        assert load_report(path) == report_to_dict(report)

    def test_report_bytes_are_frozen_with_cross_task_predictions(self):
        from rulesmith.harness import report_to_dict

        rows = [
            ("i0", "ia", "ia"), ("i1", "ia", "sa"), ("i2", "ib", "ib"),
            ("i3", "ib", "__abstain__"), ("i4", "ia", "ib"),
            ("s0", "sa", "sa"), ("s1", "sa", "ib"), ("s2", "sb", "sb"), ("s3", "sb", "sa"),
        ]
        samples = [
            (intent_sample if sample_id[0] == "i" else scene_sample)(sample_id, gold, "t")
            for sample_id, gold, _ in rows
        ]
        predictions = [predictor_prediction(sample_id, pred) for sample_id, _, pred in rows]
        report = evaluate(predictions, samples, TAX)
        assert json.dumps(report_to_dict(report)) == (
            '{"dis": 0.5, "iss": 0.5833333333333333, "oss": 0.4925925925925925, '
            '"oss_mean": 0.5416666666666666, "counts": {"intent": 5, "image_scene": 4}, '
            '"per_class": [{"label": "ia", "precision": 1.0, "recall": 0.3333333333333333, '
            '"f1": 0.5, "support": 3}, {"label": "ib", "precision": 0.3333333333333333, '
            '"recall": 0.5, "f1": 0.4, "support": 2}, {"label": "sa", '
            '"precision": 0.3333333333333333, "recall": 0.5, "f1": 0.4, "support": 2}, '
            '{"label": "sb", "precision": 1.0, "recall": 0.5, "f1": 0.6666666666666666, '
            '"support": 2}]}'
        )

    def test_format_report_handles_absent_scores(self):
        from rulesmith.harness import format_report, report_to_dict

        samples, predictions = build_eval_fixture((4, 4, 1, 0), None)
        report = evaluate(predictions, samples, TAX)
        text = format_report(report_to_dict(report))
        assert "absent" in text
        assert "ia" in text
