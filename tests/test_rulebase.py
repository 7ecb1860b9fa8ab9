"""Reward filtering, subset-dominance pruning, online validation, persistence."""

from __future__ import annotations

import json
import random
from dataclasses import replace

import pytest

from rulesmith import (
    RuleBase,
    RuleBaseError,
    RuleBaseMetadata,
    Task,
    filter_by_reward,
    load_rulebase,
    online_validate,
    remove_dominated,
    save_rulebase,
)
from rulesmith.cli import main
from _helpers import (
    brute_force_remove_dominated,
    contains,
    intent_sample,
    make_rule,
)

P1 = contains("alpha")
P2 = contains("beta")
P3 = contains("gamma")


class TestFilterByReward:
    def test_boundary_is_kept(self):
        rules = [
            make_rule("a", "L", [P1], 0.79),
            make_rule("b", "L", [P2], 0.80),
            make_rule("c", "L", [P3], 0.95),
        ]
        kept = filter_by_reward(rules)
        assert [r.id for r in kept] == ["b", "c"]

    def test_empty_input(self):
        assert filter_by_reward([]) == []

    def test_zero_threshold_is_identity(self):
        rules = [make_rule("a", "L", [P1], 0.1), make_rule("b", "L", [P2], 0.9)]
        assert filter_by_reward(rules, min_reward=0.0) == rules

    def test_never_lengthens(self):
        rng = random.Random(1)
        rules = [
            make_rule(f"r{i}", "L", [contains(f"w{i}")], rng.random()) for i in range(30)
        ]
        for threshold in (0.0, 0.3, 0.8, 1.0):
            assert len(filter_by_reward(rules, threshold)) <= len(rules)


class TestRemoveDominated:
    def test_smaller_better_rule_removes_superset(self):
        a = make_rule("a", "L", [P1], 0.9)
        b = make_rule("b", "L", [P1, P2], 0.85)
        assert remove_dominated([a, b]) == [a]

    def test_superset_with_higher_reward_survives(self):
        a = make_rule("a", "L", [P1], 0.8)
        b = make_rule("b", "L", [P1, P2], 0.9)
        assert remove_dominated([a, b]) == [a, b]

    def test_dominance_is_per_label(self):
        a = make_rule("a", "L1", [P1], 0.9)
        b = make_rule("b", "L2", [P1, P2], 0.85)
        assert remove_dominated([a, b]) == [a, b]

    def test_dominance_is_per_task(self):
        a = make_rule("a", "L", [P1], 0.9)
        b = make_rule("b", "L", [P1, P2], 0.85, task=Task.IMAGE_SCENE)
        assert remove_dominated([a, b]) == [a, b]

    def test_equal_reward_subset_keeps_both(self):
        a = make_rule("a", "L", [P1], 0.85)
        b = make_rule("b", "L", [P1, P2], 0.85)
        assert remove_dominated([a, b]) == [a, b]

    def test_exact_duplicates_collapse_to_best_reward(self):
        a = make_rule("a", "L", [P1], 0.7)
        b = make_rule("b", "L", [P1], 0.9)
        assert remove_dominated([a, b]) == [b]

    def test_transitive_chain_removed_in_one_call(self):
        a = make_rule("a", "L", [P1], 0.95)
        b = make_rule("b", "L", [P1, P2], 0.9)
        c = make_rule("c", "L", [P1, P2, P3], 0.85)
        assert remove_dominated([c, b, a]) == [a]

    @staticmethod
    def random_rules(seed: int, n: int = 200):
        rng = random.Random(seed)
        pool = [contains(f"w{i}") for i in range(8)]
        rules = []
        for i in range(n):
            size = rng.randint(1, 4)
            predicates = frozenset(rng.sample(pool, k=size))
            rules.append(
                make_rule(
                    f"r{seed}-{i:03d}",
                    rng.choice(["L1", "L2"]),
                    predicates,
                    # Coarse grid: equal rewards and duplicates happen often.
                    round(rng.choice([0.5, 0.6, 0.7, 0.8, 0.9, 1.0]), 2),
                    task=rng.choice([Task.INTENT, Task.IMAGE_SCENE]),
                )
            )
        return rules

    def test_matches_brute_force_oracle(self):
        for seed in range(8):
            rules = self.random_rules(seed)
            assert remove_dominated(rules) == brute_force_remove_dominated(rules)

    def test_idempotent(self):
        for seed in range(8):
            once = remove_dominated(self.random_rules(seed))
            assert remove_dominated(once) == once

    def test_filter_and_dominance_commute(self):
        for seed in range(8):
            rules = self.random_rules(seed)
            one_way = set(
                r.id for r in remove_dominated(filter_by_reward(rules, 0.8))
            )
            other_way = set(
                r.id for r in filter_by_reward(remove_dominated(rules), 0.8)
            )
            assert one_way == other_way


class TestOnlineValidate:
    def build_validation(self):
        # "good" appears in 10 refund samples; "bad" in 2 refund + 2 shipping;
        # "rare" in exactly 1 refund sample.
        corpus = []
        for i in range(10):
            corpus.append(intent_sample(f"g{i}", "refund", "good stuff"))
        corpus.append(intent_sample("b0", "refund", "bad sign"))
        corpus.append(intent_sample("b1", "refund", "bad sign"))
        corpus.append(intent_sample("b2", "shipping", "bad sign"))
        corpus.append(intent_sample("b3", "shipping", "bad sign"))
        corpus.append(intent_sample("r0", "refund", "rare case"))
        for i in range(9):
            corpus.append(intent_sample(f"s{i}", "shipping", "ship it"))
        return corpus

    def test_imprecise_rule_dropped_with_quality_attached(self):
        validation = self.build_validation()
        rule = make_rule("weak", "refund", [contains("bad")], 0.95)
        outcome = online_validate([rule], validation)
        assert outcome.kept == ()
        [(dropped, quality)] = outcome.dropped
        assert dropped is rule
        assert quality.coverage == 4
        assert quality.precision == 0.5

    def test_support_floor_drops_covering_one(self):
        validation = self.build_validation()
        rule = make_rule("rare", "refund", [contains("rare")], 1.0)
        outcome = online_validate([rule], validation, min_support=2)
        assert outcome.kept == ()
        [(_, quality)] = outcome.dropped
        assert quality.coverage == 1
        assert quality.precision == 1.0

    def test_good_rule_kept_with_reward_replaced(self):
        validation = self.build_validation()
        rule = make_rule("good", "refund", [contains("good")], 0.62)
        outcome = online_validate([rule], validation, min_precision=0.8)
        assert outcome.kept == (replace(rule, reward=1.0),)
        assert outcome.dropped == ()

    def test_measured_precision_replaces_agent_reward(self):
        validation = self.build_validation()
        # "s" covers "good stuff" (10 refund), "bad sign" (2 refund + 2
        # shipping), "rare case" (1 refund) and "ship it" (9 shipping).
        rule = make_rule("mid", "refund", [contains("s")], 0.99)
        outcome = online_validate([rule], validation, min_precision=0.5)
        [kept] = outcome.kept
        assert kept.reward == 13 / 24

    def test_empty_validation_set_is_an_error(self):
        rule = make_rule("r", "refund", [contains("x")], 0.9)
        with pytest.raises(RuleBaseError, match="empty validation"):
            online_validate([rule], [])

    def test_full_pipeline_guarantee(self):
        validation = self.build_validation()
        rng = random.Random(0)
        words = ["good", "bad", "rare", "ship", "stuff", "sign"]
        rules = [
            make_rule(
                f"p{i}",
                rng.choice(["refund", "shipping"]),
                {contains(w) for w in rng.sample(words, k=rng.randint(1, 2))},
                rng.random(),
            )
            for i in range(60)
        ]
        survivors = online_validate(
            remove_dominated(filter_by_reward(rules, 0.3)),
            validation,
            min_precision=0.8,
            min_support=2,
        ).kept
        from rulesmith import measure_rule

        for rule in survivors:
            quality = measure_rule(rule, validation)
            assert quality.coverage >= 2
            assert quality.precision >= 0.8


class TestPersistence:
    def metadata(self):
        return RuleBaseMetadata(
            created_at="2025-11-04T12:00:00+00:00",
            dataset_digest="abc123",
            config_digest="def456",
        )

    def build_base(self):
        rules = (
            make_rule("a", "refund", [P1], 0.9),
            make_rule("b", "refund", [P2, P3], 0.85, confidence=0.4),
            make_rule("c", "receipt", [contains("发票")], 1.0, task=Task.IMAGE_SCENE),
        )
        return RuleBase(rules=rules, metadata=self.metadata())

    def test_round_trip_is_field_identical(self, tmp_path):
        base = self.build_base()
        path = tmp_path / "rules.json"
        save_rulebase(base, path)
        assert load_rulebase(path) == base

    def test_oversized_rule_fails_citing_the_size_invariant(self, tmp_path):
        path = tmp_path / "rules.json"
        doc = {
            "version": 1,
            "metadata": {"created_at": "x", "dataset_digest": "", "config_digest": ""},
            "rules": [
                {
                    "id": "big",
                    "task": "intent",
                    "label": "refund",
                    "predicates": [f'any_text contains "w{i}"' for i in range(6)],
                    "reward": 0.9,
                    "confidence": 0.9,
                    "source": "manual",
                }
            ],
        }
        path.write_text(json.dumps(doc))
        with pytest.raises(RuleBaseError, match="1..5"):
            load_rulebase(path)

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps({"version": 99, "metadata": {}, "rules": []}))
        with pytest.raises(RuleBaseError, match="version"):
            load_rulebase(path)

    def test_schema_mismatch_names_the_field(self, tmp_path):
        path = tmp_path / "rules.json"
        doc = {
            "version": 1,
            "metadata": {"created_at": "x", "dataset_digest": "", "config_digest": ""},
            "rules": [
                {
                    "id": "a",
                    "task": "intent",
                    "label": "refund",
                    "predicates": ['any_text contains "x"'],
                    "reward": "high",
                    "confidence": 0.9,
                    "source": "manual",
                }
            ],
        }
        path.write_text(json.dumps(doc))
        with pytest.raises(RuleBaseError, match="reward"):
            load_rulebase(path)

    def test_a_predicate_that_does_not_parse_is_a_rulebase_error(self, tmp_path):
        path = tmp_path / "rules.json"
        doc = {
            "version": 1,
            "metadata": {"created_at": "x", "dataset_digest": "", "config_digest": ""},
            "rules": [
                {
                    "id": "a",
                    "task": "intent",
                    "label": "refund",
                    "predicates": ['any_text contains "x"', 'any_text includes "y"'],
                    "reward": 0.9,
                    "confidence": 0.9,
                    "source": "manual",
                }
            ],
        }
        path.write_text(json.dumps(doc))
        with pytest.raises(
            RuleBaseError,
            match="rule entry 0: field 'predicates' contains an invalid predicate: "
                  "unknown op 'includes'",
        ):
            load_rulebase(path)

    def test_duplicate_rule_ids_rejected(self):
        rules = (
            make_rule("a", "refund", [P1], 0.9),
            make_rule("a", "refund", [P2], 0.8),
        )
        with pytest.raises(RuleBaseError, match="duplicate rule id"):
            RuleBase(rules=rules, metadata=self.metadata())

    def test_dominated_rules_rejected_at_construction(self):
        rules = (
            make_rule("a", "refund", [P1], 0.9),
            make_rule("b", "refund", [P1, P2], 0.8),
        )
        with pytest.raises(RuleBaseError, match="dominated"):
            RuleBase(rules=rules, metadata=self.metadata())

    def test_rules_with_one_task_label_and_predicate_set_rejected(self):
        rules = (
            make_rule("a", "refund", [P1, P2], 0.8),
            make_rule("b", "refund", [P2, P1], 0.9),
        )
        with pytest.raises(
            RuleBaseError, match="rule 'b' has the task, label and predicates of rule 'a'"
        ):
            RuleBase(rules=rules, metadata=self.metadata())
        assert [r.id for r in RuleBase.build(rules).rules] == ["b"]

    def test_filter_refuses_a_file_with_two_equal_rules(self, tmp_path, capsys):
        rule = {"task": "intent", "label": "refund", "predicates": ['any_text contains "x"'],
                "reward": 0.9, "confidence": 0.9, "source": "manual"}
        doc = {
            "version": 1,
            "metadata": {"created_at": "x", "dataset_digest": "", "config_digest": ""},
            "rules": [{"id": "a", **rule}, {"id": "b", **rule}],
        }
        path = tmp_path / "rules.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(RuleBaseError, match="rule 'b'"):
            load_rulebase(path)
        out = tmp_path / "filtered.json"
        assert main(["filter", "--rules", str(path), "--out", str(out)]) == 1
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["error"] == "RuleBaseError" and "rule 'b'" in error["message"]
        assert not out.exists()

    def test_build_prunes_instead_of_raising(self):
        rules = [
            make_rule("a", "refund", [P1], 0.9),
            make_rule("b", "refund", [P1, P2], 0.8),
        ]
        base = RuleBase.build(rules, self.metadata())
        assert [r.id for r in base.rules] == ["a"]
