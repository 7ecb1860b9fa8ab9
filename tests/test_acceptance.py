"""Acceptance gate: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines. Every tolerance and runtime budget is pinned here.
"""

from __future__ import annotations

import random
import time

import pytest

from rulesmith import (
    LabelTaxonomy,
    MockAgent,
    Predicate,
    PredicateField,
    PredicateOp,
    PredictionSource,
    RuleBase,
    RuleBaseMetadata,
    RuleSource,
    SearchConfig,
    StubPredictor,
    Task,
    eval_predicate,
    evaluate,
    filter_by_reward,
    load_dataset,
    load_rulebase,
    measure_rule,
    online_validate,
    parse_predicate,
    predict_batch,
    remove_dominated,
    render_predicate,
    run_search,
    save_dataset,
    save_predictions,
    save_rulebase,
    stratified_split,
    weighted_f1,
)
from rulesmith.agents import sample_tokens
from _helpers import (
    brute_force_remove_dominated,
    brute_force_weighted_f1,
    build_planted_corpus,
    check_search_tree,
    contains,
    intent_sample,
    make_rule,
    planted_token,
    scene_sample,
)


def report(number: int, name: str, elapsed: float | None = None) -> None:
    timing = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"[acceptance] criterion {number} ({name}): PASS{timing}")


def test_criterion_1_metric_oracle():
    start = time.perf_counter()
    assert weighted_f1(["a", "a", "b"], ["a", "b", "b"], {"a", "b"}) == 2 / 3

    labels = ["a", "b", "c", "d", "e"]
    for trial in range(1000):
        rng = random.Random(trial)
        n = rng.randint(1, 40)
        k = rng.randint(2, 5)
        used = labels[:k]
        gold = [rng.choice(used) for _ in range(n)]
        pred = [rng.choice(used + ["__abstain__"]) for _ in range(n)]
        fast = weighted_f1(gold, pred, used)
        slow = brute_force_weighted_f1(gold, pred, used)
        assert abs(fast - slow) <= 1e-12, (trial, fast, slow)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, "metric oracle", elapsed)


def test_criterion_2_published_arithmetic_identity():
    start = time.perf_counter()
    taxonomy = LabelTaxonomy(intent=("ia", "ib"), image_scene=("sa", "sb"))

    def confusion(n_a, n_b, x, y, a, b):
        gold = [a] * n_a + [b] * n_b
        pred = [a] * (n_a - x) + [b] * x + [a] * y + [b] * (n_b - y)
        return gold, pred

    # Frozen counts: intent 2000/3000 with 199/500 cross errors hits 0.8614;
    # image scene 2400/2600 with 598/598 hits 0.7608. Supports are equal
    # (5000 per task), so the unified score must land on 0.8111.
    from rulesmith import Prediction

    samples = []
    predictions = []
    for i, (g, p) in enumerate(zip(*confusion(2000, 3000, 199, 500, "ia", "ib"))):
        samples.append(intent_sample(f"i{i}", g, "t"))
        predictions.append(Prediction(f"i{i}", p, PredictionSource.PREDICTOR, None, p))
    for i, (g, p) in enumerate(zip(*confusion(2400, 2600, 598, 598, "sa", "sb"))):
        samples.append(scene_sample(f"s{i}", g, "o"))
        predictions.append(Prediction(f"s{i}", p, PredictionSource.PREDICTOR, None, p))

    result = evaluate(predictions, samples, taxonomy)
    assert result.dis == pytest.approx(0.8614, abs=1e-4)
    assert result.iss == pytest.approx(0.7608, abs=1e-4)
    assert result.oss == pytest.approx(0.8111, abs=1e-4)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(2, "published arithmetic identity", elapsed)


def run_planted_search(labels, per_label, seed, iterations, noise=0.0):
    corpus = build_planted_corpus(labels, per_label=per_label, seed=seed)
    split = stratified_split(corpus, 0.4, seed=seed)
    agent = MockAgent(split.train, seed=seed, noise=noise)
    cfg = SearchConfig(max_iterations=iterations)
    results = {
        label: run_search(label, Task.INTENT, split, agent, cfg) for label in labels
    }
    return split, results


def test_criterion_3_filtering_constants():
    rules = [
        make_rule("below", "refund", [contains("alpha")], 0.79),
        make_rule("at", "shipping", [contains("beta")], 0.80),
        make_rule("above", "refund", [contains("gamma")], 0.95),
    ]
    kept = filter_by_reward(rules)
    assert [r.id for r in kept] == ["at", "above"]

    # Depth cap over real induction runs.
    _, results = run_planted_search(["refund", "shipping"], per_label=20, seed=13,
                                    iterations=60, noise=0.05)
    for result in results.values():
        for rule, _ in result.rules:
            assert 1 <= len(rule.predicates) <= 5
        check_search_tree(result.root)
    report(3, "filtering constants")


def test_criterion_4_dominance_oracle():
    start = time.perf_counter()
    pool = [contains(f"w{i}") for i in range(8)]
    for seed in range(20):
        rng = random.Random(seed)
        rules = []
        for i in range(200):
            predicates = frozenset(rng.sample(pool, k=rng.randint(1, 4)))
            rules.append(
                make_rule(
                    f"r{seed}-{i:03d}",
                    rng.choice(["L1", "L2", "L3"]),
                    predicates,
                    rng.choice([0.5, 0.6, 0.7, 0.8, 0.9, 1.0]),
                    task=rng.choice([Task.INTENT, Task.IMAGE_SCENE]),
                )
            )
        pruned = remove_dominated(rules)
        assert pruned == brute_force_remove_dominated(rules)
        assert remove_dominated(pruned) == pruned  # idempotent
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(4, "dominance oracle", elapsed)


def test_criterion_5_mcts_accounting():
    for seed in range(10):
        split, results = run_planted_search(
            ["refund", "shipping"], per_label=20, seed=seed, iterations=40, noise=0.05
        )
        for result in results.values():
            assert result.root.visits == result.evaluations
            check_search_tree(result.root, max_predicates=5)
    report(5, "mcts accounting")


def test_criterion_6_planted_rule_recovery():
    start = time.perf_counter()
    labels = ["refund", "shipping", "invoice", "warranty"]
    seed = 17

    def induce_once():
        split, results = run_planted_search(
            labels, per_label=125, seed=seed, iterations=200, noise=0.0
        )
        harvested = [rule for result in results.values() for rule, _ in result.rules]
        validation = list(split.validation)
        outcome = online_validate(
            remove_dominated(filter_by_reward(harvested, 0.8)), validation
        )
        base = RuleBase.build(
            list(outcome.kept), RuleBaseMetadata(created_at="1970-01-01T00:00:00+00:00")
        )
        return split, base

    split, base = induce_once()
    validation = list(split.validation)

    # Exhaustive oracle: best single-token rule per label over the training
    # vocabulary, measured by a literal loop over the validation set.
    vocabulary = sorted(set().union(*(sample_tokens(s) for s in split.train)))
    for label in labels:
        optimum = 0.0
        for token in vocabulary:
            if len(token) > 64:
                continue
            predicate = contains(token)
            coverage = correct = 0
            for s in validation:
                if eval_predicate(predicate, s):
                    coverage += 1
                    if s.gold_label == label:
                        correct += 1
            if coverage:
                optimum = max(optimum, correct / coverage)
        assert optimum == 1.0  # the planted token is perfect by construction

        candidates = [r for r in base.rules if r.label == label]
        assert candidates, f"no surviving rule for label {label}"
        best = max(
            (measure_rule(r, validation).precision or 0.0) for r in candidates
        )
        assert best >= 0.95 * optimum

    # Determinism per seed: a second identical run rebuilds the same base.
    _, base_again = induce_once()
    assert base_again.rules == base.rules

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(6, "planted rule recovery", elapsed)


def test_criterion_7_arbiter_identities(tmp_path):
    start = time.perf_counter()
    taxonomy = LabelTaxonomy(
        intent=("refund", "shipping", "invoice"), image_scene=()
    )
    corpus = build_planted_corpus(["refund", "shipping", "invoice"], per_label=20, seed=23)
    metadata = RuleBaseMetadata(created_at="1970-01-01T00:00:00+00:00")

    # Empty rule base: the batch must be the stub's output, bit for bit.
    stub = StubPredictor(taxonomy, accuracy=0.7, seed=23)
    empty = RuleBase(rules=(), metadata=metadata)
    result = predict_batch(empty, stub, corpus)
    assert [p.label for p in result.predictions] == [stub.predict(s) for s in corpus]
    assert all(p.source is PredictionSource.PREDICTOR for p in result.predictions)
    first = tmp_path / "first.jsonl"
    second = tmp_path / "second.jsonl"
    save_predictions(result.predictions, first)
    save_predictions(predict_batch(empty, stub, corpus).predictions, second)
    assert first.read_bytes() == second.read_bytes()

    # An always-firing, fully trusted rule takes over every prediction.
    always = make_rule("always", "refund", [contains("e")], 1.0)
    assert all(eval_predicate(next(iter(always.predicates)), s) for s in corpus)
    overridden = predict_batch(RuleBase(rules=(always,), metadata=metadata), stub, corpus)
    assert all(p.label == "refund" for p in overridden.predictions)
    assert all(p.source is PredictionSource.RULE for p in overridden.predictions)

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(7, "arbiter identities", elapsed)


def test_criterion_8_synthetic_uplift():
    start = time.perf_counter()
    labels = ["refund", "shipping", "invoice", "warranty"]
    taxonomy = LabelTaxonomy(intent=tuple(labels), image_scene=())
    # Planted tokens cover 40% of each label's samples at precision 1.0.
    corpus = build_planted_corpus(labels, per_label=100, seed=31, plant_fraction=0.4)
    gold = [s.gold_label for s in corpus]
    rules = tuple(
        make_rule(f"plant-{label}", label, [contains(planted_token(label))], 1.0)
        for label in labels
    )
    covered = sum(
        1 for s in corpus if any(eval_predicate(next(iter(r.predicates)), s) for r in rules)
    )
    assert covered / len(corpus) >= 0.30

    metadata = RuleBaseMetadata(created_at="1970-01-01T00:00:00+00:00")
    base = RuleBase(rules=rules, metadata=metadata)
    empty = RuleBase(rules=(), metadata=metadata)
    for seed in range(5):
        stub = StubPredictor(taxonomy, accuracy=0.70, seed=seed)
        plain = predict_batch(empty, stub, corpus)
        boosted = predict_batch(base, stub, corpus)
        f1_plain = weighted_f1(gold, [p.label for p in plain.predictions], labels)
        f1_boosted = weighted_f1(gold, [p.label for p in boosted.predictions], labels)
        assert f1_boosted - f1_plain >= 0.05, (seed, f1_plain, f1_boosted)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(8, "synthetic uplift", elapsed)


def test_criterion_9_round_trips(tmp_path):
    # Dataset save/load.
    taxonomy = LabelTaxonomy(intent=("refund",), image_scene=("receipt",))
    samples = [
        intent_sample("a", "refund", "退货 please", ocr_text="单号 123"),
        scene_sample("b", "receipt", "发票 total"),
    ]
    data_path = tmp_path / "data.jsonl"
    save_dataset(samples, data_path)
    assert load_dataset(data_path, taxonomy) == samples

    # Rule base save/load.
    base = RuleBase(
        rules=(
            make_rule("r1", "refund", [contains("退货"), contains("退款")], 0.9),
            make_rule("r2", "receipt", [contains("发票")], 1.0, task=Task.IMAGE_SCENE,
                      source=RuleSource.MCTS),
        ),
        metadata=RuleBaseMetadata(
            created_at="2025-11-04T12:00:00+00:00",
            dataset_digest="d1",
            config_digest="c1",
        ),
    )
    rules_path = tmp_path / "rules.json"
    save_rulebase(base, rules_path)
    assert load_rulebase(rules_path) == base

    # Predicate parse/render identity on 1,000 generated predicates.
    rng = random.Random(99)
    alphabet = (
        "abcdefghijklmnopqrstuvwxyz0123456789"
        '退货发票物流单号查询 "\\\n\tÀßŒ自行车Ｆｕｌｌ'
    )
    for i in range(1000):
        value = "".join(
            rng.choice(alphabet) for _ in range(rng.randint(1, 128))
        )
        predicate = Predicate(
            field=rng.choice(list(PredicateField)),
            op=rng.choice(list(PredicateOp)),
            value=value,
        )
        assert parse_predicate(render_predicate(predicate)) == predicate
    report(9, "round trips")
