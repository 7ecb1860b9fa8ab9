"""The compiled sample index agrees with naive per-sample evaluation.

Random small corpora mix case and full-width variants of the same words, so
normalization is exercised on both sides; random predicates cover every
field and every operator. Words and needles also probe the ``contains``
sweep over a field's joined texts: a needle that only matches across the
joint of two samples, texts and needles that hold the separator, overlapping
occurrences, and needles longer than every text.
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from rulesmith import (
    AgentContext,
    DialogueSample,
    LabelTaxonomy,
    MockAgent,
    Predicate,
    PredicateField,
    PredicateOp,
    Rule,
    RuleBase,
    RuleSource,
    SampleIndex,
    Speaker,
    StubPredictor,
    Task,
    Turn,
    eval_predicate,
    load_predictions,
    load_rulebase,
    measure_rule,
    predict_batch,
    save_dataset,
    save_rulebase,
    save_taxonomy,
)
import rulesmith.predicate as predicate
from rulesmith.agents import MAX_TOKEN_LENGTH, sample_tokens
from rulesmith.cli import main
from _helpers import eval_rule

WORDS = [
    "ab", "AB", "ａｂ", "Ab", "c", "Ｃ", "de", "fg", "hi", "jk", "退货", "退", "货物", "x1", "Ｘ１",
    "a\0b", "aaaa",
]
# "bc" matches only across the joint of a text ending in "ab" and one
# starting with "c"; "\0" is the sweep's separator; "ab" * 64 is longer
# than any text.
VALUES = WORDS + ["ab c", "退货 ab", "bc", "\0", "aa", "ab" * 64]
INTENT_LABELS = ["refund", "shipping", "invoice"]
SCENE_LABELS = ["receipt", "tracking"]
TAXONOMY = LabelTaxonomy(intent=tuple(INTENT_LABELS), image_scene=tuple(SCENE_LABELS))

texts = st.lists(st.sampled_from(WORDS), max_size=5).map(" ".join)


@st.composite
def samples(draw, sample_id: str) -> DialogueSample:
    task = draw(st.sampled_from(list(Task)))
    labels = INTENT_LABELS if task is Task.INTENT else SCENE_LABELS
    label = draw(st.none() | st.sampled_from(labels))
    if task is Task.INTENT:
        turns = tuple(
            Turn(draw(st.sampled_from(list(Speaker))), draw(texts))
            for _ in range(draw(st.integers(1, 3)))
        )
        return DialogueSample(sample_id, task, turns, draw(texts), gold_label=label)
    return DialogueSample(sample_id, task, (), draw(texts), image_ref="img.png", gold_label=label)


@st.composite
def corpora(draw, min_size: int = 0) -> list[DialogueSample]:
    n = draw(st.integers(min_size, 12))
    return [draw(samples(f"s{i:02d}")) for i in range(n)]


predicates = st.builds(
    Predicate,
    field=st.sampled_from(list(PredicateField)),
    op=st.sampled_from(list(PredicateOp)),
    value=st.sampled_from(VALUES),
)


@st.composite
def rules(draw, rule_id: str) -> Rule:
    task = draw(st.sampled_from(list(Task)))
    labels = INTENT_LABELS if task is Task.INTENT else SCENE_LABELS
    return Rule(
        id=rule_id,
        task=task,
        label=draw(st.sampled_from(labels)),
        predicates=frozenset(draw(st.lists(predicates, min_size=1, max_size=3))),
        reward=draw(st.sampled_from([0.5, 0.8, 0.9, 1.0])),
        confidence=1.0,
        source=RuleSource.MANUAL,
    )


@st.composite
def rule_lists(draw) -> list[Rule]:
    n = draw(st.integers(0, 8))
    return [draw(rules(f"r{i}")) for i in range(n)]


def naive_measure(rule: Rule, corpus) -> tuple[int, int]:
    coverage = correct = 0
    for sample in corpus:
        if sample.task is rule.task and all(eval_predicate(p, sample) for p in rule.predicates):
            coverage += 1
            correct += sample.gold_label == rule.label
    return coverage, correct


@settings(max_examples=100, deadline=None)
@given(corpus=corpora(), rule_list=rule_lists())
def test_measure_rule_over_an_index_equals_a_naive_count(corpus, rule_list):
    index = SampleIndex(corpus)
    for rule in rule_list:
        quality = measure_rule(rule, index)
        assert (quality.coverage, quality.correct) == naive_measure(rule, corpus)
        assert measure_rule(rule, corpus) == quality


@settings(max_examples=100, deadline=None)
@given(corpus=corpora(), rule_list=rule_lists(), threshold=st.sampled_from([0.5, 0.85, 1.0]))
def test_predict_batch_fires_the_naive_strongest_match(corpus, rule_list, threshold):
    base = RuleBase.build(rule_list)
    stub = StubPredictor(TAXONOMY, accuracy=0.5, seed=1)
    result = predict_batch(base, stub, corpus, override_threshold=threshold)
    assert [p.sample_id for p in result.predictions] == [s.id for s in corpus]
    for sample, prediction in zip(corpus, result.predictions):
        candidates = [r for r in base.rules if r.task is sample.task and eval_rule(r, sample)]
        best = min(candidates, key=lambda r: (-r.reward, -len(r.predicates), r.id), default=None)
        expected = best.id if best is not None and best.reward >= threshold else None
        assert prediction.fired_rule_id == expected


@settings(max_examples=100, deadline=None)
@given(corpus=corpora(), rule_list=rule_lists())
def test_predict_names_the_first_own_task_rule_that_holds(corpus, rule_list):
    """``predict`` through the CLI, where ``--override-threshold 0`` lets any
    fired rule answer: on a batch of both tasks, each prediction names the
    first rule of its sample's own task, in ``(-reward, -len(predicates), id)``
    order, whose predicates all hold by ``eval_predicate``; or none."""
    with tempfile.TemporaryDirectory() as name:
        scratch = Path(name)
        paths = {f: str(scratch / f) for f in ("test.jsonl", "labels.json", "rules.json", "p.jsonl")}
        save_dataset(corpus, paths["test.jsonl"])
        save_taxonomy(TAXONOMY, paths["labels.json"])
        save_rulebase(RuleBase.build(rule_list), paths["rules.json"])
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["predict", "--val", paths["test.jsonl"], "--labels", paths["labels.json"],
                         "--rules", paths["rules.json"], "--predictor", "stub:0.5",
                         "--override-threshold", "0", "--out", paths["p.jsonl"]]) == 0
        ranked = sorted(load_rulebase(paths["rules.json"]).rules,
                        key=lambda r: (-r.reward, -len(r.predicates), r.id))
        predictions = load_predictions(paths["p.jsonl"])
    assert [p.sample_id for p in predictions] == [s.id for s in corpus]
    for sample, prediction in zip(corpus, predictions):
        first = next(
            (r.id for r in ranked if r.task is sample.task and eval_rule(r, sample)), None
        )
        assert prediction.fired_rule_id == first, sample.id


def rescanned_ranking(corpus, task: Task, label: str) -> list[str]:
    """Token ranking recounted per token by rescanning every sample."""

    positives = [s for s in corpus if s.task is task and s.gold_label == label]
    negatives = [s for s in corpus if s.task is task and s.gold_label != label]
    if not positives:
        return []
    vocabulary = set().union(*(sample_tokens(s) for s in positives))
    smoothing = 1.0 / (2 * max(1, len(negatives)))
    scored = []
    for token in vocabulary:
        if len(token) > MAX_TOKEN_LENGTH:
            continue
        p_pos = sum(token in sample_tokens(s) for s in positives) / len(positives)
        p_neg = (
            sum(token in sample_tokens(s) for s in negatives) / len(negatives)
            if negatives
            else 0.0
        )
        scored.append((p_pos / (p_neg + smoothing), p_pos, token))
    scored.sort(key=lambda item: (-item[0], -item[1], item[2]))
    return [token for _, _, token in scored]


def rescanned_proposals(corpus, ctx: AgentContext, k: int) -> list[Predicate]:
    taken = set(ctx.current)
    proposals = []
    for token in rescanned_ranking(corpus, ctx.task, ctx.label):
        candidate = Predicate(PredicateField.ANY_TEXT, PredicateOp.CONTAINS, token)
        if candidate in taken:
            continue
        proposals.append(candidate)
        taken.add(candidate)
        if len(proposals) == k:
            break
    return proposals


TARGETS = [(Task.INTENT, l) for l in INTENT_LABELS] + [(Task.IMAGE_SCENE, l) for l in SCENE_LABELS]


@settings(max_examples=100, deadline=None)
@given(
    corpus=corpora(min_size=1),
    current=st.frozensets(predicates, max_size=3),
    k=st.integers(1, 12),
)
def test_mock_proposals_equal_a_per_token_rescan(corpus, current, k):
    agent = MockAgent(corpus, seed=0)  # one agent serves every label, as in induce
    for task, label in TARGETS:
        ctx = AgentContext(
            task=task, label=label, exemplars=(), validation=(), current=current
        )
        assert agent.propose_predicates(ctx, k) == rescanned_proposals(corpus, ctx, k)


def ocr_samples(*texts: str) -> list[DialogueSample]:
    return [
        DialogueSample(f"s{i:02d}", Task.IMAGE_SCENE, (), text, image_ref="img.png")
        for i, text in enumerate(texts)
    ]


def holds_recount(p: Predicate, corpus) -> int:
    return sum(1 << i for i, sample in enumerate(corpus) if eval_predicate(p, sample))


# The joint of "xab" and "cy" spells "bc", or "b\0c" with the separator;
# empty texts make adjacent separators; "x" hits only the first sample and
# "yy" only the last.
EDGE_CORPUS = ocr_samples("xab", "cy", "", "", "a\0b", "aaaa", "", "ab yy")


@settings(max_examples=200, deadline=None)
@given(corpus=corpora(), values=st.lists(st.sampled_from(VALUES), min_size=1, max_size=4))
@example(corpus=EDGE_CORPUS, values=["bc", "b\0c", "\0", "a\0b", "aa", "aaaa", "cy", "x", "yy"])
@example(corpus=[], values=["ab", "\0"])
def test_predicate_masks_equal_a_holds_recount(corpus, values):
    index = SampleIndex(corpus)
    for value in values:
        for field in PredicateField:
            for op in PredicateOp:
                p = Predicate(field, op, value)
                assert index.predicate_mask(p) == holds_recount(p, corpus), p
    # No predicate has an empty value, so the empty needle is asked directly.
    for field in PredicateField:
        assert index.contains_mask(field, "") == (1 << len(corpus)) - 1


def test_contains_masks_make_no_per_sample_holds_call(monkeypatch):
    calls = []
    holds = predicate._holds
    monkeypatch.setattr(
        predicate, "_holds", lambda *args: calls.append(args) or holds(*args)
    )
    index = SampleIndex(EDGE_CORPUS)
    scans = {
        PredicateOp.CONTAINS: 0,
        PredicateOp.NOT_CONTAINS: 0,
        PredicateOp.STARTS_WITH: 1,
        PredicateOp.ENDS_WITH: 1,
    }
    for field in PredicateField:
        for op, per_sample in scans.items():
            calls.clear()
            index.predicate_mask(Predicate(field, op, "ab"))
            assert len(calls) == per_sample * len(EDGE_CORPUS), (field, op)
        calls.clear()
        index.predicate_mask(Predicate(field, PredicateOp.NOT_CONTAINS, "a\0b"))
        assert not calls, field


def test_index_is_the_sequence_of_its_samples():
    corpus = [
        DialogueSample("a", Task.INTENT, (Turn(Speaker.USER, "ab"),), gold_label="refund"),
        DialogueSample("b", Task.IMAGE_SCENE, (), "Ｃ", gold_label="receipt"),
    ]
    index = SampleIndex(corpus)
    assert len(index) == 2 and list(index) == corpus
    assert index[:1] == (corpus[0],) and index[1] is corpus[1]
