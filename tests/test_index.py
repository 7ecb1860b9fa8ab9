"""The compiled sample index agrees with naive per-sample evaluation.

Random small corpora mix case and full-width variants of the same words, so
normalization is exercised on both sides; random predicates cover every
field and every operator.
"""

from __future__ import annotations

from hypothesis import given, settings
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
    eval_rule,
    measure_rule,
    predict_batch,
)
from rulesmith.agents import MAX_TOKEN_LENGTH, sample_tokens

WORDS = ["ab", "AB", "ａｂ", "Ab", "c", "Ｃ", "de", "fg", "hi", "jk", "退货", "退", "货物", "x1", "Ｘ１"]
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
    value=st.sampled_from(WORDS + ["ab c", "退货 ab"]),
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


def test_index_is_the_sequence_of_its_samples():
    corpus = [
        DialogueSample("a", Task.INTENT, (Turn(Speaker.USER, "ab"),), gold_label="refund"),
        DialogueSample("b", Task.IMAGE_SCENE, (), "Ｃ", gold_label="receipt"),
    ]
    index = SampleIndex(corpus)
    assert len(index) == 2 and list(index) == corpus
    assert index[:1] == (corpus[0],) and index[1] is corpus[1]
