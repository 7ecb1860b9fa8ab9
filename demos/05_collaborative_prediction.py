"""
Rules correcting a classifier
=============================

Every sample is shown to both the rule base and a classifier. When the
strongest fired rule's reward clears the override threshold, that rule's
label wins; otherwise the classifier's answer stands, and it is always
recorded either way. High-precision rules on their covered slice lift a
mediocre classifier without touching the rest.
"""

import random

from rulesmith import (
    DialogueSample,
    LabelTaxonomy,
    Rule,
    RuleBase,
    RuleBaseMetadata,
    RuleSource,
    Speaker,
    StubPredictor,
    Task,
    Turn,
    parse_predicate,
    predict_batch,
    weighted_f1,
)

labels = ("refund", "shipping", "invoice")
taxonomy = LabelTaxonomy(intent=labels, image_scene=())
giveaway = {"refund": "退货", "shipping": "发货", "invoice": "发票"}

rng = random.Random(1)
samples = []
for label in labels:
    for i in range(60):
        text = "帮我处理一下这个订单"
        if i < 24:  # the giveaway token covers 40% of each label
            text += "，" + giveaway[label]
        samples.append(
            DialogueSample(
                id=f"{label}-{i:03d}",
                task=Task.INTENT,
                turns=(Turn(Speaker.USER, text),),
                gold_label=label,
            )
        )
rng.shuffle(samples)
gold = [s.gold_label for s in samples]

rules = tuple(
    Rule(
        id=f"kw-{label}",
        task=Task.INTENT,
        label=label,
        predicates=frozenset({parse_predicate(f'any_text contains "{token}"')}),
        reward=1.0,
        confidence=1.0,
        source=RuleSource.MANUAL,
    )
    for label, token in giveaway.items()
)
metadata = RuleBaseMetadata(created_at="2025-11-04T00:00:00+00:00")
base = RuleBase(rules=rules, metadata=metadata)
empty = RuleBase(rules=(), metadata=metadata)

stub = StubPredictor(taxonomy, accuracy=0.7, seed=5)
alone = predict_batch(empty, stub, samples)
together = predict_batch(base, stub, samples)

f1_alone = weighted_f1(gold, [p.label for p in alone.predictions], labels)
f1_together = weighted_f1(gold, [p.label for p in together.predictions], labels)
print(f"classifier alone:      weighted F1 = {f1_alone:.4f}")
print(f"with rule corrections: weighted F1 = {f1_together:.4f}")
print(f"report: {vars(together.report)}")

corrected = [
    (a.sample_id, a.label, b.label)
    for a, b in zip(alone.predictions, together.predictions)
    if a.label != b.label
]
print(f"{len(corrected)} predictions corrected; e.g. {corrected[0][0]}: "
      f"{corrected[0][1]} -> {corrected[0][2]}")
