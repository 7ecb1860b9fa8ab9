"""
The predicate DSL and conjunction rules
=======================================

Predicates are atomic text conditions with exactly four fields and four
operators; a rule is a conjunction of up to five of them implying a label.
Matching runs on NFKC-normalized, case-folded text, so full-width and
mixed-case variants all hit. A ``SampleIndex`` evaluates predicates and
rules over a whole collection at once: each match set is a bitset whose
bit i stands for the i-th sample.
"""

from rulesmith import (
    DialogueSample,
    Rule,
    RuleSource,
    SampleIndex,
    Speaker,
    Task,
    Turn,
    measure_rule,
    parse_predicate,
    render_predicate,
)

# Parse the canonical text form; rendering gives it back verbatim.
predicate = parse_predicate('any_text contains "退货"')
print(f"parsed:   {predicate}")
print(f"rendered: {render_predicate(predicate)}")

sample = DialogueSample(
    id="demo",
    task=Task.INTENT,
    turns=(
        Turn(Speaker.USER, "你好，我想退货，可以吗"),
        Turn(Speaker.SERVICE_REP, "可以的，请提供订单号"),
    ),
    ocr_text="",
    gold_label="refund",
)
print(f"fires on the sample: {bool(SampleIndex([sample]).predicate_mask(predicate))}")

# Normalization in action: full-width latin matches its ASCII value.
wide = DialogueSample(
    id="wide", task=Task.IMAGE_SCENE, turns=(), ocr_text="ＯＲＤＥＲ ＮＯ. １２３４",
)
order_no = parse_predicate('ocr_text contains "order no"')
print("full-width OCR matches 'order no':", bool(SampleIndex([wide]).predicate_mask(order_no)))

# A rule fires only when every predicate does.
rule = Rule(
    id="refund-asks",
    task=Task.INTENT,
    label="refund",
    predicates=frozenset({
        parse_predicate('user_text contains "退货"'),
        parse_predicate('user_text not_contains "发货"'),
    }),
    reward=0.9,
    confidence=0.8,
    source=RuleSource.MANUAL,
)

# Index a small corpus once: the rule's bitset names the samples it fires
# on, and its quality is coverage, correct count and precision over them.
corpus = [sample] + [
    DialogueSample(
        id=f"other-{i}",
        task=Task.INTENT,
        turns=(Turn(Speaker.USER, text),),
        gold_label=label,
    )
    for i, (text, label) in enumerate([
        ("我要退货，质量太差", "refund"),
        ("想退货换个颜色", "refund"),
        ("什么时候发货", "shipping"),
        ("帮我退货并查询发货时间", "shipping"),  # mentions 发货, so the rule stays silent
    ])
]
index = SampleIndex(corpus)
mask = index.rule_mask(rule)
print("rule fires on:", [s.id for i, s in enumerate(index) if mask >> i & 1])
quality = measure_rule(rule, index)
print(f"quality: coverage={quality.coverage} correct={quality.correct} "
      f"precision={quality.precision}")
