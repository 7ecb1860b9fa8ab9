"""
Loading, splitting, and rephrasing dialogue datasets
====================================================

Builds a tiny labeled corpus, round-trips it through the JSONL format,
derives a validation set two ways: a stratified split, and rephrased
copies of the training samples.
"""

from pathlib import Path
from tempfile import TemporaryDirectory

from rulesmith import (
    DialogueSample,
    LabelTaxonomy,
    MockAgent,
    Speaker,
    Task,
    Turn,
    generate_validation,
    load_dataset,
    save_dataset,
    stratified_split,
)

taxonomy = LabelTaxonomy(
    intent=("refund", "shipping"),
    image_scene=("receipt", "tracking_page"),
)

samples = []
for i in range(10):
    label = "refund" if i % 2 == 0 else "shipping"
    keyword = "退货" if label == "refund" else "什么时候发货"
    samples.append(
        DialogueSample(
            id=f"dlg-{i:03d}",
            task=Task.INTENT,
            turns=(
                Turn(Speaker.USER, f"你好，{keyword}，订单 {1000 + i}"),
                Turn(Speaker.SERVICE_REP, "好的，马上为您处理"),
            ),
            gold_label=label,
        )
    )
samples.append(
    DialogueSample(
        id="img-001",
        task=Task.IMAGE_SCENE,
        turns=(),
        ocr_text="发票 金额 ￥128.00 税号",
        gold_label="receipt",
    )
)

with TemporaryDirectory() as tmp:
    path = Path(tmp) / "corpus.jsonl"
    save_dataset(samples, path)
    loaded = load_dataset(path, taxonomy)
    print(f"round-trip: saved {len(samples)} samples, loaded {len(loaded)}, "
          f"identical: {loaded == samples}")

# Stratified split: per-label validation share tracks the fraction.
split = stratified_split(samples[:10], validation_fraction=0.2, seed=42)
print(f"stratified split: {len(split.train)} train / {len(split.validation)} validation")
for side, part in (("train", split.train), ("validation", split.validation)):
    by_label = {}
    for s in part:
        by_label[s.gold_label] = by_label.get(s.gold_label, 0) + 1
    print(f"  {side}: {by_label}")

# Rephrased validation: the mock agent echoes, a remote agent would reword.
rephrased = generate_validation(split.train, MockAgent(split.train, seed=0), per_sample=2)
print(f"rephrased validation: {len(rephrased)} copies")
print(f"  first copy id: {rephrased[0].id} (derived from its source id)")
