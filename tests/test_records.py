"""The record contract: immutable named tuples that check their fields.

A record that checks its fields checks them alike whether it is built or
changed with ``_replace``; it hashes as its field tuple, as the frozen
dataclasses it replaced did, so sets iterate in the same order; and its
repr names every field.
"""

from __future__ import annotations

import json

import pytest

from rulesmith import (
    DatasetSplit,
    EvalReport,
    LabelTaxonomy,
    Prediction,
    PredictionSource,
    RewardEstimate,
    RuleBase,
    RuleBaseMetadata,
    RuleQuality,
    RulesmithError,
    SearchConfig,
    save_dataset,
    save_report,
    save_rulebase,
    save_taxonomy,
)
from rulesmith.cli import main
from rulesmith.harness import ClassStats
from rulesmith.inference import BatchReport
from _helpers import build_planted_corpus, contains, intent_sample, make_rule, planted_token

RULE = make_rule("r", "refund", [contains("refund")], 0.9)
WIDER = make_rule("w", "refund", [contains("refund"), contains("now")], 0.5)

# A valid record of each type that checks its fields, and one bad change to it.
CHECKED = {
    "DialogueSample": (intent_sample("s", "refund", "hello"), {"id": ""}),
    "LabelTaxonomy": (LabelTaxonomy(("refund",), ("photo",)), {"image_scene": ("refund",)}),
    "DatasetSplit": (
        DatasetSplit((intent_sample("a", "refund", "x"),), (intent_sample("b", "refund", "y"),)),
        {"validation": (intent_sample("a", "refund", "x"),)},
    ),
    "Predicate": (contains("refund"), {"value": ""}),
    "Rule": (RULE, {"reward": 2.0}),
    "RuleQuality": (RuleQuality(3, 2, 2 / 3), {"correct": 4}),
    "RewardEstimate": (RewardEstimate(0.5, 0.5, "why"), {"confidence": -0.1}),
    "Prediction": (
        Prediction("s", "refund", PredictionSource.RULE, "r", "shipping"),
        {"fired_rule_id": None},
    ),
    "SearchConfig": (SearchConfig(), {"max_iterations": 0}),
    "RuleBase": (RuleBase.build([RULE]), {"rules": (RULE, WIDER)}),
}


@pytest.mark.parametrize(("record", "bad"), CHECKED.values(), ids=CHECKED)
def test_replace_checks_a_field_as_the_constructor_does(record, bad):
    with pytest.raises((ValueError, RulesmithError)) as built:
        type(record)(**{**record._asdict(), **bad})
    with pytest.raises((ValueError, RulesmithError)) as replaced:
        record._replace(**bad)
    assert type(replaced.value) is type(built.value)
    assert str(replaced.value) == str(built.value)


@pytest.mark.parametrize(("record", "bad"), CHECKED.values(), ids=CHECKED)
def test_a_record_hashes_as_its_fields_and_names_them_in_its_repr(record, bad):
    name = type(record).__name__
    assert hash(record) == hash(tuple(record))
    fields = ", ".join(f"{key}={value!r}" for key, value in record._asdict().items())
    assert repr(record) == f"{name}({fields})"
    with pytest.raises(AttributeError):
        setattr(record, next(iter(bad)), None)


def test_replace_keeps_the_checked_conversions():
    assert type(RULE._replace(predicates=[contains("x")]).predicates) is frozenset
    assert type(RuleBase(rules=[RULE], metadata=RuleBaseMetadata("t")).rules) is tuple


def test_the_batch_report_reads_in_the_order_of_the_saved_report(tmp_path):
    labels = ["refund", "shipping"]
    samples = build_planted_corpus(labels, per_label=3, seed=1)
    save_dataset(samples, tmp_path / "val.jsonl")
    save_taxonomy(LabelTaxonomy(tuple(labels), ()), tmp_path / "labels.json")
    rule = make_rule("r", "refund", [contains(planted_token("refund"))], 0.9)
    save_rulebase(RuleBase.build([rule]), tmp_path / "rules.json")
    assert main(["predict", "--val", str(tmp_path / "val.jsonl"),
                 "--labels", str(tmp_path / "labels.json"), "--rules", str(tmp_path / "rules.json"),
                 "--predictor", "stub:0.5", "--out", str(tmp_path / "p.jsonl"),
                 "--report", str(tmp_path / "report.json")]) == 0
    saved = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert list(saved) == list(vars(BatchReport()))
    assert saved["total"] == len(samples) and saved["from_rules"] > 0
    assert BatchReport(total=2) == BatchReport(2)
    assert repr(BatchReport(total=2)).startswith("BatchReport(total=2, from_rules=0,")


# The files below are written from each record's own ``_asdict()``: these
# tests pin the formats, so that renaming a record field cannot change one.

def test_the_taxonomy_file_holds_these_bytes(tmp_path):
    save_taxonomy(LabelTaxonomy(("refund", "\u9000\u8d27"), ()), tmp_path / "labels.json")
    assert (tmp_path / "labels.json").read_bytes() == (
        '{\n  "intent": [\n    "refund",\n    "\u9000\u8d27"\n  ],\n  "image_scene": []\n}\n'
    ).encode("utf-8")


def test_the_rule_base_metadata_keys_are_in_this_order(tmp_path):
    metadata = RuleBaseMetadata(created_at="t", dataset_digest="d", config_digest="c")
    save_rulebase(RuleBase.build([RULE], metadata), tmp_path / "rules.json")
    saved = json.loads((tmp_path / "rules.json").read_text(encoding="utf-8"))
    assert list(saved) == ["version", "metadata", "rules"]
    assert list(saved["metadata"].items()) == [
        ("created_at", "t"), ("dataset_digest", "d"), ("config_digest", "c")
    ]


def test_the_report_class_rows_are_keyed_in_this_order(tmp_path):
    rows = (ClassStats("refund", 1.0, 0.5, 2 / 3, 2), ClassStats("photo", 0.0, 0.0, 0.0, 1))
    report = EvalReport(dis=2 / 3, iss=0.0, oss=0.5, oss_mean=1 / 3, per_class=rows,
                        intent_count=2, image_scene_count=1)
    save_report(report, tmp_path / "report.json")
    saved = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert [list(row.items()) for row in saved["per_class"]] == [
        [("label", "refund"), ("precision", 1.0), ("recall", 0.5), ("f1", 2 / 3),
         ("support", 2)],
        [("label", "photo"), ("precision", 0.0), ("recall", 0.0), ("f1", 0.0), ("support", 1)],
    ]
