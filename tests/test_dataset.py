"""Dataset ingestion, validation generation, and stratified splitting."""

from __future__ import annotations

import json

import pytest

from rulesmith import (
    AgentUnavailableError,
    DatasetError,
    DatasetSplit,
    DialogueSample,
    LabelTaxonomy,
    Speaker,
    Task,
    Turn,
    generate_validation,
    load_dataset,
    load_taxonomy,
    save_dataset,
    save_taxonomy,
    stratified_split,
)
from _helpers import build_planted_corpus, intent_sample, scene_sample, taxonomy_for

TAX = LabelTaxonomy(intent=("refund", "shipping"), image_scene=("receipt", "tracking"))


def write_lines(path, records):
    path.write_text("\n".join(json.dumps(r, ensure_ascii=False) for r in records) + "\n")


def good_record(**overrides):
    record = {
        "id": "s1",
        "task": "intent",
        "turns": [
            {"speaker": "user", "text": "我要退款"},
            {"speaker": "service_rep", "text": "好的"},
        ],
        "ocr_text": "",
        "image_ref": None,
        "gold_label": "refund",
    }
    record.update(overrides)
    return record


class TestLoadDataset:
    def test_empty_file_gives_empty_list(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert load_dataset(path, TAX) == []

    def test_single_record_round_trips_field_values(self, tmp_path):
        path = tmp_path / "one.jsonl"
        write_lines(path, [good_record()])
        [sample] = load_dataset(path, TAX)
        assert sample.id == "s1"
        assert sample.task is Task.INTENT
        assert sample.turns == (
            Turn(Speaker.USER, "我要退款"),
            Turn(Speaker.SERVICE_REP, "好的"),
        )
        assert sample.ocr_text == ""
        assert sample.image_ref is None
        assert sample.gold_label == "refund"

    def test_unknown_label_error_carries_the_label(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        write_lines(path, [good_record(gold_label="nonexistent")])
        with pytest.raises(DatasetError, match="nonexistent"):
            load_dataset(path, TAX)

    def test_duplicate_id_error_names_the_id(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        write_lines(path, [good_record(), good_record()])
        with pytest.raises(DatasetError, match="'s1'"):
            load_dataset(path, TAX)

    def test_malformed_line_error_names_line_and_field(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        write_lines(path, [good_record(), good_record(id="s2", task="video")])
        with pytest.raises(DatasetError, match=r"line 2.*task"):
            load_dataset(path, TAX)

    def test_invalid_json_names_the_line(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"id": "s1",\n')
        with pytest.raises(DatasetError, match="line 1"):
            load_dataset(path, TAX)

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "extra.jsonl"
        write_lines(path, [good_record(bogus=1)])
        with pytest.raises(DatasetError, match="bogus"):
            load_dataset(path, TAX)

    def test_of_several_unknown_fields_the_first_in_sorted_order_is_named(self, tmp_path):
        path = tmp_path / "extra.jsonl"
        write_lines(path, [good_record(zeta=1, alpha=2)])
        with pytest.raises(DatasetError, match="line 1: unknown field 'alpha'"):
            load_dataset(path, TAX)

    @pytest.mark.parametrize(
        "turn",
        [{"speaker": "user"}, {"speaker": "user", "text": "hi", "lang": "en"}, ["user", "hi"]],
        ids=["missing-key", "extra-key", "not-an-object"],
    )
    def test_a_turn_needs_exactly_speaker_and_text(self, tmp_path, turn):
        path = tmp_path / "turns.jsonl"
        write_lines(path, [good_record(turns=[{"speaker": "user", "text": "hi"}, turn])])
        with pytest.raises(
            DatasetError, match="line 1: turns entry 1: must be an object with speaker and text"
        ):
            load_dataset(path, TAX)

    def test_blank_lines_are_skipped_and_later_errors_keep_their_line_number(self, tmp_path):
        path = tmp_path / "blanks.jsonl"
        lines = [json.dumps(good_record()), "", "   \t", json.dumps(good_record(id="s2"))]
        path.write_text("\n".join(lines) + "\n\n")
        assert [s.id for s in load_dataset(path, TAX)] == ["s1", "s2"]
        path.write_text("\n".join(lines + [json.dumps(good_record(id="s3", task="video"))]))
        with pytest.raises(DatasetError, match="^line 5: field 'task'"):
            load_dataset(path, TAX)

    def test_intent_sample_needs_a_turn(self, tmp_path):
        path = tmp_path / "noturns.jsonl"
        write_lines(path, [good_record(turns=[])])
        with pytest.raises(DatasetError, match="at least one turn"):
            load_dataset(path, TAX)

    def test_image_scene_needs_ocr_or_image_ref(self, tmp_path):
        path = tmp_path / "scene.jsonl"
        write_lines(
            path,
            [good_record(task="image_scene", turns=[], gold_label="receipt")],
        )
        with pytest.raises(DatasetError, match="ocr_text or image_ref"):
            load_dataset(path, TAX)

    def test_write_then_load_is_identity(self, tmp_path):
        samples = [
            intent_sample("a", "refund", "退货 please", ocr_text="物流单号"),
            scene_sample("b", "receipt", "发票 total 42"),
            DialogueSample(
                id="c",
                task=Task.IMAGE_SCENE,
                turns=(Turn(Speaker.USER, "what is this"),),
                ocr_text="",
                image_ref="img/0001.png",
                gold_label=None,
            ),
        ]
        path = tmp_path / "round.jsonl"
        save_dataset(samples, path)
        tax = LabelTaxonomy(intent=("refund",), image_scene=("receipt",))
        assert load_dataset(path, tax) == samples


class TestTaxonomy:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "tax.json"
        save_taxonomy(TAX, path)
        assert load_taxonomy(path) == TAX

    def test_duplicate_label_rejected(self):
        with pytest.raises(DatasetError, match="duplicate label"):
            LabelTaxonomy(intent=("a", "a"), image_scene=())

    def test_cross_task_overlap_rejected(self):
        with pytest.raises(DatasetError, match="shared between tasks"):
            LabelTaxonomy(intent=("a",), image_scene=("a",))


class EchoRephraser:
    def rephrase(self, text: str) -> str:
        return text


class FailingRephraser:
    def __init__(self):
        self.calls = 0

    def rephrase(self, text: str) -> str:
        self.calls += 1
        raise AgentUnavailableError("endpoint down")


class BuggyRephraser:
    def rephrase(self, text: str) -> str:
        raise TypeError("bug in the rephraser")


class TestGenerateValidation:
    def test_echo_rephraser_copies_everything_but_ids(self):
        train = [intent_sample("s1", "refund", "退货", ocr_text="ocr")]
        generated = generate_validation(train, EchoRephraser(), per_sample=1)
        [copy] = generated
        assert copy.id == "s1::r0"
        assert copy.turns == train[0].turns
        assert copy.task is train[0].task
        assert copy.gold_label == train[0].gold_label
        assert copy.ocr_text == train[0].ocr_text

    def test_counts_and_label_preservation(self):
        train = [
            intent_sample(f"s{i}", label, "text here")
            for i, label in enumerate(["refund", "refund", "shipping"])
        ]
        generated = generate_validation(train, EchoRephraser(), per_sample=2)
        assert len(generated) == 6
        by_source = {}
        for copy in generated:
            source_id = copy.id.split("::")[0]
            by_source.setdefault(source_id, []).append(copy)
        for sample in train:
            copies = by_source[sample.id]
            assert len(copies) == 2
            assert all(c.gold_label == sample.gold_label for c in copies)
            assert all(c.task is sample.task for c in copies)

    def test_agent_failure_propagates_on_the_first_call(self):
        train = [intent_sample(f"s{i}", "refund", "x") for i in range(4)]
        rephraser = FailingRephraser()
        with pytest.raises(AgentUnavailableError, match="endpoint down"):
            generate_validation(train, rephraser, per_sample=1)
        # Retrying is the rephraser's job: its first failure ends the run.
        assert rephraser.calls == 1

    def test_programming_errors_propagate_instead_of_skipping(self):
        train = [intent_sample("s0", "refund", "x")]
        with pytest.raises(TypeError, match="bug in the rephraser"):
            generate_validation(train, BuggyRephraser(), per_sample=1)

    def test_output_sorted_by_derived_id(self):
        train = [intent_sample(f"s{i}", "refund", "x") for i in (5, 12, 0, 3)]
        generated = generate_validation(train, EchoRephraser(), per_sample=2)
        ids = [s.id for s in generated]
        assert ids == sorted(ids)
        assert ids[:2] == ["s0::r0", "s0::r1"] and ids[-2:] == ["s5::r0", "s5::r1"]

    def test_missing_gold_label_rejected(self):
        with pytest.raises(DatasetError, match="'s0'"):
            generate_validation(
                [intent_sample("s0", None, "x")], EchoRephraser(), per_sample=1
            )

    def test_per_sample_must_be_positive(self):
        with pytest.raises(ValueError):
            generate_validation([], EchoRephraser(), per_sample=0)


class TestStratifiedSplit:
    def test_fraction_counts(self):
        samples = [intent_sample(f"s{i}", "refund", "x") for i in range(10)]
        split = stratified_split(samples, 0.2, seed=7)
        assert len(split.validation) == 2
        assert len(split.train) == 8

    def test_deterministic_for_fixed_seed(self):
        samples = build_planted_corpus(["a", "b"], per_label=15, seed=3)
        first = stratified_split(samples, 0.3, seed=11)
        second = stratified_split(samples, 0.3, seed=11)
        assert first == second

    def test_single_sample_label_errors_naming_it(self):
        samples = [
            intent_sample("s1", "refund", "x"),
            intent_sample("s2", "refund", "x"),
            intent_sample("s3", "shipping", "x"),
        ]
        with pytest.raises(DatasetError, match="shipping"):
            stratified_split(samples, 0.5, seed=0)

    def test_is_a_partition(self):
        samples = build_planted_corpus(["a", "b", "c"], per_label=9, seed=5)
        split = stratified_split(samples, 0.25, seed=2)
        train_ids = {s.id for s in split.train}
        val_ids = {s.id for s in split.validation}
        assert train_ids | val_ids == {s.id for s in samples}
        assert not train_ids & val_ids

    def test_a_split_whose_sides_share_an_id_is_refused(self):
        shared = intent_sample("s2", "refund", "x")
        with pytest.raises(DatasetError, match=r"present in both split sides: \['s2'\]"):
            DatasetSplit(train=(intent_sample("s1", "refund", "x"), shared),
                         validation=(shared, intent_sample("s3", "refund", "x")))

    def test_per_label_share_within_one_sample(self):
        samples = build_planted_corpus(["a", "b", "c"], per_label=13, seed=5)
        split = stratified_split(samples, 0.3, seed=9)
        for label in ("a", "b", "c"):
            got = sum(1 for s in split.validation if s.gold_label == label)
            assert abs(got - 0.3 * 13) <= 1

    def test_taxonomy_helper(self):
        tax = taxonomy_for(["a"], ["z"])
        assert tax.labels_for(Task.INTENT) == ("a",)
        assert tax.labels_for(Task.IMAGE_SCENE) == ("z",)
        assert tax.joint_labels() == ("a", "z")
