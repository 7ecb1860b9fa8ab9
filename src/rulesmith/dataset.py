"""Multimodal dialogue records: ingestion, validation-set generation, splitting.

A dataset file is UTF-8 JSONL, one record per line:

    {"id": str, "task": "intent"|"image_scene",
     "turns": [{"speaker": "user"|"service_rep", "text": str}, ...],
     "ocr_text": str, "image_ref": str|null, "gold_label": str|null}

A taxonomy file is a single JSON object mapping ``"intent"`` and
``"image_scene"`` to arrays of label strings.
"""

from __future__ import annotations

import enum
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Protocol, Sequence

from .errors import DatasetError, RulesmithError


class Task(str, enum.Enum):
    INTENT = "intent"
    IMAGE_SCENE = "image_scene"


class Speaker(str, enum.Enum):
    USER = "user"
    SERVICE_REP = "service_rep"


@dataclass(frozen=True)
class Turn:
    speaker: Speaker
    text: str


@dataclass(frozen=True)
class DialogueSample:
    """One multimodal record: speaker-tagged turns plus precomputed OCR text.

    OCR text arrives already extracted; an empty string is legal and simply
    means OCR produced nothing usable for that screenshot.
    """

    id: str
    task: Task
    turns: tuple[Turn, ...]
    ocr_text: str = ""
    image_ref: str | None = None
    gold_label: str | None = None

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("sample id must be a non-empty string")
        if self.task is Task.INTENT and not self.turns:
            raise ValueError(f"intent sample {self.id!r} must have at least one turn")
        if self.task is Task.IMAGE_SCENE and not self.ocr_text and not self.image_ref:
            raise ValueError(
                f"image_scene sample {self.id!r} needs non-empty ocr_text or image_ref"
            )


@dataclass(frozen=True)
class LabelTaxonomy:
    """Ordered label lists per task; the two tasks never share a label."""

    intent: tuple[str, ...]
    image_scene: tuple[str, ...]

    def __post_init__(self) -> None:
        for task, labels in (("intent", self.intent), ("image_scene", self.image_scene)):
            seen: set[str] = set()
            for label in labels:
                if label in seen:
                    raise DatasetError(f"duplicate label {label!r} in task {task!r}")
                seen.add(label)
        overlap = set(self.intent) & set(self.image_scene)
        if overlap:
            raise DatasetError(
                f"labels shared between tasks are not allowed: {sorted(overlap)!r}"
            )

    def labels_for(self, task: Task) -> tuple[str, ...]:
        return self.intent if task is Task.INTENT else self.image_scene

    def joint_labels(self) -> tuple[str, ...]:
        return self.intent + self.image_scene


@dataclass(frozen=True)
class DatasetSplit:
    train: tuple[DialogueSample, ...]
    # A tuple, or a ``SampleIndex`` that the searches over this split share.
    validation: Sequence[DialogueSample]

    def __post_init__(self) -> None:
        shared = {s.id for s in self.train} & {s.id for s in self.validation}
        if shared:
            raise DatasetError(f"samples present in both split sides: {sorted(shared)!r}")


class Rephraser(Protocol):
    """Anything that can reword a piece of text, e.g. an agent handle."""

    def rephrase(self, text: str) -> str: ...


def encodable(text: str) -> bool:
    """False iff the text holds a lone surrogate, which UTF-8 cannot encode;
    a JSON escape such as ``"\\ud800"`` decodes to one."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def is_number(value: object) -> bool:
    """A JSON number that converts to a float: not a bool, not an integer
    past float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


def read_json(path: str | Path, error: type[RulesmithError]) -> object:
    """Parse a whole UTF-8 JSON file; undecodable or invalid content raises ``error``."""

    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text: {exc.reason}") from None
    except (ValueError, RecursionError) as exc:  # also an integer past the digit limit, or too deep
        raise error(f"{path} is not valid JSON: {exc}") from None


def read_jsonl(
    path: str | Path, error: type[RulesmithError], where: str = ""
) -> Iterator[tuple[int, dict]]:
    """Yield (line number, object) per non-blank line of a UTF-8 JSONL file.

    Undecodable bytes, invalid JSON and non-object records raise ``error``,
    whose message starts with ``where`` and the line number.
    """

    with Path(path).open("r", encoding="utf-8") as handle:
        try:
            for line_no, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise error(f"{where}line {line_no}: record must be a JSON object")
                yield line_no, record
        except UnicodeDecodeError as exc:
            raise error(f"{path} is not UTF-8 text: {exc.reason}") from None
        except (ValueError, RecursionError) as exc:
            detail = getattr(exc, "msg", exc)  # JSONDecodeError's message without its position
            raise error(f"{where}line {line_no}: invalid JSON ({detail})") from None


def load_taxonomy(path: str | Path) -> LabelTaxonomy:
    raw = read_json(path, DatasetError)
    if not isinstance(raw, dict):
        raise DatasetError("taxonomy file must contain a JSON object")
    labels: dict[str, tuple[str, ...]] = {}
    for task in ("intent", "image_scene"):
        entries = raw.get(task)
        if not isinstance(entries, list) or not all(
            isinstance(x, str) and encodable(x) for x in entries
        ):
            raise DatasetError(f"taxonomy field {task!r} must list strings without lone surrogates")
        labels[task] = tuple(entries)
    return LabelTaxonomy(intent=labels["intent"], image_scene=labels["image_scene"])


def save_taxonomy(taxonomy: LabelTaxonomy, path: str | Path) -> None:
    doc = {"intent": list(taxonomy.intent), "image_scene": list(taxonomy.image_scene)}
    Path(path).write_text(json.dumps(doc, ensure_ascii=False, indent=2) + "\n", encoding="utf-8")


_SAMPLE_FIELDS = {"id", "task", "turns", "ocr_text", "image_ref", "gold_label"}
_TURN_FIELDS = {"speaker", "text"}
_TASKS = {t.value: t for t in Task}
_SPEAKERS = {s.value: s for s in Speaker}


def _parse_record(record: dict, line_no: int, taxonomy: LabelTaxonomy) -> DialogueSample:
    unknown = set(record) - _SAMPLE_FIELDS
    if unknown:
        raise DatasetError(f"line {line_no}: unknown field {sorted(unknown)[0]!r}")

    def fail(field: str, detail: str) -> DatasetError:
        return DatasetError(f"line {line_no}: field {field!r} {detail}")

    sample_id = record.get("id")
    if not isinstance(sample_id, str) or not sample_id or not encodable(sample_id):
        raise fail("id", "must be a non-empty string without lone surrogates")
    task_raw = record.get("task")
    task = _TASKS.get(task_raw) if isinstance(task_raw, str) else None
    if task is None:
        raise fail("task", f"has unknown value {task_raw!r}")

    turns_raw = record.get("turns")
    if not isinstance(turns_raw, list):
        raise fail("turns", "must be an array")
    turns = []
    for i, turn in enumerate(turns_raw):
        if not isinstance(turn, dict) or set(turn) != _TURN_FIELDS:
            raise fail("turns", f"entry {i} must be an object with speaker and text")
        speaker = _SPEAKERS.get(turn["speaker"]) if isinstance(turn["speaker"], str) else None
        if speaker is None:
            raise fail("turns", f"entry {i} has unknown speaker {turn['speaker']!r}")
        if not isinstance(turn["text"], str) or not encodable(turn["text"]):
            raise fail("turns", f"entry {i} text must be a string without lone surrogates")
        turns.append(Turn(speaker=speaker, text=turn["text"]))

    ocr_text = record.get("ocr_text", "")
    if not isinstance(ocr_text, str) or not encodable(ocr_text):
        raise fail("ocr_text", "must be a string without lone surrogates")
    image_ref = record.get("image_ref")
    if image_ref is not None and not (isinstance(image_ref, str) and encodable(image_ref)):
        raise fail("image_ref", "must be null or a string without lone surrogates")
    gold_label = record.get("gold_label")
    if gold_label is not None:
        if not isinstance(gold_label, str):
            raise fail("gold_label", "must be a string or null")
        if gold_label not in taxonomy.labels_for(task):
            raise DatasetError(
                f"line {line_no}: gold_label {gold_label!r} is not in the "
                f"{task.value} taxonomy"
            )

    try:
        return DialogueSample(
            id=sample_id,
            task=task,
            turns=tuple(turns),
            ocr_text=ocr_text,
            image_ref=image_ref,
            gold_label=gold_label,
        )
    except ValueError as exc:
        raise DatasetError(f"line {line_no}: {exc}") from None


def load_dataset(path: str | Path, taxonomy: LabelTaxonomy) -> list[DialogueSample]:
    """Read a JSONL dataset file, enforcing the record schema and invariants."""

    samples: list[DialogueSample] = []
    seen_ids: set[str] = set()
    for line_no, record in read_jsonl(path, DatasetError):
        sample = _parse_record(record, line_no, taxonomy)
        if sample.id in seen_ids:
            raise DatasetError(f"line {line_no}: duplicate id {sample.id!r}")
        seen_ids.add(sample.id)
        samples.append(sample)
    return samples


def sample_to_record(sample: DialogueSample) -> dict:
    return {
        "id": sample.id,
        "task": sample.task.value,
        "turns": [{"speaker": t.speaker.value, "text": t.text} for t in sample.turns],
        "ocr_text": sample.ocr_text,
        "image_ref": sample.image_ref,
        "gold_label": sample.gold_label,
    }


def save_dataset(samples: Iterable[DialogueSample], path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as handle:
        for sample in samples:
            handle.write(json.dumps(sample_to_record(sample), ensure_ascii=False) + "\n")


def derived_id(source_id: str, copy_index: int) -> str:
    return f"{source_id}::r{copy_index}"


def generate_validation(
    train: Sequence[DialogueSample],
    rephraser: Rephraser,
    per_sample: int = 1,
) -> list[DialogueSample]:
    """Produce rephrased copies of the training samples for validation.

    Each copy keeps the source's task, gold label, OCR text and image ref;
    only the turn texts pass through the rephraser, once per turn. Retrying
    is the rephraser's own business: an ``AgentError`` it raises once its
    budget is spent propagates, so no copy is ever silently left out.
    Returns the copies sorted by derived id.
    """

    if per_sample < 1:
        raise ValueError("per_sample must be >= 1")
    for sample in train:
        if sample.gold_label is None:
            raise DatasetError(f"sample {sample.id!r} has no gold_label; cannot rephrase")

    def make_copy(source: DialogueSample, copy_index: int) -> DialogueSample:
        turns = tuple(
            Turn(speaker=t.speaker, text=rephraser.rephrase(t.text)) for t in source.turns
        )
        return DialogueSample(
            id=derived_id(source.id, copy_index),
            task=source.task,
            turns=turns,
            ocr_text=source.ocr_text,
            image_ref=source.image_ref,
            gold_label=source.gold_label,
        )

    copies = [make_copy(sample, i) for sample in train for i in range(per_sample)]
    return sorted(copies, key=lambda s: s.id)


def stratified_split(
    samples: Sequence[DialogueSample],
    validation_fraction: float,
    seed: int,
) -> DatasetSplit:
    """Split per label so each label's validation share tracks the fraction.

    Fallback for corpora without a rephraser: every label contributes
    ``round(fraction * n)`` samples to validation, clamped so both sides
    stay non-empty. Deterministic for a fixed seed.
    """

    if not 0.0 < validation_fraction < 1.0:
        raise ValueError("validation_fraction must be in (0, 1)")
    groups: dict[tuple[str, str], list[DialogueSample]] = {}
    for sample in samples:
        if sample.gold_label is None:
            raise DatasetError(f"sample {sample.id!r} has no gold_label; cannot split")
        groups.setdefault((sample.task.value, sample.gold_label), []).append(sample)

    rng = random.Random(seed)
    validation_ids: set[str] = set()
    for key in sorted(groups):
        bucket = groups[key]
        if len(bucket) < 2:
            raise DatasetError(
                f"label {key[1]!r} has fewer than 2 samples; cannot stratify"
            )
        ids = [s.id for s in bucket]
        rng.shuffle(ids)
        n_val = int(round(validation_fraction * len(bucket)))
        n_val = min(max(n_val, 1), len(bucket) - 1)
        validation_ids.update(ids[:n_val])

    train = tuple(s for s in samples if s.id not in validation_ids)
    validation = tuple(s for s in samples if s.id in validation_ids)
    return DatasetSplit(train=train, validation=validation)
