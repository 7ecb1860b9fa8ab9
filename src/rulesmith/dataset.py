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
from typing import Iterable, Iterator, Protocol, Sequence, TypeVar

from .errors import DatasetError, RulesmithError, check_at_least


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


_MEMBERS: dict[type, dict] = {}  # per enum, its members by value
E = TypeVar("E", bound=enum.Enum)


class Fields:
    """The one definition of a valid field in a decoded JSON object.

    Each check reads ``record[key]``, a missing key as ``default``, and
    returns it as the caller's type, or raises ``error`` with the message
    ``{where}field 'key' ...``. A loader may point one decoder at each record
    of a file in turn, so that reading a record allocates none.
    """

    __slots__ = ("record", "error", "where")

    def __init__(self, record: dict, error: type[RulesmithError], where: str = "") -> None:
        self.record, self.error, self.where = record, error, where

    def fail(self, key: str, detail: str) -> RulesmithError:
        return self.error(f"{self.where}field {key!r} {detail}")

    def text(self, key: str, *, empty: bool = True, null: bool = False,
             default: str | None = None) -> str | None:
        """A string without lone surrogates; ``empty=False`` refuses "" and
        ``null=True`` accepts null."""
        value = self.record.get(key, default)
        if value is None and null:
            return None
        if isinstance(value, str) and (empty or value) and encodable(value):
            return value
        kind = f"{'null or ' if null else ''}a {'' if empty else 'non-empty '}string"
        raise self.fail(key, f"must be {kind} without lone surrogates")

    def texts(self, key: str, *, empty: bool = True) -> list[str]:
        """An array of strings without lone surrogates; ``empty=False``
        refuses an empty array."""
        value = self.record.get(key)
        if isinstance(value, list) and (empty or value) and all(
            isinstance(x, str) and encodable(x) for x in value
        ):
            return value
        kind = "an array" if empty else "a non-empty array"
        raise self.fail(key, f"must be {kind} of strings without lone surrogates")

    def choice(self, key: str, members: type[E]) -> E:
        """The member of a string-valued enum whose value the field holds."""
        table = _MEMBERS.get(members) or _MEMBERS.setdefault(members, {m.value: m for m in members})
        value = self.record.get(key)
        member = table.get(value) if isinstance(value, str) else None
        if member is None:
            raise self.fail(key, f"has unknown value {value!r}")
        return member

    def number(self, key: str, *, null: bool = False) -> float | None:
        """A number that converts to a float: not a bool, not an integer past
        float range; ``null=True`` accepts null."""
        value = self.record.get(key)
        if value is None and null:
            return None
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            try:
                return float(value)
            except OverflowError:
                pass
        raise self.fail(key, f"must be a number{' or null' if null else ''}")

    def integer(self, key: str) -> int:
        value = self.record.get(key)
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        raise self.fail(key, "must be an integer")

    def array(self, key: str, *, default: list | None = None) -> list:
        value = self.record.get(key, default)
        if isinstance(value, list):
            return value
        raise self.fail(key, "must be an array")

    def mapping(self, key: str, *, default: dict | None = None) -> dict:
        value = self.record.get(key, default)
        if isinstance(value, dict):
            return value
        raise self.fail(key, "must be an object")


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


def write_json(path: str | Path, doc: object) -> None:
    """Write ``doc`` as UTF-8 JSON, indented by two, with a trailing newline."""
    Path(path).write_text(json.dumps(doc, ensure_ascii=False, indent=2) + "\n", encoding="utf-8")


def write_jsonl(path: str | Path, records: Iterable[dict]) -> None:
    """Write one compact UTF-8 JSON object per line."""
    # ``json.dumps`` with any non-default argument builds a new encoder per call.
    encode = json.JSONEncoder(ensure_ascii=False).encode
    with Path(path).open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(encode(record) + "\n")


def load_taxonomy(path: str | Path) -> LabelTaxonomy:
    raw = read_json(path, DatasetError)
    if not isinstance(raw, dict):
        raise DatasetError("taxonomy file must contain a JSON object")
    fields = Fields(raw, DatasetError, "taxonomy ")
    return LabelTaxonomy(
        intent=tuple(fields.texts("intent")), image_scene=tuple(fields.texts("image_scene"))
    )


def save_taxonomy(taxonomy: LabelTaxonomy, path: str | Path) -> None:
    write_json(path, {"intent": list(taxonomy.intent), "image_scene": list(taxonomy.image_scene)})


_SAMPLE_FIELDS = {"id", "task", "turns", "ocr_text", "image_ref", "gold_label"}
_TURN_FIELDS = {"speaker", "text"}


def _parse_record(fields: Fields, taxonomy: LabelTaxonomy) -> DialogueSample:
    """The dataset record that ``fields`` points at; ``load_dataset`` puts the
    line number in front of every error message."""
    record = fields.record
    # Key views compare with a set in place, so a valid record allocates no set.
    if not record.keys() <= _SAMPLE_FIELDS:
        raise DatasetError(f"unknown field {min(record.keys() - _SAMPLE_FIELDS)!r}")
    sample_id = fields.text("id", empty=False)
    task = fields.choice("task", Task)
    turns_raw, turns = fields.array("turns"), []
    try:
        for i, turn in enumerate(turns_raw):
            if not isinstance(turn, dict) or turn.keys() != _TURN_FIELDS:
                raise DatasetError("must be an object with speaker and text")
            fields.record = turn
            turns.append(Turn(fields.choice("speaker", Speaker), fields.text("text")))
    except DatasetError as exc:
        raise DatasetError(f"turns entry {i}: {exc}") from None
    fields.record = record
    ocr_text = fields.text("ocr_text", default="")
    image_ref = fields.text("image_ref", null=True)
    gold_label = fields.text("gold_label", null=True)
    if gold_label is not None and gold_label not in taxonomy.labels_for(task):
        raise DatasetError(f"gold_label {gold_label!r} is not in the {task.value} taxonomy")
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
        raise DatasetError(str(exc)) from None


def load_dataset(path: str | Path, taxonomy: LabelTaxonomy) -> list[DialogueSample]:
    """Read a JSONL dataset file, enforcing the record schema and invariants."""

    samples: list[DialogueSample] = []
    seen_ids: set[str] = set()
    fields = Fields({}, DatasetError)  # pointed at each record, and each turn, in turn
    for line_no, record in read_jsonl(path, DatasetError):
        fields.record = record
        try:
            sample = _parse_record(fields, taxonomy)
        except DatasetError as exc:
            raise DatasetError(f"line {line_no}: {exc}") from None
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
    write_jsonl(path, map(sample_to_record, samples))


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

    check_at_least("per_sample", per_sample, 1)
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
