"""The predicate DSL: parsing, rendering, evaluation, and rule quality.

Grammar of the canonical text form (and the only accepted form):

    predicate := [WS] field WS op [WS] '"' value '"' [WS]
    WS        := one or more spaces or tabs
    field     := "user_text" | "service_text" | "ocr_text" | "any_text"
    op        := "contains" | "not_contains" | "starts_with" | "ends_with"
    value     := any characters; '"' and '\\' must be backslash-escaped

Matching is substring-style over NFKC-normalized, case-folded text; it
deliberately uses no regular expressions, so two evaluations of the same
predicate can never disagree.
"""

from __future__ import annotations

import enum
import re
import unicodedata
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, pairwise
from typing import Iterable, Iterator, Sequence

from .dataset import DialogueSample, Speaker, Task, encodable
from .errors import PredicateSyntaxError

MAX_VALUE_LENGTH = 128
MAX_RULE_PREDICATES = 5


class PredicateField(str, enum.Enum):
    USER_TEXT = "user_text"
    SERVICE_TEXT = "service_text"
    OCR_TEXT = "ocr_text"
    ANY_TEXT = "any_text"


class PredicateOp(str, enum.Enum):
    CONTAINS = "contains"
    NOT_CONTAINS = "not_contains"
    STARTS_WITH = "starts_with"
    ENDS_WITH = "ends_with"


class RuleSource(str, enum.Enum):
    MCTS = "mcts"
    MANUAL = "manual"


@dataclass(frozen=True)
class Predicate:
    """One atomic, deterministically evaluable condition over a sample."""

    field: PredicateField
    op: PredicateOp
    value: str

    def __post_init__(self) -> None:
        if not self.value:
            raise ValueError("predicate value must be non-empty")
        if len(self.value) > MAX_VALUE_LENGTH:
            raise ValueError(
                f"predicate value exceeds {MAX_VALUE_LENGTH} characters"
            )


@dataclass(frozen=True)
class Rule:
    """A conjunction of 1..5 predicates implying a label."""

    id: str
    task: Task
    label: str
    predicates: frozenset[Predicate]
    reward: float
    confidence: float
    source: RuleSource

    def __post_init__(self) -> None:
        object.__setattr__(self, "predicates", frozenset(self.predicates))
        n = len(self.predicates)
        if not 1 <= n <= MAX_RULE_PREDICATES:
            raise ValueError(
                f"rule {self.id!r} has {n} predicates; must have 1..{MAX_RULE_PREDICATES}"
            )
        if not 0.0 <= self.reward <= 1.0:
            raise ValueError(f"rule {self.id!r} reward {self.reward} outside [0, 1]")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"rule {self.id!r} confidence {self.confidence} outside [0, 1]")

    def sorted_predicates(self) -> list[Predicate]:
        """Predicates in canonical text order, for stable serialization."""
        return sorted(self.predicates, key=render_predicate)


@dataclass(frozen=True)
class RuleQuality:
    """Ground-truth measurement of a rule over labeled samples."""

    coverage: int
    correct: int
    precision: float | None

    def __post_init__(self) -> None:
        if self.correct > self.coverage:
            raise ValueError("correct count cannot exceed coverage")

    @classmethod
    def from_counts(cls, coverage: int, correct: int) -> "RuleQuality":
        precision = correct / coverage if coverage > 0 else None
        return cls(coverage=coverage, correct=correct, precision=precision)


# --- parsing and rendering -------------------------------------------------

_FIELDS = {f.value: f for f in PredicateField}
_OPS = {o.value: o for o in PredicateOp}
_QUOTE_OR_BACKSLASH = re.compile(r'["\\]')


def render_predicate(p: Predicate) -> str:
    escaped = p.value.replace("\\", "\\\\").replace('"', '\\"')
    return f'{p.field.value} {p.op.value} "{escaped}"'


def parse_predicate(text: str) -> Predicate:
    """Parse the canonical predicate text form; reject everything else."""

    def error(message: str, expected: str, at: int) -> PredicateSyntaxError:
        offset = len(text[:at].encode("utf-8", "surrogatepass"))
        return PredicateSyntaxError(message, offset=offset, expected=expected)

    def skip_ws(pos: int) -> int:
        while pos < len(text) and text[pos] in " \t":
            pos += 1
        return pos

    pos = 0
    field_and_op = []
    for kind, expected, table in (("field", "a field name", _FIELDS), ("op", "an operator", _OPS)):
        start = pos = skip_ws(pos)
        while pos < len(text) and (text[pos].isalpha() or text[pos] == "_"):
            pos += 1
        if pos == start:
            raise error("expected an identifier", expected, start)
        word = text[start:pos]
        if word not in table:
            raise error(f"unknown {kind} {word!r}", "one of " + ", ".join(sorted(table)), start)
        field_and_op.append(table[word])
    value_at = pos
    pos = skip_ws(pos)
    if not text.startswith('"', pos):
        raise error("expected opening quote", "a double-quoted value", pos)
    pos += 1
    chunks = []
    while True:  # from one quote or backslash to the next
        special = _QUOTE_OR_BACKSLASH.search(text, pos)
        if special is None:
            raise error("unterminated value", 'closing quote `"`', len(text))
        at = special.start()
        chunks.append(text[pos:at])
        if text[at] == '"':
            break
        if at + 1 == len(text):
            raise error("dangling backslash", r'`\"` or `\\`', at)
        if text[at + 1] not in '"\\':
            raise error(f"invalid escape sequence \\{text[at + 1]}", r'`\"` or `\\`', at)
        chunks.append(text[at + 1])
        pos = at + 2
    end = skip_ws(at + 1)
    if end != len(text):
        raise error(f"unexpected trailing input {text[end:]!r}", "end of input", end)
    value = "".join(chunks)
    if not value:
        raise error("empty value", "a non-empty value", value_at)
    if len(value) > MAX_VALUE_LENGTH:
        raise error(
            f"value longer than {MAX_VALUE_LENGTH} characters",
            f"at most {MAX_VALUE_LENGTH} characters",
            value_at,
        )
    if not encodable(value):
        raise error("value holds a lone surrogate", "UTF-8 encodable text", value_at)
    return Predicate(*field_and_op, value=value)


# --- evaluation -------------------------------------------------------------

def normalize_text(text: str) -> str:
    """NFKC-normalize and case-fold, so width and case variants match."""
    return unicodedata.normalize("NFKC", text).casefold()


def _joined(sample: DialogueSample, speaker: Speaker) -> str:
    # Newline joints keep starts_with anchored to the opening of the first turn.
    return "\n".join(t.text for t in sample.turns if t.speaker is speaker)


def extract_field_text(sample: DialogueSample, field: PredicateField) -> str:
    if field is PredicateField.USER_TEXT:
        return _joined(sample, Speaker.USER)
    if field is PredicateField.SERVICE_TEXT:
        return _joined(sample, Speaker.SERVICE_REP)
    if field is PredicateField.OCR_TEXT:
        return sample.ocr_text
    user = _joined(sample, Speaker.USER)
    service = _joined(sample, Speaker.SERVICE_REP)
    return user + "\n" + service + "\n" + sample.ocr_text


def _holds(op: PredicateOp, needle: str, haystack: str) -> bool:
    """What each operator means, on normalized needle and haystack."""
    if op is PredicateOp.CONTAINS:
        return needle in haystack
    if op is PredicateOp.NOT_CONTAINS:
        return needle not in haystack
    if op is PredicateOp.STARTS_WITH:
        return haystack.startswith(needle)
    return haystack.endswith(needle)


def eval_predicate(p: Predicate, sample: DialogueSample) -> bool:
    haystack = normalize_text(extract_field_text(sample, p.field))
    return _holds(p.op, normalize_text(p.value), haystack)


# Joins a field's texts. Any character would do, since a ``contains`` hit
# counts only when it ends inside the text it starts in.
_SEPARATOR = "\0"


def _to_mask(flags: Sequence[bool]) -> int:
    """The bitset with bit i set iff ``flags[i]``."""
    return int("0" + "".join("1" if flag else "0" for flag in reversed(flags)), 2)


class SampleIndex(Sequence[DialogueSample]):
    """A sample collection compiled once for rule evaluation.

    Each set of samples is a Python ``int`` whose bit i stands for the i-th
    sample. A field is stored once, as its samples' normalized texts joined
    by ``_SEPARATOR`` plus each text's start offset, and the bitsets of each
    predicate, task and label are computed once per index, so a rule's
    match set is the AND of its predicates' bitsets (tidset intersection,
    as in Eclat) and counting it is a popcount. ``for_task`` gives the index
    of one task's samples, built once, so that every search of a task shares
    its bitsets. Nothing outlives the index.

    ``contains`` and ``not_contains`` bitsets come from one ``str.find``
    sweep over a field's joined texts. A hit belongs to the text it starts
    in, found by ``bisect`` on the start offsets, and counts only when it
    ends before that text does; either way the search goes on from the next
    text's start, since a later hit in the same text would end later still.
    ``not_contains`` is the complement over all samples. ``starts_with``
    and ``ends_with`` apply ``_holds`` to each text sliced from the joined
    one.

    The memo dicts only ever store one value per key: a value depends on its
    key and the samples alone. Threads may share an index, and a race between
    them costs a repeated computation and nothing else.

    The index is itself the sequence of its samples, so it can stand
    wherever a ``Sequence[DialogueSample]`` is expected.
    """

    def __init__(self, samples: Iterable[DialogueSample]) -> None:
        self.samples = tuple(samples)
        self._joined: dict[PredicateField, tuple[str, list[int]]] = {}
        self._predicate_masks: dict[Predicate, int] = {}
        self._task_masks = {task: _to_mask([s.task is task for s in self.samples]) for task in Task}
        self._label_masks: dict[str, int] = {}
        self._task_indexes: dict[Task, SampleIndex] = {}

    def __len__(self) -> int:
        return len(self.samples)

    def __getitem__(self, index):  # type: ignore[override]
        return self.samples[index]

    def __iter__(self) -> Iterator[DialogueSample]:
        return iter(self.samples)

    def for_task(self, task: Task) -> SampleIndex:
        """The index of this index's ``task`` samples, in order."""
        index = self._task_indexes.get(task)
        if index is None:
            index = self._task_indexes[task] = SampleIndex(
                s for s in self.samples if s.task is task
            )
        return index

    def _joined_texts(self, field: PredicateField) -> tuple[str, list[int]]:
        """Normalized ``field`` texts joined by ``_SEPARATOR``, and each text's
        start offset; one more offset, past the end, closes the last text."""
        joined = self._joined.get(field)
        if joined is None:
            texts = [normalize_text(extract_field_text(s, field)) for s in self.samples]
            starts = list(accumulate((len(t) + 1 for t in texts), initial=0))
            joined = self._joined[field] = (_SEPARATOR.join(texts), starts)
        return joined

    def contains_mask(self, field: PredicateField, needle: str) -> int:
        """The samples whose normalized ``field`` text holds ``needle``."""
        joined, starts = self._joined_texts(field)
        mask = 0
        at = joined.find(needle)
        while 0 <= at < starts[-1]:
            i = bisect_right(starts, at) - 1
            if at + len(needle) < starts[i + 1]:
                mask |= 1 << i
            at = joined.find(needle, starts[i + 1])
        return mask

    def _scan_mask(self, op: PredicateOp, field: PredicateField, needle: str) -> int:
        joined, starts = self._joined_texts(field)
        return _to_mask([_holds(op, needle, joined[a : b - 1]) for a, b in pairwise(starts)])

    def predicate_mask(self, p: Predicate) -> int:
        mask = self._predicate_masks.get(p)
        if mask is None:
            needle = normalize_text(p.value)
            if p.op is PredicateOp.CONTAINS:
                mask = self.contains_mask(p.field, needle)
            elif p.op is PredicateOp.NOT_CONTAINS:
                mask = self.contains_mask(p.field, needle) ^ ((1 << len(self.samples)) - 1)
            else:
                mask = self._scan_mask(p.op, p.field, needle)
            self._predicate_masks[p] = mask
        return mask

    def label_mask(self, label: str) -> int:
        mask = self._label_masks.get(label)
        if mask is None:
            mask = self._label_masks[label] = _to_mask(
                [s.gold_label == label for s in self.samples]
            )
        return mask

    def rule_mask(self, rule: Rule) -> int:
        """The same-task samples on which every predicate of the rule holds."""
        mask = self._task_masks[rule.task]
        for p in rule.predicates:
            mask &= self.predicate_mask(p)
        return mask


def measure_rule(rule: Rule, validation: Sequence[DialogueSample]) -> RuleQuality:
    """Coverage, correct count, and precision over same-task labeled samples.

    Pass a ``SampleIndex`` to share its bitsets across rules; any other
    sequence is indexed for this one call.
    """

    index = validation if isinstance(validation, SampleIndex) else SampleIndex(validation)
    covered = index.rule_mask(rule)
    correct = covered & index.label_mask(rule.label)
    return RuleQuality.from_counts(covered.bit_count(), correct.bit_count())
