"""Collaborative prediction: run rules and a classifier, then arbitrate.

Every sample goes to both the rule base and the pluggable classifier. The
strongest rule that fires on a sample overrides the classifier only when
its reward clears the override threshold; the classifier's own label is
always kept on the prediction for later analysis.
"""

from __future__ import annotations

import enum
import json
from collections import deque
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Protocol, Sequence

from .agents import (
    Transport,
    _stable_rng,
    close_connections,
    extract_fenced_json,
    http_chat_transport,
    structured_call,
)
from .dataset import (
    DialogueSample, Fields, LabelTaxonomy, Task, read_jsonl, sample_to_record, write_jsonl
)
from .errors import (AgentError, AgentProtocolError, PredictionFileError, PredictorError,
                     check_ratio, checked_tuple)
from .predicate import Rule, SampleIndex
from .rulebase import RuleBase

if TYPE_CHECKING:
    from concurrent.futures import Future, ThreadPoolExecutor

PREDICTOR_KEY_ENV = "RULESMITH_PREDICTOR_KEY"
DEFAULT_OVERRIDE_THRESHOLD = 0.8
# Classifier failures a batch absorbs; one more aborts it.
FAILURE_BUDGET = 3
# A remote classifier's first attempts in flight at once; twice as many wait queued.
PREFETCH = 8

# Emitted when the classifier failed and no rule fired; deliberately not a
# taxonomy label so downstream scoring treats it as a miss.
ABSTAIN_LABEL = "__abstain__"


class PredictionSource(str, enum.Enum):
    PREDICTOR = "predictor"
    RULE = "rule"


class Prediction(
    checked_tuple("Prediction", "sample_id label source fired_rule_id predictor_label")
):
    __slots__ = ()

    def __new__(cls, sample_id: str, label: str, source: PredictionSource,
                fired_rule_id: str | None, predictor_label: str) -> Prediction:
        if source is PredictionSource.RULE:
            if not isinstance(fired_rule_id, str) or not fired_rule_id:
                raise ValueError("rule-sourced prediction must carry a fired_rule_id string")
        elif fired_rule_id is not None:
            raise ValueError("predictor-sourced prediction must carry fired_rule_id null")
        return super().__new__(cls, sample_id, label, source, fired_rule_id, predictor_label)


class Predictor(Protocol):
    """Anything that maps one sample to exactly one taxonomy label."""

    def predict(self, sample: DialogueSample) -> str: ...


class StubPredictor:
    """Seeded classifier stand-in with a configurable hit rate.

    Per-sample randomness is derived from (seed, sample id), so outputs do
    not depend on call order or batching.
    """

    def __init__(self, taxonomy: LabelTaxonomy, accuracy: float, seed: int = 0) -> None:
        self.taxonomy = taxonomy
        self.accuracy = check_ratio("accuracy", accuracy)
        self.seed = seed

    def predict(self, sample: DialogueSample) -> str:
        labels = self.taxonomy.labels_for(sample.task)
        if not labels:
            raise PredictorError(f"no labels configured for task {sample.task.value}")
        rng = _stable_rng(self.seed, sample.id)
        gold = sample.gold_label
        if gold is not None and rng.random() < self.accuracy:
            return gold
        if gold in labels and len(labels) > 1:
            # The draw indexes the labels other than the gold one, in taxonomy order.
            drawn = rng.randrange(len(labels) - 1)
            return labels[drawn + (drawn >= labels.index(gold))]
        return labels[rng.randrange(len(labels))]


class RemotePredictor:
    """Classifier behind a chat-completions endpoint; replies {"label": ...}.

    ``prefetch`` runs the whole calls of upcoming samples, retries included,
    ahead of time on ``PREFETCH`` worker threads. ``predict`` still runs on
    the caller's thread: it takes the result of the sample at the head of
    the window, and classifies any other sample itself.
    """

    _SYSTEM = (
        "Classify the sample into exactly one of the allowed labels. "
        'Reply with exactly one fenced JSON block: {"label": "..."}'
    )

    def __init__(
        self, endpoint: str, taxonomy: LabelTaxonomy, *, transport: Transport | None = None
    ) -> None:
        self.taxonomy = taxonomy
        self._transport = transport or http_chat_transport(endpoint, api_key_env=PREDICTOR_KEY_ENV)
        self._pool: ThreadPoolExecutor | None = None
        # Prefetched samples in order, each with its label to come; then those still to send.
        self._window: deque[tuple[DialogueSample, Future[str]]] = deque()
        self._upcoming: Iterator[DialogueSample] = iter(())

    def close(self) -> None:
        self._drop_window()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        close_connections(self._transport)

    def _drop_window(self) -> None:
        for _, future in self._window:
            future.cancel()  # a call already started runs to its end
        self._window.clear()
        self._upcoming = iter(())

    def prefetch(self, samples: Iterable[DialogueSample]) -> None:
        """Classify ``samples``, in order, ahead of ``predict``, keeping at
        most ``2 * PREFETCH`` of them outstanding."""
        from concurrent.futures import ThreadPoolExecutor

        self._drop_window()
        if self._pool is None:
            self._pool = ThreadPoolExecutor(PREFETCH, thread_name_prefix="rulesmith-predict")
        self._upcoming = iter(samples)
        for _ in range(2 * PREFETCH):
            self._send_next()

    def _send_next(self) -> None:
        sample = next(self._upcoming, None)
        if sample is not None:
            self._window.append((sample, self._pool.submit(self._classify, sample)))

    def predict(self, sample: DialogueSample) -> str:
        if not (self._window and self._window[0][0] is sample):
            return self._classify(sample)
        future = self._window.popleft()[1]
        self._send_next()
        return future.result()

    def _classify(self, sample: DialogueSample) -> str:
        labels = self.taxonomy.labels_for(sample.task)
        record = sample_to_record(sample)
        record.pop("gold_label", None)
        user = (
            f"Allowed labels: {', '.join(labels)}\n"
            f"Sample: {json.dumps(record, ensure_ascii=False)}"
        )

        def parse(content: str) -> str:
            fields = Fields(extract_fenced_json(content), AgentProtocolError)
            label = fields.text("label", empty=False)
            if label not in labels:
                raise fields.fail("label", f"{label!r} is not in the {sample.task.value} taxonomy")
            return label

        try:
            return structured_call(self._transport, self._SYSTEM, user, parse)
        except AgentError as exc:
            raise PredictorError(
                f"predictor failed for sample {sample.id!r}: {exc}"
            ) from exc


def _top_rules(rulebase: RuleBase, samples: Sequence[DialogueSample]) -> list[Rule | None]:
    """Per sample, the strongest same-task rule firing on it, or None.

    Strength: reward descending, then predicate count descending (more
    specific first), then id ascending. Per task, the rules are matched in
    that order on one index of that task's samples, whose bit i stands for
    the batch position ``at[i]``; each rule takes the samples it fires on
    that no stronger rule has taken.
    """

    top: list[Rule | None] = [None] * len(samples)
    rules = sorted(rulebase.rules, key=lambda r: (-r.reward, -len(r.predicates), r.id))
    for task in Task:
        at = [i for i, sample in enumerate(samples) if sample.task is task]
        index = SampleIndex(samples[i] for i in at)
        untaken = (1 << len(at)) - 1
        for rule in rules:
            if rule.task is task and untaken:
                mask = index.rule_mask(rule) & untaken
                untaken ^= mask
                while mask:
                    lowest = mask & -mask
                    top[at[lowest.bit_length() - 1]] = rule
                    mask ^= lowest
    return top


def arbitrate(
    top: Rule | None,
    predictor_label: str | None,
    *,
    sample_id: str,
    override_threshold: float = DEFAULT_OVERRIDE_THRESHOLD,
) -> Prediction:
    """Let ``top``, the strongest fired rule or None, override the classifier
    if it is trusted enough.

    ``predictor_label=None`` means the classifier failed on this sample:
    ``top`` then answers regardless of threshold, or the prediction abstains.
    """

    failed = predictor_label is None
    classifier_label = ABSTAIN_LABEL if failed else predictor_label
    if top is not None and (failed or top.reward >= override_threshold):
        return Prediction(
            sample_id=sample_id,
            label=top.label,
            source=PredictionSource.RULE,
            fired_rule_id=top.id,
            predictor_label=classifier_label,
        )
    return Prediction(
        sample_id=sample_id,
        label=classifier_label,
        source=PredictionSource.PREDICTOR,
        fired_rule_id=None,
        predictor_label=classifier_label,
    )


class BatchReport(SimpleNamespace):
    """A batch's prediction counts, which ``vars()`` reads in this order."""

    def __init__(self, total: int = 0, from_rules: int = 0, from_predictor: int = 0,
                 predictor_failures: int = 0, rule_fallbacks: int = 0, abstained: int = 0) -> None:
        super().__init__(total=total, from_rules=from_rules, from_predictor=from_predictor,
                         predictor_failures=predictor_failures, rule_fallbacks=rule_fallbacks,
                         abstained=abstained)


class BatchResult(NamedTuple):
    predictions: list[Prediction]
    report: BatchReport


def predict_batch(
    rulebase: RuleBase,
    predictor: Predictor,
    samples: Sequence[DialogueSample],
    *,
    override_threshold: float = DEFAULT_OVERRIDE_THRESHOLD,
) -> BatchResult:
    """Predict every sample in input order.

    A classifier error on a sample reaches ``arbitrate`` as a missing
    label. More than ``FAILURE_BUDGET`` classifier failures abort the batch.
    A predictor with a ``prefetch`` method is handed the samples first.
    """

    check_ratio("override_threshold", override_threshold)
    prefetch = getattr(predictor, "prefetch", None)
    if prefetch is not None:
        prefetch(samples)
    predictions: list[Prediction] = []
    report = BatchReport()
    for sample, top in zip(samples, _top_rules(rulebase, samples)):
        report.total += 1
        try:
            predictor_label = predictor.predict(sample)
        except PredictorError as exc:
            report.predictor_failures += 1
            if report.predictor_failures > FAILURE_BUDGET:
                raise PredictorError(
                    f"predictor exceeded the failure budget of {FAILURE_BUDGET}: {exc}"
                ) from exc
            predictor_label = None
        prediction = arbitrate(
            top,
            predictor_label,
            sample_id=sample.id,
            override_threshold=override_threshold,
        )
        by_rule = prediction.source is PredictionSource.RULE
        if predictor_label is None:
            if by_rule:
                report.rule_fallbacks += 1
            else:
                report.abstained += 1
        elif by_rule:
            report.from_rules += 1
        else:
            report.from_predictor += 1
        predictions.append(prediction)
    return BatchResult(predictions=predictions, report=report)


# --- prediction file IO --------------------------------------------------------

def prediction_to_record(prediction: Prediction) -> dict:
    return {
        "id": prediction.sample_id,
        "label": prediction.label,
        "source": prediction.source.value,
        "fired_rule_id": prediction.fired_rule_id,
        "predictor_label": prediction.predictor_label,
    }


def save_predictions(predictions: Iterable[Prediction], path: str | Path) -> None:
    write_jsonl(path, map(prediction_to_record, predictions))


def load_predictions(path: str | Path) -> list[Prediction]:
    predictions: list[Prediction] = []
    fields = Fields({}, PredictionFileError)  # pointed at each record in turn
    for line_no, record in read_jsonl(path, PredictionFileError, "prediction file "):
        fields.record = record
        try:
            predictions.append(
                Prediction(
                    sample_id=fields.text("id"),
                    label=fields.text("label"),
                    source=fields.choice("source", PredictionSource),
                    fired_rule_id=fields.text("fired_rule_id", null=True),
                    predictor_label=fields.text("predictor_label"),
                )
            )
        except (PredictionFileError, ValueError) as exc:
            raise PredictionFileError(
                f"prediction file line {line_no}: malformed record: {exc}"
            ) from None
    return predictions
