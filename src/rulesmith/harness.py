"""Class-weighted F1 scoring over one or both task families.

Three headline scores: the intent-task score, the image-scene score, and a
unified score over both tasks' joint (disjoint) label space. Every score
comes from one count of (gold, predicted) pairs per task; the sum of the
two counts gives the unified score and the per-class rows. While
predictions stay within their sample's task, the unified score is the
support-weighted mean of the per-task scores; a prediction from the other
task's labels is a false positive only in the unified score. The plain
average is also reported for transparency on unbalanced sets.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from typing import NamedTuple, Sequence

from .dataset import DialogueSample, Fields, LabelTaxonomy, Task, read_json, write_json
from .errors import EvaluationError
from .inference import Prediction


class ClassStats(NamedTuple):
    label: str
    precision: float
    recall: float
    f1: float
    support: int


class EvalReport(NamedTuple):
    """Headline scores plus the per-class breakdown behind them.

    ``dis``/``iss`` are None when the corpus has no samples of that task.
    """

    dis: float | None
    iss: float | None
    oss: float
    oss_mean: float
    per_class: tuple[ClassStats, ...]
    intent_count: int
    image_scene_count: int


def _score(
    pairs: Counter[tuple[str, str]], labels: Sequence[str]
) -> tuple[float, tuple[ClassStats, ...]]:
    """Support-weighted F1 from counts of (gold, predicted) pairs, and each
    label's stats in ``labels`` order. Classes with zero support contribute
    zero weight; a class whose precision and recall are both zero scores zero F1.
    """

    gold_counts: Counter[str] = Counter()
    pred_counts: Counter[str] = Counter()
    for (gold, pred), n in pairs.items():
        gold_counts[gold] += n
        pred_counts[pred] += n
    stats = []
    for label in labels:
        tp = pairs[label, label]
        support = gold_counts[label]
        predicted = pred_counts[label]
        precision = tp / predicted if predicted else 0.0
        recall = tp / support if support else 0.0
        # Equivalent to 2PR/(P+R) with the 0-when-degenerate convention.
        f1 = 2 * tp / (support + predicted) if support + predicted else 0.0
        stats.append(ClassStats(label, precision, recall, f1, support))
    total = 0.0
    for row in sorted(stats, key=lambda row: row.label):
        total += row.support * row.f1
    return total / sum(gold_counts.values()), tuple(stats)


def weighted_f1(
    gold: Sequence[str], pred: Sequence[str], labels: Sequence[str] | set[str]
) -> float:
    """Support-weighted mean of per-class F1 scores."""

    if len(gold) != len(pred):
        raise EvaluationError(
            f"gold and prediction lengths differ: {len(gold)} vs {len(pred)}"
        )
    if not gold:
        raise EvaluationError("cannot score an empty corpus")
    label_set = set(labels)
    for g in gold:
        if g not in label_set:
            raise EvaluationError(f"gold label {g!r} is not in the given label set")
    return _score(Counter(zip(gold, pred)), sorted(label_set))[0]


def evaluate(
    predictions: Sequence[Prediction],
    samples: Sequence[DialogueSample],
    taxonomy: LabelTaxonomy,
) -> EvalReport:
    """Score predictions against gold labels, per task and unified."""

    if not samples:
        raise EvaluationError("cannot evaluate an empty gold dataset")
    by_id: dict[str, Prediction] = {}
    for prediction in predictions:
        if prediction.sample_id in by_id:
            raise EvaluationError(
                f"more than one prediction for sample id {prediction.sample_id!r}"
            )
        by_id[prediction.sample_id] = prediction
    gold_ids = {sample.id for sample in samples}
    unknown = [sample_id for sample_id in by_id if sample_id not in gold_ids]
    if unknown:
        raise EvaluationError(
            f"{len(unknown)} prediction(s) for ids not in the gold set, "
            f"the first {unknown[0]!r}"
        )
    pairs: dict[Task, Counter[tuple[str, str]]] = {task: Counter() for task in Task}
    for sample in samples:
        if sample.gold_label is None:
            raise EvaluationError(f"gold sample {sample.id!r} has no gold_label")
        prediction = by_id.get(sample.id)
        if prediction is None:
            raise EvaluationError(f"no prediction for sample id {sample.id!r}")
        pairs[sample.task][sample.gold_label, prediction.label] += 1

    scores: dict[Task, float | None] = {}
    for task in Task:
        labels = taxonomy.labels_for(task)
        # A counter keeps insertion order: the first bad pair is the first bad sample.
        for gold, _ in pairs[task]:
            if gold not in labels:
                raise EvaluationError(f"gold label {gold!r} is not in the given label set")
        scores[task] = _score(pairs[task], labels)[0] if pairs[task] else None

    oss, per_class = _score(pairs[Task.INTENT] + pairs[Task.IMAGE_SCENE], taxonomy.joint_labels())
    present = [score for score in scores.values() if score is not None]
    oss_mean = sum(present) / len(present)
    return EvalReport(
        dis=scores[Task.INTENT],
        iss=scores[Task.IMAGE_SCENE],
        oss=oss,
        oss_mean=oss_mean,
        per_class=per_class,
        intent_count=sum(pairs[Task.INTENT].values()),
        image_scene_count=sum(pairs[Task.IMAGE_SCENE].values()),
    )


# --- report file ---------------------------------------------------------------

def report_to_dict(report: EvalReport) -> dict:
    return {
        "dis": report.dis,
        "iss": report.iss,
        "oss": report.oss,
        "oss_mean": report.oss_mean,
        "counts": {
            "intent": report.intent_count,
            "image_scene": report.image_scene_count,
        },
        "per_class": [row._asdict() for row in report.per_class],
    }


def save_report(report: EvalReport, path: str | Path) -> None:
    write_json(path, report_to_dict(report))


def load_report(path: str | Path) -> dict:
    """Read a saved report, checking every field ``format_report`` renders."""

    doc = read_json(path, EvaluationError)
    if not isinstance(doc, dict) or "oss" not in doc:
        raise EvaluationError("report file does not look like an evaluation report")
    where = f"{path} is a malformed report: "
    fields = Fields(doc, EvaluationError, where)
    fields.number("oss")
    for key in ("dis", "iss", "oss_mean"):
        fields.number(key, null=True)
    counts = Fields(fields.mapping("counts", default={}), EvaluationError, f"{where}counts ")
    for key in counts.record:
        counts.integer(key)
    for i, row in enumerate(fields.array("per_class", default=[])):
        if not isinstance(row, dict):
            raise fields.fail("per_class", f"entry {i} must be an object")
        entry = Fields(row, EvaluationError, f"{where}per_class entry {i}: ")
        entry.text("label")
        for key in ("precision", "recall", "f1"):
            entry.number(key)
        entry.integer("support")
    return doc


def format_report(report_dict: dict) -> str:
    """Human-readable rendering of a saved report."""

    def fmt(value: float | None) -> str:
        return "absent" if value is None else f"{value:.4f}"

    counts = report_dict.get("counts", {})
    lines = [
        f"intent score (weighted F1):      {fmt(report_dict.get('dis'))}"
        f"   [{counts.get('intent', 0)} samples]",
        f"image-scene score (weighted F1): {fmt(report_dict.get('iss'))}"
        f"   [{counts.get('image_scene', 0)} samples]",
        f"unified score (joint labels):    {fmt(report_dict.get('oss'))}",
        f"unified score (plain mean):      {fmt(report_dict.get('oss_mean'))}",
        "",
        f"{'label':<24} {'precision':>9} {'recall':>9} {'f1':>9} {'support':>8}",
    ]
    for row in report_dict.get("per_class", []):
        lines.append(
            f"{row['label']:<24} {row['precision']:>9.4f} {row['recall']:>9.4f} "
            f"{row['f1']:>9.4f} {row['support']:>8d}"
        )
    return "\n".join(lines)
