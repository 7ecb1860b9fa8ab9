"""Output checks made apart from rulesmith: own parser, matcher and F1.

Nothing here imports rulesmith. Files are read as plain JSON, predicates
are parsed with this module's own regular expression and matched with its
own NFKC-plus-casefold substring matcher, so a fault in the program's
evaluation cannot hide in the check of its outputs.
"""

from __future__ import annotations

import json
import re
import unicodedata
from pathlib import Path

ABSTAIN = "__abstain__"
MIN_PRECISION = 0.8
MIN_SUPPORT = 2
OVERRIDE_THRESHOLD = 0.8
TOLERANCE = 1e-12

_PREDICATE_RE = re.compile(
    r'(user_text|service_text|ocr_text|any_text) '
    r'(contains|not_contains|starts_with|ends_with) "((?:[^"\\]|\\.)*)"'
)


def norm(text: str) -> str:
    return unicodedata.normalize("NFKC", text).casefold()


def read_jsonl(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def field_texts(record: dict) -> dict[str, str]:
    """Normalised text of every predicate field of one dataset record."""
    user = "\n".join(t["text"] for t in record["turns"] if t["speaker"] == "user")
    service = "\n".join(t["text"] for t in record["turns"] if t["speaker"] == "service_rep")
    ocr = record["ocr_text"]
    return {
        "user_text": norm(user),
        "service_text": norm(service),
        "ocr_text": norm(ocr),
        "any_text": norm(user + "\n" + service + "\n" + ocr),
    }


def parse_predicate(text: str) -> tuple[str, str, str]:
    match = _PREDICATE_RE.fullmatch(text)
    if match is None:
        raise ValueError(f"not a canonical predicate: {text!r}")
    field, op, raw = match.groups()
    return field, op, re.sub(r"\\(.)", r"\1", raw)


def find_predicates(text: str) -> list[tuple[str, str, str]]:
    """Every canonical predicate inside a longer text, in order."""
    return [
        (field, op, re.sub(r"\\(.)", r"\1", raw))
        for field, op, raw in _PREDICATE_RE.findall(text)
    ]


def holds(predicate: tuple[str, str, str], texts: dict[str, str]) -> bool:
    field, op, value = predicate
    hay, needle = texts[field], norm(value)
    if op == "contains":
        return needle in hay
    if op == "not_contains":
        return needle not in hay
    if op == "starts_with":
        return hay.startswith(needle)
    return hay.endswith(needle)


class Matcher:
    """Bitsets over a record list: one per predicate, ANDed per rule."""

    def __init__(self, records: list[dict]) -> None:
        self.texts = [field_texts(r) for r in records]
        self.task_mask: dict[str, int] = {}
        for i, record in enumerate(records):
            self.task_mask[record["task"]] = self.task_mask.get(record["task"], 0) | 1 << i
        self._cache: dict[tuple[str, str, str], int] = {}

    def predicate_mask(self, predicate: tuple[str, str, str]) -> int:
        mask = self._cache.get(predicate)
        if mask is None:
            mask = 0
            for i, texts in enumerate(self.texts):
                if holds(predicate, texts):
                    mask |= 1 << i
            self._cache[predicate] = mask
        return mask

    def rule_mask(self, rule: dict) -> int:
        mask = self.task_mask.get(rule["task"], 0)
        for predicate in rule["parsed"]:
            mask &= self.predicate_mask(predicate)
        return mask


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def weighted_f1(gold: list[str], pred: list[str], labels: list[str]) -> float:
    total = 0.0
    for label in labels:
        tp = sum(1 for g, p in zip(gold, pred) if g == label and p == label)
        fp = sum(1 for g, p in zip(gold, pred) if g != label and p == label)
        fn = sum(1 for g, p in zip(gold, pred) if g == label and p != label)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        total += (tp + fn) / len(gold) * f1
    return total


def load_rules(path: Path) -> list[dict]:
    rules = json.loads(path.read_text(encoding="utf-8"))["rules"]
    for rule in rules:
        rule["parsed"] = frozenset(parse_predicate(p) for p in rule["predicates"])
    return rules


def check_validation(train: list[dict], val: list[dict], rephrase) -> list[str]:
    """One rephrased copy per training sample, with only turn texts changed."""
    expected = sorted(
        (
            dict(r, id=f"{r['id']}::r0",
                 turns=[dict(t, text=rephrase(t["text"])) for t in r["turns"]])
            for r in train
        ),
        key=lambda r: r["id"],
    )
    if val != expected:
        return ["validation file is not one rephrased copy per training sample"]
    return []


def check_rules(rules: list[dict], val: list[dict], planted: dict[str, str],
                labels: dict[str, list[str]]) -> list[str]:
    """Filter floors, recounted rewards, no dominance, planted rules present."""
    problems = []
    matcher = Matcher(val)
    if len({r["id"] for r in rules}) != len(rules):
        problems.append("duplicate rule ids in the filtered rule base")
    for rule in rules:
        if rule["label"] not in labels.get(rule["task"], ()):
            problems.append(f"rule {rule['id']} has a label outside its task")
            continue
        covered = matcher.rule_mask(rule)
        coverage = covered.bit_count()
        correct = sum(1 for i in _bits(covered) if val[i]["gold_label"] == rule["label"])
        if coverage < MIN_SUPPORT:
            problems.append(f"rule {rule['id']} covers {coverage} < {MIN_SUPPORT} samples")
            continue
        precision = correct / coverage
        if precision < MIN_PRECISION:
            problems.append(f"rule {rule['id']} precision {precision} below the floor")
        if abs(rule["reward"] - precision) > TOLERANCE:
            problems.append(f"rule {rule['id']} reward {rule['reward']} != recount {precision}")
    for b in rules:
        for a in rules:
            if (a is not b and a["task"] == b["task"] and a["label"] == b["label"]
                    and a["reward"] > b["reward"] and a["parsed"] < b["parsed"]):
                problems.append(f"rule {b['id']} is dominated by {a['id']}")
                break
    present = {(r["task"], r["label"], r["parsed"]) for r in rules}
    for task, task_labels in labels.items():
        for label in task_labels:
            key = (task, label, frozenset({("any_text", "contains", planted[label])}))
            if key not in present:
                problems.append(f"planted rule of {label} missing from the rule base")
    return problems


def check_predictions(preds: list[dict], test: list[dict], rules: list[dict],
                      labels: dict[str, list[str]], may_fail: set[str]) -> list[str]:
    """One prediction per sample, in order, arbitrated as the README promises."""
    if [p["id"] for p in preds] != [r["id"] for r in test]:
        return ["predictions do not list every test sample once, in input order"]
    problems = []
    matcher = Matcher(test)
    # Strongest first: reward, then predicate count, then id.
    ordered = sorted(rules, key=lambda r: (-r["reward"], -len(r["parsed"]), r["id"]))
    best: dict[int, dict] = {}
    trusted: dict[int, dict] = {}
    unassigned = trusted_unassigned = (1 << len(test)) - 1
    for rule in ordered:
        mask = matcher.rule_mask(rule)
        for i in _bits(mask & unassigned):
            best[i] = rule
        unassigned &= ~mask
        if rule["reward"] >= OVERRIDE_THRESHOLD:
            for i in _bits(mask & trusted_unassigned):
                trusted[i] = rule
            trusted_unassigned &= ~mask
    for i, (pred, record) in enumerate(zip(preds, test)):
        allowed = labels[record["task"]]
        classifier = pred["predictor_label"]
        if classifier == ABSTAIN:
            if record["id"] not in may_fail:
                problems.append(f"classifier failed on {record['id']}, which should not fail")
            winner = best.get(i)
            expected = (winner["label"], "rule", winner["id"]) if winner else (ABSTAIN, "predictor", None)
        else:
            if classifier not in allowed:
                problems.append(f"classifier label {classifier!r} outside the task of {record['id']}")
            winner = trusted.get(i)
            expected = (winner["label"], "rule", winner["id"]) if winner else (classifier, "predictor", None)
        if (pred["label"], pred["source"], pred["fired_rule_id"]) != expected:
            problems.append(f"prediction for {record['id']} is {pred['label']!r}, expected {expected}")
        if len(problems) > 20:
            break
    return problems


def check_report(report: dict, preds: list[dict], test: list[dict],
                 labels: dict[str, list[str]]) -> tuple[list[str], float, float]:
    """The report's oss against a recount; rules must beat the classifier alone."""
    joint = labels["intent"] + labels["image_scene"]
    gold = [r["gold_label"] for r in test]
    oss = weighted_f1(gold, [p["label"] for p in preds], joint)
    alone = weighted_f1(gold, [p["predictor_label"] for p in preds], joint)
    problems = []
    if abs(report["oss"] - oss) > TOLERANCE:
        problems.append(f"report oss {report['oss']} != recount {oss}")
    if not oss > alone:
        problems.append(f"collaborative F1 {oss} does not exceed classifier-alone F1 {alone}")
    return problems, oss, alone
