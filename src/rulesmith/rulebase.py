"""Rule population management: filtering, dominance pruning, persistence.

The pipeline after a search harvest is: drop low-reward rules, drop rules
that a strictly smaller, strictly better rule of the same label makes
redundant, then re-measure everything on held-out validation data because
agent-reported rewards can hallucinate.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple, Sequence

from .dataset import DialogueSample, Fields, LabelTaxonomy, Task, read_json, write_json
from .errors import (PredicateSyntaxError, RuleBaseError, check_at_least, check_ratio,
                     checked_tuple)
from .predicate import (
    Predicate,
    Rule,
    RuleQuality,
    RuleSource,
    SampleIndex,
    measure_rule,
    parse_predicate,
    render_predicate,
)

RULEBASE_VERSION = 1
DEFAULT_MIN_REWARD = 0.8
DEFAULT_MIN_PRECISION = 0.8
DEFAULT_MIN_SUPPORT = 2
# The creation time of a base that no clock stamped, e.g. under a fixed seed.
EPOCH_ISO = "1970-01-01T00:00:00+00:00"


class RuleBaseMetadata(NamedTuple):
    created_at: str
    dataset_digest: str = ""
    config_digest: str = ""


class RuleBase(checked_tuple("RuleBase", "rules metadata")):
    """An immutable, deduplicated, dominance-free collection of rules."""

    __slots__ = ()

    def __new__(cls, rules: Sequence[Rule], metadata: RuleBaseMetadata) -> RuleBase:
        rules = tuple(rules)
        seen: set[str] = set()
        first_ids: dict[tuple[Task, str, frozenset[Predicate]], str] = {}
        for rule in rules:
            if rule.id in seen:
                raise RuleBaseError(f"duplicate rule id {rule.id!r}")
            seen.add(rule.id)
            first = first_ids.setdefault((rule.task, rule.label, rule.predicates), rule.id)
            if first != rule.id:
                raise RuleBaseError(
                    f"rule {rule.id!r} has the task, label and predicates of rule "
                    f"{first!r}; collapse with remove_dominated first"
                )
        dominated = _dominated_indices(rules)
        if dominated:
            offender = rules[min(dominated)].id
            raise RuleBaseError(
                f"rule {offender!r} is dominated by a strictly smaller, "
                "higher-reward rule; prune with remove_dominated first"
            )
        return super().__new__(cls, rules, metadata)

    @classmethod
    def build(
        cls, rules: Sequence[Rule], metadata: RuleBaseMetadata | None = None
    ) -> "RuleBase":
        """Construct a base from an arbitrary rule list, pruning as needed."""
        if metadata is None:
            metadata = RuleBaseMetadata(created_at=EPOCH_ISO)
        return cls(rules=tuple(remove_dominated(rules)), metadata=metadata)


def filter_by_reward(
    rules: Sequence[Rule], min_reward: float = DEFAULT_MIN_REWARD
) -> list[Rule]:
    """Keep rules whose reward is at least the threshold; the boundary stays."""
    check_ratio("min_reward", min_reward)
    return [r for r in rules if r.reward >= min_reward]


def check_labels(rules: Sequence[Rule], taxonomy: LabelTaxonomy) -> None:
    """Refuse the first rule whose label is not one of its task's labels."""
    for rule in rules:
        if rule.label not in taxonomy.labels_for(rule.task):
            raise RuleBaseError(
                f"rule {rule.id!r} has label {rule.label!r}, "
                f"which is not a {rule.task.value} label of the taxonomy"
            )


def _dominated_indices(rules: Sequence[Rule]) -> set[int]:
    """Indices of rules that a rule of the same task and label dominates."""

    groups: dict[tuple[Task, str], list[int]] = {}
    for i, rule in enumerate(rules):
        groups.setdefault((rule.task, rule.label), []).append(i)
    dominated: set[int] = set()
    for members in groups.values():
        for j in members:
            b = rules[j]
            if any(
                rules[i].reward > b.reward and rules[i].predicates < b.predicates
                for i in members
            ):
                dominated.add(j)
    return dominated


def remove_dominated(rules: Sequence[Rule]) -> list[Rule]:
    """Drop rules whose predicate set strictly contains a better rule's.

    A rule B is removed when some rule A of the same task and label has a
    strict subset of B's predicates and a strictly higher reward. Exact
    duplicates (same task, label, predicate set) are collapsed to the
    best-rewarded one first. Because a dominator of a dominator also
    dominates, one sweep already reaches the fixed point.
    """

    collapsed: list[Rule] = []
    best_index: dict[tuple[Task, str, frozenset[Predicate]], int] = {}
    for rule in rules:
        key = (rule.task, rule.label, rule.predicates)
        if key in best_index:
            if rule.reward > collapsed[best_index[key]].reward:
                collapsed[best_index[key]] = rule
        else:
            best_index[key] = len(collapsed)
            collapsed.append(rule)

    dominated = _dominated_indices(collapsed)
    return [r for i, r in enumerate(collapsed) if i not in dominated]


class OnlineValidation(NamedTuple):
    """Outcome of re-measuring rules on held-out data.

    Kept rules carry their measured precision as reward; dropped rules
    carry their quality alongside.
    """

    kept: tuple[Rule, ...]
    dropped: tuple[tuple[Rule, RuleQuality], ...]


def online_validate(
    rules: Sequence[Rule],
    validation: Sequence[DialogueSample],
    min_precision: float = DEFAULT_MIN_PRECISION,
    min_support: int = DEFAULT_MIN_SUPPORT,
) -> OnlineValidation:
    """Re-measure each rule; drop weakly supported or imprecise ones.

    Kept rules carry the measured precision as their reward from here on.
    """

    check_ratio("min_precision", min_precision)
    check_at_least("min_support", min_support, 0)
    if not validation:
        raise RuleBaseError("cannot validate rules against an empty validation set")
    kept: list[Rule] = []
    dropped: list[tuple[Rule, RuleQuality]] = []
    index = SampleIndex(validation)
    for rule in rules:
        quality = measure_rule(rule, index.for_task(rule.task))
        if quality.coverage < min_support or quality.precision is None:
            dropped.append((rule, quality))
        elif quality.precision < min_precision:
            dropped.append((rule, quality))
        else:
            kept.append(rule._replace(reward=quality.precision))
    return OnlineValidation(kept=tuple(kept), dropped=tuple(dropped))


# --- persistence --------------------------------------------------------------

def _rule_to_record(rule: Rule) -> dict:
    return {
        "id": rule.id,
        "task": rule.task.value,
        "label": rule.label,
        "predicates": [render_predicate(p) for p in rule.sorted_predicates()],
        "reward": rule.reward,
        "confidence": rule.confidence,
        "source": rule.source.value,
    }


def _rule_from_record(record: dict, index: int) -> Rule:
    if not isinstance(record, dict):
        raise RuleBaseError(f"rule entry {index}: must be an object")
    fields = Fields(record, RuleBaseError, f"rule entry {index}: ")
    rule_id = fields.text("id", empty=False)
    task = fields.choice("task", Task)
    label = fields.text("label", empty=False)
    try:
        predicates = frozenset(map(parse_predicate, fields.texts("predicates", empty=False)))
    except PredicateSyntaxError as exc:
        raise fields.fail("predicates", f"contains an invalid predicate: {exc}") from None
    reward = fields.number("reward")
    confidence = fields.number("confidence")
    source = fields.choice("source", RuleSource)
    try:
        return Rule(
            id=rule_id,
            task=task,
            label=label,
            predicates=predicates,
            reward=reward,
            confidence=confidence,
            source=source,
        )
    except ValueError as exc:
        raise RuleBaseError(f"rule entry {index}: {exc}") from None


def save_rulebase(rulebase: RuleBase, path: str | Path) -> None:
    write_json(path, {
        "version": RULEBASE_VERSION,
        "metadata": rulebase.metadata._asdict(),
        "rules": [_rule_to_record(r) for r in rulebase.rules],
    })


def load_rulebase(path: str | Path) -> RuleBase:
    doc = read_json(path, RuleBaseError)
    if not isinstance(doc, dict):
        raise RuleBaseError("rule base file must contain a JSON object")
    version = doc.get("version")
    if version != RULEBASE_VERSION:
        raise RuleBaseError(
            f"unknown rule base version {version!r}; this build reads version "
            f"{RULEBASE_VERSION}"
        )
    fields = Fields(doc, RuleBaseError)
    meta = Fields(fields.mapping("metadata"), RuleBaseError, "metadata ")
    metadata = RuleBaseMetadata._make(map(meta.text, RuleBaseMetadata._fields))
    rules = tuple(_rule_from_record(r, i) for i, r in enumerate(fields.array("rules")))
    return RuleBase(rules=rules, metadata=metadata)
