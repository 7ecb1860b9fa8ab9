"""Monte Carlo tree search over growing predicate sets.

Each tree node holds a partial rule (a set of predicates); the root holds
the empty set. One iteration selects a node by UCT, expands it with one
agent-proposed predicate, has the agent self-assess the resulting rule in
place of a random rollout, and backpropagates reward x confidence along
the path. Every evaluated node is harvested as a candidate rule; filtering
is the rule base's job, not the search's.

Different insertion orders reach the same predicate set ({a, b} from a
then b, or from b then a). A transposition table, two dicts that live for
one ``run_search`` call, maps each set to the agent's estimate of it and
to its proposal list, so the agent is asked to score a set once and to
propose from it once per search. Both answers depend on the set alone (the
agent context holds nothing else that varies within a search), so a
transposed node takes the stored answer unchanged: the tree, its visit
counts and the harvest are those of a search without the table.
``SearchResult.evaluations`` counts expansions; ``agent_evaluations``
counts the rules the agent actually scored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

from .agents import Agent, AgentContext, RewardEstimate
from .dataset import DatasetSplit, Task, write_jsonl
from .errors import check_at_least
from .predicate import MAX_RULE_PREDICATES, Predicate, Rule, RuleSource, SampleIndex

# The UCT exploration constant c.
EXPLORATION = math.sqrt(2)


@dataclass
class SearchNode:
    """One tree node: a predicate set plus UCT statistics."""

    state: frozenset[Predicate]
    parent: SearchNode | None = None
    visits: int = 0
    total_value: float = 0.0
    children: dict[Predicate, "SearchNode"] = field(default_factory=dict)
    untried: list[Predicate] = field(default_factory=list)
    fetched: bool = False
    # Exhausted subtrees are skipped during selection; a node is exhausted
    # once nothing new can ever be evaluated at or below it.
    exhausted: bool = False


@dataclass(frozen=True)
class SearchConfig:
    max_iterations: int = 200
    proposals_per_expansion: int = 5

    def __post_init__(self) -> None:
        check_at_least("max_iterations", self.max_iterations, 1)
        check_at_least("proposals_per_expansion", self.proposals_per_expansion, 1)


@dataclass
class SearchResult:
    rules: list[tuple[Rule, RewardEstimate]]
    root: SearchNode
    iterations: int
    # Expansions: one harvested rule each, and the number behind rule ids.
    evaluations: int
    # Distinct predicate sets the agent scored; the rest were transpositions.
    agent_evaluations: int


def uct_score(child: SearchNode, parent_visits: int, c: float) -> float:
    """Standard UCT: exploitation Q/N plus c * sqrt(ln(parent)/N).

    Unvisited children score +inf so they are always picked first.
    """

    if parent_visits < 1:
        raise ValueError("parent_visits must be >= 1")
    if child.visits == 0:
        return math.inf
    exploit = child.total_value / child.visits
    explore = c * math.sqrt(math.log(parent_visits) / child.visits)
    return exploit + explore


def _select_child(node: SearchNode, c: float) -> SearchNode:
    # Ties break toward the first-created child: max() keeps the first
    # maximal element and dicts preserve insertion order.
    candidates = [ch for ch in node.children.values() if not ch.exhausted]
    return max(candidates, key=lambda ch: uct_score(ch, node.visits, c))


def _refresh_exhaustion(node: SearchNode | None) -> None:
    while node is not None:
        if len(node.state) >= MAX_RULE_PREDICATES:
            node.exhausted = True
        elif node.fetched and not node.untried:
            # all() over no children means a dead end: nothing was proposable.
            node.exhausted = all(ch.exhausted for ch in node.children.values())
        node = node.parent


def run_search(
    label: str,
    task: Task,
    split: DatasetSplit,
    agent: Agent,
    cfg: SearchConfig,
    *,
    trace_path: str | Path | None = None,
) -> SearchResult:
    """Search for rules predicting ``label``; deterministic with a mock agent.

    The search evaluates rules on the ``SampleIndex`` of the task's validation
    samples. Make ``split.validation`` a ``SampleIndex`` to share that index,
    and its bitsets, with every search over the same split; any other
    sequence is indexed for this one search.

    An agent failure (``AgentError``, raised once the agent has spent its
    own retry budget) propagates to the caller, and the search's partial
    harvest is discarded with it.
    """

    exemplars = tuple(
        s for s in split.train if s.task is task and s.gold_label == label
    )
    if not exemplars:
        raise ValueError(f"no training sample carries label {label!r} for task {task.value}")
    # One index per task per induce stage: every evaluation, in this search
    # and in the task's other searches, reuses its predicate bitsets.
    index = split.validation
    validation = (index if isinstance(index, SampleIndex) else SampleIndex(index)).for_task(task)
    if not validation:
        raise ValueError(f"no validation samples for task {task.value}")

    root = SearchNode(state=frozenset())
    # The transposition table, keyed by predicate set.
    scored: dict[frozenset[Predicate], RewardEstimate] = {}
    proposed: dict[frozenset[Predicate], list[Predicate]] = {}
    harvested: list[tuple[Rule, RewardEstimate]] = []
    iterations = 0
    best_reward = 0.0
    # Written when the search ends, whether it succeeded or failed.
    trace: list[dict] | None = None if trace_path is None else []

    def make_context(state: frozenset[Predicate]) -> AgentContext:
        # The context depends on the state alone, which makes the
        # transposition table exact.
        return AgentContext(
            task=task,
            label=label,
            exemplars=exemplars,
            validation=validation,
            current=state,
        )

    try:
        for iteration in range(cfg.max_iterations):
            if root.exhausted:
                break
            iterations += 1

            # Selection: walk down fully expanded nodes. The root is not
            # exhausted, and a node that is not exhausted but has nothing
            # untried has a child that is not exhausted, so the walk ends at
            # a node that can be expanded.
            node = root
            while node.fetched and not node.untried:
                node = _select_child(node, EXPLORATION)

            # Expansion: fetch candidate actions once per node, lazily.
            if not node.fetched:
                actions = proposed.get(node.state)
                if actions is None:
                    proposals = agent.propose_predicates(
                        make_context(node.state), cfg.proposals_per_expansion
                    )
                    # Drop predicates already in the state, and repeats.
                    actions = list(dict.fromkeys(p for p in proposals if p not in node.state))
                    proposed[node.state] = actions
                node.fetched = True
                node.untried = list(actions)
                if not node.untried:
                    # Dead end: nothing to grow here, ever.
                    node.exhausted = True
                    _refresh_exhaustion(node.parent)
                    continue

            action = node.untried.pop(0)
            child = SearchNode(state=node.state | {action}, parent=node)
            node.children[action] = child

            # Evaluation replaces rollout: the agent self-assesses the rule.
            rule = Rule(
                id=f"mcts:{task.value}:{label}:{len(harvested) + 1:04d}",
                task=task,
                label=label,
                predicates=child.state,
                reward=0.0,
                confidence=0.0,
                source=RuleSource.MCTS,
            )
            estimate = scored.get(child.state)
            if estimate is None:
                estimate = agent.evaluate_rule(make_context(child.state), rule)
                scored[child.state] = estimate
            harvested.append(
                (
                    replace(rule, reward=estimate.reward, confidence=estimate.confidence),
                    estimate,
                )
            )
            best_reward = max(best_reward, estimate.reward)

            # Backpropagation: reward weighted by the agent's own confidence.
            value = estimate.reward * estimate.confidence
            walker: SearchNode | None = child
            while walker is not None:
                walker.visits += 1
                walker.total_value += value
                walker = walker.parent

            _refresh_exhaustion(child)

            if trace is not None:
                trace.append({
                    "label": label,
                    "iteration": iteration,
                    "evaluations": len(harvested),
                    "depth": len(child.state),
                    "reward": estimate.reward,
                    "confidence": estimate.confidence,
                    "best_reward": best_reward,
                })
    finally:
        if trace is not None:
            write_jsonl(trace_path, trace)

    return SearchResult(
        rules=harvested,
        root=root,
        iterations=iterations,
        evaluations=len(harvested),
        agent_evaluations=len(scored),
    )
