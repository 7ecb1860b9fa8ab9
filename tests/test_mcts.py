"""UCT scoring and the rule-search loop: selection, expansion, accounting."""

from __future__ import annotations

import math

import pytest

from rulesmith import (
    AgentContext,
    AgentUnavailableError,
    DatasetSplit,
    MockAgent,
    RewardEstimate,
    SampleIndex,
    SearchConfig,
    SearchNode,
    Task,
    eval_predicate,
    measure_rule,
    run_search,
    stratified_split,
    uct_score,
)
from rulesmith.agents import PROMPT_SAMPLES, sample_tokens
from _helpers import build_planted_corpus, build_two_task_corpus, check_search_tree, contains


def node(visits=0, value=0.0):
    return SearchNode(state=frozenset(), visits=visits, total_value=value)


class TestUctScore:
    def test_unvisited_child_scores_infinity(self):
        assert uct_score(node(visits=0), parent_visits=3, c=1.0) == math.inf

    def test_hand_computed_value(self):
        score = uct_score(node(visits=5, value=3.0), parent_visits=10, c=math.sqrt(2))
        expected = 3 / 5 + math.sqrt(2) * math.sqrt(math.log(10) / 5)
        assert score == pytest.approx(expected, abs=1e-12)
        assert score == pytest.approx(1.5597, abs=1e-4)

    def test_identical_statistics_give_identical_scores(self):
        a = uct_score(node(visits=4, value=2.0), parent_visits=9, c=1.3)
        b = uct_score(node(visits=4, value=2.0), parent_visits=9, c=1.3)
        assert a == b

    def test_scaling_c_preserves_equal_visit_preferences(self):
        # With equal visit counts the exploration term is shared, so any
        # positive c ranks the children identically.
        better = node(visits=6, value=4.0)
        worse = node(visits=6, value=2.0)
        for c in (0.1, math.sqrt(2), 14.0):
            assert uct_score(better, 20, c) > uct_score(worse, 20, c)

    def test_parent_visits_precondition(self):
        with pytest.raises(ValueError):
            uct_score(node(visits=1, value=0.5), parent_visits=0, c=1.0)

    def test_exact_ties_break_toward_the_first_created_child(self):
        from rulesmith.mcts import _select_child

        parent = node(visits=8)
        first = SearchNode(state=frozenset({contains("a")}), visits=3, total_value=1.5)
        second = SearchNode(state=frozenset({contains("b")}), visits=3, total_value=1.5)
        parent.children = {contains("a"): first, contains("b"): second}
        for c in (0.5, math.sqrt(2), 7.0):
            assert _select_child(parent, c) is first


def make_split(labels, per_label=30, seed=0, plant_fraction=1.0):
    corpus = build_planted_corpus(labels, per_label=per_label, seed=seed,
                                  plant_fraction=plant_fraction)
    return stratified_split(corpus, 0.4, seed=seed)


class TestRunSearchWithMock:
    def test_planted_rule_is_recovered_with_perfect_precision(self):
        split = make_split(["refund", "shipping"], per_label=50, seed=3)
        agent = MockAgent(split.train, seed=3, noise=0.0)
        cfg = SearchConfig(max_iterations=200)
        result = run_search("refund", Task.INTENT, split, agent, cfg)

        # Exhaustive oracle: the best single-token rule reachable from the
        # training vocabulary, measured by a literal loop over validation.
        vocabulary = set().union(*(sample_tokens(s) for s in split.train))
        best = 0.0
        for token in vocabulary:
            if len(token) > 64:
                continue
            predicate = contains(token)
            coverage = correct = 0
            for s in split.validation:
                if eval_predicate(predicate, s):
                    coverage += 1
                    if s.gold_label == "refund":
                        correct += 1
            if coverage:
                best = max(best, correct / coverage)
        assert best == 1.0  # the planted token is perfect by construction

        harvested_best = max(
            (measure_rule(rule, split.validation).precision or 0.0)
            for rule, _ in result.rules
        )
        assert harvested_best >= 0.95 * best

    def test_single_iteration_accounting(self):
        split = make_split(["refund", "shipping"], per_label=10, seed=1)
        agent = MockAgent(split.train, seed=1, noise=0.0)
        cfg = SearchConfig(max_iterations=1)
        result = run_search("refund", Task.INTENT, split, agent, cfg)
        assert result.evaluations == 1
        assert result.root.visits == 1
        assert len(result.root.children) == 1
        assert len(result.rules) == 1

    def test_zero_noise_rewards_equal_oracle_precision_exactly(self):
        split = make_split(["refund", "shipping"], per_label=25, seed=7)
        agent = MockAgent(split.train, seed=7, noise=0.0)
        cfg = SearchConfig(max_iterations=60)
        result = run_search("shipping", Task.INTENT, split, agent, cfg)
        validation = tuple(s for s in split.validation if s.task is Task.INTENT)
        for rule, estimate in result.rules:
            quality = measure_rule(rule, validation)
            oracle = quality.precision if quality.precision is not None else 0.0
            assert estimate.reward == oracle
            assert rule.reward == oracle

    def test_tree_accounting_over_many_seeds(self):
        for seed in range(5):
            split = make_split(["refund", "shipping"], per_label=20, seed=seed)
            agent = MockAgent(split.train, seed=seed, noise=0.05)
            cfg = SearchConfig(max_iterations=40)
            result = run_search("refund", Task.INTENT, split, agent, cfg)
            assert result.root.visits == result.evaluations
            check_search_tree(result.root)

    def test_deterministic_per_seed(self):
        split = make_split(["refund", "shipping"], per_label=20, seed=2)
        cfg = SearchConfig(max_iterations=50)
        first = run_search(
            "refund", Task.INTENT, split, MockAgent(split.train, seed=2), cfg
        )
        second = run_search(
            "refund", Task.INTENT, split, MockAgent(split.train, seed=2), cfg
        )
        assert first.rules == second.rules

    def test_missing_label_in_train_is_rejected(self):
        split = make_split(["refund", "shipping"], per_label=10, seed=1)
        with pytest.raises(ValueError, match="no training sample"):
            run_search("unknown", Task.INTENT, split, MockAgent(split.train), SearchConfig())

    def test_a_task_without_validation_samples_is_rejected(self):
        split = make_split(["refund", "shipping"], per_label=10, seed=1)
        with pytest.raises(ValueError, match="no validation samples for task intent"):
            run_search("refund", Task.INTENT, DatasetSplit(split.train, ()),
                       MockAgent(split.train), SearchConfig())

    def test_trace_file_is_written(self, tmp_path):
        split = make_split(["refund", "shipping"], per_label=10, seed=4)
        agent = MockAgent(split.train, seed=4, noise=0.0)
        trace = tmp_path / "trace.jsonl"
        run_search(
            "refund",
            Task.INTENT,
            split,
            agent,
            SearchConfig(max_iterations=10),
            trace_path=trace,
        )
        lines = trace.read_text().strip().splitlines()
        assert lines
        import json

        first = json.loads(lines[0])
        assert {"iteration", "evaluations", "reward", "best_reward"} <= set(first)


class OneTokenAgent:
    """Always proposes the same single predicate; sibling/state dedup does the rest."""

    def __init__(self):
        self.predicate = contains("always")

    def propose_predicates(self, ctx, k):
        return [self.predicate]

    def evaluate_rule(self, ctx, rule):
        return RewardEstimate(reward=0.5, confidence=1.0)

    def rephrase(self, text):
        return text


class DepthTokenAgent:
    """Proposes one fresh predicate per depth, forcing a single chain."""

    def propose_predicates(self, ctx, k):
        return [contains(f"depth{len(ctx.current)}")]

    def evaluate_rule(self, ctx, rule):
        return RewardEstimate(reward=0.5, confidence=1.0)

    def rephrase(self, text):
        return text


class EmptyAgent:
    def propose_predicates(self, ctx, k):
        return []

    def evaluate_rule(self, ctx, rule):
        return RewardEstimate(reward=0.5, confidence=1.0)

    def rephrase(self, text):
        return text


class FlakyAgent:
    """Proposes fine, then the evaluation endpoint dies after two calls."""

    def __init__(self):
        self.evaluations = 0

    def propose_predicates(self, ctx, k):
        return [contains(f"tok{len(ctx.current)}-{i}") for i in range(k)]

    def evaluate_rule(self, ctx, rule):
        self.evaluations += 1
        if self.evaluations > 2:
            raise AgentUnavailableError("endpoint gone")
        return RewardEstimate(reward=0.9, confidence=1.0)

    def rephrase(self, text):
        return text


def tiny_split():
    corpus = build_planted_corpus(["refund", "shipping"], per_label=5, seed=0)
    return stratified_split(corpus, 0.4, seed=0)


class TestSearchShapes:
    def test_repeated_single_proposal_builds_a_short_chain(self):
        split = tiny_split()
        result = run_search(
            "refund", Task.INTENT, split, OneTokenAgent(), SearchConfig(max_iterations=20)
        )
        # The only proposal duplicates the child's own state, so the tree is
        # a single chain that dead-ends immediately below depth 1.
        assert result.evaluations == 1
        assert len(result.root.children) == 1
        child = next(iter(result.root.children.values()))
        assert not child.children
        check_search_tree(result.root)

    def test_fresh_predicate_per_depth_builds_a_full_chain(self):
        split = tiny_split()
        result = run_search(
            "refund", Task.INTENT, split, DepthTokenAgent(), SearchConfig(max_iterations=50)
        )
        assert result.evaluations == 5  # terminal at the five-predicate cap
        depths = []
        node = result.root
        while node.children:
            assert len(node.children) == 1
            node = next(iter(node.children.values()))
            depths.append(len(node.state))
        assert depths == [1, 2, 3, 4, 5]
        check_search_tree(result.root)

    def test_zero_proposals_at_root_gives_empty_result(self):
        split = tiny_split()
        result = run_search(
            "refund", Task.INTENT, split, EmptyAgent(), SearchConfig(max_iterations=10)
        )
        assert result.rules == []
        assert result.evaluations == 0

    def test_agent_failure_propagates_out_of_the_search(self):
        split = tiny_split()
        agent = FlakyAgent()
        with pytest.raises(AgentUnavailableError, match="endpoint gone"):
            run_search("refund", Task.INTENT, split, agent, SearchConfig(max_iterations=10))
        # Two rules were scored; the third evaluation failed and ended the search.
        assert agent.evaluations == 3

    def test_depth_never_exceeds_the_cap(self):
        split = make_split(["refund", "shipping"], per_label=15, seed=6)
        agent = MockAgent(split.train, seed=6, noise=0.05)
        result = run_search(
            "refund", Task.INTENT, split, agent, SearchConfig(max_iterations=120)
        )
        for rule, _ in result.rules:
            assert 1 <= len(rule.predicates) <= 5
        check_search_tree(result.root)

    def test_search_stops_once_the_tree_is_exhausted(self):
        split = tiny_split()
        result = run_search(
            "refund", Task.INTENT, split, DepthTokenAgent(), SearchConfig(max_iterations=500)
        )
        # 5 evaluations plus bookkeeping iterations, far below the budget.
        assert result.iterations < 500

    def test_root_visits_never_decrease_across_iterations(self, tmp_path):
        # The trace records the evaluation counter after every backprop, and
        # the accounting invariant pins root.visits to that counter.
        import json

        split = make_split(["refund", "shipping"], per_label=15, seed=8)
        agent = MockAgent(split.train, seed=8, noise=0.05)
        trace = tmp_path / "trace.jsonl"
        result = run_search(
            "refund",
            Task.INTENT,
            split,
            agent,
            SearchConfig(max_iterations=40),
            trace_path=trace,
        )
        counts = [json.loads(line)["evaluations"] for line in trace.read_text().splitlines()]
        assert counts == sorted(counts)
        assert result.root.visits == counts[-1]


class TestSearchConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(max_iterations=0)
        with pytest.raises(ValueError):
            SearchConfig(proposals_per_expansion=0)


class CountingAgent:
    """Passes every call on to ``inner`` and records the state it was made for."""

    def __init__(self, inner):
        self.inner = inner
        self.proposed_states = []
        self.scored_states = []

    def propose_predicates(self, ctx, k):
        self.proposed_states.append(ctx.current)
        return self.inner.propose_predicates(ctx, k)

    def evaluate_rule(self, ctx, rule):
        self.scored_states.append(rule.predicates)
        return self.inner.evaluate_rule(ctx, rule)

    def rephrase(self, text):
        return self.inner.rephrase(text)


class DriftingAgent(CountingAgent):
    """Mock proposals, but a different reward on every evaluation call."""

    def evaluate_rule(self, ctx, rule):
        super().evaluate_rule(ctx, rule)
        return RewardEstimate(reward=1 / (1 + len(self.scored_states)), confidence=1.0)


class TestTranspositionTable:
    def search(self, agent_type=CountingAgent, seed=5, iterations=80):
        split = make_split(["refund", "shipping"], per_label=20, seed=seed)
        agent = agent_type(MockAgent(split.train, seed=seed, noise=0.05))
        result = run_search(
            "refund", Task.INTENT, split, agent, SearchConfig(max_iterations=iterations)
        )
        return split, agent, result

    def test_each_state_is_scored_and_proposed_at_most_once(self):
        _, agent, result = self.search()
        distinct = {rule.predicates for rule, _ in result.rules}
        assert len(distinct) < result.evaluations  # the search did transpose
        assert len(agent.scored_states) == len(set(agent.scored_states))
        assert len(agent.proposed_states) == len(set(agent.proposed_states))
        assert result.agent_evaluations == len(agent.scored_states) == len(distinct)

    def test_harvested_estimates_equal_a_fresh_evaluation(self):
        split, _, result = self.search()
        fresh_agent = MockAgent(split.train, seed=5, noise=0.05)
        ctx = AgentContext(
            task=Task.INTENT,
            label="refund",
            exemplars=(),
            validation=tuple(s for s in split.validation if s.task is Task.INTENT),
        )
        for rule, estimate in result.rules:
            fresh = fresh_agent.evaluate_rule(ctx, rule)
            assert (rule.reward, rule.confidence) == (fresh.reward, fresh.confidence)
            assert estimate == fresh

    def test_rule_ids_count_expansions_and_the_tree_accounts(self):
        _, _, result = self.search()
        ids = [rule.id for rule, _ in result.rules]
        assert ids == [
            f"mcts:intent:refund:{n:04d}" for n in range(1, result.evaluations + 1)
        ]
        assert result.root.visits == result.evaluations
        check_search_tree(result.root)

    def test_equal_predicate_sets_share_one_estimate(self):
        _, _, result = self.search(agent_type=DriftingAgent)
        rewards = {}
        for rule, _ in result.rules:
            rewards.setdefault(rule.predicates, []).append(rule.reward)
        assert any(len(values) > 1 for values in rewards.values())  # some set recurs
        assert all(len(set(values)) == 1 for values in rewards.values())

    def test_no_table_outlives_a_search(self):
        split = make_split(["refund", "shipping"], per_label=20, seed=5)
        agent = CountingAgent(MockAgent(split.train, seed=5, noise=0.05))
        cfg = SearchConfig(max_iterations=80)
        counts = []
        for _ in range(2):
            before = len(agent.scored_states), len(agent.proposed_states)
            run_search("refund", Task.INTENT, split, agent, cfg)
            counts.append((len(agent.scored_states) - before[0],
                           len(agent.proposed_states) - before[1]))
        assert counts[0] == counts[1]
        assert counts[0][0] > 0


class ContextRecordingAgent(CountingAgent):
    """Passes every call on to ``inner`` and keeps each context it was given."""

    def __init__(self, inner):
        super().__init__(inner)
        self.contexts = []

    def propose_predicates(self, ctx, k):
        self.contexts.append(ctx)
        return super().propose_predicates(ctx, k)

    def evaluate_rule(self, ctx, rule):
        self.contexts.append(ctx)
        return super().evaluate_rule(ctx, rule)


class TestSharedIndex:
    INTENT = ["refund", "shipping", "invoice"]
    SCENE = ["receipt", "tracking"]

    def searches(self, split):
        """Every label's search over ``split``, in induce's order, with one agent."""
        agent = ContextRecordingAgent(MockAgent(split.train, seed=4, noise=0.05))
        cfg = SearchConfig(max_iterations=40)
        targets = [(Task.INTENT, l) for l in self.INTENT] + [
            (Task.IMAGE_SCENE, l) for l in self.SCENE
        ]
        results = [run_search(label, task, split, agent, cfg) for task, label in targets]
        return results, agent.contexts

    def test_shared_index_gives_the_searches_of_fresh_indexes(self):
        corpus = build_two_task_corpus(self.INTENT, self.SCENE, per_label=20, seed=4)
        fresh = stratified_split(corpus, 0.4, seed=4)
        shared = DatasetSplit(train=fresh.train, validation=SampleIndex(fresh.validation))

        fresh_results, _ = self.searches(fresh)
        shared_results, contexts = self.searches(shared)

        def summary(result):
            rules = [(r.id, r.predicates, r.reward, r.confidence) for r, _ in result.rules]
            return rules, result.evaluations, result.agent_evaluations

        assert [summary(r) for r in shared_results] == [summary(r) for r in fresh_results]
        assert all(r.rules for r in shared_results)
        for task in Task:
            in_file_order = tuple(s for s in fresh.validation if s.task is task)
            seen = [ctx.validation for ctx in contexts if ctx.task is task]
            assert seen and all(v is shared.validation.for_task(task) for v in seen)
            assert seen[0][:PROMPT_SAMPLES] == in_file_order[:PROMPT_SAMPLES]
            assert tuple(seen[0]) == in_file_order
