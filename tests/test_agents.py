"""Mock and remote agent behavior: proposing, self-assessing, rephrasing."""

from __future__ import annotations

import itertools
import json
import re

import pytest

from rulesmith import (
    AgentContext,
    AgentProtocolError,
    AgentUnavailableError,
    MockAgent,
    PredicateField,
    RemoteAgent,
    RewardEstimate,
    Task,
    measure_rule,
    parse_predicate,
    render_predicate,
)
from rulesmith.agents import _CJK, extract_fenced_json, sample_tokens, structured_call, tokenize
from _helpers import ScriptedTransport, contains, intent_sample, make_rule


def make_context(corpus, label, current=()):
    exemplars = tuple(s for s in corpus if s.gold_label == label)
    return AgentContext(
        task=Task.INTENT,
        label=label,
        exemplars=exemplars,
        validation=tuple(corpus),
        current=frozenset(current),
    )


class TestTokenize:
    def test_word_runs(self):
        assert tokenize("refund the order") == {"refund", "the", "order"}

    def test_cjk_ngrams(self):
        tokens = tokenize("我要退货")
        assert "退货" in tokens
        assert "要退货" in tokens

    def test_case_and_width_folding(self):
        assert tokenize("Refund") == tokenize("refund") == tokenize("ＲＥＦＵＮＤ")

    # Tokens of a run of three of each character at the edges of the CJK
    # ranges U+3400-U+9FFF and U+F900-U+FAFF. NFKC turns U+33FF into "gal",
    # U+F900 into U+8C48 and U+FB00 into "ff"; U+F8FF and U+FAFF are not
    # word characters.
    EDGES = {
        0x33FF: {"galgalgal"},
        0x3400: {"\u3400" * 2, "\u3400" * 3},
        0x9FFF: {"\u9fff" * 2, "\u9fff" * 3},
        0xA000: {"\ua000" * 3},
        0xF8FF: set(),
        0xF900: {"\u8c48" * 2, "\u8c48" * 3},
        0xFAFF: set(),
        0xFB00: {"ffffff"},
    }

    @pytest.mark.parametrize("codepoint", EDGES, ids=lambda c: f"U+{c:04X}")
    def test_cjk_range_edges(self, codepoint):
        char = chr(codepoint)
        assert tokenize(f"x {char * 3} y") == {"x", "y"} | self.EDGES[codepoint]
        cjk = 0x3400 <= codepoint <= 0x9FFF or 0xF900 <= codepoint <= 0xFAFF
        assert bool(re.fullmatch(_CJK, char)) is cjk  # the class itself, before NFKC


class TestMockProposals:
    def build_ratio_corpus(self):
        # "退货" in 18 of 20 label-L samples (90%) and 1 of 20 others (5%).
        corpus = []
        for i in range(20):
            text = "我要退货" if i < 18 else "有问题"
            corpus.append(intent_sample(f"L{i}", "L", text))
        for i in range(20):
            text = "我要退货" if i < 1 else "什么时候发货呢"
            corpus.append(intent_sample(f"M{i}", "M", text))
        return corpus

    def test_high_ratio_token_is_proposed(self):
        corpus = self.build_ratio_corpus()
        agent = MockAgent(corpus, seed=1)
        proposals = agent.propose_predicates(make_context(corpus, "L"), k=5)
        assert contains("退货") in proposals

        # Recompute the frequencies that justify the ranking.
        positives = [s for s in corpus if s.gold_label == "L"]
        negatives = [s for s in corpus if s.gold_label != "L"]
        p_pos = sum("退货" in sample_tokens(s) for s in positives) / len(positives)
        p_neg = sum("退货" in sample_tokens(s) for s in negatives) / len(negatives)
        assert p_pos == pytest.approx(0.9)
        assert p_neg == pytest.approx(0.05)

    def test_k_caps_the_proposal_count(self):
        corpus = self.build_ratio_corpus()
        agent = MockAgent(corpus, seed=1)
        assert len(agent.propose_predicates(make_context(corpus, "L"), k=1)) == 1

    def test_all_duplicates_gives_empty_list(self):
        corpus = [intent_sample("a", "L", "退货"), intent_sample("b", "M", "发货")]
        agent = MockAgent(corpus, seed=1)
        everything = agent.propose_predicates(make_context(corpus, "L"), k=50)
        again = agent.propose_predicates(
            make_context(corpus, "L", current=everything), k=50
        )
        assert again == []

    def test_every_proposal_parses_under_the_grammar(self):
        corpus = self.build_ratio_corpus()
        agent = MockAgent(corpus, seed=1)
        for p in agent.propose_predicates(make_context(corpus, "L"), k=10):
            assert parse_predicate(render_predicate(p)) == p

    def test_pure_function_of_corpus_seed_and_context(self):
        corpus = self.build_ratio_corpus()
        ctx = make_context(corpus, "L")
        a = MockAgent(corpus, seed=9).propose_predicates(ctx, k=5)
        b = MockAgent(corpus, seed=9).propose_predicates(ctx, k=5)
        assert a == b


class TestMockEvaluate:
    def build_corpus(self):
        return [
            intent_sample("e0", "L", "hit"),
            intent_sample("e1", "L", "hit"),
            intent_sample("e2", "L", "hit"),
            intent_sample("e3", "M", "hit"),
            intent_sample("e4", "M", "miss"),
            intent_sample("e5", "M", "miss"),
        ]

    def test_zero_noise_reward_equals_oracle_precision(self):
        corpus = self.build_corpus()
        agent = MockAgent(corpus, seed=1, noise=0.0)
        rule = make_rule("r", "L", [contains("hit")], 0.0, confidence=0.0)
        estimate = agent.evaluate_rule(make_context(corpus, "L"), rule)
        assert estimate.reward == 0.75
        assert estimate.confidence == 0.4  # coverage 4 out of the saturation at 10

    def test_zero_coverage_gives_zero_reward_and_confidence(self):
        corpus = self.build_corpus()
        agent = MockAgent(corpus, seed=1, noise=0.0)
        rule = make_rule("r", "L", [contains("nothinghere")], 0.0, confidence=0.0)
        estimate = agent.evaluate_rule(make_context(corpus, "L"), rule)
        assert estimate.reward == 0.0
        assert estimate.confidence == 0.0

    def test_noise_is_seeded_and_bounded(self):
        corpus = self.build_corpus()
        ctx = make_context(corpus, "L")
        rule = make_rule("r", "L", [contains("hit")], 0.0, confidence=0.0)
        quality = measure_rule(rule, ctx.validation)
        first = MockAgent(corpus, seed=5, noise=0.05).evaluate_rule(ctx, rule)
        second = MockAgent(corpus, seed=5, noise=0.05).evaluate_rule(ctx, rule)
        other_seed = MockAgent(corpus, seed=6, noise=0.05).evaluate_rule(ctx, rule)
        assert first == second
        assert abs(first.reward - quality.precision) <= 0.05
        assert 0.0 <= other_seed.reward <= 1.0

    def test_estimate_range_validation(self):
        with pytest.raises(ValueError):
            RewardEstimate(reward=1.3, confidence=0.5)
        with pytest.raises(ValueError):
            RewardEstimate(reward=0.5, confidence=-0.2)

    def test_mock_rephrase_echoes(self):
        agent = MockAgent([], seed=0)
        assert agent.rephrase("hello") == "hello"
        assert agent.rephrase("") == ""


def fenced(payload: str) -> str:
    return f"Here you go:\n```json\n{payload}\n```\n"


class TestRemoteAgent:
    def make_ctx(self):
        corpus = [intent_sample("a", "L", "退货退货")]
        return make_context(corpus, "L")

    def test_propose_parses_and_drops_bad_entries(self, caplog):
        # The third entry decodes to a lone surrogate before its trailing garbage.
        transport = ScriptedTransport(
            [fenced('{"predicates": ["any_text contains \\"退货\\"", "garbage!!", '
                    '"any_text contains \\"\\ud800\\" junk"]}')]
        )
        agent = RemoteAgent("http://example", transport=transport)
        with caplog.at_level("INFO", logger="rulesmith.agents"):
            proposals = agent.propose_predicates(self.make_ctx(), k=5)
        assert proposals == [contains("退货")]
        assert agent.dropped_proposals == 2
        assert [r.getMessage().split(":")[0] for r in caplog.records] == [
            "dropping unparseable proposal 'garbage!!'",
            "dropping unparseable proposal 'any_text contains \"\\ud800\" junk'",
        ]

    def test_out_of_range_reward_is_a_protocol_error_naming_the_field(self):
        rule = make_rule("r", "L", [contains("退货")], 0.0, confidence=0.0)
        # 10**400 is an integer past float range.
        for field_name, value in [("reward", 1.3), ("reward", 10**400), ("confidence", 10**400)]:
            payload = {"reward": 0.5, "confidence": 0.5, "rationale": "sure", field_name: value}
            reply = fenced(json.dumps(payload))
            transport = ScriptedTransport([reply, reply, reply])
            agent = RemoteAgent("http://example", transport=transport)
            with pytest.raises(AgentProtocolError, match=f"field '{field_name}'"):
                agent.evaluate_rule(self.make_ctx(), rule)
            assert len(transport.conversations) == 3
            assert f"field '{field_name}'" in transport.conversations[-1][-1]["content"]

    def test_invalid_payload_is_retried_with_the_error_echoed_back(self):
        transport = ScriptedTransport(
            [
                "no fenced block here",
                fenced('{"reward": 0.9, "confidence": 0.8, "rationale": "ok"}'),
            ]
        )
        agent = RemoteAgent("http://example", transport=transport)
        rule = make_rule("r", "L", [contains("退货")], 0.0, confidence=0.0)
        estimate = agent.evaluate_rule(self.make_ctx(), rule)
        assert estimate == RewardEstimate(reward=0.9, confidence=0.8, rationale="ok")
        assert len(transport.conversations) == 2
        follow_up = transport.conversations[1]
        assert follow_up[-1]["role"] == "user"
        assert "invalid" in follow_up[-1]["content"]

    def test_an_invalid_payload_is_logged_as_a_warning_before_the_retry(self, caplog):
        transport = ScriptedTransport(["no fenced block here", fenced('{"ok": true}')])
        with caplog.at_level("WARNING", logger="rulesmith.agents"):
            assert structured_call(transport, "system", "user", extract_fenced_json) == {"ok": True}
        [record] = caplog.records
        assert (record.name, record.levelname) == ("rulesmith.agents", "WARNING")
        assert record.getMessage().startswith("reply payload invalid (attempt 1): ")

    @pytest.mark.parametrize(
        "payload", ["[" * 100_000 + "]" * 100_000, "1" * 5001],
        ids=["too-deep", "over-long-integer"],
    )
    def test_undecodable_fenced_json_is_retried_with_the_error_echoed_back(self, payload):
        transport = ScriptedTransport(
            [fenced(payload), fenced('{"reward": 0.9, "confidence": 0.8, "rationale": "ok"}')]
        )
        agent = RemoteAgent("http://example", transport=transport)
        rule = make_rule("r", "L", [contains("退货")], 0.0, confidence=0.0)
        estimate = agent.evaluate_rule(self.make_ctx(), rule)
        assert estimate == RewardEstimate(reward=0.9, confidence=0.8, rationale="ok")
        assert len(transport.conversations) == 2
        follow_up = transport.conversations[1]
        assert follow_up[-2] == {"role": "assistant", "content": fenced(payload)}
        assert "fenced block is not valid JSON" in follow_up[-1]["content"]

    def test_transport_failure_exhausts_into_unavailable(self):
        transport = ScriptedTransport([ConnectionError("down")] * 3)
        agent = RemoteAgent("http://example", transport=transport)
        with pytest.raises(AgentUnavailableError):
            agent.propose_predicates(self.make_ctx(), k=3)

    @pytest.mark.parametrize(
        "error", [ConnectionResetError("reset by peer"), TimeoutError("timed out")]
    )
    def test_socket_errors_exhaust_into_unavailable(self, error):
        transport = ScriptedTransport([error] * 3)
        agent = RemoteAgent("http://example", transport=transport)
        with pytest.raises(AgentUnavailableError, match="transport failure"):
            agent.propose_predicates(self.make_ctx(), k=3)
        assert len(transport.conversations) == 3

    def test_programming_errors_are_not_retried_away(self):
        transport = ScriptedTransport([TypeError("bug in the transport")] * 3)
        agent = RemoteAgent("http://example", transport=transport)
        with pytest.raises(TypeError):
            agent.propose_predicates(self.make_ctx(), k=3)
        assert len(transport.conversations) == 1

    def test_multiple_fenced_blocks_rejected(self):
        reply = fenced('{"predicates": []}') + fenced('{"predicates": []}')
        transport = ScriptedTransport([reply] * 3)
        agent = RemoteAgent("http://example", transport=transport)
        with pytest.raises(AgentProtocolError, match="exactly one fenced block"):
            agent.propose_predicates(self.make_ctx(), k=3)

    def test_a_fenced_json_array_is_a_protocol_error(self):
        reply = fenced('[{"predicates": []}]')
        transport = ScriptedTransport([reply] * 3)
        agent = RemoteAgent("http://example", transport=transport)
        with pytest.raises(AgentProtocolError, match="fenced block must contain a JSON object"):
            agent.propose_predicates(self.make_ctx(), k=3)
        assert len(transport.conversations) == 3

    def test_a_non_string_proposal_is_a_protocol_error_naming_the_field(self):
        reply = fenced('{"predicates": ["any_text contains \\"退货\\"", 7]}')
        transport = ScriptedTransport([reply] * 3)
        agent = RemoteAgent("http://example", transport=transport)
        with pytest.raises(AgentProtocolError,
                           match="field 'predicates' must be an array of strings"):
            agent.propose_predicates(self.make_ctx(), k=3)
        assert "must be an array of strings" in transport.conversations[-1][-1]["content"]

    def test_rephrase_returns_reply_verbatim_modulo_surrounding_whitespace(self):
        transport = ScriptedTransport(["  请问如何退货？ \n"])
        agent = RemoteAgent("http://example", transport=transport)
        assert agent.rephrase("我要退货") == "请问如何退货？"

    def test_rephrase_empty_reply_is_a_protocol_error(self):
        transport = ScriptedTransport(["", "  ", "\n"])
        agent = RemoteAgent("http://example", transport=transport)
        with pytest.raises(AgentProtocolError, match="empty"):
            agent.rephrase("我要退货")

    def test_rephrase_reply_with_a_lone_surrogate_is_retried_with_the_error_echoed_back(self):
        transport = ScriptedTransport(["请问\ud800退货", "请问如何退货？"])
        agent = RemoteAgent("http://example", transport=transport)
        assert agent.rephrase("我要退货") == "请问如何退货？"
        assert len(transport.conversations) == 2
        assert "lone surrogate" in transport.conversations[1][-1]["content"]

    def test_zero_valid_proposals_is_not_an_error(self):
        transport = ScriptedTransport([fenced('{"predicates": ["junk"]}')])
        agent = RemoteAgent("http://example", transport=transport)
        assert agent.propose_predicates(self.make_ctx(), k=3) == []

    def test_each_call_sends_its_pinned_first_conversation(self):
        sample = intent_sample("a", "L", "我要退货", ocr_text="订单")
        ctx = AgentContext(
            task=Task.INTENT,
            label="L",
            exemplars=(sample,),
            validation=(sample, intent_sample("b", "M", "when ship?")),
            current=frozenset([contains("退货")]),
        )
        rule = make_rule(
            "r", "L", [contains("退货"), contains("ship", PredicateField.USER_TEXT)], 0.0,
            confidence=0.0,
        )
        transport = ScriptedTransport(
            [fenced('{"predicates": []}'), fenced('{"reward": 0.5, "confidence": 0.5}'), "退款"]
        )
        agent = RemoteAgent("http://example", transport=transport)
        agent.propose_predicates(ctx, k=3)
        agent.evaluate_rule(ctx, rule)
        agent.rephrase("我要退货")
        validation = (
            "Validation examples:\n"
            "- [L] user: 我要退货 / service_rep: ok | ocr: 订单\n"
            "- [M] user: when ship? / service_rep: ok | ocr: "
        )
        assert transport.conversations == [
            [
                {
                    "role": "system",
                    "content": (
                        "You grow keyword rules for labeling e-commerce dialogues. "
                        'A predicate has the form: <field> <op> "<value>" where field is '
                        "one of user_text, service_text, ocr_text, any_text and op is one "
                        "of contains, not_contains, starts_with, ends_with. Reply with "
                        'exactly one fenced JSON block: {"predicates": ["...", ...]}'
                    ),
                },
                {
                    "role": "user",
                    "content": (
                        "Target label: L (task: intent)\n"
                        'Current rule predicates: any_text contains "退货"\n'
                        "Labeled examples:\n"
                        "- [L] user: 我要退货 / service_rep: ok | ocr: 订单\n"
                        f"{validation}\n"
                        "Propose up to 3 new predicates that separate this label."
                    ),
                },
            ],
            [
                {
                    "role": "system",
                    "content": (
                        "You judge keyword rules for labeling e-commerce dialogues. "
                        "Estimate how accurate the rule is on the validation examples. "
                        "Reply with exactly one fenced JSON block: "
                        '{"reward": number, "confidence": number, "rationale": string} '
                        "with reward and confidence in [0, 1]."
                    ),
                },
                {
                    "role": "user",
                    "content": (
                        'Rule: IF any_text contains "退货" AND user_text contains "ship" '
                        "THEN label = L (task: intent)\n"
                        f"{validation}"
                    ),
                },
            ],
            [
                {
                    "role": "system",
                    "content": (
                        "Reword the user's message, preserving its meaning, language, "
                        "and intent. Reply with the reworded text only."
                    ),
                },
                {"role": "user", "content": "我要退货"},
            ],
        ]

    def test_prompts_list_eight_samples_per_section(self):
        corpus = [intent_sample(f"s{i}", "L", f"退货 {i}") for i in range(20)]
        ctx = make_context(corpus, "L")
        assert len(ctx.exemplars) == len(ctx.validation) == 20
        transport = ScriptedTransport(
            [fenced('{"predicates": []}'), fenced('{"reward": 0.5, "confidence": 0.5}')]
        )
        agent = RemoteAgent("http://example", transport=transport)
        agent.propose_predicates(ctx, k=3)
        agent.evaluate_rule(ctx, make_rule("r", "L", [contains("退货")], 0.0, confidence=0.0))
        propose, evaluate = (messages[-1]["content"] for messages in transport.conversations)

        def listed(prompt: str, heading: str) -> int:
            lines = prompt.split(f"{heading}:\n", 1)[1].splitlines()
            return len(list(itertools.takewhile(lambda line: line.startswith("- [L]"), lines)))

        assert listed(propose, "Labeled examples") == 8
        assert listed(propose, "Validation examples") == 8
        assert listed(evaluate, "Validation examples") == 8
