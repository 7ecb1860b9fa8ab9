"""Predicate DSL grammar, evaluation semantics, and rule quality measurement."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulesmith import (
    Predicate,
    PredicateField,
    PredicateOp,
    PredicateSyntaxError,
    RuleQuality,
    RuleSource,
    SampleIndex,
    eval_predicate,
    measure_rule,
    parse_predicate,
    render_predicate,
)
from _helpers import contains, intent_sample, make_rule, scene_sample


FIELDS = "one of any_text, ocr_text, service_text, user_text"
ESCAPES = r'`\"` or `\\`'
ANY_CONTAINS_X = Predicate(PredicateField.ANY_TEXT, PredicateOp.CONTAINS, "x")

# Each input with what parsing it gives: the predicate, or the message, byte
# offset and expected token of the syntax error. Spaces and tabs may stand
# before, between and after the tokens, and the quote needs none before it.
OUTCOMES = [
    ('any_text contains "ab\\', ("dangling backslash", 21, ESCAPES)),
    ("", ("expected an identifier", 0, "a field name")),
    ("   ", ("expected an identifier", 3, "a field name")),
    ('1user_text contains "x"', ("expected an identifier", 0, "a field name")),
    ('any_text 9contains "x"', ("expected an identifier", 9, "an operator")),
    ("any_text", ("expected an identifier", 8, "an operator")),
    ('\tany_text\tcontains\t"x"\t', ANY_CONTAINS_X),
    ('any_text\tincludes\t"x"', (
        "unknown op 'includes'", 9, "one of contains, ends_with, not_contains, starts_with")),
    ('any_text contains"x"', ANY_CONTAINS_X),
    ('bødy_text contains "x"', ("unknown field 'bødy_text'", 0, FIELDS)),
    ('退款 contains "x"', ("unknown field '退款'", 0, FIELDS)),
    ('any_text contains "é" ünknown', (
        "unexpected trailing input 'ünknown'", 23, "end of input")),
    ('any_text contains \t ""', ("empty value", 17, "a non-empty value")),
    ('any_text contains \t "' + "x" * 129 + '"', (
        "value longer than 128 characters", 17, "at most 128 characters")),
    ("any_text contains", ("expected opening quote", 17, "a double-quoted value")),
    ("any_text contains 'x'", ("expected opening quote", 18, "a double-quoted value")),
]


class TestParse:
    @pytest.mark.parametrize(("text", "outcome"), OUTCOMES)
    def test_outcome_table(self, text, outcome):
        if isinstance(outcome, tuple):
            message, offset, expected = outcome
            outcome = (f"{message} (byte offset {offset}, expected {expected})", offset, expected)
        try:
            parsed = parse_predicate(text)
        except PredicateSyntaxError as error:
            parsed = (str(error), error.offset, error.expected)
        assert parsed == outcome

    def test_ocr_contains_example(self):
        p = parse_predicate('ocr_text contains "物流"')
        assert p == Predicate(PredicateField.OCR_TEXT, PredicateOp.CONTAINS, "物流")

    def test_user_starts_with_example(self):
        p = parse_predicate('user_text starts_with "退款"')
        assert p == Predicate(PredicateField.USER_TEXT, PredicateOp.STARTS_WITH, "退款")

    def test_unknown_op_names_it(self):
        with pytest.raises(PredicateSyntaxError, match="includes"):
            parse_predicate('ocr_text includes "x"')

    def test_unknown_field_names_it(self):
        with pytest.raises(PredicateSyntaxError, match="body_text"):
            parse_predicate('body_text contains "x"')

    def test_missing_quotes_reports_offset_and_expectation(self):
        with pytest.raises(PredicateSyntaxError) as exc_info:
            parse_predicate("ocr_text contains 物流")
        assert exc_info.value.offset == len("ocr_text contains ".encode())
        assert "quoted" in exc_info.value.expected

    def test_unterminated_value(self):
        with pytest.raises(PredicateSyntaxError, match="unterminated"):
            parse_predicate('ocr_text contains "abc')

    def test_invalid_escape_rejected(self):
        with pytest.raises(PredicateSyntaxError, match="invalid escape"):
            parse_predicate(r'ocr_text contains "a\nb"')

    def test_trailing_garbage_rejected(self):
        with pytest.raises(PredicateSyntaxError, match="trailing"):
            parse_predicate('ocr_text contains "a" extra')

    def test_empty_value_rejected(self):
        with pytest.raises(PredicateSyntaxError, match="empty value"):
            parse_predicate('ocr_text contains ""')

    def test_value_length_cap(self):
        long_value = "x" * 129
        with pytest.raises(PredicateSyntaxError, match="128"):
            parse_predicate(f'ocr_text contains "{long_value}"')
        with pytest.raises(ValueError):
            Predicate(PredicateField.OCR_TEXT, PredicateOp.CONTAINS, long_value)

    def test_lone_surrogate_value_rejected(self):
        with pytest.raises(PredicateSyntaxError, match="lone surrogate"):
            parse_predicate('any_text contains "a\ud800"')

    def test_offsets_count_a_lone_surrogate_as_three_bytes(self):
        with pytest.raises(PredicateSyntaxError, match="trailing") as exc_info:
            parse_predicate('any_text contains "\ud800" junk')
        assert exc_info.value.offset == len('any_text contains "'.encode()) + 3 + 2

    @given(
        head=st.sampled_from(["", 'any_text contains "', 'ocr_text ends_with "', "any_text "]),
        body=st.text(
            st.sampled_from(["\ud800", "\udfff", "a", "退", " "]) | st.characters(exclude_categories=()),
            max_size=12,
        ),
        tail=st.sampled_from(["", '"', '" junk', '\\']),
    )
    @settings(max_examples=300)
    def test_any_text_parses_or_raises_a_syntax_error(self, head, body, tail):
        try:
            p = parse_predicate(head + body + tail)
        except PredicateSyntaxError:
            return
        p.value.encode("utf-8")  # whatever parses can be written out

    def test_escapes_round_trip(self):
        p = Predicate(PredicateField.ANY_TEXT, PredicateOp.CONTAINS, 'a"b\\c')
        assert parse_predicate(render_predicate(p)) == p

    @given(
        field=st.sampled_from(list(PredicateField)),
        op=st.sampled_from(list(PredicateOp)),
        value=st.text(min_size=1, max_size=128),
    )
    @settings(max_examples=300)
    def test_parse_render_identity(self, field, op, value):
        p = Predicate(field=field, op=op, value=value)
        assert parse_predicate(render_predicate(p)) == p


class TestEvalPredicate:
    sample = intent_sample("s", "refund", "xxabcz", service_text="service words")

    def test_contains_substring(self):
        s = scene_sample("o", "receipt", "xxabcz")
        assert eval_predicate(contains("abc", PredicateField.OCR_TEXT), s) is True

    def test_not_contains_is_negation(self):
        s = scene_sample("o", "receipt", "xxabcz")
        p = Predicate(PredicateField.OCR_TEXT, PredicateOp.NOT_CONTAINS, "abc")
        assert eval_predicate(p, s) is False

    def test_case_folding_matches(self):
        s = scene_sample("o", "receipt", "abc")
        assert eval_predicate(contains("ABC", PredicateField.OCR_TEXT), s) is True

    def test_nfkc_fullwidth_matches(self):
        # Full-width characters normalize to their ASCII counterparts.
        s = scene_sample("o", "receipt", "ＡＢＣ１２３")
        assert eval_predicate(contains("abc123", PredicateField.OCR_TEXT), s) is True

    def test_user_text_joins_turns_with_newline(self):
        sample = intent_sample("s", "refund", "first line")
        p = Predicate(PredicateField.USER_TEXT, PredicateOp.STARTS_WITH, "first")
        assert eval_predicate(p, sample) is True
        p_ends = Predicate(PredicateField.USER_TEXT, PredicateOp.ENDS_WITH, "line")
        assert eval_predicate(p_ends, sample) is True

    def test_any_text_sees_all_fields(self):
        sample = intent_sample("s", "refund", "user words", service_text="rep words", ocr_text="ocr words")
        for needle in ("user", "rep", "ocr"):
            assert eval_predicate(contains(needle), sample) is True

    def test_service_text_excludes_user_turns(self):
        sample = intent_sample("s", "refund", "usertoken", service_text="reptoken")
        p = contains("usertoken", PredicateField.SERVICE_TEXT)
        assert eval_predicate(p, sample) is False

    @given(
        haystack=st.text(max_size=40),
        value=st.text(min_size=1, max_size=10),
    )
    @settings(max_examples=300)
    def test_not_contains_always_negates_contains(self, haystack, value):
        s = intent_sample("s", "refund", haystack)
        yes = Predicate(PredicateField.ANY_TEXT, PredicateOp.CONTAINS, value)
        no = Predicate(PredicateField.ANY_TEXT, PredicateOp.NOT_CONTAINS, value)
        assert eval_predicate(no, s) == (not eval_predicate(yes, s))


def fired_ids(rule, corpus) -> set[str]:
    """The ids of the samples on which the rule fires, from its index bitset."""
    mask = SampleIndex(corpus).rule_mask(rule)
    return {s.id for i, s in enumerate(corpus) if mask >> i & 1}


class TestEvalRule:
    corpus = [
        intent_sample(f"s{i}", "refund", text)
        for i, text in enumerate(
            ["alpha beta", "alpha", "beta gamma", "alpha beta gamma", "delta"] * 4
        )
    ]

    def test_conjunction_of_trues(self):
        rule = make_rule("r", "refund", [contains("alpha"), contains("beta")], 0.9)
        assert fired_ids(rule, [intent_sample("x", "refund", "alpha beta")]) == {"x"}

    def test_single_false_kills_conjunction(self):
        rule = make_rule(
            "r", "refund", [contains("alpha"), contains("beta"), contains("zeta")], 0.9
        )
        assert fired_ids(rule, [intent_sample("x", "refund", "alpha beta")]) == set()

    def test_rule_matches_intersection_of_predicate_match_sets(self):
        preds = [contains("alpha"), contains("beta")]
        rule = make_rule("r", "refund", preds, 0.9)
        fired = fired_ids(rule, self.corpus)
        per_predicate = [
            {s.id for s in self.corpus if eval_predicate(p, s)} for p in preds
        ]
        assert fired == per_predicate[0] & per_predicate[1]

    def test_adding_a_predicate_never_enlarges_the_match_set(self):
        rng = random.Random(42)
        vocabulary = ["alpha", "beta", "gamma", "delta"]
        for _ in range(50):
            base_preds = {contains(w) for w in rng.sample(vocabulary, k=rng.randint(1, 2))}
            extra = contains(rng.choice(vocabulary))
            base = make_rule("base", "refund", base_preds, 0.5)
            extended = make_rule("ext", "refund", base_preds | {extra}, 0.5)
            base_match = fired_ids(base, self.corpus)
            ext_match = fired_ids(extended, self.corpus)
            assert ext_match <= base_match


class TestRuleInvariants:
    def test_predicate_count_bounds(self):
        preds = [contains(f"w{i}") for i in range(6)]
        with pytest.raises(ValueError, match="1..5"):
            make_rule("r", "refund", preds, 0.9)
        with pytest.raises(ValueError, match="1..5"):
            make_rule("r", "refund", [], 0.9)

    def test_reward_and_confidence_ranges(self):
        with pytest.raises(ValueError, match="reward"):
            make_rule("r", "refund", [contains("x")], 1.2)
        with pytest.raises(ValueError, match="confidence"):
            make_rule("r", "refund", [contains("x")], 0.5, confidence=-0.1)

    def test_identical_predicates_collapse(self):
        rule = make_rule("r", "refund", [contains("x"), contains("x")], 0.5)
        assert len(rule.predicates) == 1

    def test_source_values(self):
        assert RuleSource("mcts") is RuleSource.MCTS
        assert RuleSource("manual") is RuleSource.MANUAL


class TestMeasureRule:
    def build_corpus(self):
        # 10 samples: 4 contain "hit" (3 refund, 1 shipping), 6 do not.
        corpus = [
            intent_sample("m0", "refund", "hit one"),
            intent_sample("m1", "refund", "hit two"),
            intent_sample("m2", "refund", "hit three"),
            intent_sample("m3", "shipping", "hit four"),
            intent_sample("m4", "shipping", "miss"),
            intent_sample("m5", "shipping", "miss"),
            intent_sample("m6", "refund", "miss"),
            intent_sample("m7", "refund", "miss"),
            intent_sample("m8", "shipping", "miss"),
            intent_sample("m9", "shipping", "miss"),
        ]
        return corpus

    def test_matching_nothing_flags_undefined_precision(self):
        rule = make_rule("r", "refund", [contains("absent")], 0.9)
        quality = measure_rule(rule, self.build_corpus())
        assert quality.coverage == 0
        assert quality.correct == 0
        assert quality.precision is None

    def test_three_of_four_matches_gives_point_75(self):
        rule = make_rule("r", "refund", [contains("hit")], 0.9)
        quality = measure_rule(rule, self.build_corpus())
        assert quality.coverage == 4
        assert quality.correct == 3
        assert quality.precision == 0.75

    def test_perfect_rule(self):
        corpus = self.build_corpus()
        rule = make_rule("r", "refund", [contains("one")], 0.9)
        quality = measure_rule(rule, corpus)
        assert quality.coverage == 1
        assert quality.precision == 1.0

    def test_other_task_samples_are_ignored(self):
        corpus = self.build_corpus() + [scene_sample("z", "receipt", "hit")]
        rule = make_rule("r", "refund", [contains("hit")], 0.9)
        assert measure_rule(rule, corpus).coverage == 4

    def test_equals_naive_double_loop_recount(self):
        rng = random.Random(0)
        vocabulary = ["alpha", "beta", "gamma", "delta", "epsilon"]
        corpus = [
            intent_sample(
                f"s{i}",
                rng.choice(["refund", "shipping"]),
                " ".join(rng.sample(vocabulary, k=3)),
            )
            for i in range(1000)
        ]
        for trial in range(20):
            preds = {contains(w) for w in rng.sample(vocabulary, k=rng.randint(1, 3))}
            rule = make_rule(f"r{trial}", rng.choice(["refund", "shipping"]), preds, 0.5)
            quality = measure_rule(rule, corpus)
            coverage = correct = 0
            for s in corpus:
                if s.task is not rule.task:
                    continue
                if all(eval_predicate(p, s) for p in rule.predicates):
                    coverage += 1
                    if s.gold_label == rule.label:
                        correct += 1
            assert (quality.coverage, quality.correct) == (coverage, correct)
            expected = correct / coverage if coverage else None
            assert quality.precision == expected

    def test_quality_invariant(self):
        with pytest.raises(ValueError):
            RuleQuality(coverage=1, correct=2, precision=1.0)
