"""Rule matching, arbitration, and batch prediction with pluggable classifiers."""

from __future__ import annotations

import json
import sys
import threading
import time
import zlib
from types import SimpleNamespace

import pytest

from rulesmith import (
    ABSTAIN_LABEL,
    LabelTaxonomy,
    Prediction,
    PredictionFileError,
    PredictionSource,
    PredictorError,
    RemotePredictor,
    RuleBase,
    RuleBaseMetadata,
    RulesmithError,
    StubPredictor,
    Task,
    arbitrate,
    load_predictions,
    predict_batch,
    save_predictions,
)
from rulesmith.agents import RETRIES, _stable_rng
from rulesmith.inference import FAILURE_BUDGET, PREFETCH
from _helpers import (
    ScriptedTransport,
    build_planted_corpus,
    contains,
    eval_rule,
    intent_sample,
    make_rule,
    planted_token,
    python_process,
    scene_sample,
)

TAX = LabelTaxonomy(
    intent=("refund", "shipping", "invoice"), image_scene=("receipt", "tracking")
)
META = RuleBaseMetadata(created_at="2025-11-04T00:00:00+00:00")


def base_of(*rules):
    return RuleBase(rules=tuple(rules), metadata=META)


EMPTY_BASE = base_of()


def predict_one(base, sample):
    """``predict_batch``'s prediction for one sample when any fired rule may
    override the classifier."""
    result = predict_batch(base, StubPredictor(TAX, accuracy=1.0), [sample], override_threshold=0.0)
    return result.predictions[0]


class TestMatchRules:
    """Which fired rule answers: only the strongest reaches any output."""

    def test_empty_rule_base(self):
        prediction = predict_one(EMPTY_BASE, intent_sample("s", "refund", "anything"))
        assert prediction.fired_rule_id is None
        assert prediction.source is PredictionSource.PREDICTOR
        assert prediction.label == "refund"

    def test_ordered_by_reward_descending(self):
        low = make_rule("low", "refund", [contains("x")], 0.85)
        high = make_rule("high", "shipping", [contains("x")], 0.9)
        prediction = predict_one(base_of(low, high), intent_sample("s", None, "x marks"))
        assert prediction.fired_rule_id == "high"

    def test_equal_rewards_break_ties_by_specificity(self):
        small = make_rule("small", "refund", [contains("x"), contains("y")], 0.9)
        big = make_rule(
            "big", "shipping", [contains("x"), contains("y"), contains("z")], 0.9
        )
        prediction = predict_one(base_of(small, big), intent_sample("s", None, "x y z"))
        assert prediction.fired_rule_id == "big"

    def test_equal_everything_breaks_ties_by_id(self):
        a = make_rule("aaa", "refund", [contains("x")], 0.9)
        b = make_rule("bbb", "shipping", [contains("x")], 0.9)
        prediction = predict_one(base_of(b, a), intent_sample("s", None, "x"))
        assert prediction.fired_rule_id == "aaa"

    def test_other_task_rules_never_fire(self):
        scene_rule = make_rule(
            "sc", "receipt", [contains("x")], 0.9, task=Task.IMAGE_SCENE
        )
        prediction = predict_one(base_of(scene_rule), intent_sample("s", None, "x"))
        assert prediction.fired_rule_id is None


class TestArbitrate:
    def test_no_fired_rules_falls_back_to_predictor(self):
        p = arbitrate(None, "refund", sample_id="s")
        assert p.label == "refund"
        assert p.source is PredictionSource.PREDICTOR
        assert p.fired_rule_id is None
        assert p.predictor_label == "refund"

    def test_strong_rule_overrides_disagreeing_predictor(self):
        rule = make_rule("r", "shipping", [contains("x")], 0.95)
        p = arbitrate(rule, "refund", sample_id="s")
        assert p.label == "shipping"
        assert p.source is PredictionSource.RULE
        assert p.fired_rule_id == "r"
        assert p.predictor_label == "refund"

    def test_weak_rule_leaves_predictor_in_charge(self):
        rule = make_rule("r", "shipping", [contains("x")], 0.7)
        p = arbitrate(rule, "refund", sample_id="s", override_threshold=0.8)
        assert p.label == "refund"
        assert p.source is PredictionSource.PREDICTOR

    def test_threshold_boundary_overrides(self):
        rule = make_rule("r", "shipping", [contains("x")], 0.8)
        p = arbitrate(rule, "refund", sample_id="s", override_threshold=0.8)
        assert p.source is PredictionSource.RULE

    def test_failed_predictor_lets_a_weak_rule_answer(self):
        rule = make_rule("r", "shipping", [contains("x")], 0.5)
        p = arbitrate(rule, None, sample_id="s", override_threshold=0.8)
        assert p.label == "shipping"
        assert p.source is PredictionSource.RULE
        assert p.fired_rule_id == "r"
        assert p.predictor_label == ABSTAIN_LABEL

    def test_failed_predictor_without_fired_rules_abstains(self):
        p = arbitrate(None, None, sample_id="s")
        assert p.label == ABSTAIN_LABEL
        assert p.source is PredictionSource.PREDICTOR
        assert p.fired_rule_id is None
        assert p.predictor_label == ABSTAIN_LABEL

    def test_rule_prediction_requires_rule_id(self):
        with pytest.raises(ValueError):
            Prediction(
                sample_id="s",
                label="x",
                source=PredictionSource.RULE,
                fired_rule_id=None,
                predictor_label="x",
            )


class PerfectPredictor:
    def predict(self, sample):
        return sample.gold_label


class FailingPredictor:
    def predict(self, sample):
        raise PredictorError("offline")


class TestPredictBatch:
    def corpus(self, seed=0):
        return build_planted_corpus(
            ["refund", "shipping", "invoice"], per_label=20, seed=seed
        )

    def test_empty_base_with_perfect_stub_reproduces_gold(self):
        corpus = self.corpus()
        result = predict_batch(EMPTY_BASE, PerfectPredictor(), corpus)
        assert [p.label for p in result.predictions] == [s.gold_label for s in corpus]
        assert result.report.from_rules == 0

    def test_empty_base_is_identical_to_the_predictor_alone(self):
        corpus = self.corpus()
        stub = StubPredictor(TAX, accuracy=0.7, seed=11)
        result = predict_batch(EMPTY_BASE, stub, corpus)
        assert [p.label for p in result.predictions] == [stub.predict(s) for s in corpus]
        assert all(p.source is PredictionSource.PREDICTOR for p in result.predictions)

    def test_always_firing_full_reward_rule_overrides_everything(self):
        corpus = self.corpus()
        rule = make_rule("all", "refund", [contains("e")], 1.0)
        assert all(eval_rule(rule, s) for s in corpus)  # really fires everywhere
        result = predict_batch(base_of(rule), StubPredictor(TAX, 0.5, seed=3), corpus)
        assert all(p.label == "refund" for p in result.predictions)
        assert all(p.source is PredictionSource.RULE for p in result.predictions)

    def test_planted_rules_lift_a_weak_predictor(self):
        corpus = self.corpus(seed=5)
        rules = [
            make_rule(f"r-{label}", label, [contains(planted_token(label))], 1.0)
            for label in ("refund", "shipping", "invoice")
        ]
        stub = StubPredictor(TAX, accuracy=0.7, seed=5)
        plain = predict_batch(EMPTY_BASE, stub, corpus)
        boosted = predict_batch(base_of(*rules), stub, corpus)
        gold = [s.gold_label for s in corpus]

        def accuracy(predictions):
            return sum(p.label == g for p, g in zip(predictions, gold)) / len(gold)

        assert accuracy(boosted.predictions) > accuracy(plain.predictions)
        assert accuracy(boosted.predictions) == 1.0  # planted rules cover everything

    def test_adding_a_perfect_trusted_rule_never_hurts(self):
        corpus = self.corpus(seed=9)
        stub = StubPredictor(TAX, accuracy=0.6, seed=9)
        gold = [s.gold_label for s in corpus]
        rule = make_rule("good", "refund", [contains(planted_token("refund"))], 1.0)
        before = predict_batch(EMPTY_BASE, stub, corpus)
        after = predict_batch(base_of(rule), stub, corpus)

        def accuracy(result):
            return sum(p.label == g for p, g in zip(result.predictions, gold)) / len(gold)

        assert accuracy(after) >= accuracy(before)

    def test_labels_stay_inside_the_task_taxonomy(self):
        corpus = self.corpus(seed=2)
        rules = [
            make_rule(f"r-{label}", label, [contains(planted_token(label))], 1.0)
            for label in ("refund", "shipping")
        ]
        result = predict_batch(base_of(*rules), StubPredictor(TAX, 0.4, seed=2), corpus)
        for prediction in result.predictions:
            assert prediction.label in TAX.intent

    def test_predictor_failure_falls_back_to_fired_rule_below_threshold(self):
        sample = intent_sample("s", "refund", planted_token("refund"))
        weak_rule = make_rule(
            "weak", "refund", [contains(planted_token("refund"))], 0.5
        )
        result = predict_batch(base_of(weak_rule), FailingPredictor(), [sample])
        [p] = result.predictions
        assert p.label == "refund"
        assert p.source is PredictionSource.RULE
        assert p.predictor_label == ABSTAIN_LABEL
        assert result.report.rule_fallbacks == 1

    def test_predictor_failure_without_rules_abstains(self):
        sample = intent_sample("s", "refund", "nothing fires")
        result = predict_batch(EMPTY_BASE, FailingPredictor(), [sample])
        [p] = result.predictions
        assert p.label == ABSTAIN_LABEL
        assert result.report.abstained == 1

    def test_failures_beyond_the_budget_abort_the_batch(self):
        corpus = self.corpus()
        result = predict_batch(EMPTY_BASE, FailingPredictor(), corpus[:3])
        assert result.report.predictor_failures == 3
        assert result.report.abstained == 3
        with pytest.raises(PredictorError, match="failure budget of 3"):
            predict_batch(EMPTY_BASE, FailingPredictor(), corpus[:4])

    def test_input_order_is_preserved(self):
        corpus = self.corpus(seed=4)
        result = predict_batch(EMPTY_BASE, PerfectPredictor(), corpus)
        assert [p.sample_id for p in result.predictions] == [s.id for s in corpus]


class TestStubPredictor:
    def test_deterministic_and_order_independent(self):
        corpus = build_planted_corpus(["refund", "shipping"], per_label=10, seed=1)
        stub = StubPredictor(TAX, accuracy=0.7, seed=42)
        forward = [stub.predict(s) for s in corpus]
        backward = [stub.predict(s) for s in reversed(corpus)]
        assert forward == list(reversed(backward))

    def test_accuracy_is_roughly_honored(self):
        corpus = build_planted_corpus(["refund", "shipping"], per_label=200, seed=1)
        stub = StubPredictor(TAX, accuracy=0.7, seed=0)
        hits = sum(stub.predict(s) == s.gold_label for s in corpus)
        assert 0.6 < hits / len(corpus) < 0.8

    def test_a_task_without_labels_is_a_predictor_error(self):
        stub = StubPredictor(LabelTaxonomy(intent=("refund",), image_scene=()), accuracy=0.5)
        with pytest.raises(PredictorError, match="no labels configured for task image_scene"):
            stub.predict(scene_sample("s", None, "发票"))

    @pytest.mark.parametrize(
        "taxonomy",
        [TAX, LabelTaxonomy(intent=("refund",), image_scene=("receipt", "tracking"))],
        ids=["several-labels", "gold-label-alone"],
    )
    def test_a_miss_draws_from_the_list_of_wrong_labels(self, taxonomy):
        """A miss picks ``wrong[rng.randrange(len(wrong))]``, where ``wrong``
        is the task's labels without the gold one, or all of them when that
        leaves none; labels are drawn for no gold label too."""
        corpus = [intent_sample(f"i{i}", label, "x") for i, label in
                  enumerate(list(taxonomy.intent) * 20 + [None] * 20)]
        corpus += [scene_sample(f"s{i}", label, "x") for i, label in
                   enumerate(list(taxonomy.image_scene) * 20 + [None] * 20)]
        stub = StubPredictor(taxonomy, accuracy=0.3, seed=5)
        for sample in corpus:
            labels = taxonomy.labels_for(sample.task)
            rng = _stable_rng(5, sample.id)
            if sample.gold_label is not None and rng.random() < 0.3:
                expected = sample.gold_label
            else:
                wrong = [l for l in labels if l != sample.gold_label] or list(labels)
                expected = wrong[rng.randrange(len(wrong))]
            assert stub.predict(sample) == expected

    def test_labels_come_from_the_task_taxonomy(self):
        corpus = build_planted_corpus(["refund"], per_label=30, seed=1)
        stub = StubPredictor(TAX, accuracy=0.0, seed=0)
        for s in corpus:
            label = stub.predict(s)
            assert label in TAX.intent
            assert label != s.gold_label  # accuracy 0 always misses


class TestRemotePredictor:
    def test_valid_label_accepted(self):
        transport = lambda messages: '```json\n{"label": "refund"}\n```'
        predictor = RemotePredictor("http://example", TAX, transport=transport)
        assert predictor.predict(intent_sample("s", None, "x")) == "refund"

    def test_out_of_taxonomy_label_fails_after_retries(self):
        transport = lambda messages: '```json\n{"label": "nonsense"}\n```'
        predictor = RemotePredictor("http://example", TAX, transport=transport)
        with pytest.raises(PredictorError, match="nonsense"):
            predictor.predict(intent_sample("s", None, "x"))

    def test_malformed_reply_is_retried_with_the_error_echoed_back(self):
        conversations = []

        def transport(messages):
            # Answers properly only once the previous message echoes the error.
            conversations.append(messages)
            echoed = (
                len(messages) > 2
                and messages[-2]["role"] == "assistant"
                and messages[-1]["content"].startswith("Your reply was invalid")
            )
            return '```json\n{"label": "refund"}\n```' if echoed else "It is a refund."

        predictor = RemotePredictor("http://example", TAX, transport=transport)
        assert predictor.predict(intent_sample("s", None, "x")) == "refund"
        assert len(conversations) == 2
        assert conversations[1][:2] == conversations[0]

    def test_first_request_is_pinned(self):
        transport = ScriptedTransport(['```json\n{"label": "refund"}\n```'])
        predictor = RemotePredictor("http://example", TAX, transport=transport)
        predictor.predict(intent_sample("s", "refund", "我要退货", ocr_text="订单"))
        assert transport.conversations == [
            [
                {
                    "role": "system",
                    "content": (
                        "Classify the sample into exactly one of the allowed labels. "
                        'Reply with exactly one fenced JSON block: {"label": "..."}'
                    ),
                },
                {
                    "role": "user",
                    "content": (
                        "Allowed labels: refund, shipping, invoice\n"
                        'Sample: {"id": "s", "task": "intent", "turns": '
                        '[{"speaker": "user", "text": "我要退货"}, '
                        '{"speaker": "service_rep", "text": "ok"}], '
                        '"ocr_text": "订单", "image_ref": null}'
                    ),
                },
            ]
        ]

    def test_transport_failure_becomes_a_predictor_error(self):
        def transport(messages):
            raise ConnectionError("down")

        predictor = RemotePredictor("http://example", TAX, transport=transport)
        with pytest.raises(PredictorError, match="down"):
            predictor.predict(intent_sample("s", None, "x"))

    def test_programming_errors_are_not_retried_away(self):
        calls = []

        def transport(messages):
            calls.append(messages)
            raise TypeError("bug in the transport")

        predictor = RemotePredictor("http://example", TAX, transport=transport)
        with pytest.raises(TypeError):
            predictor.predict(intent_sample("s", None, "x"))
        assert len(calls) == 1


class ThreadedClassifier:
    """A scripted classifier endpoint that worker threads may share.

    It reads the sample id from each request and answers with a label fixed
    by the id. Ids in ``malformed`` get an unparseable first reply; an id in
    ``failures`` has that many of its requests raise ``ConnectionError``
    first. With ``gate``, every request waits for it. ``sent`` records each
    request as (sample id, calling thread, messages); ``peak`` is the most
    requests that were in flight at once.
    """

    LABELS = ("refund", "shipping", "invoice")

    def __init__(self, *, malformed=(), failures=None, gate=None):
        self.malformed = set(malformed)
        self.failures = dict(failures or {})
        self.gate = gate
        self.sent = []
        self.in_flight = self.peak = 0
        self._lock = threading.Lock()

    def __call__(self, messages):
        sample_id = json.loads(messages[1]["content"].split("Sample: ", 1)[1])["id"]
        with self._lock:
            self.sent.append((sample_id, threading.get_ident(), messages))
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
            fail = self.failures.get(sample_id, 0) > 0
            if fail:
                self.failures[sample_id] -= 1
        try:
            if self.gate is not None and not self.gate.wait(timeout=10):
                raise TimeoutError("the gate never opened")
            if fail:
                raise ConnectionError(f"{sample_id} is unreachable")
            if sample_id in self.malformed and len(messages) == 2:
                return "It is a refund."
            label = self.LABELS[zlib.crc32(sample_id.encode()) % len(self.LABELS)]
            return f'```json\n{{"label": "{label}"}}\n```'
        finally:
            with self._lock:
                self.in_flight -= 1

    def requests_for(self, sample_id):
        """(calling thread, messages) of each request about one sample, in order."""
        return [(thread, messages) for sid, thread, messages in self.sent if sid == sample_id]


PREFETCH_CORPUS = build_planted_corpus(["refund", "shipping", "invoice"], per_label=20, seed=6)
PREFETCH_BASE = base_of(
    make_rule("r-refund", "refund", [contains(planted_token("refund"))], 0.9),
    make_rule("r-shipping", "shipping", [contains(planted_token("shipping"))], 0.9),
)


def run_remote(transport, *, serial=False, samples=PREFETCH_CORPUS):
    """``predict_batch`` with a ``RemotePredictor`` over ``transport``; with
    ``serial``, the batch sees only its ``predict`` and cannot prefetch."""
    predictor = RemotePredictor("http://example", TAX, transport=transport)
    try:
        target = SimpleNamespace(predict=predictor.predict) if serial else predictor
        return predict_batch(PREFETCH_BASE, target, samples)
    finally:
        predictor.close()


class TestPrefetch:
    """A remote classifier's calls, retries included, run ahead on a pool, and
    the batch still behaves as the serial calls do."""

    def test_predictions_report_and_requests_equal_the_serial_run(self):
        script = {
            "malformed": {"refund-003", "invoice-010"},
            "failures": {"shipping-005": 1, "refund-011": RETRIES, "invoice-002": RETRIES},
        }
        serial, prefetched = ThreadedClassifier(**script), ThreadedClassifier(**script)
        expected = run_remote(serial, serial=True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            assert run_remote(prefetched) == expected
        finally:
            sys.setswitchinterval(interval)
        assert expected.report.predictor_failures == 2
        assert 0 < expected.report.from_rules < expected.report.total
        for sample in PREFETCH_CORPUS:
            sent = [messages for _, messages in prefetched.requests_for(sample.id)]
            assert sent == [messages for _, messages in serial.requests_for(sample.id)]

    def test_every_predict_call_stays_on_the_callers_thread(self):
        calls = []

        class Recorded(RemotePredictor):
            def predict(self, sample):
                calls.append((threading.get_ident(), len(transport.sent)))
                return super().predict(sample)

        transport = ThreadedClassifier()
        predictor = Recorded("http://example", TAX, transport=transport)
        try:
            predict_batch(PREFETCH_BASE, predictor, PREFETCH_CORPUS)
        finally:
            predictor.close()
        caller = threading.get_ident()
        assert [thread for thread, _ in calls] == [caller] * len(PREFETCH_CORPUS)
        # Every request was a prefetched first attempt, sent from a worker
        # thread, and at most 2 * PREFETCH samples ahead of the caller.
        assert len(transport.sent) == len(PREFETCH_CORPUS)
        assert caller not in {thread for _, thread, _ in transport.sent}
        assert all(sent <= i + 2 * PREFETCH for i, (_, sent) in enumerate(calls))

    def test_a_malformed_first_reply_is_echoed_back_on_the_same_worker(self):
        transport = ThreadedClassifier(malformed={"refund-003"})
        run_remote(transport)
        [(first_thread, first), (retry_thread, retry)] = transport.requests_for("refund-003")
        assert first_thread == retry_thread != threading.get_ident()
        assert retry[:2] == first
        assert retry[2] == {"role": "assistant", "content": "It is a refund."}
        assert retry[3]["content"].startswith("Your reply was invalid")

    def test_a_failure_on_a_worker_is_logged_to_stderr_in_a_fresh_interpreter(self):
        """No handler is configured, so the warning reaches stderr through
        ``logging``'s last resort, from the worker that retried the call."""
        done = python_process(
            "import threading\n"
            "from rulesmith import (DialogueSample, LabelTaxonomy, RemotePredictor, RuleBase,\n"
            "                       Speaker, Task, Turn, predict_batch)\n"
            "samples = [DialogueSample(f's{i}', Task.INTENT, (Turn(Speaker.USER, 'hi'),), '',\n"
            "                          'refund') for i in range(4)]\n"
            "failed_on = []\n"
            "def transport(messages):\n"
            "    if '\"s0\"' in messages[1]['content'] and not failed_on:\n"
            "        failed_on.append(threading.current_thread().name)\n"
            "        raise ConnectionError('the endpoint is down')\n"
            "    return '```json\\n{\"label\": \"refund\"}\\n```'\n"
            "taxonomy = LabelTaxonomy(intent=('refund',), image_scene=())\n"
            "predictor = RemotePredictor('http://example', taxonomy, transport=transport)\n"
            "try:\n"
            "    result = predict_batch(RuleBase.build([]), predictor, samples)\n"
            "finally:\n"
            "    predictor.close()\n"
            "print(*failed_on, result.report.predictor_failures)\n"
        )
        assert done.returncode == 0, done.stderr
        [worker, failures] = done.stdout.split()
        assert worker.startswith("rulesmith-predict_") and failures == "0"
        assert done.stderr == "transport failure (attempt 1): the endpoint is down\n"

    @pytest.mark.parametrize("failures", [1, RETRIES], ids=["once", "every-attempt"])
    def test_a_failed_prefetched_attempt_counts_as_attempt_one(self, failures):
        transport = ThreadedClassifier(failures={"refund-003": failures})
        result = run_remote(transport)
        sent = transport.requests_for("refund-003")
        assert len(sent) == min(failures + 1, RETRIES)
        [worker] = {thread for thread, _ in sent}  # the whole call ran on one worker
        assert worker != threading.get_ident()
        assert all(messages == sent[0][1] for _, messages in sent)  # resent unchanged
        assert result.report.predictor_failures == (failures == RETRIES)

    def test_the_failure_budget_aborts_at_the_same_sample_as_the_serial_code(self):
        failing = [PREFETCH_CORPUS[i].id for i in (3, 17, 31, 44, 52)]
        errors = []
        for serial in (True, False):
            transport = ThreadedClassifier(failures={sample_id: RETRIES for sample_id in failing})
            with pytest.raises(PredictorError, match="failure budget") as caught:
                run_remote(transport, serial=serial)
            errors.append(str(caught.value))
        assert errors[0] == errors[1]
        assert repr(failing[FAILURE_BUDGET]) in errors[1]

    def test_a_blocking_transport_never_has_more_than_twice_prefetch_in_flight(self):
        gate = threading.Event()
        transport = ThreadedClassifier(gate=gate)

        def open_the_gate():
            deadline = time.monotonic() + 10
            while transport.in_flight < PREFETCH and time.monotonic() < deadline:
                time.sleep(0.005)
            time.sleep(0.1)  # time for requests beyond the bound to arrive
            gate.set()

        opener = threading.Thread(target=open_the_gate)
        opener.start()
        try:
            run_remote(transport)
        finally:
            gate.set()
            opener.join(timeout=10)
        assert not opener.is_alive()
        assert 1 < transport.peak <= 2 * PREFETCH

    @pytest.mark.parametrize("aborted", [False, True], ids=["finished", "aborted"])
    def test_close_ends_the_worker_threads(self, aborted):
        before = set(threading.enumerate())
        failing = PREFETCH_CORPUS[: FAILURE_BUDGET + 1] if aborted else []
        transport = ThreadedClassifier(failures={sample.id: RETRIES for sample in failing})
        predictor = RemotePredictor("http://example", TAX, transport=transport)
        try:
            if aborted:
                with pytest.raises(PredictorError, match="failure budget"):
                    predict_batch(PREFETCH_BASE, predictor, PREFETCH_CORPUS)
            else:
                predict_batch(PREFETCH_BASE, predictor, PREFETCH_CORPUS)
            assert set(threading.enumerate()) - before  # the pool's threads
        finally:
            predictor.close()
        assert not set(threading.enumerate()) - before


class TestPredictionFiles:
    def test_round_trip(self, tmp_path):
        predictions = [
            Prediction("a", "refund", PredictionSource.PREDICTOR, None, "refund"),
            Prediction("b", "shipping", PredictionSource.RULE, "r1", "refund"),
        ]
        path = tmp_path / "preds.jsonl"
        save_predictions(predictions, path)
        assert load_predictions(path) == predictions

    @pytest.mark.parametrize(
        "source, fired_rule_id",
        [("rule", 5), ("rule", ""), ("rule", None), ("predictor", "r9")],
        ids=["rule-number", "rule-empty", "rule-null", "predictor-with-rule"],
    )
    def test_fired_rule_id_must_match_the_source(self, tmp_path, source, fired_rule_id):
        path = tmp_path / "preds.jsonl"
        path.write_text(json.dumps({
            "id": "a", "label": "refund", "source": source,
            "fired_rule_id": fired_rule_id, "predictor_label": "refund",
        }) + "\n", encoding="utf-8")
        with pytest.raises(RulesmithError, match="line 1: malformed record"):
            load_predictions(path)

    @pytest.mark.parametrize("key", ["id", "label", "fired_rule_id", "predictor_label"])
    def test_a_lone_surrogate_in_any_string_field_is_refused(self, tmp_path, key):
        record = {"id": "a", "label": "refund", "source": "rule",
                  "fired_rule_id": "r1", "predictor_label": "refund"}
        record[key] += "\ud800"
        path = tmp_path / "preds.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(PredictionFileError, match=f"line 1: .*'{key}'.*lone surrogates"):
            load_predictions(path)

    def test_byte_identical_given_fixed_inputs(self, tmp_path):
        corpus = build_planted_corpus(["refund", "shipping"], per_label=10, seed=3)
        rule = make_rule("r", "refund", [contains(planted_token("refund"))], 0.9)
        stub = StubPredictor(TAX, accuracy=0.7, seed=3)
        paths = []
        for run in range(2):
            result = predict_batch(base_of(rule), stub, corpus)
            path = tmp_path / f"run{run}.jsonl"
            save_predictions(result.predictions, path)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]
