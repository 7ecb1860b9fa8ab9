"""The real HTTP transport, driven through a loopback endpoint."""

from __future__ import annotations

import pytest
import requests

from rulesmith import (
    AgentContext,
    AgentProtocolError,
    AgentUnavailableError,
    PredictorError,
    RemoteAgent,
    RemotePredictor,
    RewardEstimate,
    Task,
)
from rulesmith.agents import http_chat_transport
from _helpers import (
    ScriptedHTTPServer,
    chat_body,
    contains,
    intent_sample,
    make_rule,
    run_python,
    taxonomy_for,
)

TAX = taxonomy_for(["refund", "shipping"])


@pytest.fixture
def session():
    http = requests.Session()
    http.trust_env = False  # a proxy from the environment must not see loopback calls
    yield http
    http.close()


def judge_rule(url: str, session: requests.Session) -> RewardEstimate:
    agent = RemoteAgent(url, transport=http_chat_transport(url, session=session))
    sample = intent_sample("s", "refund", "我要退货")
    ctx = AgentContext(
        task=Task.INTENT, label="refund", exemplars=(sample,), validation=(sample,)
    )
    rule = make_rule("r", "refund", [contains("退货")], 0.0, confidence=0.0)
    return agent.evaluate_rule(ctx, rule)


def classify(url: str, session: requests.Session) -> str:
    predictor = RemotePredictor(url, TAX, transport=http_chat_transport(url, session=session))
    return predictor.predict(intent_sample("s", None, "我要退货"))


CALLERS = {
    "agent": (
        judge_rule,
        '```json\n{"reward": 0.9, "confidence": 0.8, "rationale": "ok"}\n```',
        RewardEstimate(reward=0.9, confidence=0.8, rationale="ok"),
        AgentUnavailableError,
    ),
    "predictor": (classify, '```json\n{"label": "refund"}\n```', "refund", PredictorError),
}


@pytest.mark.parametrize("caller", CALLERS)
def test_fenced_reply_parses(session, caller):
    call, reply, expected, _ = CALLERS[caller]
    with ScriptedHTTPServer([(200, chat_body(f"Sure:\n{reply}\n"))]) as server:
        assert call(server.url, session) == expected
    [sent] = server.requests
    assert sent["model"] == "default"
    assert sent["messages"][0]["role"] == "system"


@pytest.mark.parametrize(
    "status, body",
    [
        (500, "internal error"),
        (200, "not json"),
        (200, "[" * 100_000 + "]" * 100_000),
        (200, "1" * 5001),
    ],
    ids=["http-500", "non-json", "too-deep-json", "over-long-integer"],
)
@pytest.mark.parametrize("caller", CALLERS)
def test_bad_response_is_a_transport_failure_retried_to_the_budget(
    session, caller, status, body
):
    call, _, _, error = CALLERS[caller]
    with ScriptedHTTPServer([(status, body)] * 4) as server:
        with pytest.raises(error, match="transport failure"):
            call(server.url, session)
    assert len(server.requests) == 3


@pytest.mark.parametrize("caller", CALLERS)
def test_reply_without_choices_is_retried_as_is_to_the_budget(session, caller):
    call = CALLERS[caller][0]
    error = {"agent": AgentProtocolError, "predictor": PredictorError}[caller]
    with ScriptedHTTPServer([(200, '{"id": "x"}')] * 4) as server:
        with pytest.raises(error, match=r"choices\[0\]\.message\.content"):
            call(server.url, session)
    assert len(server.requests) == 3
    # A malformed envelope carries no reply to echo back: every attempt
    # resends the first conversation unchanged.
    assert all(sent == server.requests[0] for sent in server.requests)


def test_requests_is_imported_only_when_a_transport_is_built():
    out = run_python(
        "import sys\n"
        "import rulesmith.inference\n"
        "from rulesmith.agents import http_chat_transport\n"
        "before = 'requests' in sys.modules\n"
        "http_chat_transport('http://127.0.0.1:9/')\n"
        "print(before, 'requests' in sys.modules)\n"
    )
    assert out.split() == ["False", "True"]
