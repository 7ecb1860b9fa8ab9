"""The real HTTP transport, driven through a loopback endpoint."""

from __future__ import annotations

import base64
import json
import os
import socket
import sys
import threading
from unittest import mock

import pytest
from hypothesis import given, settings

from rulesmith import (
    AgentContext,
    AgentProtocolError,
    AgentUnavailableError,
    PredictorError,
    RemoteAgent,
    RemotePredictor,
    RewardEstimate,
    RuleBase,
    RuleBaseMetadata,
    Task,
    predict_batch,
)
from rulesmith.agents import AGENT_KEY_ENV, extract_fenced_json, http_chat_transport, structured_call
from rulesmith.errors import AgentError
from rulesmith.inference import PREDICTOR_KEY_ENV, PREFETCH
from _helpers import (
    RawReplyServer,
    ScriptedHTTPServer,
    chat_body,
    contains,
    intent_sample,
    make_rule,
    raw_replies,
    run_python,
    taxonomy_for,
)

TAX = taxonomy_for(["refund", "shipping"])
MESSAGES = [{"role": "user", "content": "hello"}]


@pytest.fixture(autouse=True)
def no_proxy_variables(monkeypatch):
    """A proxy from the environment must not see loopback calls."""
    for name in ("http_proxy", "https_proxy", "no_proxy", "all_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)


def judge_rule(url: str) -> RewardEstimate:
    agent = RemoteAgent(url)
    sample = intent_sample("s", "refund", "我要退货")
    ctx = AgentContext(
        task=Task.INTENT, label="refund", exemplars=(sample,), validation=(sample,)
    )
    rule = make_rule("r", "refund", [contains("退货")], 0.0, confidence=0.0)
    try:
        return agent.evaluate_rule(ctx, rule)
    finally:
        agent.close()


def classify(url: str) -> str:
    predictor = RemotePredictor(url, TAX)
    try:
        return predictor.predict(intent_sample("s", None, "我要退货"))
    finally:
        predictor.close()


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
def test_fenced_reply_parses(monkeypatch, caller):
    call, reply, expected, _ = CALLERS[caller]
    monkeypatch.setenv(AGENT_KEY_ENV, "agent-key")
    monkeypatch.setenv(PREDICTOR_KEY_ENV, "predictor-key")
    # HTTP/1.1 keeps the connection open until the client's close ends it.
    with ScriptedHTTPServer([(200, chat_body(f"Sure:\n{reply}\n"))], http11=True) as server:
        assert call(server.url) == expected
    [sent] = server.requests
    assert sent["model"] == "default"
    assert sent["messages"][0]["role"] == "system"
    [(method, path, headers, _)] = server.seen
    assert (method, path) == ("POST", "/v1/chat/completions")
    assert headers["Content-Type"] == "application/json"
    assert headers["Authorization"] == f"Bearer {caller}-key"


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
def test_bad_response_is_a_transport_failure_retried_to_the_budget(caller, status, body):
    call, _, _, error = CALLERS[caller]
    with ScriptedHTTPServer([(status, body)] * 4) as server:
        with pytest.raises(error, match="transport failure"):
            call(server.url)
    assert len(server.requests) == 3


@pytest.mark.parametrize("caller", CALLERS)
def test_reply_without_choices_is_retried_as_is_to_the_budget(caller):
    call = CALLERS[caller][0]
    error = {"agent": AgentProtocolError, "predictor": PredictorError}[caller]
    with ScriptedHTTPServer([(200, '{"id": "x"}')] * 4) as server:
        with pytest.raises(error, match=r"choices\[0\]\.message\.content"):
            call(server.url)
    assert len(server.requests) == 3
    # A malformed envelope carries no reply to echo back: every attempt
    # resends the first conversation unchanged.
    assert all(sent == server.requests[0] for sent in server.requests)


def test_reply_content_that_is_not_a_string_is_a_protocol_error():
    body = json.dumps({"choices": [{"message": {"role": "assistant", "content": ["refund"]}}]})
    with ScriptedHTTPServer([(200, body)]) as server:
        send = http_chat_transport(server.url)
        try:
            with pytest.raises(AgentProtocolError, match="reply content must be a string"):
                send(MESSAGES)
        finally:
            send.close()
    assert len(server.requests) == 1


def _client_ports(server: ScriptedHTTPServer) -> list[int]:
    return [port for *_, port in server.seen]


def test_calls_share_one_kept_alive_connection():
    with ScriptedHTTPServer([(200, chat_body("hi"))] * 5, http11=True) as server:
        send = http_chat_transport(server.url)
        assert [send(MESSAGES) for _ in range(5)] == ["hi"] * 5
        send.close()
    assert len(set(_client_ports(server))) == 1


def test_a_failure_closes_the_connection():
    replies = [(500, "internal error"), (200, chat_body("hi")), (200, chat_body("hi"))]
    with ScriptedHTTPServer(replies, http11=True) as server:
        send = http_chat_transport(server.url)
        with pytest.raises(ConnectionError, match="HTTP 500"):
            send(MESSAGES)
        assert [send(MESSAGES) for _ in range(2)] == ["hi"] * 2
        send.close()
    first, second, third = _client_ports(server)
    assert first != second == third


def test_a_connection_the_peer_closed_is_replaced_before_reuse():
    """The server closes after each reply without a ``Connection: close``."""
    replies = [(200, chat_body("hi"))] * 4
    with ScriptedHTTPServer(replies, http11=True, close_after_reply=True) as server:
        send = http_chat_transport(server.url)
        for _ in range(4):
            # A bare transport call: no retry loop could hide a spent attempt.
            assert send(MESSAGES) == "hi"
            assert server.closed.acquire(timeout=5)
        send.close()
    assert len(server.requests) == 4
    assert len(set(_client_ports(server))) == 4


def test_threads_sharing_a_transport_use_their_own_connections():
    both_in_flight = threading.Barrier(2, timeout=5)

    def echo(body):
        both_in_flight.wait()  # two requests at once cannot share one connection
        return 200, chat_body(body["messages"][-1]["content"])

    replies: dict[str, list[str]] = {}
    with ScriptedHTTPServer(echo, http11=True) as server:
        send = http_chat_transport(server.url)

        def ask(name: str) -> None:
            replies[name] = [
                send([{"role": "user", "content": f"{name}{i}"}]) for i in range(3)
            ]

        threads = [threading.Thread(target=ask, args=(name,)) for name in ("a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        send.close()
    assert replies == {"a": ["a0", "a1", "a2"], "b": ["b0", "b1", "b2"]}
    assert len(set(_client_ports(server))) == 2


def test_close_ends_every_threads_connection():
    with ScriptedHTTPServer([(200, chat_body("hi"))] * 4, http11=True) as server:
        send = http_chat_transport(server.url)
        asked, closed = threading.Event(), threading.Event()

        def ask_around_the_close() -> None:
            send(MESSAGES)
            asked.set()
            assert closed.wait(timeout=5)
            send(MESSAGES)

        worker = threading.Thread(target=ask_around_the_close)
        worker.start()
        send(MESSAGES)
        assert asked.wait(timeout=5)
        send.close()  # from the main thread, for the worker's connection too
        closed.set()
        send(MESSAGES)
        worker.join(timeout=10)
        assert not worker.is_alive()
        send.close()
    # Both threads reconnected after the close: four requests, four connections.
    assert len(server.requests) == 4
    assert len(set(_client_ports(server))) == 4


def test_a_prefetching_predictor_closes_every_workers_connection():
    samples = [intent_sample(f"s{i}", None, "我要退货") for i in range(3 * PREFETCH)]
    reply = chat_body('```json\n{"label": "refund"}\n```')
    with ScriptedHTTPServer(lambda body: (200, reply), http11=True) as server:
        predictor = RemotePredictor(server.url, TAX)
        try:
            result = predict_batch(
                RuleBase(rules=(), metadata=RuleBaseMetadata(created_at="x")), predictor, samples
            )
        finally:
            predictor.close()
    assert [p.label for p in result.predictions] == ["refund"] * len(samples)
    assert len(server.requests) == len(samples)
    # The worker threads kept their own connections alive; the CI step that
    # makes unclosed sockets errors checks that close ended them all.
    assert len(set(_client_ports(server))) > 1


def test_a_kept_alive_connection_on_a_high_descriptor_is_reused():
    resource = pytest.importorskip("resource")
    if resource.getrlimit(resource.RLIMIT_NOFILE)[0] < 2048:
        pytest.skip("needs at least 2048 open files")
    # Push the connection's descriptor past select()'s FD_SETSIZE of 1024.
    held = [open(os.devnull) for _ in range(1100)]
    try:
        with ScriptedHTTPServer([(200, chat_body("hi"))] * 2, http11=True) as server:
            send = http_chat_transport(server.url)
            try:
                assert [structured_call(send, "s", "u", str) for _ in range(2)] == ["hi"] * 2
            finally:
                send.close()
    finally:
        for handle in held:
            handle.close()
    assert len(server.requests) == 2
    assert len(set(_client_ports(server))) == 1


def test_any_raw_reply_ends_in_a_label_or_an_agent_error():
    """Whatever bytes the endpoint answers with, a structured call returns the
    label or raises an ``AgentError``, and ``close`` leaves no socket open."""
    opened: list[socket.socket] = []
    connect = socket.create_connection

    def recording_connect(*args, **kwargs):
        opened.append(connect(*args, **kwargs))
        return opened[-1]

    with RawReplyServer() as server, \
            mock.patch.object(socket, "create_connection", recording_connect):

        @settings(max_examples=100, deadline=None)
        @given(reply=raw_replies())
        def check(reply: bytes) -> None:
            server.reply = reply
            opened.clear()
            send = http_chat_transport(server.url, timeout=5)
            try:
                assert structured_call(send, "s", "u", extract_fenced_json) == {"label": "refund"}
            except AgentError:
                pass
            finally:
                send.close()
            assert opened and all(sock.fileno() == -1 for sock in opened)

        check()


@pytest.mark.parametrize("bypass", [False, True], ids=["proxied", "no-proxy"])
def test_http_proxy_comes_from_the_environment(monkeypatch, bypass):
    with ScriptedHTTPServer([(200, chat_body("hi"))]) as endpoint, \
            ScriptedHTTPServer([(200, chat_body("hi"))]) as proxy:
        proxy_root = proxy.url.removesuffix("/v1/chat/completions")
        monkeypatch.setenv("http_proxy", proxy_root.replace("://", "://user:p%40ss@"))
        if bypass:
            monkeypatch.setenv("no_proxy", "example.org, 127.0.0.1")
        assert http_chat_transport(endpoint.url)(MESSAGES) == "hi"
    if bypass:
        assert proxy.seen == []
        [(_, path, headers, _)] = endpoint.seen
        assert path == "/v1/chat/completions"
        assert "Proxy-Authorization" not in headers
    else:
        assert endpoint.seen == []
        [(_, path, headers, _)] = proxy.seen
        assert path == endpoint.url  # the absolute URI
        assert headers["Proxy-Authorization"] == "Basic " + base64.b64encode(b"user:p@ss").decode()


def test_https_through_a_proxy_asks_for_a_tunnel(monkeypatch):
    with ScriptedHTTPServer([]) as proxy:
        monkeypatch.setenv("https_proxy", proxy.url.removesuffix("/v1/chat/completions"))
        send = http_chat_transport("https://example.invalid/v1/chat/completions")
        with pytest.raises(OSError, match="Tunnel connection failed: 403"):
            send(MESSAGES)
    [(method, path, _, _)] = proxy.seen
    assert (method, path) == ("CONNECT", "example.invalid:443")


@pytest.mark.parametrize(
    "url",
    ["http://", "http://127.0.0.1:99999/v1", "http://127.0.0.1:abc/", "ftp://127.0.0.1/"],
    ids=["no-host", "port-out-of-range", "port-not-a-number", "not-http"],
)
def test_malformed_endpoint_is_refused_when_the_transport_is_built(url):
    with pytest.raises(ValueError):
        http_chat_transport(url)


def test_a_proxy_that_is_not_http_is_refused_when_the_transport_is_built(monkeypatch):
    monkeypatch.setenv("http_proxy", "socks5://127.0.0.1:1080")
    with pytest.raises(ValueError, match="http_proxy"):
        http_chat_transport("http://example.invalid/v1")


def test_a_transport_loads_no_third_party_module():
    with ScriptedHTTPServer([(200, chat_body("hi"))]) as server:
        out = run_python(
            "import sys\n"
            "bare = set(sys.modules)\n"
            "from rulesmith.agents import http_chat_transport\n"
            "reply = http_chat_transport(sys.argv[1])([{'role': 'user', 'content': 'x'}])\n"
            "print(reply, 'requests' in sys.modules, 'urllib3' in sys.modules)\n"
            "print(*sorted(set(sys.modules) - bare))\n",
            server.url,
        )
    first, added = out.splitlines()
    assert first.split() == ["hi", "False", "False"]
    foreign = [
        name for name in added.split()
        if name.split(".")[0] not in sys.stdlib_module_names | {"rulesmith"}
    ]
    assert not foreign, f"a transport loads third-party modules: {foreign}"
