"""Pluggable agents: propose predicates, self-assess rules, rephrase text.

Two implementations share one interface. ``MockAgent`` is fully
deterministic: it mines candidate tokens from a reference corpus and scores
rules against the validation examples it is handed, so induction runs are
reproducible bit for bit. ``RemoteAgent`` talks to a chat-completions style
endpoint and expects each reply to carry exactly one fenced JSON block.
"""

from __future__ import annotations

import json
import os
import random
import re
from collections import Counter
from typing import Callable, Iterable, Iterator, NamedTuple, Protocol, Sequence, TypeVar

from .dataset import DialogueSample, Fields, Task, encodable
from .errors import (AgentError, AgentProtocolError, AgentUnavailableError, ArgumentError,
                     PredicateSyntaxError, check_ratio, checked_tuple)
from .predicate import (
    Predicate,
    PredicateField,
    PredicateOp,
    Rule,
    extract_field_text,
    measure_rule,
    normalize_text,
    parse_predicate,
    render_predicate,
)


def _logger():
    # Imported on first use, so that stages with nothing to log do not load
    # ``logging``.
    import logging

    return logging.getLogger(__name__)


AGENT_KEY_ENV = "RULESMITH_AGENT_KEY"
DEFAULT_TIMEOUT = 30.0
# Attempts per structured call, for the agent and the classifier alike.
RETRIES = 3
# Samples listed per prompt section, of exemplars and of validation.
PROMPT_SAMPLES = 8


class RewardEstimate(checked_tuple("RewardEstimate", "reward confidence rationale")):
    """An agent's self-assessment of a rule: reward, confidence, rationale."""

    __slots__ = ()

    def __new__(cls, reward: float, confidence: float, rationale: str = "") -> RewardEstimate:
        if not 0.0 <= reward <= 1.0:
            raise ValueError(f"reward {reward} outside [0, 1]")
        if not 0.0 <= confidence <= 1.0:
            raise ValueError(f"confidence {confidence} outside [0, 1]")
        return super().__new__(cls, reward, confidence, rationale)


class AgentContext(NamedTuple):
    """Everything an agent sees when proposing or judging a rule."""

    task: Task
    label: str
    exemplars: tuple[DialogueSample, ...]
    # Often a ``SampleIndex``, so that scoring reuses its compiled bitsets.
    validation: Sequence[DialogueSample]
    current: frozenset[Predicate] = frozenset()


class Agent(Protocol):
    def propose_predicates(self, ctx: AgentContext, k: int) -> list[Predicate]: ...

    def evaluate_rule(self, ctx: AgentContext, rule: Rule) -> RewardEstimate: ...

    def rephrase(self, text: str) -> str: ...


# --- tokenization shared by the mock agent and test oracles -----------------

_WORD_RE = re.compile(r"\w+", re.UNICODE)

# CJK ideographs. ``tokenize`` compiles them on first use, through re's own
# cache: building this class's charmap takes milliseconds, which stages that
# never tokenize should not pay at import.
_CJK = "[\u3400-\u9fff\uf900-\ufaff]"

# Tokens above this length never make useful keyword predicates.
MAX_TOKEN_LENGTH = 64


def tokenize(text: str) -> set[str]:
    """Candidate keyword tokens of a text: word runs, plus 2/3-grams of CJK runs."""

    tokens: set[str] = set()
    cjk = re.compile(_CJK)
    for run in _WORD_RE.findall(normalize_text(text)):
        if cjk.search(run):
            if len(run) <= 2:
                tokens.add(run)
            for n in (2, 3):
                for i in range(len(run) - n + 1):
                    tokens.add(run[i : i + n])
        else:
            tokens.add(run)
    return tokens


def sample_tokens(sample: DialogueSample) -> frozenset[str]:
    return frozenset(tokenize(extract_field_text(sample, PredicateField.ANY_TEXT)))


def _stable_rng(*parts: object) -> random.Random:
    import hashlib  # only the mock agent's noise and the stub predictor take digests

    digest = hashlib.sha256("|".join(str(p) for p in parts).encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def rule_key(rule: Rule) -> str:
    preds = ",".join(render_predicate(p) for p in rule.sorted_predicates())
    return f"{rule.task.value}|{rule.label}|{preds}"


def _rank_tokens(corpus: Sequence[DialogueSample]) -> dict[tuple[Task, str | None], list[str]]:
    """Per (task, gold label), from one pass over the corpus, the tokens of
    the label's samples by a smoothed ratio of their share of the label's
    samples to their share of the task's other samples, highest first; ties
    go to the higher in-label share, then to the token."""

    sizes: Counter[tuple[Task, str | None]] = Counter()
    in_label: dict[tuple[Task, str | None], Counter[str]] = {}
    in_task: dict[Task, Counter[str]] = {}
    for sample in corpus:
        key = (sample.task, sample.gold_label)
        tokens = sample_tokens(sample)
        sizes[key] += 1
        in_label.setdefault(key, Counter()).update(tokens)
        in_task.setdefault(sample.task, Counter()).update(tokens)
    ranked: dict[tuple[Task, str | None], list[str]] = {}
    for (task, label), hits_by_token in in_label.items():
        positives = sizes[task, label]
        negatives = sum(n for (t, _), n in sizes.items() if t is task) - positives
        smoothing = 1.0 / (2 * max(1, negatives))
        scored: list[tuple[float, float, str]] = []
        for token, hits in hits_by_token.items():
            if len(token) > MAX_TOKEN_LENGTH:
                continue
            p_pos = hits / positives
            p_neg = (in_task[task][token] - hits) / negatives if negatives else 0.0
            scored.append((-p_pos / (p_neg + smoothing), -p_pos, token))
        ranked[task, label] = [token for _, _, token in sorted(scored)]
    return ranked


def _new_proposals(candidates: Iterable[Predicate], ctx: AgentContext, k: int) -> list[Predicate]:
    """The first ``k`` of ``candidates`` that are not in ``ctx.current``,
    each once. No candidate after the k-th is drawn, and none at all for a
    ``k`` below 1, which is an error."""

    if k < 1:
        raise ValueError("k must be >= 1")
    taken = set(ctx.current)
    proposals: list[Predicate] = []
    for candidate in candidates:
        if candidate not in taken:
            proposals.append(candidate)
            taken.add(candidate)
            if len(proposals) == k:
                break
    return proposals


class MockAgent:
    """Deterministic stand-in for a remote model.

    Proposals come from per-label token mining over the reference corpus:
    tokens are ranked by how much more often they appear in same-label
    samples than in the rest (a smoothed frequency ratio), every label's at
    once on the first proposal. Rule rewards are the measured precision on
    the context's validation examples, optionally perturbed by seeded noise;
    confidence grows with coverage, saturating at coverage 10.
    """

    def __init__(
        self,
        corpus: Sequence[DialogueSample],
        seed: int = 0,
        *,
        noise: float = 0.05,
    ) -> None:
        self.noise = check_ratio("noise", noise)
        self.corpus = tuple(corpus)
        self.seed = seed
        self._ranked: dict[tuple[Task, str | None], list[str]] | None = None

    def propose_predicates(self, ctx: AgentContext, k: int) -> list[Predicate]:
        if self._ranked is None:
            self._ranked = _rank_tokens(self.corpus)
        tokens = self._ranked.get((ctx.task, ctx.label), ())
        contains = (Predicate(PredicateField.ANY_TEXT, PredicateOp.CONTAINS, t) for t in tokens)
        return _new_proposals(contains, ctx, k)

    def evaluate_rule(self, ctx: AgentContext, rule: Rule) -> RewardEstimate:
        quality = measure_rule(rule, ctx.validation)
        base = quality.precision if quality.precision is not None else 0.0
        reward = base
        if self.noise > 0.0:
            rng = _stable_rng(self.seed, rule_key(rule))
            reward = min(1.0, max(0.0, base + rng.uniform(-self.noise, self.noise)))
        confidence = min(1.0, quality.coverage / 10)
        return RewardEstimate(
            reward=reward,
            confidence=confidence,
            rationale=f"oracle precision {quality.correct}/{quality.coverage}",
        )

    def rephrase(self, text: str) -> str:
        return text


# --- remote agent ------------------------------------------------------------

Transport = Callable[[list[dict[str, str]]], str]

T = TypeVar("T")

_FENCE_RE = re.compile(r"```(?:[A-Za-z0-9_-]*)\n(.*?)```", re.DOTALL)


def extract_fenced_json(content: str) -> dict:
    """Pull the single fenced JSON object out of a chat reply."""

    blocks = _FENCE_RE.findall(content)
    if len(blocks) != 1:
        raise AgentProtocolError(
            f"reply must contain exactly one fenced block, found {len(blocks)}"
        )
    try:
        payload = json.loads(blocks[0])
    except (ValueError, RecursionError) as exc:  # also an integer past the digit limit, or too deep
        detail = getattr(exc, "msg", exc)  # JSONDecodeError's message without its position
        raise AgentProtocolError(f"fenced block is not valid JSON: {detail}") from None
    if not isinstance(payload, dict):
        raise AgentProtocolError("fenced block must contain a JSON object")
    return payload


def _checked_ratio(fields: Fields, key: str) -> float:
    value = fields.number(key)
    if not 0.0 <= value <= 1.0:
        raise fields.fail(key, f"out of range [0, 1]: {value!r}")
    return value


def http_chat_transport(
    endpoint: str,
    *,
    model: str = "default",
    timeout: float = DEFAULT_TIMEOUT,
    api_key_env: str = AGENT_KEY_ENV,
) -> Transport:
    """POST messages to a chat-completions endpoint, return the reply text.

    The URL and the proxy are checked and resolved here, once: a malformed
    URL or proxy raises ``ArgumentError`` before any request is sent, as does
    an ``api_key_env`` key that is not printable ASCII. The proxy comes
    from ``http_proxy``/``https_proxy`` unless ``no_proxy`` covers the host.
    Each thread keeps one kept-alive connection, replaced after any failure
    and, before reuse, once the peer has closed it. A status outside 2xx
    (redirects included), a broken HTTP exchange or a body that is not JSON
    raises an ``OSError``, which ``structured_call`` retries. The returned
    callable's ``close`` closes every thread's connection. The HTTP
    modules are imported here rather than at module level, so that runs
    with the mock agent and the stub predictor never load them.
    """

    import base64
    import http.client
    import select
    import ssl
    import threading
    import urllib.parse

    # The messages name the setting, not its value, which may hold a password.
    def split(name: str, text: str) -> tuple[urllib.parse.SplitResult, int | None]:
        if any(c <= " " or c == "\x7f" for c in text):  # http.client refuses them
            raise ArgumentError(f"{name} holds a space or control character")
        try:  # the port is None when absent
            parts = urllib.parse.urlsplit(text)
            return parts, parts.port
        except ValueError as exc:  # a broken IPv6 literal, or a port not a number in range
            raise ArgumentError(f"{name}: {exc}") from None

    url, port = split("endpoint", endpoint)
    if url.scheme not in ("http", "https") or not url.hostname:
        raise ArgumentError(f"endpoint must be an http(s):// URL with a host, got {endpoint!r}")
    host = url.hostname
    target = (url.path or "/") + (f"?{url.query}" if url.query else "")
    tls = ssl.create_default_context() if url.scheme == "https" else None
    proxy_headers: dict[str, str] = {}
    tunnel = None
    proxy = None
    # urllib.request, and the hashlib it loads, only when a variable can name a proxy.
    if any(value and name.lower() == f"{url.scheme}_proxy" for name, value in os.environ.items()):
        import urllib.request

        proxies = urllib.request.getproxies_environment()
        proxy = proxies.get(url.scheme)
        if proxy and urllib.request.proxy_bypass_environment(
            host if port is None else f"{host}:{port}", proxies
        ):
            proxy = None
    if proxy:
        via, via_port = split(f"{url.scheme}_proxy", proxy if "://" in proxy else f"http://{proxy}")
        if via.scheme != "http" or not via.hostname:
            shown = via._replace(netloc=via.netloc.rpartition("@")[2]).geturl()  # no userinfo
            raise ArgumentError(f"{url.scheme}_proxy must be an http:// URL, got {shown!r}")
        if via.username is not None:
            user, password = (urllib.parse.unquote(v or "") for v in (via.username, via.password))
            token = base64.b64encode(f"{user}:{password}".encode("utf-8")).decode("ascii")
            proxy_headers["Proxy-Authorization"] = f"Basic {token}"
        if tls is not None:  # HTTPS: a CONNECT tunnel through the proxy
            tunnel = (host, port)
        else:  # HTTP: the proxy takes the absolute URI
            target = f"http://{url.netloc}{target}"
        host, port = via.hostname, via_port or 80
    local = threading.local()
    # Every thread's connection, for ``close``: a threading.local cannot be enumerated.
    opened: list[http.client.HTTPConnection] = []
    lock = threading.Lock()

    def connection() -> http.client.HTTPConnection:
        conn = getattr(local, "conn", None)
        if conn is None:
            if tls is None:
                conn = http.client.HTTPConnection(host, port, timeout=timeout)
            else:
                conn = http.client.HTTPSConnection(host, port, timeout=timeout, context=tls)
            if tunnel is not None:
                conn.set_tunnel(*tunnel, headers=proxy_headers)
            local.conn = conn
            with lock:
                opened.append(conn)
        elif conn.sock is not None:
            # An idle socket is readable only once the peer has closed it
            # (or sent what no request asked for): reconnect, spending no attempt.
            # poll, unlike select, takes a descriptor past FD_SETSIZE (1024).
            idle = select.poll()
            idle.register(conn.sock, select.POLLIN)
            if idle.poll(0):
                conn.close()
        return conn

    def send(messages: list[dict[str, str]]) -> str:
        headers = {"Content-Type": "application/json"}
        if tunnel is None:
            headers.update(proxy_headers)
        key = os.environ.get(api_key_env)
        if key:
            # http.client refuses such a header with the key in its message.
            if not (key.isascii() and key.isprintable()):
                raise ArgumentError(f"{api_key_env} must be printable ASCII")
            headers["Authorization"] = f"Bearer {key}"
        payload = json.dumps({"model": model, "messages": messages}).encode("utf-8")
        conn = connection()
        try:
            conn.request("POST", target, payload, headers)
            # Closed here: a reply that ends the connection holds its socket.
            with conn.getresponse() as response:
                # In pieces, so that a huge declared size costs no allocation
                # of that size: the peer's close ends it as an IncompleteRead.
                raw = b"".join(iter(lambda: response.read(1 << 16), b""))
                if response.length:  # the peer closed before the declared end
                    raise http.client.IncompleteRead(raw, response.length)
            if not 200 <= response.status < 300:
                raise ConnectionError(f"HTTP {response.status} {response.reason} from {endpoint}")
            body = json.loads(raw)
        # ValueError and RecursionError: a body too deep, an over-long
        # integer, or a header value http.client refuses to send.
        except (OSError, http.client.HTTPException, ValueError, RecursionError) as exc:
            conn.close()  # the next attempt opens a fresh connection
            if isinstance(exc, OSError):
                raise
            raise ConnectionError(
                f"bad reply from {endpoint}: {type(exc).__name__}: {exc}"
            ) from None
        try:
            content = body["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError):
            raise AgentProtocolError("endpoint reply missing choices[0].message.content") from None
        if not isinstance(content, str):
            raise AgentProtocolError("endpoint reply content must be a string")
        return content

    def close() -> None:
        with lock:
            for conn in opened:
                conn.close()

    # A function attribute, so that wrappers made with functools.wraps keep it.
    send.close = close  # type: ignore[attr-defined]
    return send


def close_connections(holder: object) -> None:
    """Close the connections ``holder`` keeps, through its ``close``. A holder
    without one, such as a mock agent or a scripted transport, keeps none."""
    close = getattr(holder, "close", None)
    if close is not None:
        close()


def structured_call(send: Transport, system: str, user: str, parse: Callable[[str], T]) -> T:
    """Send a system and a user message until ``parse`` accepts the reply,
    at most ``RETRIES`` times.

    This is the one place that builds a chat conversation, for the agent
    and the classifier alike: the system message, then the user message. A
    reply that ``parse`` rejects with ``AgentProtocolError`` is retried with
    that reply appended as an assistant turn and the parse error as a user
    turn; a transport failure is retried with the conversation unchanged. A
    transport failure is any ``OSError``: socket errors, timeouts, and what
    ``http_chat_transport`` raises for HTTP error statuses, broken responses
    and undecodable bodies. Once the budget is spent the last error is
    raised: ``AgentProtocolError`` for an invalid reply,
    ``AgentUnavailableError`` for a transport failure.
    """

    last_error: AgentError  # RETRIES >= 1, so the loop always sets it
    conversation = [{"role": "system", "content": system}, {"role": "user", "content": user}]
    for attempt in range(1, RETRIES + 1):
        try:
            content = send(conversation)
        except OSError as exc:  # http_chat_transport's failures are OSErrors
            last_error = AgentUnavailableError(f"transport failure: {exc}")
            _logger().warning("transport failure (attempt %d): %s", attempt, exc)
            continue
        except AgentProtocolError as exc:  # the endpoint's reply envelope was malformed
            last_error = exc
            _logger().warning("reply envelope invalid (attempt %d): %s", attempt, exc)
            continue
        try:
            return parse(content)
        except AgentProtocolError as exc:
            last_error = exc
            _logger().warning("reply payload invalid (attempt %d): %s", attempt, exc)
            conversation = conversation + [
                {"role": "assistant", "content": content},
                {
                    "role": "user",
                    "content": (
                        f"Your reply was invalid: {exc}. Answer again with "
                        "exactly one fenced JSON block in the required schema."
                    ),
                },
            ]
    raise last_error


def _format_samples(samples: Sequence[DialogueSample]) -> str:
    lines = []
    for sample in samples[:PROMPT_SAMPLES]:
        dialogue = " / ".join(f"{t.speaker.value}: {t.text}" for t in sample.turns)
        lines.append(f"- [{sample.gold_label}] {dialogue} | ocr: {sample.ocr_text}")
    return "\n".join(lines)


class RemoteAgent:
    """Agent backed by a remote chat endpoint.

    Every structured call demands exactly one fenced JSON block in the
    reply; malformed replies are retried with the parse error echoed back,
    and transport failures are retried as-is. After the retry budget the
    call fails loudly rather than degrading silently.
    """

    def __init__(self, endpoint: str, *, transport: Transport | None = None) -> None:
        self.dropped_proposals = 0
        self._transport = transport or http_chat_transport(endpoint)

    def close(self) -> None:
        close_connections(self._transport)

    def propose_predicates(self, ctx: AgentContext, k: int) -> list[Predicate]:
        current = ", ".join(sorted(render_predicate(p) for p in ctx.current)) or "(none)"
        system = (
            "You grow keyword rules for labeling e-commerce dialogues. "
            "A predicate has the form: <field> <op> \"<value>\" where field is "
            "one of user_text, service_text, ocr_text, any_text and op is one "
            "of contains, not_contains, starts_with, ends_with. Reply with "
            'exactly one fenced JSON block: {"predicates": ["...", ...]}'
        )
        user = (
            f"Target label: {ctx.label} (task: {ctx.task.value})\n"
            f"Current rule predicates: {current}\n"
            f"Labeled examples:\n{_format_samples(ctx.exemplars)}\n"
            f"Validation examples:\n{_format_samples(ctx.validation)}\n"
            f"Propose up to {k} new predicates that separate this label."
        )

        def parse(content: str) -> list[str]:
            fields = Fields(extract_fenced_json(content), AgentProtocolError)
            raw = fields.array("predicates")
            # Not ``fields.texts``: an entry that does not parse, a lone
            # surrogate included, is dropped below rather than failing the reply.
            if not all(isinstance(x, str) for x in raw):
                raise fields.fail("predicates", "must be an array of strings")
            return raw

        def parsed() -> Iterator[Predicate]:
            # Lazily: entries after the k-th new one are never parsed.
            for text in structured_call(self._transport, system, user, parse):
                try:
                    candidate = parse_predicate(text)
                except PredicateSyntaxError as exc:  # unparseable proposals are dropped
                    self.dropped_proposals += 1
                    _logger().info("dropping unparseable proposal %r: %s", text, exc)
                    continue
                yield candidate

        return _new_proposals(parsed(), ctx, k)

    def evaluate_rule(self, ctx: AgentContext, rule: Rule) -> RewardEstimate:
        predicates = " AND ".join(render_predicate(p) for p in rule.sorted_predicates())
        system = (
            "You judge keyword rules for labeling e-commerce dialogues. "
            "Estimate how accurate the rule is on the validation examples. "
            "Reply with exactly one fenced JSON block: "
            '{"reward": number, "confidence": number, "rationale": string} '
            "with reward and confidence in [0, 1]."
        )
        user = (
            f"Rule: IF {predicates} THEN label = {rule.label} "
            f"(task: {rule.task.value})\n"
            f"Validation examples:\n{_format_samples(ctx.validation)}"
        )

        def parse(content: str) -> RewardEstimate:
            fields = Fields(extract_fenced_json(content), AgentProtocolError)
            return RewardEstimate(
                reward=_checked_ratio(fields, "reward"),
                confidence=_checked_ratio(fields, "confidence"),
                rationale=fields.text("rationale", default=""),
            )

        return structured_call(self._transport, system, user, parse)

    def rephrase(self, text: str) -> str:
        system = (
            "Reword the user's message, preserving its meaning, language, "
            "and intent. Reply with the reworded text only."
        )

        def parse(content: str) -> str:
            reply = content.strip()
            if not reply:
                raise AgentProtocolError("rephrase reply is empty")
            if not encodable(reply):
                raise AgentProtocolError("rephrase reply holds a lone surrogate")
            return reply

        return structured_call(self._transport, system, text, parse)
