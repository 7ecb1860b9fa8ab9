"""Shared corpus builders and independent oracles used across the test suite."""

from __future__ import annotations

import json
import os
import random
import socket
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer
from pathlib import Path

from hypothesis import strategies as st

import rulesmith
from rulesmith import (
    DialogueSample,
    LabelTaxonomy,
    Predicate,
    PredicateField,
    PredicateOp,
    Rule,
    RuleSource,
    Speaker,
    Task,
    Turn,
    eval_predicate,
)

BACKGROUND_VOCAB = [
    "order", "help", "please", "item", "account", "thanks", "check",
    "number", "today", "status", "open", "page", "detail", "question",
]


def intent_sample(
    sample_id: str,
    label: str | None,
    user_text: str,
    service_text: str = "ok",
    ocr_text: str = "",
) -> DialogueSample:
    return DialogueSample(
        id=sample_id,
        task=Task.INTENT,
        turns=(
            Turn(Speaker.USER, user_text),
            Turn(Speaker.SERVICE_REP, service_text),
        ),
        ocr_text=ocr_text,
        gold_label=label,
    )


def scene_sample(sample_id: str, label: str | None, ocr_text: str) -> DialogueSample:
    return DialogueSample(
        id=sample_id,
        task=Task.IMAGE_SCENE,
        turns=(),
        ocr_text=ocr_text,
        gold_label=label,
    )


def planted_token(label: str) -> str:
    return f"planted{label}"


def build_planted_corpus(
    labels: list[str],
    per_label: int,
    seed: int,
    *,
    plant_fraction: float = 1.0,
) -> list[DialogueSample]:
    """Intent corpus where each label has its own giveaway token.

    The token appears in ``plant_fraction`` of that label's samples and in
    no sample of any other label; the rest of the text is shared
    background vocabulary.
    """

    rng = random.Random(seed)
    samples: list[DialogueSample] = []
    for label in labels:
        n_planted = round(plant_fraction * per_label)
        for i in range(per_label):
            words = rng.sample(BACKGROUND_VOCAB, k=4)
            if i < n_planted:
                words.insert(rng.randrange(len(words) + 1), planted_token(label))
            samples.append(
                intent_sample(
                    f"{label}-{i:03d}",
                    label,
                    " ".join(words),
                    service_text=" ".join(rng.sample(BACKGROUND_VOCAB, k=3)),
                )
            )
    return samples


def build_two_task_corpus(
    intent_labels: list[str],
    scene_labels: list[str],
    per_label: int,
    seed: int,
) -> list[DialogueSample]:
    """Planted intent and image-scene samples, interleaved in a seeded order.

    Each scene label's giveaway token sits in the OCR text of half of its
    samples, amid shared background vocabulary.
    """

    rng = random.Random(seed)
    samples = build_planted_corpus(intent_labels, per_label=per_label, seed=seed)
    for label in scene_labels:
        for i in range(per_label):
            words = rng.sample(BACKGROUND_VOCAB, k=3)
            if i % 2 == 0:
                words.insert(rng.randrange(len(words) + 1), planted_token(label))
            samples.append(scene_sample(f"{label}-{i:03d}", label, " ".join(words)))
    rng.shuffle(samples)
    return samples


def taxonomy_for(labels: list[str], scene_labels: list[str] | None = None) -> LabelTaxonomy:
    return LabelTaxonomy(intent=tuple(labels), image_scene=tuple(scene_labels or ()))


def contains(value: str, field: PredicateField = PredicateField.ANY_TEXT) -> Predicate:
    return Predicate(field=field, op=PredicateOp.CONTAINS, value=value)


def make_rule(
    rule_id: str,
    label: str,
    predicates,
    reward: float,
    *,
    task: Task = Task.INTENT,
    confidence: float = 1.0,
    source: RuleSource = RuleSource.MANUAL,
) -> Rule:
    return Rule(
        id=rule_id,
        task=task,
        label=label,
        predicates=frozenset(predicates),
        reward=reward,
        confidence=confidence,
        source=source,
    )


# --- processes and endpoints -------------------------------------------------

SRC_DIR = Path(rulesmith.__file__).resolve().parents[1]


def python_process(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports rulesmith from this
    source tree, capturing its stdout and stderr."""

    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=str(SRC_DIR)),
        capture_output=True,
        text=True,
        timeout=120,
    )


def run_python(code: str, *args: str) -> str:
    """``python_process``, which must exit 0; return its stdout."""

    done = python_process(code, *args)
    assert done.returncode == 0, done.stderr
    return done.stdout


class ScriptedTransport:
    """Canned replies; records every conversation it is sent."""

    def __init__(self, replies):
        self.replies = list(replies)
        self.conversations = []

    def __call__(self, messages):
        self.conversations.append(messages)
        reply = self.replies.pop(0)
        if isinstance(reply, Exception):
            raise reply
        return reply


def chat_body(content: str) -> str:
    """A chat-completions response body whose first choice says ``content``."""
    return json.dumps({"choices": [{"message": {"role": "assistant", "content": content}}]})


class ScriptedHTTPServer:
    """Loopback endpoint answering each POST with the next ``(status, body)``.

    ``replies`` is a list of such pairs, or a function from the request body
    to one. Records every request body in ``requests`` and, in ``seen``,
    every request's ``(method, path, headers, client port)``; a CONNECT is
    recorded and refused with 403. It speaks HTTP/1.0, so it closes the
    connection after each reply, unless ``http11``. With
    ``close_after_reply`` as well, it closes after each reply without
    saying so, and releases ``closed`` once the socket is shut. As a context
    manager it serves from a daemon thread on a port the OS picks, until the
    block ends.
    """

    def __init__(self, replies, *, http11: bool = False, close_after_reply: bool = False) -> None:
        self.replies = replies if callable(replies) else list(replies)
        self.requests: list[dict] = []
        self.seen: list[tuple] = []
        self.closed = threading.Semaphore(0)
        lock = threading.Lock()
        server = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1" if http11 else "HTTP/1.0"

            def record(self) -> None:
                with lock:
                    server.seen.append(
                        (self.command, self.path, self.headers, self.client_address[1])
                    )

            def do_POST(self) -> None:
                self.record()
                body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                with lock:
                    server.requests.append(body)
                    if not callable(server.replies):
                        status, reply = server.replies.pop(0)
                if callable(server.replies):  # outside the lock: it may wait for other requests
                    status, reply = server.replies(body)
                payload = reply.encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)
                if close_after_reply:
                    self.close_connection = True
                    self.connection.shutdown(socket.SHUT_WR)
                    server.closed.release()

            def do_CONNECT(self) -> None:
                self.record()
                self.send_response(403)
                self.end_headers()

            def log_message(self, format, *args) -> None:  # keep test output quiet
                pass

        self._http = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self._http.server_address[1]}/v1/chat/completions"

    def __enter__(self) -> ScriptedHTTPServer:
        # A short poll interval lets ``__exit__``'s shutdown return at once.
        threading.Thread(
            target=self._http.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        ).start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._http.shutdown()
        self._http.server_close()


class RawReplyServer(HTTPServer):
    """Loopback endpoint that answers every request with the raw bytes in
    ``reply``, then closes the connection. As a context manager it serves
    from one thread, one connection at a time, until the block ends."""

    reply = b""

    def __init__(self) -> None:
        server = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self) -> None:
                self.rfile.read(int(self.headers["Content-Length"]))
                self.wfile.write(server.reply)

            def log_message(self, format, *args) -> None:
                pass

        super().__init__(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self.server_address[1]}/v1/chat/completions"

    def __enter__(self) -> RawReplyServer:
        threading.Thread(
            target=self.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        ).start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
        self.server_close()


# Sizes a reply may declare: small and wrong, or too large for any buffer.
WRONG_SIZES = st.one_of(st.integers(0, 300), st.integers(2**62, 2**80))
STATUS_LINES = st.one_of(
    st.sampled_from([
        b"HTTP/1.1 200 OK", b"HTTP/1.0 200 OK", b"HTTP/1.1 204 No Content",
        b"HTTP/1.1 500 Internal Server Error", b"HTTP/1.1 302 Found",
        b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK",
    ]),
    st.builds(
        b"%s %d %s".__mod__,
        st.tuples(
            st.sampled_from([b"HTTP/1.1", b"HTTP/1.0", b"HTTP/2", b"ICY"]),
            st.integers(-1, 1000),
            st.binary(max_size=12),
        ),
    ),
    st.binary(max_size=30),
)
HEADERS = st.lists(
    st.one_of(
        st.sampled_from([
            b"Transfer-Encoding: chunked", b"Connection: close", b"Connection: keep-alive",
            b"Content-Type: application/json", b"Content-Encoding: gzip",
        ]),
        st.binary(max_size=30),
    ),
    max_size=3,
)
REPLY_JSON = chat_body('```json\n{"label": "refund"}\n```').encode()


@st.composite
def chunked(draw, payload: bytes) -> bytes:
    """``payload`` in chunks whose declared sizes may be wrong, perhaps unterminated."""
    cuts = sorted(draw(st.lists(st.integers(0, len(payload)), max_size=3)))
    out = b""
    for start, end in zip([0, *cuts], [*cuts, len(payload)]):
        size = draw(st.one_of(st.just(end - start), WRONG_SIZES))
        out += b"%x\r\n%s\r\n" % (size, payload[start:end])
    return out + draw(st.sampled_from([b"0\r\n\r\n", b"0\r\n", b"", b"zz\r\n"]))


@st.composite
def raw_replies(draw) -> bytes:
    """A status line, a header block and a body, each well formed or not, perhaps cut short."""
    payload = draw(st.one_of(
        st.just(REPLY_JSON),
        st.binary(max_size=120),
        # Bytes that are not UTF-8 inside an otherwise valid reply.
        st.binary(min_size=1, max_size=4).map(lambda b: REPLY_JSON[:20] + b"\xff" + b + REPLY_JSON[20:]),
    ))
    if draw(st.booleans()):
        body, headers = draw(chunked(payload)), [b"Transfer-Encoding: chunked"]
    else:
        length = draw(st.one_of(st.none(), st.just(len(payload)), WRONG_SIZES))
        body, headers = payload, [] if length is None else [b"Content-Length: %d" % length]
    headers += draw(HEADERS)  # http.client heeds the first Content-Length
    reply = draw(STATUS_LINES) + b"\r\n" + b"".join(h + b"\r\n" for h in headers) + b"\r\n" + body
    return reply[: draw(st.integers(0, len(reply)))] if draw(st.booleans()) else reply


# --- independent oracles ------------------------------------------------------

def eval_rule(rule: Rule, sample: DialogueSample) -> bool:
    """True iff every predicate of the rule holds on the sample, one sample
    at a time; the caller checks the task."""
    return all(eval_predicate(p, sample) for p in rule.predicates)


def brute_force_weighted_f1(gold, pred, labels) -> float:
    """Naive per-class recount via precision/recall, for cross-checking."""

    n = len(gold)
    total = 0.0
    for label in labels:
        tp = fp = fn = 0
        for g, p in zip(gold, pred):
            if g == label and p == label:
                tp += 1
            elif g != label and p == label:
                fp += 1
            elif g == label and p != label:
                fn += 1
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        support = sum(1 for g in gold if g == label)
        total += (support / n) * f1
    return total


def brute_force_remove_dominated(rules) -> list:
    """Literal fixed-point application of the dominance rule."""

    collapsed: list = []
    index: dict = {}
    for rule in rules:
        key = (rule.task, rule.label, frozenset(rule.predicates))
        if key in index:
            if rule.reward > collapsed[index[key]].reward:
                collapsed[index[key]] = rule
        else:
            index[key] = len(collapsed)
            collapsed.append(rule)

    current = list(collapsed)
    changed = True
    while changed:
        changed = False
        for b in list(current):
            for a in current:
                if a is b:
                    continue
                if (
                    a.task is b.task
                    and a.label == b.label
                    and a.predicates < b.predicates
                    and a.reward > b.reward
                ):
                    current.remove(b)
                    changed = True
                    break
            if changed:
                break
    return current


def check_search_tree(root, max_predicates: int = 5) -> int:
    """Assert per-node visit accounting, the depth bound and the exhaustion
    flags; return node count.

    A node is exhausted exactly when it sits at the predicate cap, or when
    it has fetched its proposals, tried them all and every child is
    exhausted. Selection relies on this: a node that is not exhausted and
    has nothing untried has a child that is not exhausted either.
    """

    assert root.state == frozenset()
    count = 0
    stack = [root]
    while stack:
        node = stack.pop()
        count += 1
        assert len(node.state) <= max_predicates, "node exceeds the predicate cap"
        spent = (
            node.fetched
            and not node.untried
            and all(ch.exhausted for ch in node.children.values())
        )
        assert node.exhausted == (len(node.state) >= max_predicates or spent), (
            f"exhaustion flag wrong at depth {len(node.state)}: {node.exhausted}"
        )
        child_visits = sum(ch.visits for ch in node.children.values())
        # Every node but the root was scored in the iteration that made it.
        evaluated = 1 if node.parent is not None else 0
        assert node.visits == child_visits + evaluated, (
            f"visit accounting broken at depth {len(node.state)}: "
            f"{node.visits} != {child_visits} + {evaluated}"
        )
        for action, child in node.children.items():
            assert child.state == node.state | {action}
            assert len(child.state) == len(node.state) + 1
        stack.extend(node.children.values())
    return count
