"""A loopback chat endpoint standing in for the remote agent and classifier.

Replies are a function of the request alone, computed here and not by
rulesmith:

- proposals: the next tokens of this stub's own per-label token ranking
  over the training corpus, skipping predicates already in the prompt;
- rule assessments: the rule's precision on the validation set this stub
  expects the rephrase stage to produce, matched with ``checks``;
- rephrasing: the first word of the text moved to its end;
- classification: the gold label with a fixed probability, otherwise a
  wrong label, both drawn from a hash of the sample id.

Every reply waits a fixed simulated model latency. A seeded share of first
attempts at agent requests gets a malformed reply; a retry that echoes the
parse error back is always answered properly, while a resent identical
conversation gets the same malformed reply again. Classifier requests for
the fixed test samples are always answered malformed on a first attempt.

Each reply goes out in a single write, since separate header and body
writes stall every loopback call on delayed ACK, and each connection is
served on its own thread, so a client that overlaps calls gains as it
would against a real endpoint.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
import time
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import checks
from corpus import FIXED_TEST_IDS, Corpus

_TARGET_RE = re.compile(r"Target label: (\S+) \(task: (\w+)\)")
_K_RE = re.compile(r"Propose up to (\d+) new predicates")
_RULE_RE = re.compile(r"Rule: IF (.*) THEN label = (\S+) \(task: (\w+)\)")
_ALLOWED_RE = re.compile(r"Allowed labels: (.*)")
_SAMPLE_RE = re.compile(r"Sample: (\{.*\})", re.DOTALL)
_ECHO_PREFIX = "Your reply was invalid"

# A fixed port, below the usual ephemeral range: the endpoint URL is part of
# the rule base's config digest, so a random port would change the outputs.
PORT = 28713


def rephrase(text: str) -> str:
    words = text.split(" ")
    return " ".join(words[1:] + words[:1])


def _unit(*parts: object) -> float:
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def _fenced(payload: dict) -> str:
    return "```json\n" + json.dumps(payload, ensure_ascii=False) + "\n```"


def _rank_tokens(corpus: Corpus) -> dict[tuple[str, str], list[str]]:
    """Whole-word tokens per label, by smoothed in-label/out-of-label ratio."""
    words = [(r["task"], r["gold_label"], set(checks.field_texts(r)["any_text"].split()))
             for r in corpus.train]
    ranking = {}
    for task, task_labels in corpus.labels.items():
        for label in task_labels:
            pos = [w for t, g, w in words if t == task and g == label]
            neg = [w for t, g, w in words if t == task and g != label]
            smoothing = 1.0 / (2 * max(1, len(neg)))
            scored = []
            for token in set().union(*pos):
                p_pos = sum(token in w for w in pos) / len(pos)
                p_neg = sum(token in w for w in neg) / len(neg) if neg else 0.0
                scored.append((-p_pos / (p_neg + smoothing), -p_pos, token))
            ranking[(task, label)] = [token for _, _, token in sorted(scored)]
    return ranking


class StubEndpoint:
    """Serves ``/agent`` and ``/classifier`` on loopback port ``PORT``."""

    def __init__(self, corpus: Corpus, seed: int, *, latency_s: float,
                 malformed_share: float, accuracy: float) -> None:
        self.seed = seed
        self.latency_s = latency_s
        self.malformed_share = malformed_share
        self.accuracy = accuracy
        self.ranking = _rank_tokens(corpus)
        self.validation = {
            task: [
                (r["gold_label"], checks.field_texts(
                    dict(r, turns=[dict(t, text=rephrase(t["text"])) for t in r["turns"]])))
                for r in corpus.train if r["task"] == task
            ]
            for task in corpus.labels
        }
        self.gold = {r["id"]: r["gold_label"] for r in corpus.test}
        self.counts: Counter[str] = Counter()
        self.service_s = 0.0
        self._lock = threading.Lock()
        self._server = ThreadingHTTPServer(("127.0.0.1", PORT), _handler_for(self))
        self._server.daemon_threads = True
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        self.url = f"http://127.0.0.1:{self._server.server_address[1]}"

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join()

    def snapshot(self) -> tuple[Counter[str], float]:
        with self._lock:
            return Counter(self.counts), self.service_s

    # --- replies -------------------------------------------------------------

    def reply(self, path: str, messages: list[dict]) -> str:
        system = messages[0]["content"]
        user = messages[1]["content"]
        first = len(messages) == 2
        echoed = (not first and messages[-2]["role"] == "assistant"
                  and messages[-1]["content"].startswith(_ECHO_PREFIX))
        if path == "/classifier":
            self._count("classifier")
            return self._classify(user, first)
        if system.startswith("You grow keyword rules"):
            kind = "propose"
        elif system.startswith("You judge keyword rules"):
            kind = "evaluate"
        else:
            kind = "rephrase"
        self._count(kind)
        if not echoed and _unit(self.seed, "malformed", json.dumps(messages)) < self.malformed_share:
            self._count("malformed")
            return self._malformed(kind, user)
        if kind == "propose":
            return self._propose(user)
        if kind == "evaluate":
            return self._evaluate(user)
        return rephrase(user)

    def _count(self, key: str) -> None:
        with self._lock:
            self.counts[key] += 1

    def _malformed(self, kind: str, user: str) -> str:
        if kind == "rephrase":
            return "   "
        pick = int(_unit(self.seed, "shape", user) * 3)
        if pick == 0:
            return "Here is my answer without a fenced block."
        if pick == 1:
            return _fenced({"predicates": []}) + "\n" + _fenced({"reward": 1})
        return "```json\n{not json\n```"

    def _propose(self, user: str) -> str:
        label, task = _TARGET_RE.search(user).groups()
        k = int(_K_RE.search(user).group(1))
        taken = set(checks.find_predicates(user.split("Labeled examples:")[0]))
        out = []
        for token in self.ranking.get((task, label), ()):
            predicate = ("any_text", "contains", token)
            if predicate not in taken:
                out.append(f'any_text contains "{token}"')
                if len(out) == k:
                    break
        return _fenced({"predicates": out})

    def _evaluate(self, user: str) -> str:
        body, label, task = _RULE_RE.search(user).groups()
        predicates = checks.find_predicates(body)
        coverage = correct = 0
        for gold, texts in self.validation.get(task, ()):
            if all(checks.holds(p, texts) for p in predicates):
                coverage += 1
                correct += gold == label
        reward = correct / coverage if coverage else 0.0
        return _fenced({"reward": reward, "confidence": min(1.0, coverage / 10),
                        "rationale": f"{correct}/{coverage} on validation"})

    def _classify(self, user: str, first: bool) -> str:
        allowed = _ALLOWED_RE.search(user).group(1).split(", ")
        sample = json.loads(_SAMPLE_RE.search(user).group(1))
        if first and sample["id"] in FIXED_TEST_IDS:
            self._count("malformed")
            return "I think it is probably the first label."
        gold = self.gold.get(sample["id"])
        if gold in allowed and _unit("hit", sample["id"]) < self.accuracy:
            return _fenced({"label": gold})
        wrong = [label for label in allowed if label != gold] or allowed
        return _fenced({"label": wrong[int(_unit("miss", sample["id"]) * len(wrong))]})


def _handler_for(endpoint: StubEndpoint) -> type[BaseHTTPRequestHandler]:
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def do_POST(self) -> None:  # noqa: N802 - http.server naming
            started = time.perf_counter()
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            content = endpoint.reply(self.path, body["messages"])
            payload = json.dumps(
                {"choices": [{"message": {"role": "assistant", "content": content}}]},
                ensure_ascii=False,
            ).encode("utf-8")
            head = (
                "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                f"Content-Length: {len(payload)}\r\n\r\n"
            ).encode("ascii")
            worked = time.perf_counter() - started
            with endpoint._lock:
                endpoint.service_s += worked
            time.sleep(endpoint.latency_s)
            self.wfile.write(head + payload)

        def log_message(self, format: str, *args: object) -> None:  # noqa: A002
            pass

    return Handler
