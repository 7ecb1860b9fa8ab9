"""Task decoupling: each task's rules and predictions ignore the other task's data.

Every search sees only its own task's exemplars and validation samples, and
a rule only ever fires on samples of its task. So inducing on the intent
samples alone gives exactly the intent rules of a run over both tasks, and
removing the image-scene rules changes no intent prediction.
"""

from __future__ import annotations

import hashlib
import json
import re

import pytest

import rulesmith.cli as cli
from rulesmith import (
    LabelTaxonomy,
    RemoteAgent,
    RuleBase,
    StubPredictor,
    Task,
    load_dataset,
    load_rulebase,
    predict_batch,
    save_dataset,
    save_taxonomy,
    stratified_split,
)
from _helpers import BACKGROUND_VOCAB, build_two_task_corpus, planted_token

INTENT = ["refund", "shipping", "invoice"]
SCENE = ["receipt", "tracking"]
TAXONOMY = LabelTaxonomy(intent=tuple(INTENT), image_scene=tuple(SCENE))


@pytest.fixture
def corpora(tmp_path):
    """Train and validation files over both tasks, and over intent alone."""
    split = stratified_split(build_two_task_corpus(INTENT, SCENE, per_label=12, seed=6), 0.4, seed=6)
    paths = {}
    for name, keep in (("full", lambda s: True), ("intent", lambda s: s.task is Task.INTENT)):
        for side, samples in (("train", split.train), ("val", split.validation)):
            path = paths[name, side] = tmp_path / f"{name}-{side}.jsonl"
            save_dataset([s for s in samples if keep(s)], path)
    save_taxonomy(TAXONOMY, tmp_path / "labels.json")
    return tmp_path, paths


def induce(tmp_path, paths, name: str) -> list[dict]:
    out = tmp_path / f"{name}-rules.json"
    assert cli.main(
        ["induce", "--train", str(paths[name, "train"]), "--val", str(paths[name, "val"]),
         "--labels", str(tmp_path / "labels.json"), "--agent", "mock", "--iterations", "15",
         "--seed", "6", "--out", str(out)]
    ) == 0
    return json.loads(out.read_text(encoding="utf-8"))["rules"]


def _unit(content: str, salt: str) -> float:
    digest = hashlib.sha256(f"{salt}|{content}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


class RecordingTransport:
    """Replies that depend on the request content alone; keeps every request.

    A proposal reply offers the target label's planted token and two
    background words; an evaluation reply draws reward and confidence from
    a hash of the request.
    """

    def __init__(self) -> None:
        self.requests: list[str] = []

    def __call__(self, messages: list[dict[str, str]]) -> str:
        self.requests.append(json.dumps(messages, ensure_ascii=False))
        content = messages[-1]["content"]
        target = re.match(r"Target label: (\S+)", content)
        if target is not None:
            start = int(_unit(content, "words") * len(BACKGROUND_VOCAB))
            words = [planted_token(target.group(1))] + [
                BACKGROUND_VOCAB[(start + i) % len(BACKGROUND_VOCAB)] for i in range(2)
            ]
            payload = {"predicates": [f'any_text contains "{w}"' for w in words]}
        else:
            payload = {"reward": _unit(content, "reward"), "confidence": _unit(content, "confidence"),
                       "rationale": "scripted"}
        return "```json\n" + json.dumps(payload) + "\n```"


def test_intent_only_induction_gives_the_intent_rules_of_the_full_run(corpora):
    tmp_path, paths = corpora
    full = induce(tmp_path, paths, "full")
    intent_only = induce(tmp_path, paths, "intent")
    assert {r["task"] for r in full} == {"intent", "image_scene"}
    assert intent_only == [r for r in full if r["task"] == "intent"]


def test_intent_requests_do_not_depend_on_image_scene_data(corpora, monkeypatch):
    tmp_path, paths = corpora
    transports = []

    def scripted_agent(spec, corpus, seed, noise):
        transports.append(RecordingTransport())
        return RemoteAgent("http://127.0.0.1:9/unused", transport=transports[-1])

    monkeypatch.setattr(cli, "_build_agent", scripted_agent)
    full = induce(tmp_path, paths, "full")
    intent_only = induce(tmp_path, paths, "intent")
    assert intent_only and intent_only == [r for r in full if r["task"] == "intent"]

    full_requests, intent_requests = (t.requests for t in transports)
    of_intent = [r for r in full_requests if "(task: intent)" in r]
    assert len(of_intent) < len(full_requests)  # the scene searches asked too
    assert [r.encode("utf-8") for r in of_intent] == [r.encode("utf-8") for r in intent_requests]


def test_image_scene_rules_change_no_intent_prediction(corpora):
    tmp_path, paths = corpora
    induce(tmp_path, paths, "full")
    base = load_rulebase(tmp_path / "full-rules.json")
    intent_rules = [r for r in base.rules if r.task is Task.INTENT]
    assert len(intent_rules) < len(base.rules)
    samples = load_dataset(paths["full", "val"], TAXONOMY)
    predictor = StubPredictor(TAXONOMY, accuracy=0.3, seed=6)

    def intent_predictions(rulebase):
        result = predict_batch(rulebase, predictor, samples, override_threshold=0.8)
        return [p for s, p in zip(samples, result.predictions) if s.task is Task.INTENT]

    with_scene = intent_predictions(base)
    without_scene = intent_predictions(RuleBase.build(intent_rules, base.metadata))
    assert any(p.fired_rule_id is not None for p in with_scene)
    assert with_scene == without_scene
