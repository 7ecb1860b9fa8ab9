"""The benchmark's own tests: every workload at tiny scale, no timing bounds.

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import run  # noqa: E402
import stub  # noqa: E402
from corpus import CorpusShape, generate  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, *, trace: int = 0, hash_seed: str = "0", cwd: Path = ROOT):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
    )
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def digests_of(proc) -> dict[str, str]:
    return dict(re.findall(r"sha256 (\S+)\s+([0-9a-f]{64})", proc.stdout))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_passes_every_check_and_reproduces(workload):
    first = run_bench(workload, hash_seed="11")
    second = run_bench(workload, hash_seed="12")
    result = result_of(first)
    assert result["correct"] is True
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    if workload == "induce-remote":
        # The fixed samples' classifier requests fail on every round.
        rounds = int(re.search(r"(\d+) rounds", first.stdout).group(1))
        assert result["failed"] == 2 * rounds
    else:
        assert result["failed"] == 0
    assert result_of(second)["correct"] is True
    assert len(digests_of(first)) == 6
    assert digests_of(first) == digests_of(second)


def test_traced_run_reports_every_per_layer_metric():
    result = result_of(run_bench("induce-remote", trace=1))
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["agents.retries"] > 0
    assert metrics["agents.wait_s"] > 0
    assert metrics["mcts.evaluations"] > 0
    assert metrics["inference.predictor_failures"] == 2
    shape = run.TINY_SHAPE
    n_test = (shape.intent_labels + shape.scene_labels) * shape.test_per_label + 2
    assert metrics["inference.predictor_calls"] == n_test
    assert metrics["stub.service_s"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".runs", "__pycache__"))
    proc = run_bench("induce-mock", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_matcher_needs_nfkc_and_casefold():
    record = {"turns": [{"speaker": "user", "text": "ＺＱＡＢ Refund"}], "ocr_text": "ＰＡＧＥ"}
    texts = checks.field_texts(record)
    assert checks.holds(("user_text", "contains", "zqab"), texts)
    assert checks.holds(("any_text", "contains", "REFUND"), texts)
    assert checks.holds(("ocr_text", "starts_with", "page"), texts)
    assert not checks.holds(("service_text", "contains", "refund"), texts)
    assert checks.parse_predicate(r'any_text contains "a \"b\" \\c"') == ("any_text", "contains", 'a "b" \\c')


def test_weighted_f1_recount():
    assert checks.weighted_f1(["a", "a", "b"], ["a", "b", "b"], ["a", "b"]) == pytest.approx(2 / 3)


def test_prediction_check_catches_a_wrong_arbitration():
    corpus = generate(5, CorpusShape(2, 1, 4, 3, 0.5))
    test = corpus.test
    rule = {"id": "r1", "task": "intent", "label": "intent-01", "reward": 0.9,
            "parsed": frozenset({("any_text", "contains", corpus.planted["intent-01"])})}
    matcher = checks.Matcher(test)
    fired = set(checks._bits(matcher.rule_mask(rule)))
    assert fired
    preds = []
    for i, record in enumerate(test):
        label = "intent-01" if i in fired else record["gold_label"]
        preds.append({"id": record["id"], "label": label,
                      "source": "rule" if i in fired else "predictor",
                      "fired_rule_id": "r1" if i in fired else None,
                      "predictor_label": record["gold_label"]})
    assert checks.check_predictions(preds, test, [rule], corpus.labels, set()) == []
    wrong = min(fired)
    preds[wrong] = dict(preds[wrong], label=test[wrong]["gold_label"], source="predictor",
                        fired_rule_id=None)
    assert checks.check_predictions(preds, test, [rule], corpus.labels, set())


def test_corpus_is_seeded():
    shape = CorpusShape(2, 2, 4, 2, 0.5)
    assert generate(1, shape) == generate(1, shape)
    assert generate(1, shape).train != generate(2, shape).train
    assert len(generate(1, shape).test) == len(generate(2, shape).test)


def test_stub_rephrase_keeps_words():
    assert stub.rephrase("a b c") == "b c a"
    assert stub.rephrase("single") == "single"
