"""Metamorphic properties of the chain, run through ``cli.main``.

The benchmark's tiny induce-mock chain is built once. Each example draws
permutations of its input files and runs a stage again on them. Record order
carries no meaning in any input, so:

- ``induce`` on ``train.jsonl`` and ``val.jsonl`` in any order writes
  ``rules.json`` byte for byte, but for ``metadata.dataset_digest``, which
  hashes the train file as written;
- ``filter`` run again on ``filtered.json``, with the validation set in any
  order, writes ``filtered.json`` byte for byte;
- ``predict`` on ``test.jsonl`` in any order writes the same prediction
  lines, as a multiset, and the same ``--report`` bytes;
- ``eval`` on the prediction file in any order writes the same report.

A sample's prediction depends on that sample alone, so ``predict`` on two
halves of ``test.jsonl``, run apart, writes the lines of one run over the
whole file. That holds only while no classifier call fails: the batch that
spends more than ``FAILURE_BUDGET`` failures aborts, and where that happens
depends on how the file was cut. The tiny chain's stub classifier never fails.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulesmith.cli import main

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """The tiny chain's stage arguments, after one run that wrote every output."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(BENCH_DIR))
        run = importlib.import_module("run")
    workload = run.WORKLOADS["induce-mock"]
    directory = tmp_path_factory.mktemp("chain")
    setup = run.set_up(workload, run.TINY_SHAPE, 3, directory / "inputs")
    out = directory / "out"
    out.mkdir()
    stages = run.stage_args(workload, run.TINY_ITERATIONS, setup, out)
    for stage, args in stages.items():
        assert main([stage, *args]) == 0, stage
    return {stage: dict(zip(args[::2], args[1::2])) for stage, args in stages.items()}


def shuffled(data, source: str, scratch: Path) -> str:
    """A copy of the JSONL file ``source`` in ``scratch``, its lines in a drawn order."""
    lines = Path(source).read_text(encoding="utf-8").splitlines(keepends=True)
    copy = scratch / f"shuffled-{Path(source).name}"
    copy.write_text("".join(data.draw(st.permutations(lines))), encoding="utf-8")
    return str(copy)


def rerun(stage: str, options: dict[str, str]) -> None:
    argv = [stage]
    for flag, value in options.items():
        argv += [flag, value]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, stage


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_induce_on_shuffled_inputs_writes_the_same_rules(chain, data):
    induce = chain["induce"]
    with tempfile.TemporaryDirectory() as name:
        scratch = Path(name)
        rerun("induce", {**induce, "--train": shuffled(data, induce["--train"], scratch),
                         "--val": shuffled(data, induce["--val"], scratch),
                         "--out": str(scratch / "rules.json")})
        again = (scratch / "rules.json").read_text(encoding="utf-8")
    original = Path(induce["--out"]).read_text(encoding="utf-8")
    digests = [json.loads(text)["metadata"]["dataset_digest"] for text in (again, original)]
    assert again.replace(*digests) == original


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_record_order_changes_no_output(chain, data):
    with tempfile.TemporaryDirectory() as name:
        scratch = Path(name)
        filtered = chain["filter"]["--out"]
        rerun("filter", {**chain["filter"], "--rules": filtered,
                         "--val": shuffled(data, chain["filter"]["--val"], scratch),
                         "--out": str(scratch / "filtered.json")})
        assert (scratch / "filtered.json").read_bytes() == Path(filtered).read_bytes()

        predict = chain["predict"]
        rerun("predict", {**predict, "--val": shuffled(data, predict["--val"], scratch),
                          "--out": str(scratch / "preds.jsonl"),
                          "--report": str(scratch / "predict_report.json")})
        lines = [Counter(Path(p).read_text(encoding="utf-8").splitlines())
                 for p in (predict["--out"], scratch / "preds.jsonl")]
        assert lines[0] == lines[1]
        assert (scratch / "predict_report.json").read_bytes() == \
            Path(predict["--report"]).read_bytes()

        evaluate = chain["eval"]
        rerun("eval", {**evaluate, "--pred": shuffled(data, evaluate["--pred"], scratch),
                       "--report": str(scratch / "report.json")})
        assert (scratch / "report.json").read_bytes() == Path(evaluate["--report"]).read_bytes()


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_predict_on_two_halves_writes_the_lines_of_one_run(chain, data):
    """Run apart, the halves of ``test.jsonl`` give the prediction lines of
    one run; this holds only while no classifier call fails, since a batch
    past ``FAILURE_BUDGET`` failures aborts at a sample that depends on the cut."""
    predict = chain["predict"]
    report = json.loads(Path(predict["--report"]).read_text(encoding="utf-8"))
    assert report["predictor_failures"] == 0
    lines = Path(predict["--val"]).read_text(encoding="utf-8").splitlines(keepends=True)
    cut = data.draw(st.integers(0, len(lines)), label="cut")
    with tempfile.TemporaryDirectory() as name:
        scratch = Path(name)
        written = []
        for n, half in enumerate((lines[:cut], lines[cut:])):
            source = scratch / f"half{n}.jsonl"
            source.write_text("".join(half), encoding="utf-8")
            rerun("predict", {**predict, "--val": str(source),
                              "--out": str(scratch / f"preds{n}.jsonl"),
                              "--report": str(scratch / f"report{n}.json")})
            written.append((scratch / f"preds{n}.jsonl").read_bytes())
    assert b"".join(written) == Path(predict["--out"]).read_bytes()
