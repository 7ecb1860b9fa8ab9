"""Output files are committed all or nothing.

Every stage returns what it would write; ``cli.main`` has each saver write a
hidden temporary beside its destination and renames the temporaries over
their destinations only once every saver has returned. A stage that fails
at any point, in its compute, in a saver or in a rename, leaves every
destination as it was before the run, or absent, and no temporary behind.
"""

from __future__ import annotations

import json

import pytest

from rulesmith import RuleBase, RuleBaseMetadata, save_dataset, save_rulebase, save_taxonomy
from rulesmith.cli import main
from rulesmith.dataset import write_jsonl
from rulesmith.inference import prediction_to_record
from _helpers import build_planted_corpus, taxonomy_for

LABELS = ["refund", "shipping"]
EMPTY = RuleBase(rules=(), metadata=RuleBaseMetadata(created_at="x"))


@pytest.fixture
def workspace(tmp_path):
    """A small planted validation set, its taxonomy and an empty rule base."""
    val, tax, rules = tmp_path / "val.jsonl", tmp_path / "labels.json", tmp_path / "empty.json"
    save_dataset(build_planted_corpus(LABELS, per_label=5, seed=1), val)
    save_taxonomy(taxonomy_for(LABELS), tax)
    save_rulebase(EMPTY, rules)
    return tmp_path, rules, val, tax


def temporaries(directory):
    return sorted(p.name for p in directory.rglob(".*.tmp"))


def predict(workspace, out, report=None):
    _, rules, val, tax = workspace
    argv = ["predict", "--val", val, "--labels", tax, "--rules", rules,
            "--predictor", "stub:0.9", "--seed", "1", "--out", out]
    return main([str(a) for a in argv + (["--report", report] if report else [])])


def failing_saver(exc, after):
    """A ``save_predictions`` that streams ``after`` records, then raises ``exc``."""
    def save(predictions, path):
        def records():
            for n, prediction in enumerate(predictions):
                if n == after:
                    raise exc
                yield prediction_to_record(prediction)
        write_jsonl(path, records())
    return save


def test_a_saver_failing_mid_stream_leaves_the_previous_file(workspace, monkeypatch, capsys):
    tmp = workspace[0]
    out = tmp / "preds.jsonl"
    assert predict(workspace, out) == 0
    before = out.read_bytes()
    monkeypatch.setattr("rulesmith.cli.save_predictions", failing_saver(OSError(28, "No space"), 3))
    assert predict(workspace, out) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"] == "OSError"
    assert out.read_bytes() == before
    assert temporaries(tmp) == []


def test_an_interrupt_mid_stream_propagates_and_leaves_no_temporary(workspace, monkeypatch):
    tmp = workspace[0]
    out, report = tmp / "preds.jsonl", tmp / "report.json"
    assert predict(workspace, out) == 0
    before = out.read_bytes()
    monkeypatch.setattr("rulesmith.cli.save_predictions", failing_saver(KeyboardInterrupt(), 3))
    with pytest.raises(KeyboardInterrupt):
        predict(workspace, out, report)
    assert out.read_bytes() == before and not report.exists()
    assert temporaries(tmp) == []


def test_a_failed_rename_removes_the_outputs_already_replaced(workspace, capsys):
    tmp = workspace[0]
    out, directory = tmp / "preds.jsonl", tmp / "refused"
    directory.mkdir()
    assert predict(workspace, out, directory) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"] == "OSError"
    assert error["message"].endswith(f": {str(directory)!r}")  # not the temporary
    assert not out.exists() and directory.is_dir()
    assert temporaries(tmp) == []


def test_an_output_that_is_a_directory_is_refused_with_no_temporary(workspace, capsys):
    tmp, rules = workspace[:2]
    directory = tmp / "refused"
    directory.mkdir()
    assert main(["filter", "--rules", str(rules), "--out", str(directory)]) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"] == "OSError"
    assert error["message"].endswith(f": {str(directory)!r}")
    assert temporaries(tmp) == []


def test_the_report_wins_when_it_shares_the_predictions_path(workspace):
    tmp = workspace[0]
    both = tmp / "both.json"
    assert predict(workspace, both, both) == 0
    report = json.loads(both.read_text(encoding="utf-8"))
    assert report["total"] == report["from_predictor"] > 0
    assert temporaries(tmp) == []


def test_a_symlinked_destination_is_replaced_not_written_through(workspace):
    tmp = workspace[0]
    target, link = tmp / "target.jsonl", tmp / "link.jsonl"
    target.write_text("kept\n", encoding="utf-8")
    link.symlink_to(target)
    assert predict(workspace, link) == 0
    assert not link.is_symlink() and link.read_text(encoding="utf-8") != "kept\n"
    assert target.read_text(encoding="utf-8") == "kept\n"
