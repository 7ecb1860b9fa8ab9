"""The package's export list matches what it binds, and what its stages import."""

from __future__ import annotations

import json
import types

import rulesmith
from rulesmith import (
    LabelTaxonomy,
    Prediction,
    PredictionSource,
    RuleBase,
    save_dataset,
    save_predictions,
    save_rulebase,
    save_taxonomy,
)
from _helpers import build_planted_corpus, contains, make_rule, planted_token, run_python


def test_all_lists_exactly_the_public_names_and_each_resolves():
    public = {
        name for name, value in vars(rulesmith).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(rulesmith.__all__) == public
    assert len(rulesmith.__all__) == len(public)  # no entry twice
    namespace: dict = {}
    exec("from rulesmith import *", namespace)  # a stale entry raises AttributeError here
    assert set(namespace) - {"__builtins__"} == public


def test_stages_that_take_no_digest_and_log_nothing_never_import_hashlib_or_logging(tmp_path):
    """Every stage runs in a fresh interpreter and pays for every module it
    loads. Modules loaded before ``import rulesmith.cli`` (interpreter
    start-up and site hooks) are not counted."""
    labels = ["refund", "shipping"]
    samples = build_planted_corpus(labels, per_label=4, seed=1)
    train, tax, rules, preds = (
        tmp_path / "train.jsonl", tmp_path / "labels.json", tmp_path / "rules.json",
        tmp_path / "preds.jsonl",
    )
    save_dataset(samples, train)
    save_taxonomy(LabelTaxonomy(intent=tuple(labels), image_scene=()), tax)
    save_rulebase(
        RuleBase.build([make_rule(f"r{i}", label, [contains(planted_token(label))], 0.9)
                        for i, label in enumerate(labels)]),
        rules,
    )
    save_predictions(
        [Prediction(s.id, s.gold_label, PredictionSource.PREDICTOR, None, s.gold_label)
         for s in samples],
        preds,
    )
    stages = {
        "rephrase": ["rephrase", "--train", train, "--labels", tax, "--agent", "mock",
                     "--seed", "7", "--out", tmp_path / "v.jsonl"],
        "filter": ["filter", "--rules", rules, "--val", train, "--labels", tax,
                   "--out", tmp_path / "f.json"],
        "eval": ["eval", "--pred", preds, "--val", train, "--labels", tax],
    }
    out = run_python(
        "import json, sys\n"
        "watched = {'hashlib', 'logging'}\n"
        "loaded = {}\n"
        "before = set(sys.modules)\n"
        "import rulesmith.cli\n"
        "loaded['import'] = sorted(watched & (set(sys.modules) - before))\n"
        "for name, argv in json.loads(sys.argv[1]).items():\n"
        "    before = set(sys.modules)\n"
        "    assert rulesmith.cli.main(argv) == 0, name\n"
        "    loaded[name] = sorted(watched & (set(sys.modules) - before))\n"
        "print(json.dumps(loaded))\n",
        json.dumps({name: [str(a) for a in argv] for name, argv in stages.items()}),
    )
    assert json.loads(out.splitlines()[-1]) == {
        "import": [], "rephrase": [], "filter": [], "eval": [],
    }
