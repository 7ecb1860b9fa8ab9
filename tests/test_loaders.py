"""Every file loader fails with a ``RulesmithError``, never a stray exception.

Inputs are arbitrary bytes, arbitrary JSON documents and JSONL lines, and
documents built from the loaders' own field names and plausible values, so
that the examples also get past the first shape checks. A report that loads
must also render, since ``rulesmith report`` prints it straight away.
"""

from __future__ import annotations

import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from rulesmith import (
    LabelTaxonomy,
    RulesmithError,
    load_dataset,
    load_predictions,
    load_rulebase,
    load_taxonomy,
)
from rulesmith.harness import format_report, load_report

TAXONOMY = LabelTaxonomy(intent=("refund", "shipping"), image_scene=("receipt",))

LOADERS = {
    "dataset": lambda path: load_dataset(path, TAXONOMY),
    "taxonomy": load_taxonomy,
    "rulebase": load_rulebase,
    "predictions": load_predictions,
    "report": lambda path: format_report(load_report(path)),
}

KEYS = [
    "id", "task", "turns", "speaker", "text", "ocr_text", "image_ref", "gold_label",
    "label", "source", "fired_rule_id", "predictor_label", "intent", "image_scene",
    "version", "metadata", "created_at", "dataset_digest", "config_digest", "rules",
    "predicates", "reward", "confidence", "oss", "dis", "iss", "oss_mean", "counts",
    "per_class", "precision", "recall", "f1", "support",
]
PLAUSIBLE = st.sampled_from([
    "intent", "image_scene", "user", "service_rep", "refund", "receipt", "rule",
    "predictor", "mcts", "manual", "", 'any_text contains "x"', 'ocr_text starts_with ""',
    1, 0, 0.5, 2, -1, 1e308, 10**400,
])
SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)

json_values = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=10,
)
shaped_values = st.recursive(
    SCALARS | PLAUSIBLE,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(KEYS), inner, max_size=8),
    max_leaves=25,
)
RULE = {
    "id": "r1", "task": "intent", "label": "refund", "predicates": ['any_text contains "x"'],
    "reward": 0.9, "confidence": 0.5, "source": "mcts",
}
SAMPLE = {
    "id": "s1", "task": "intent", "turns": [{"speaker": "user", "text": "x"}],
    "ocr_text": "", "image_ref": None, "gold_label": "refund",
}
PREDICTION = {
    "id": "s1", "label": "refund", "source": "rule", "fired_rule_id": "r1",
    "predictor_label": "shipping",
}
METADATA = {"created_at": "x", "dataset_digest": "", "config_digest": ""}
CLASS_ROW = {"label": "refund", "precision": 0.5, "recall": 1.0, "f1": 0.6667, "support": 2}
REPORT = {
    "dis": 0.5, "iss": None, "oss": 0.5, "oss_mean": 0.5,
    "counts": {"intent": 2, "image_scene": 0}, "per_class": [CLASS_ROW],
}


def near(valid: dict) -> st.SearchStrategy[dict]:
    """A valid record with up to two of its fields replaced by random values."""
    patches = st.dictionaries(st.sampled_from(sorted(valid)), shaped_values, max_size=2)
    return patches.map(lambda patch: {**valid, **patch})


def jsonl(values: st.SearchStrategy) -> st.SearchStrategy[bytes]:
    return st.lists(values, max_size=4).map(
        lambda vs: "\n".join(json.dumps(v) for v in vs).encode("utf-8")
    )


documents = st.one_of(
    st.binary(max_size=64),
    st.one_of(
        json_values,
        shaped_values,
        near({"intent": ["refund"], "image_scene": ["receipt"]}),
        near({"oss": 0.5}),
        near(REPORT),
        near(REPORT["counts"]).map(lambda counts: {**REPORT, "counts": counts}),
        st.lists(near(CLASS_ROW), max_size=3).map(lambda rows: {**REPORT, "per_class": rows}),
        near({"version": 1, "metadata": METADATA, "rules": [RULE]}),
        st.lists(near(RULE), max_size=3).map(
            lambda rules: {"version": 1, "metadata": METADATA, "rules": rules}
        ),
    ).map(lambda v: json.dumps(v).encode("utf-8")),
    jsonl(shaped_values),
    jsonl(near(SAMPLE)),
    jsonl(near(PREDICTION)),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(content=documents)
@example(content=b"\xff\xfe")
@example(content=b"{")
@example(content=b'[1]\n"x"\n')
@example(content=b'{"oss": 0.5, "per_class": [1]}')
@example(content=b'{"oss": 0.5, "counts": []}')
@example(content=json.dumps(
    {"version": 1, "metadata": METADATA, "rules": [{**RULE, "reward": 10**400}]}
).encode("utf-8"))
@example(content=b"[" * 100_000 + b"]" * 100_000)
@example(content=b"1" * 5001)
@example(content=json.dumps({**PREDICTION, "fired_rule_id": 5}).encode("utf-8"))
@example(content=json.dumps({**PREDICTION, "source": "predictor"}).encode("utf-8"))
def test_loaders_return_or_raise_only_rulesmith_errors(tmp_path, content):
    path = tmp_path / "input"
    path.write_bytes(content)
    for name, load in LOADERS.items():
        try:
            load(path)
        except RulesmithError:
            pass
        except Exception as exc:  # noqa: BLE001 - the property under test
            raise AssertionError(f"{name} loader raised {exc!r} on {content!r}") from exc

