"""End-to-end subcommand behavior through the CLI entry point."""

from __future__ import annotations

import contextlib
import io
import json
import sys
import threading
from collections import Counter

import pytest
from hypothesis import given, settings

from rulesmith import (
    LabelTaxonomy,
    Prediction,
    PredictionSource,
    RuleBase,
    RuleBaseMetadata,
    Task,
    load_dataset,
    load_rulebase,
    save_dataset,
    save_predictions,
    save_rulebase,
    save_taxonomy,
    stratified_split,
)
from rulesmith.cli import main
from _helpers import (
    RawReplyServer,
    ScriptedHTTPServer,
    build_planted_corpus,
    build_two_task_corpus,
    chat_body,
    contains,
    make_rule,
    raw_replies,
    run_python,
)

LABELS = ["refund", "shipping"]


@pytest.fixture
def workspace(tmp_path):
    """Train/validation files plus a taxonomy for a small planted corpus."""
    corpus = build_planted_corpus(LABELS, per_label=20, seed=1)
    split = stratified_split(corpus, 0.4, seed=1)
    train = tmp_path / "train.jsonl"
    val = tmp_path / "val.jsonl"
    tax_path = tmp_path / "labels.json"
    save_dataset(split.train, train)
    save_dataset(split.validation, val)
    save_taxonomy(LabelTaxonomy(intent=tuple(LABELS), image_scene=()), tax_path)
    return tmp_path, train, val, tax_path


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_flag_exits_2(workspace):
    tmp, train, val, tax = workspace
    assert main(["induce", "--train", str(train), "--bogus", "x"]) == 2


def test_missing_file_is_a_structured_error(tmp_path, capsys):
    tax = tmp_path / "labels.json"
    save_taxonomy(LabelTaxonomy(intent=("a",), image_scene=()), tax)
    status = main(
        ["rephrase", "--train", str(tmp_path / "nope.jsonl"), "--labels", str(tax),
         "--out", str(tmp_path / "out.jsonl")]
    )
    assert status == 1
    error = json.loads(capsys.readouterr().err.strip())
    assert "nope.jsonl" in error["message"]


def test_rephrase_with_mock_agent_echoes(workspace, capsys):
    tmp, train, val, tax = workspace
    out = tmp / "rephrased.jsonl"
    status = main(
        ["rephrase", "--train", str(train), "--labels", str(tax),
         "--agent", "mock", "--per-sample", "2", "--out", str(out)]
    )
    assert status == 0
    taxonomy = LabelTaxonomy(intent=tuple(LABELS), image_scene=())
    generated = load_dataset(out, taxonomy)
    originals = load_dataset(train, taxonomy)
    assert len(generated) == 2 * len(originals)
    assert all(s.id.endswith(("::r0", "::r1")) for s in generated)


def test_induce_with_fixed_seed_is_bit_reproducible(workspace):
    tmp, train, val, tax = workspace
    outs = []
    # Both runs share this interpreter; each loads the corpus afresh.
    for run in range(2):
        out = tmp / f"rules{run}.json"
        status = main(
            ["induce", "--train", str(train), "--val", str(val), "--labels", str(tax),
             "--agent", "mock", "--iterations", "30", "--seed", "7", "--out", str(out)]
        )
        assert status == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    base = load_rulebase(tmp / "rules0.json")
    assert base.rules  # the mock really found something


def test_induce_extracts_each_validation_field_once(tmp_path, monkeypatch):
    """Every search of a task shares one index, so no label's search
    normalizes the task's validation texts again."""
    import rulesmith.predicate as predicate

    intent, scene = ["refund", "shipping", "invoice"], ["receipt", "tracking"]
    split = stratified_split(build_two_task_corpus(intent, scene, per_label=12, seed=2), 0.4, seed=2)
    save_dataset(split.train, tmp_path / "train.jsonl")
    save_dataset(split.validation, tmp_path / "val.jsonl")
    save_taxonomy(LabelTaxonomy(intent=tuple(intent), image_scene=tuple(scene)),
                  tmp_path / "labels.json")
    extracted = Counter()
    original = predicate.extract_field_text

    def counted(sample, field):
        extracted[sample.id, field] += 1
        return original(sample, field)

    monkeypatch.setattr(predicate, "extract_field_text", counted)
    assert main(
        ["induce", "--train", str(tmp_path / "train.jsonl"), "--val", str(tmp_path / "val.jsonl"),
         "--labels", str(tmp_path / "labels.json"), "--agent", "mock", "--iterations", "20",
         "--seed", "2", "--out", str(tmp_path / "rules.json")]
    ) == 0
    assert {sample_id for sample_id, _ in extracted} == {s.id for s in split.validation}
    assert max(extracted.values()) == 1


def test_induce_says_which_task_it_skips(tmp_path, capsys):
    """A task with training labels but no validation samples is skipped, and
    the skip is printed rather than silent."""
    intent, scene = ["refund", "shipping", "invoice"], ["receipt", "tracking"]
    split = stratified_split(build_two_task_corpus(intent, scene, per_label=12, seed=2), 0.4, seed=2)
    save_dataset(split.train, tmp_path / "train.jsonl")
    save_dataset([s for s in split.validation if s.task is Task.INTENT], tmp_path / "val.jsonl")
    save_taxonomy(LabelTaxonomy(intent=tuple(intent), image_scene=tuple(scene)),
                  tmp_path / "labels.json")
    assert main(
        ["induce", "--train", str(tmp_path / "train.jsonl"), "--val", str(tmp_path / "val.jsonl"),
         "--labels", str(tmp_path / "labels.json"), "--agent", "mock", "--iterations", "10",
         "--seed", "2", "--out", str(tmp_path / "rules.json")]
    ) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "image_scene: skipped 2 labels, because --val has no image_scene samples" in lines
    assert [line.split(":")[0] for line in lines if line.startswith("intent/")] == [
        f"intent/{label}" for label in intent
    ]
    assert not any(line.startswith("image_scene/") for line in lines)
    assert {rule.task for rule in load_rulebase(tmp_path / "rules.json").rules} == {Task.INTENT}


def test_no_rulesmith_function_keeps_a_process_lifetime_cache():
    """A long-lived process that calls main repeatedly must not pile up samples."""
    import functools
    import importlib
    import inspect
    import pkgutil

    import rulesmith

    cache_type = type(functools.lru_cache(maxsize=None)(len))
    for info in pkgutil.iter_modules(rulesmith.__path__):
        module = importlib.import_module(f"rulesmith.{info.name}")
        members = list(vars(module).values())
        members += [m for cls in members if inspect.isclass(cls) for m in vars(cls).values()]
        cached = [m for m in members if isinstance(m, cache_type)]
        assert not cached, f"rulesmith.{info.name} keeps lru_caches: {cached}"


def test_no_rulesmith_module_catches_every_exception():
    """Broad handlers turn programming errors into silent skips or retries."""
    import ast
    from pathlib import Path

    import rulesmith

    broad = {"Exception", "BaseException"}
    offenders = []
    for path in sorted(Path(rulesmith.__path__[0]).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(c is None or (isinstance(c, ast.Name) and c.id in broad) for c in caught):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, f"bare or catch-all except clauses: {offenders}"


def test_importing_the_cli_loads_nothing_beyond_the_standard_library():
    """Every stage runs in a fresh interpreter and pays for what this loads.

    Modules loaded before the import (interpreter start-up and site hooks)
    are not counted.
    """
    added = run_python(
        "import sys\n"
        "bare = set(sys.modules)\n"
        "import rulesmith.cli\n"
        "print('\\n'.join(sorted(set(sys.modules) - bare)))\n"
    ).split()
    assert "rulesmith.cli" in added
    foreign = [
        name for name in added
        if name.split(".")[0] not in sys.stdlib_module_names | {"rulesmith"}
    ]
    assert not foreign, f"import rulesmith.cli loads third-party modules: {foreign}"


def test_mock_and_stub_stages_never_import_requests(workspace):
    tmp, train, val, tax = workspace
    stages = [
        ["rephrase", "--train", train, "--labels", tax, "--agent", "mock",
         "--out", tmp / "v.jsonl"],
        ["induce", "--train", train, "--val", tmp / "v.jsonl", "--labels", tax,
         "--agent", "mock", "--iterations", "10", "--seed", "7", "--out", tmp / "r.json"],
        ["predict", "--val", val, "--labels", tax, "--rules", tmp / "r.json",
         "--predictor", "stub:0.7", "--seed", "7", "--out", tmp / "p.jsonl"],
    ]
    out = run_python(
        "import json, sys\n"
        "from rulesmith.cli import main\n"
        "status = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps({'status': status, 'requests': 'requests' in sys.modules,\n"
        "                  'http.client': 'http.client' in sys.modules,\n"
        "                  'concurrent.futures': 'concurrent.futures' in sys.modules}))\n",
        json.dumps([[str(a) for a in stage] for stage in stages]),
    )
    assert json.loads(out.splitlines()[-1]) == {
        "status": [0, 0, 0], "requests": False, "http.client": False,
        "concurrent.futures": False,  # only a remote classifier prefetches on a pool
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["predict", "--predictor", "stub:abc"],
        ["predict", "--predictor", "stub:2"],
        ["predict", "--predictor", "stub:0.5", "--override-threshold", "7"],
        ["rephrase", "--per-sample", "0"],
        ["induce", "--iterations", "0"],
        ["induce", "--proposals", "0"],
        ["induce", "--noise", "2"],
        ["filter", "--min-reward", "5"],
        ["eval", "--labels", "BROKEN"],
        ["report", "--report", "BROKEN"],
        ["rephrase", "--agent", "moc"],
        ["induce", "--agent", "foo"],
        ["predict", "--predictor", "stub"],
        ["predict", "--predictor", "foo"],
        ["filter", "--min-support", "-3", "--val", "VAL", "--labels", "TAX"],
        ["filter", "--min-precision", "5", "--min-support", "-3"],
        ["filter", "--min-precision", "5"],
        ["filter", "--min-support", "-3"],
        # Checked before the remote agent is built, so no request is sent.
        ["induce", "--agent", "http://127.0.0.1:9/v1", "--noise", "5"],
        ["filter", "--val", "VAL"],
    ],
)
def test_malformed_values_are_structured_errors(workspace, capsys, argv):
    tmp, train, val, tax = workspace
    rules = tmp / "rules.json"
    save_rulebase(RuleBase(rules=(), metadata=RuleBaseMetadata(created_at="x")), rules)
    broken = tmp / "broken.json"
    broken.write_text("{", encoding="utf-8")
    preds = tmp / "preds.jsonl"
    preds.write_text("", encoding="utf-8")
    required = {
        "predict": ["--val", val, "--labels", tax, "--rules", rules, "--out", tmp / "p.jsonl"],
        "rephrase": ["--train", train, "--labels", tax, "--out", tmp / "v.jsonl"],
        "induce": ["--train", train, "--val", val, "--labels", tax, "--out", tmp / "r.json"],
        "filter": ["--rules", rules, "--out", tmp / "f.json"],
        "eval": ["--pred", preds, "--val", val],
        "report": [],
    }[argv[0]]
    placeholders = {"BROKEN": broken, "VAL": val, "TAX": tax}
    args = [str(placeholders.get(a, a)) for a in argv]
    status = main(args + [str(a) for a in required])
    assert status == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    error = json.loads(err.strip().splitlines()[-1])
    assert set(error) == {"error", "message"}
    if "BROKEN" not in argv:  # every case but the two malformed files
        assert error["error"] == "ArgumentError"
    if "--out" in required:
        assert not required[required.index("--out") + 1].exists()


def test_a_bug_in_a_stage_is_not_reported_as_bad_input(workspace, monkeypatch):
    """Only the program's own errors end in exit 1; any other is a traceback."""
    tmp, train, val, tax = workspace
    preds = tmp / "preds.jsonl"
    preds.write_text(_predictions_for(val, lambda ids: ids), encoding="utf-8")

    def broken(*args, **kwargs):
        raise ValueError("an invariant broke")

    monkeypatch.setattr("rulesmith.cli.evaluate", broken)
    with pytest.raises(ValueError, match="an invariant broke"):
        main(["eval", "--pred", str(preds), "--val", str(val), "--labels", str(tax)])


def test_a_label_stdout_cannot_encode_is_a_structured_error(tmp_path, capsys, monkeypatch):
    labels = ["\u9000\u6b3e", "shipping"]  # the first is 退款, "refund"
    samples = build_planted_corpus(labels, per_label=3, seed=1)
    val, tax, preds = tmp_path / "val.jsonl", tmp_path / "labels.json", tmp_path / "preds.jsonl"
    save_dataset(samples, val)
    save_taxonomy(LabelTaxonomy(intent=tuple(labels), image_scene=()), tax)
    save_predictions(
        [Prediction(s.id, s.gold_label, PredictionSource.PREDICTOR, None, s.gold_label)
         for s in samples],
        preds,
    )
    report = tmp_path / "report.json"
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(io.BytesIO(), encoding="ascii"))
    status = main(["eval", "--pred", str(preds), "--val", str(val), "--labels", str(tax),
                   "--report", str(report)])
    assert status == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"] == "UnicodeEncodeError"
    assert not report.exists()


@pytest.mark.parametrize("command", ["rephrase", "induce", "predict"])
def test_a_path_stdout_cannot_encode_leaves_no_file(workspace, capsys, monkeypatch, command):
    tmp, train, val, tax = workspace
    rules = tmp / "rules.json"
    assert main([str(a) for a in ["induce", "--train", train, "--val", val, "--labels", tax,
                                  "--iterations", "5", "--seed", "1", "--out", rules]]) == 0
    out, report = tmp / "\u51fa.json", tmp / "report.json"  # 出, "out"
    argv = {
        "rephrase": ["rephrase", "--train", train, "--labels", tax],
        "induce": ["induce", "--train", train, "--val", val, "--labels", tax, "--iterations", "5"],
        "predict": ["predict", "--val", val, "--labels", tax, "--rules", rules,
                    "--predictor", "stub:0.9", "--report", report],
    }[command]
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(io.BytesIO(), encoding="ascii"))
    assert main([str(a) for a in argv + ["--out", out]]) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"] == "UnicodeEncodeError"
    assert not out.exists() and not report.exists()


@pytest.mark.parametrize(
    "url",
    ["http://", "http://127.0.0.1:99999/v1", "http://127.0.0.1:abc/", "http://[::1/v1",
     "http://a b/v1"],
    ids=["no-host", "port-out-of-range", "port-not-a-number", "bad-ipv6-literal",
         "space-in-host"],
)
@pytest.mark.parametrize("option", ["--agent", "--predictor"])
def test_malformed_endpoint_url_is_refused_before_any_request(
    workspace, capsys, option, url
):
    tmp, train, val, tax = workspace
    rules = tmp / "rules.json"
    save_rulebase(RuleBase(rules=(), metadata=RuleBaseMetadata(created_at="x")), rules)
    out = tmp / "out"
    argv = {
        "--agent": ["induce", "--train", train, "--val", val, "--labels", tax],
        "--predictor": ["predict", "--val", val, "--labels", tax, "--rules", rules],
    }[option]
    status = main([str(a) for a in argv + [option, url, "--out", out]])
    assert status == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    # An ArgumentError from building the transport, not a failure of a request.
    assert json.loads(err.strip().splitlines()[-1])["error"] == "ArgumentError"
    assert not out.exists()


@pytest.mark.parametrize(
    "proxy",
    ["http://127.0.0.1:abc", "http://127.0.0.1:99999", "http://[::1", "http://a b:8080"],
    ids=["port-not-a-number", "port-out-of-range", "bad-ipv6-literal", "space-in-host"],
)
def test_malformed_proxy_setting_is_refused_before_any_request(
    workspace, capsys, monkeypatch, no_proxy, proxy
):
    tmp, train, val, tax = workspace
    for name in ("no_proxy", "NO_PROXY"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("http_proxy", proxy)
    out = tmp / "rules.json"
    status = main([str(a) for a in ["induce", "--train", train, "--val", val, "--labels", tax,
                                     "--agent", "http://127.0.0.1:9/v1", "--out", out]])
    assert status == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    error = json.loads(err.strip().splitlines()[-1])
    assert error["error"] == "ArgumentError" and "http_proxy" in error["message"]
    assert not out.exists()


@pytest.fixture
def no_proxy(monkeypatch):
    """Requests to the loopback endpoint go direct, whatever the environment says."""
    for name in ("HTTP_PROXY", "HTTPS_PROXY", "ALL_PROXY"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.lower(), raising=False)


@pytest.mark.parametrize("command", ["rephrase", "induce"])
def test_agent_that_gives_up_ends_the_stage_with_no_output(workspace, capsys, no_proxy, command):
    tmp, train, val, tax = workspace
    out = tmp / "out"
    argv = {
        "rephrase": ["rephrase", "--train", train, "--labels", tax],
        "induce": ["induce", "--train", train, "--val", val, "--labels", tax],
    }[command]
    with ScriptedHTTPServer([(500, "internal error")] * 4) as server:
        status = main([str(a) for a in argv + ["--agent", server.url, "--out", out]])
    assert status == 1
    # The first agent call spends its retry budget and ends the stage.
    assert len(server.requests) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    last = json.loads(err.strip().splitlines()[-1])
    assert last["error"] == "AgentUnavailableError"
    assert "transport failure" in last["message"]
    assert not out.exists()


class RefusingTransport:
    """A transport every call of which fails; counts calls to ``close``."""

    def __init__(self) -> None:
        self.closed = 0

    def __call__(self, messages):
        raise ConnectionError("refused")

    def close(self) -> None:
        self.closed += 1


@pytest.mark.parametrize("command", ["rephrase", "induce", "predict"])
def test_a_failing_stage_closes_its_remote_client(workspace, monkeypatch, command):
    import rulesmith.agents as agents
    import rulesmith.inference as inference

    tmp, train, val, tax = workspace
    transports = []

    def factory(endpoint, **options):
        transports.append(RefusingTransport())
        return transports[-1]

    monkeypatch.setattr(agents, "http_chat_transport", factory)
    monkeypatch.setattr(inference, "http_chat_transport", factory)
    rules = tmp / "rules.json"
    save_rulebase(RuleBase.build([make_rule("r", "refund", [contains("alpha")], 0.9)]), rules)
    endpoint = "http://127.0.0.1:9/v1"
    argv = {
        "rephrase": ["rephrase", "--train", train, "--agent", endpoint],
        "induce": ["induce", "--train", train, "--val", val, "--agent", endpoint],
        "predict": ["predict", "--val", val, "--rules", rules, "--predictor", endpoint],
    }[command]
    assert main([str(a) for a in argv + ["--labels", tax, "--out", tmp / "out"]]) == 1
    assert [t.closed for t in transports] == [1]


def test_repeated_chains_in_one_interpreter_keep_memory_bounded(workspace):
    """Nothing a stage allocates outlives it: after two warm-up rounds of
    the whole chain, two more rounds retain no more than a fixed slack."""
    import gc
    import tracemalloc

    tmp, train, val, tax = workspace
    files = {name: str(tmp / name) for name in
             ("rephrased.jsonl", "rules.json", "filtered.json", "preds.jsonl", "report.json")}
    chain = [
        ["rephrase", "--train", train, "--labels", tax, "--agent", "mock",
         "--seed", "5", "--out", files["rephrased.jsonl"]],
        ["induce", "--train", train, "--val", files["rephrased.jsonl"], "--labels", tax,
         "--agent", "mock", "--iterations", "20", "--seed", "5", "--out", files["rules.json"]],
        ["filter", "--rules", files["rules.json"], "--val", val, "--labels", tax,
         "--out", files["filtered.json"]],
        ["predict", "--val", val, "--labels", tax, "--rules", files["filtered.json"],
         "--predictor", "stub:0.6", "--seed", "5", "--out", files["preds.jsonl"]],
        ["eval", "--pred", files["preds.jsonl"], "--val", val, "--labels", tax,
         "--report", files["report.json"]],
    ]
    # Bytes. The interpreter's own caches (argparse's attribute names) grow
    # by about 7 KB a round; keeping each round's sample indexes alive would
    # retain about 57 KB a round.
    slack = 64 * 1024
    sizes = []
    tracemalloc.start()
    try:
        for _ in range(4):
            for argv in chain:
                assert main([str(a) for a in argv]) == 0
            gc.collect()
            sizes.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert sizes[3] - sizes[1] <= slack, sizes


def test_agent_reward_past_float_range_is_a_protocol_error(workspace, capsys, no_proxy):
    tmp, train, val, tax = workspace
    out = tmp / "out"
    # One reply serves both calls: a proposal reads "predicates", a judgement "reward".
    payload = {"predicates": ['any_text contains "plantedrefund"'], "reward": 10**400,
               "confidence": 0.5}
    reply = chat_body(f"```json\n{json.dumps(payload)}\n```")
    with ScriptedHTTPServer(lambda body: (200, reply)) as server:
        status = main([str(a) for a in ["induce", "--train", train, "--val", val, "--labels",
                                        tax, "--agent", server.url, "--out", out]])
    assert status == 1
    # The proposal, then the judgement's three attempts.
    assert len(server.requests) == 4
    err = capsys.readouterr().err
    assert "Traceback" not in err
    last = json.loads(err.strip().splitlines()[-1])
    assert last["error"] == "AgentProtocolError"
    assert "field 'reward'" in last["message"]
    assert not out.exists()


def test_induce_against_endpoints_on_other_ports_writes_the_same_rules(workspace, no_proxy):
    """The rule base's config digest names the agent endpoint by its scheme
    and path, so the port the endpoint listens on leaves no trace in it."""
    tmp, train, val, tax = workspace
    payload = {"predicates": ['any_text contains "plantedrefund"'], "reward": 0.9,
               "confidence": 0.8}
    reply = chat_body(f"```json\n{json.dumps(payload)}\n```")
    with ScriptedHTTPServer(lambda body: (200, reply)) as one, \
            ScriptedHTTPServer(lambda body: (200, reply)) as other:
        assert one.url != other.url
        outs = []
        for n, server in enumerate((one, other)):
            outs.append(tmp / f"rules{n}.json")
            assert main([str(a) for a in [
                "induce", "--train", train, "--val", val, "--labels", tax, "--agent", server.url,
                "--iterations", "3", "--seed", "7", "--out", outs[-1]]]) == 0
    assert load_rulebase(outs[0]).rules
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_any_raw_reply_to_predict_ends_in_exit_0_or_a_structured_error(tmp_path, no_proxy):
    """Whatever bytes the classifier endpoint answers with, ``predict`` exits
    0 or 1; after exit 1 it has written nothing, and no worker thread of the
    classifier's pool outlives the run."""
    samples = build_planted_corpus(LABELS, per_label=3, seed=1)[:5]  # past the failure budget
    inputs, out_dir = tmp_path / "inputs", tmp_path / "out"
    inputs.mkdir()
    out_dir.mkdir()
    val, tax, rules = inputs / "val.jsonl", inputs / "labels.json", inputs / "rules.json"
    save_dataset(samples, val)
    save_taxonomy(LabelTaxonomy(intent=tuple(LABELS), image_scene=()), tax)
    save_rulebase(RuleBase.build([make_rule("r", "refund", [contains("plantedrefund")], 0.9)]),
                  rules)
    out, report = out_dir / "preds.jsonl", out_dir / "report.json"

    with RawReplyServer() as server:

        @settings(max_examples=50, deadline=None)
        @given(reply=raw_replies())
        def check(reply: bytes) -> None:
            server.reply = reply
            stderr = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                status = main([str(a) for a in [
                    "predict", "--val", val, "--labels", tax, "--rules", rules,
                    "--predictor", server.url, "--out", out, "--report", report]])
            assert status in (0, 1)
            if status == 1:
                error = json.loads(stderr.getvalue().strip().splitlines()[-1])
                assert set(error) == {"error", "message"}
                assert not out.exists() and not report.exists()
            assert not list(out_dir.glob(".*.tmp"))
            workers = [t for t in threading.enumerate() if t.name.startswith("rulesmith-predict")]
            assert not workers
            out.unlink(missing_ok=True)
            report.unlink(missing_ok=True)

        check()


@pytest.mark.parametrize("command", ["rephrase", "induce"])
def test_any_raw_reply_to_the_agent_ends_in_exit_0_or_a_structured_error(
    tmp_path, no_proxy, command
):
    """Whatever bytes the agent endpoint answers with, ``rephrase`` and
    ``induce`` exit 0 or 1; after exit 1 they have written nothing, and no
    thread they started outlives the run."""
    split = stratified_split(build_planted_corpus(LABELS, per_label=4, seed=1), 0.5, seed=1)
    inputs, out_dir = tmp_path / "inputs", tmp_path / "out"
    inputs.mkdir()
    out_dir.mkdir()
    train, val, tax = inputs / "train.jsonl", inputs / "val.jsonl", inputs / "labels.json"
    save_dataset(split.train[:2], train)
    save_dataset(split.validation, val)
    save_taxonomy(LabelTaxonomy(intent=tuple(LABELS), image_scene=()), tax)
    out = out_dir / "out"
    options = {
        "rephrase": ["--train", train],
        "induce": ["--train", train, "--val", val, "--iterations", 2],
    }[command]

    with RawReplyServer() as server:

        @settings(max_examples=50, deadline=None)
        @given(reply=raw_replies())
        def check(reply: bytes) -> None:
            server.reply = reply
            threads = set(threading.enumerate())
            stderr = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                status = main([str(a) for a in [
                    command, *options, "--labels", tax, "--agent", server.url, "--out", out]])
            assert status in (0, 1)
            if status == 1:
                error = json.loads(stderr.getvalue().strip().splitlines()[-1])
                assert set(error) == {"error", "message"}
                assert not out.exists()
            assert not list(out_dir.glob(".*.tmp"))
            assert set(threading.enumerate()) <= threads
            out.unlink(missing_ok=True)

        check()


def _predictions_for(val, edit):
    """Prediction lines for ``edit`` applied to the list of gold sample ids."""
    taxonomy = LabelTaxonomy(intent=tuple(LABELS), image_scene=())
    ids = edit([s.id for s in load_dataset(val, taxonomy)])
    return "".join(
        json.dumps({"id": i, "label": "refund", "source": "predictor",
                    "fired_rule_id": None, "predictor_label": "refund"}) + "\n"
        for i in ids
    )


def _rules_labelled(label, task=Task.INTENT):
    """A rule base file whose second rule is a ``task`` rule labelled ``label``."""
    def body(val):
        rules = (make_rule("good", "refund", [contains("alpha")], 0.9),
                 make_rule("bad", label, [contains("beta")], 0.9, task=task))
        path = val.parent / "labelled.json"
        save_rulebase(RuleBase(rules=rules, metadata=RuleBaseMetadata(created_at="x")), path)
        return path.read_text(encoding="utf-8")
    return body


@pytest.mark.parametrize(
    "command, body, error",
    [
        ("predict", _rules_labelled("nolabel"), "RuleBaseError"),
        ("filter", _rules_labelled("nolabel"), "RuleBaseError"),
        ("predict", _rules_labelled("refund", Task.IMAGE_SCENE), "RuleBaseError"),
        ("eval", lambda val: _predictions_for(val, lambda ids: ids + ids[:1]),
         "EvaluationError"),
        ("eval", lambda val: _predictions_for(val, lambda ids: ids + ["not-in-gold"]),
         "EvaluationError"),
        ("eval", lambda val: _predictions_for(val, lambda ids: ids + [5]),
         "PredictionFileError"),
        ("report", lambda val: '{"oss": 0.5, "per_class": [1]}', "EvaluationError"),
        ("report", lambda val: '{"oss": 0.5, "counts": []}', "EvaluationError"),
    ],
    ids=["predict-unknown-rule-label", "filter-unknown-rule-label",
         "predict-rule-label-of-the-other-task", "eval-duplicate-id",
         "eval-unknown-id", "eval-number-id", "report-per-class", "report-counts"],
)
def test_malformed_input_files_are_structured_errors(workspace, capsys, command, body, error):
    tmp, train, val, tax = workspace
    path = tmp / "input"
    path.write_text(body(val), encoding="utf-8")
    out = tmp / "out"
    argv = {
        "predict": ["predict", "--val", val, "--labels", tax, "--rules", path,
                    "--predictor", "stub:0.5", "--out", out],
        "filter": ["filter", "--rules", path, "--labels", tax, "--out", out],
        "eval": ["eval", "--pred", path, "--val", val, "--labels", tax],
        "report": ["report", "--report", path],
    }[command]
    assert main([str(a) for a in argv]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    last = json.loads(err.strip().splitlines()[-1])
    assert set(last) == {"error", "message"}
    assert last["error"] == error
    if command in ("predict", "filter"):
        assert "'bad'" in last["message"]
    assert not out.exists()


@pytest.mark.parametrize(
    "content", ["[" * 100_000 + "]" * 100_000, "1" * 5001], ids=["too-deep", "over-long-integer"]
)
@pytest.mark.parametrize(
    "option", ["rephrase --train", "rephrase --labels", "filter --rules", "eval --pred",
               "report --report"],
)
def test_undecodable_json_files_are_structured_errors(workspace, capsys, option, content):
    tmp, train, val, tax = workspace
    hostile = tmp / "hostile.json"
    hostile.write_text(content, encoding="utf-8")
    command, flag = option.split()
    args = {
        "rephrase": {"--train": train, "--labels": tax, "--out": tmp / "v.jsonl"},
        "filter": {"--rules": None, "--out": tmp / "f.json"},
        "eval": {"--pred": None, "--val": val, "--labels": tax},
        "report": {"--report": None},
    }[command]
    args[flag] = hostile
    assert main([command] + [str(a) for pair in args.items() for a in pair]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    last = json.loads(err.strip().splitlines()[-1])
    assert last["error"] in {"DatasetError", "RuleBaseError", "PredictionFileError",
                             "EvaluationError"}
    assert "JSON" in last["message"]
    assert not (tmp / "v.jsonl").exists() and not (tmp / "f.json").exists()


@pytest.mark.parametrize(
    "option, old, new",
    [("rephrase --train", '"text": "', '"text": "\\ud800'),
     ("rephrase --labels", '"refund"', '"refund\\ud800"'),
     ("filter --rules", "alpha", "alpha\\ud800"),
     ("filter --rules", '"id": "r"', '"id": "r\\ud800"'),
     ("report --report", '"label": "refund"', '"label": "refund\\ud800"'),
     ("eval --pred", '"id": "', '"id": "\\ud800'),
     ("eval --pred", '"label": "refund"', '"label": "refund\\ud800"')],
    ids=["turn-text", "taxonomy-label", "predicate-value", "rule-id", "report-label",
         "prediction-id", "prediction-label"],
)
def test_lone_surrogates_in_input_files_are_structured_errors(workspace, capsys, option, old, new):
    """A JSON escape such as "\\ud800" decodes to a lone surrogate, which no
    UTF-8 output file can hold, so the loader refuses it."""
    tmp, train, val, tax = workspace
    rules = tmp / "rules.json"
    base = RuleBase(rules=(make_rule("r", "refund", [contains("alpha")], 0.9),),
                    metadata=RuleBaseMetadata(created_at="x"))
    save_rulebase(base, rules)
    report = tmp / "report.json"
    row = {"label": "refund", "precision": 1.0, "recall": 1.0, "f1": 1.0, "support": 1}
    report.write_text(json.dumps({"oss": 1.0, "per_class": [row]}), encoding="utf-8")
    preds = tmp / "preds.jsonl"
    preds.write_text(_predictions_for(val, lambda ids: ids), encoding="utf-8")
    command, flag = option.split()
    path = {"--train": train, "--labels": tax, "--rules": rules, "--report": report,
            "--pred": preds}[flag]
    text = path.read_text(encoding="utf-8")
    assert old in text
    path.write_text(text.replace(old, new, 1), encoding="utf-8")
    out = tmp / "out"
    argv = {
        "rephrase": ["rephrase", "--train", train, "--labels", tax, "--seed", "1", "--out", out],
        "filter": ["filter", "--rules", rules, "--out", out],
        "report": ["report", "--report", report],
        "eval": ["eval", "--pred", preds, "--val", val, "--labels", tax, "--report", out],
    }[command]
    assert main([str(a) for a in argv]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    last = json.loads(err.strip().splitlines()[-1])
    assert set(last) == {"error", "message"}
    assert last["error"] == {
        "rephrase": "DatasetError", "filter": "RuleBaseError", "report": "EvaluationError",
        "eval": "PredictionFileError",
    }[command]
    assert "surrogate" in last["message"]
    assert not out.exists()


def test_filter_keeps_the_boundary_reward(tmp_path, capsys):
    rules = [
        make_rule("below", "refund", [contains("alpha")], 0.79),
        make_rule("at", "shipping", [contains("beta")], 0.80),
    ]
    base = RuleBase(rules=tuple(rules), metadata=RuleBaseMetadata(created_at="x"))
    src = tmp_path / "rules.json"
    dst = tmp_path / "filtered.json"
    save_rulebase(base, src)
    status = main(["filter", "--rules", str(src), "--min-reward", "0.8", "--out", str(dst)])
    assert status == 0
    filtered = load_rulebase(dst)
    assert [r.id for r in filtered.rules] == ["at"]


def test_full_pipeline_and_eval_identity(workspace, capsys):
    tmp, train, val, tax = workspace
    rules_path = tmp / "rules.json"
    filtered_path = tmp / "filtered.json"
    preds_path = tmp / "preds.jsonl"
    report_path = tmp / "report.json"

    assert main(
        ["induce", "--train", str(train), "--val", str(val), "--labels", str(tax),
         "--agent", "mock", "--iterations", "40", "--seed", "3", "--noise", "0.0",
         "--out", str(rules_path)]
    ) == 0
    assert main(
        ["filter", "--rules", str(rules_path), "--min-reward", "0.8",
         "--val", str(val), "--labels", str(tax), "--out", str(filtered_path)]
    ) == 0
    assert main(
        ["predict", "--val", str(val), "--labels", str(tax),
         "--rules", str(filtered_path), "--predictor", "stub:0.6", "--seed", "3",
         "--out", str(preds_path)]
    ) == 0
    assert main(
        ["eval", "--pred", str(preds_path), "--val", str(val), "--labels", str(tax),
         "--report", str(report_path)]
    ) == 0

    report = json.loads(report_path.read_text())
    # Planted rules cover everything at precision 1.0, so the rules fix
    # whatever the weak stub got wrong.
    assert report["dis"] == 1.0
    assert report["oss"] == 1.0

    capsys.readouterr()
    assert main(["report", "--report", str(report_path)]) == 0
    printed = capsys.readouterr().out
    assert "intent score" in printed
    assert "1.0000" in printed


def test_eval_reports_the_equal_support_mean(tmp_path, capsys):
    # Balanced two-task fixture: equal supports, so the unified score must
    # equal the plain mean of the two per-task scores.
    taxonomy = LabelTaxonomy(intent=("ia", "ib"), image_scene=("sa", "sb"))
    tax_path = tmp_path / "labels.json"
    save_taxonomy(taxonomy, tax_path)

    from _helpers import intent_sample, scene_sample

    samples = []
    predictions = []
    intent_pairs = [("ia", "ia"), ("ia", "ib"), ("ib", "ib"), ("ib", "ib")]
    scene_pairs = [("sa", "sa"), ("sa", "sa"), ("sb", "sa"), ("sb", "sb")]
    for i, (g, p) in enumerate(intent_pairs):
        samples.append(intent_sample(f"i{i}", g, "t"))
        predictions.append(Prediction(f"i{i}", p, PredictionSource.PREDICTOR, None, p))
    for i, (g, p) in enumerate(scene_pairs):
        samples.append(scene_sample(f"s{i}", g, "o"))
        predictions.append(Prediction(f"s{i}", p, PredictionSource.PREDICTOR, None, p))

    gold_path = tmp_path / "gold.jsonl"
    preds_path = tmp_path / "preds.jsonl"
    report_path = tmp_path / "report.json"
    save_dataset(samples, gold_path)
    save_predictions(predictions, preds_path)

    status = main(
        ["eval", "--pred", str(preds_path), "--val", str(gold_path),
         "--labels", str(tax_path), "--report", str(report_path)]
    )
    assert status == 0
    report = json.loads(report_path.read_text())
    assert report["counts"]["intent"] == report["counts"]["image_scene"]
    assert abs(report["oss"] - (report["dis"] + report["iss"]) / 2) <= 1e-9


def test_predict_writes_run_report(workspace):
    tmp, train, val, tax = workspace
    empty = RuleBase(rules=(), metadata=RuleBaseMetadata(created_at="x"))
    rules_path = tmp / "empty.json"
    save_rulebase(empty, rules_path)
    preds_path = tmp / "preds.jsonl"
    run_report = tmp / "run.json"
    status = main(
        ["predict", "--val", str(val), "--labels", str(tax), "--rules", str(rules_path),
         "--predictor", "stub:1.0", "--seed", "0", "--out", str(preds_path),
         "--report", str(run_report)]
    )
    assert status == 0
    report = json.loads(run_report.read_text())
    assert report["from_rules"] == 0
    assert report["from_predictor"] == report["total"]

    taxonomy = LabelTaxonomy(intent=tuple(LABELS), image_scene=())
    gold = {s.id: s.gold_label for s in load_dataset(val, taxonomy)}
    from rulesmith import load_predictions

    for prediction in load_predictions(preds_path):
        assert prediction.label == gold[prediction.sample_id]  # stub:1.0 is perfect


def test_a_report_that_cannot_be_written_leaves_no_predictions(workspace, capsys):
    tmp, train, val, tax = workspace
    rules, out, report = tmp / "empty.json", tmp / "p.jsonl", tmp / "nodir" / "rep.json"
    save_rulebase(RuleBase(rules=(), metadata=RuleBaseMetadata(created_at="x")), rules)
    status = main([str(a) for a in ["predict", "--val", val, "--labels", tax, "--rules", rules,
                                    "--predictor", "stub:0.9", "--out", out, "--report", report]])
    assert status == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"] == "OSError"
    assert not out.exists() and not report.exists()


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "rulesmith" in capsys.readouterr().out
