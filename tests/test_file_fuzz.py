"""A mutated input file ends every subcommand that reads it in exit 0 or 1.

The benchmark's tiny induce-mock chain is built once. Each example mutates
one record of a JSONL file or the document of a JSON file: it drops a key,
adds an unknown one, replaces a value at any depth with a hostile one, or
truncates the file at a random byte. Every subcommand that reads the file
then runs through ``cli.main`` on the mutated copy. Nothing may escape
``main``; after exit 1 the last line of stderr is the JSON error and no
output file exists.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rulesmith.cli import main

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"
OUTPUT_FLAGS = ("--out", "--report")
# json.dumps writes an infinite float as Infinity; this marker becomes 1e999.
OVERFLOW = "\x001e999\x00"
HOSTILE = [None, True, 7, math.nan, OVERFLOW, 10**400, "", "\ud800", "\x00", "x" * 5000, [], {}]


@pytest.fixture(scope="module")
def readers(tmp_path_factory):
    """Each input file of the tiny chain, mapped to the stages that read it."""
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
    stages["report"] = ["--report", str(out / "report.json")]
    found: dict[str, list[tuple[str, list[str]]]] = {}
    for stage, args in stages.items():
        for flag, value in zip(args[::2], args[1::2]):
            if stage == "report" or flag not in OUTPUT_FLAGS:
                found.setdefault(value, []).append((stage, args))
    return {path: stages for path, stages in found.items() if path.endswith((".json", ".jsonl"))}


def nodes(value, path=()):
    """Every (path, value) pair of a JSON document, the root first."""
    yield path, value
    if isinstance(value, dict):
        children = value.items()
    else:
        children = enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from nodes(child, path + (key,))


def mutate(document, data):
    everything = list(nodes(document))
    kind = data.draw(st.sampled_from(["drop", "add", "replace"]))
    if kind == "replace" and len(everything) > 1:
        path, _ = data.draw(st.sampled_from(everything[1:]))
        parent = document
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = data.draw(st.sampled_from(HOSTILE))
        return document
    dicts = [v for _, v in everything if isinstance(v, dict) and (v or kind == "add")]
    if not dicts:
        return data.draw(st.sampled_from(HOSTILE))
    target = data.draw(st.sampled_from(dicts))
    if kind == "drop":
        del target[data.draw(st.sampled_from(sorted(target)))]
    else:
        target["unknown"] = data.draw(st.sampled_from(HOSTILE))
    return document


def dump(document) -> str:
    return json.dumps(document).replace(json.dumps(OVERFLOW), "1e999")


def mutated(raw: bytes, jsonl: bool, data) -> bytes:
    if data.draw(st.booleans()):
        return raw[: data.draw(st.integers(0, len(raw) - 1))]
    if not jsonl:
        return dump(mutate(json.loads(raw), data)).encode("utf-8")
    lines = raw.decode("utf-8").splitlines()
    i = data.draw(st.integers(0, len(lines) - 1))
    lines[i] = dump(mutate(json.loads(lines[i]), data))
    return "".join(line + "\n" for line in lines).encode("utf-8")


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_files_end_in_exit_0_or_a_structured_error(readers, data):
    path = data.draw(st.sampled_from(sorted(readers)))
    content = mutated(Path(path).read_bytes(), path.endswith(".jsonl"), data)
    with tempfile.TemporaryDirectory() as scratch:
        hostile = Path(scratch) / Path(path).name
        hostile.write_bytes(content)
        for stage, args in readers[path]:
            argv, outputs = [stage], []
            for flag, value in zip(args[::2], args[1::2]):
                if value == path:
                    value = str(hostile)
                elif flag in OUTPUT_FLAGS:
                    value = str(Path(scratch) / f"{stage}{flag}")
                    outputs.append(Path(value))
                argv += [flag, value]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                status = main(argv)
            assert status in (0, 1), (stage, status)
            if status == 1:
                error = json.loads(stderr.getvalue().strip().splitlines()[-1])
                assert set(error) == {"error", "message"}
                assert not [p for p in outputs if p.exists()], (stage, error)
            for output in outputs:  # the next reader starts from no output
                output.unlink(missing_ok=True)
