"""The benchmark's oracle over the CLI chain, run in this interpreter.

``perfbench/checks.py`` recomputes what the chain should produce without
importing rulesmith: its own matcher, the recount of rule precision, the
dominance recheck, arbitration and the weighted-F1 recount. These tests run
the five stages through ``cli.main`` with the benchmark's own arguments, on
its tiny corpora, and ask the oracle for problems.
"""

from __future__ import annotations

import dataclasses
import importlib
from pathlib import Path

import pytest

from rulesmith.cli import main

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"
PROXY_VARIABLES = ("http_proxy", "https_proxy", "all_proxy")


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    run = importlib.import_module("run")
    stub = importlib.import_module("stub")
    # Port 0: the stub binds a free port, so a benchmark running at the same
    # time keeps its fixed one.
    monkeypatch.setattr(stub, "PORT", 0)
    for name in PROXY_VARIABLES:
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    monkeypatch.setenv("NO_PROXY", "127.0.0.1,localhost")
    monkeypatch.setenv("no_proxy", "127.0.0.1,localhost")
    return run


@pytest.mark.parametrize("name", ["induce-mock", "induce-remote"])
def test_chain_passes_the_benchmark_oracle(bench, tmp_path, name):
    run = bench
    workload = dataclasses.replace(run.WORKLOADS[name], latency_s=0.0)
    setup = run.set_up(workload, run.TINY_SHAPE, 3, tmp_path / "inputs")
    out = tmp_path / "out"
    out.mkdir()
    try:
        for stage, args in run.stage_args(workload, run.TINY_ITERATIONS, setup, out).items():
            assert main([stage, *args]) == 0, stage
    finally:
        if setup.endpoint is not None:
            setup.endpoint.close()
    problems, _, _ = run.check_outputs(workload, setup, out)
    assert problems == []
