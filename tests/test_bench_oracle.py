"""The benchmark's oracle over the CLI chain, run in this interpreter.

``perfbench/checks.py`` recomputes what the chain should produce without
importing rulesmith: its own matcher, the recount of rule precision, the
dominance recheck, arbitration and the weighted-F1 recount. These tests run
the five stages through ``cli.main`` with the benchmark's own arguments, on
its tiny corpora, and ask the oracle for problems. The golden test pins the
sha256 of every output file, so that a change which alters any output byte
under a fixed ``--seed`` fails here, not only in a hand-run benchmark pair.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import unicodedata
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


def run_chain(run, name, tiny, seed, directory):
    """Set up ``name``'s corpus and run its five stages through ``cli.main``;
    return the set-up and the output directory."""
    workload = dataclasses.replace(run.WORKLOADS[name], latency_s=0.0)
    shape, iterations = (
        (run.TINY_SHAPE, run.TINY_ITERATIONS) if tiny else (workload.shape, workload.iterations)
    )
    setup = run.set_up(workload, shape, seed, directory / "inputs")
    out = directory / "out"
    out.mkdir()
    try:
        for stage, args in run.stage_args(workload, iterations, setup, out).items():
            assert main([stage, *args]) == 0, stage
    finally:
        if setup.endpoint is not None:
            setup.endpoint.close()
    return setup, out


@pytest.mark.parametrize("name", ["induce-mock", "induce-remote"])
def test_chain_passes_the_benchmark_oracle(bench, tmp_path, name):
    run = bench
    setup, out = run_chain(run, name, True, 3, tmp_path)
    problems, _, _ = run.check_outputs(run.WORKLOADS[name], setup, out)
    assert problems == []


# sha256 of each output, taken at the commit that added this test. A change
# meant to alter outputs updates them and says why in CHANGES.md. Tiny
# predict-bulk is left out: it shares its shape and iterations with tiny
# induce-mock, and its digests equal induce-mock's.
GOLDEN = {
    ("induce-mock", True, 3): {
        "val.jsonl": "fa1cf5c5ec1242e9a0c5714d8ca311183cc841c313ab09bff1045a609b150253",
        "rules.json": "c453a8dd1475d14168b56e9a01c48c8e450eba1fa7024906182edbde888e3be8",
        "filtered.json": "c93833a17c7367cda259b2f7496ca8e95a774e55c103541da1f14f6d789247c0",
        "preds.jsonl": "5a89abb1957d85704e2b8733c7b6f3d1699a36ef7ed647a56dd66dc4174a9210",
        "predict_report.json": "699c23dbcdd524f3e00a94d14e4db15334a01f29c4d152b7dbcebe8131a19ab5",
        "report.json": "1bcffa297d28572d496abe12d048fd46f043c9c8d7e3c7dea6aaaef5d22c2dda",
    },
    ("predict-bulk", False, 1): {
        "val.jsonl": "170732590a1a600d69ff2a684d287d3a08d18d021d61ac257e8847cf6629649e",
        "rules.json": "729772a99ce87c1411439c197e7950b521c215eaae6515d9acc5df7f0302c831",
        "filtered.json": "ee91ff3cbc234f79bc1af070c98ffb23dd9769346ebf96f6f89851c2d73646af",
        "preds.jsonl": "45c059d525f9ce68021d4d654b25461ba21cd77a67007fa0dd575dc16ea8d67e",
        "predict_report.json": "52f86b84736634810d52a0aa61cd6ee7ad0a6202eb2862b1495eea3c8b4c5295",
        "report.json": "bb9551967251abfa12d4d637512f2f77c81fc23caad1e82d20ff87107448a24e",
    },
    ("induce-remote", True, 3): {
        "val.jsonl": "baf586d05af1aca81381069d8258d864694a70965334fabf27f4d5d2a91fb9a9",
        # The config digest hashes the agent URL without its host and port, so
        # these hold whatever port the stub binds.
        "rules.json": "f6d8266bf0106b99b692bedfa3c73e3cd47499653f1f84c125beed3a47af3b55",
        "filtered.json": "e6d33fdcc0455f3d7e305564464ca7f837fa8318d5dd04bf64a89332d53a4f16",
        "preds.jsonl": "7bbf23a571c888c8c012952c2505ca209021e77c0ba5ca2a9225cdcca47d38b3",
        "predict_report.json": "c6634cc6bb79c75bc625185a649c8cc105d0ad683422ef7245fa04e765290c6f",
        "report.json": "bdfff99ee428959a39c6910e6eb5e14a5658eb54495fe77e646b6022afb7d31e",
    },
}


@pytest.mark.parametrize(
    "key", list(GOLDEN), ids=[f"{name}-{'tiny' if tiny else 'full'}-seed{seed}"
                              for name, tiny, seed in GOLDEN]
)
def test_outputs_equal_the_golden_digests(bench, tmp_path, key):
    run = bench
    setup, out = run_chain(run, *key, tmp_path)
    # Matching normalizes text with NFKC, whose tables follow Python's
    # Unicode version (13.0 on 3.10, 14.0 on 3.11). Unicode's stability
    # policy fixes the normalization of every character already assigned, so
    # with inputs from the Unicode 3.2 repertoire one digest set holds for both.
    for path in setup.directory.iterdir():
        unassigned = {c for c in path.read_text(encoding="utf-8")
                      if unicodedata.ucd_3_2_0.category(c) == "Cn"}
        assert not unassigned, (path.name, sorted(unassigned))
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in run.OUTPUTS}
    assert digests == GOLDEN[key]
