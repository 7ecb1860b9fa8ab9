"""Benchmark of the rulesmith CLI chain: rephrase, induce, filter, predict, eval.

    python3 perfbench/run.py --workload induce-mock --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

Each run sets up a seeded corpus (several times, reporting the median set-up
time), then repeats whole rounds of the chain until ``--seconds`` have
passed. Every stage of a round runs in a fresh interpreter through
``stage.py``. Timed metrics are medians over rounds. The first round's
outputs are checked against computations made apart from rulesmith
(``checks.py``); every later round must reproduce its output digests,
under a different PYTHONHASHSEED on alternate rounds.

With ``--trace 1``, untraced and traced rounds alternate: the traced ones
give the per-layer metrics, and the difference between the two kinds of
round gives the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import stub
from corpus import FIXED_TEST_IDS, Corpus, CorpusShape, generate, write_inputs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS_DIR = BENCH_DIR / ".runs"
CLI_SEED = "7"
SETUPS_PER_RUN = 9
MIN_ROUNDS = 3
DEADLINE_S = 170.0
STAGES = ("rephrase", "induce", "filter", "predict", "eval")
OUTPUTS = ("val.jsonl", "rules.json", "filtered.json", "preds.jsonl",
           "predict_report.json", "report.json")


@dataclass(frozen=True)
class Workload:
    why: str
    shape: CorpusShape
    iterations: int
    remote: bool = False
    accuracy: float = 0.7
    latency_s: float = 0.0
    malformed_share: float = 0.0


WORKLOADS = {
    "induce-mock": Workload(
        why="mock agent, many labels and MCTS iterations: the CPU path of rule induction",
        shape=CorpusShape(intent_labels=20, scene_labels=12, train_per_label=16,
                          test_per_label=30, plant_share=0.5),
        iterations=50,
    ),
    "predict-bulk": Workload(
        why="short induction, hundreds of rules applied to thousands of distinct test samples",
        shape=CorpusShape(intent_labels=40, scene_labels=32, train_per_label=8,
                          test_per_label=60, plant_share=0.5),
        iterations=25,
    ),
    "induce-remote": Workload(
        why="agent and classifier behind a loopback stub with fixed latency: serial calls set wall time",
        shape=CorpusShape(intent_labels=4, scene_labels=3, train_per_label=12,
                          test_per_label=30, plant_share=0.5),
        iterations=12,
        remote=True,
        accuracy=0.6,
        latency_s=0.008,
        malformed_share=0.1,
    ),
}

# Every workload at --scale tiny, for the benchmark's own tests. Smaller
# corpora let background words become label-exclusive by chance and crowd
# the planted tokens out of the first proposals.
TINY_SHAPE = CorpusShape(intent_labels=4, scene_labels=3, train_per_label=12,
                         test_per_label=12, plant_share=0.5)
TINY_ITERATIONS = 10

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "rulebase_s": "s", "predict_samples_per_s": "samples/s",
    "agent_calls": "calls", "oss": "F1", "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The program failed or misbehaved; no result can be reported."""


# --- host speed -----------------------------------------------------------------
#
# On the 2-vCPU VMs this benchmark was built on, the speed of each vCPU
# drifts by up to 1.7x within seconds to minutes, independently per vCPU,
# and process CPU time drifts with it. A run therefore pins itself, its
# stage processes and the stub's threads to one vCPU, times a fixed
# calibration unit there right before and after every timed span, and
# scales the span's CPU time to the speed at which the unit takes
# REFERENCE_UNIT_S. Time not spent on the CPU (waiting on the stub
# endpoint) is left as measured.

REFERENCE_UNIT_S = 0.004


def pin_to_one_cpu() -> None:
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def calibration_unit_s() -> float:
    """CPU time of a fixed unit of dict and string work, median of three."""
    times = []
    for _ in range(3):
        started = time.thread_time()
        table: dict[str, int] = {}
        for i in range(12000):
            table[str(i % 251)] = table.get(str(i % 241), 0) + i
        times.append(time.thread_time() - started)
    return statistics.median(times)


def scaled(wall: float, cpu: float, unit_before: float, unit_after: float) -> float:
    cpu = min(cpu, wall)
    return wall - cpu + cpu * REFERENCE_UNIT_S / ((unit_before + unit_after) / 2)


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


# --- set-up -------------------------------------------------------------------

@dataclass
class Setup:
    directory: Path
    corpus: Corpus
    endpoint: stub.StubEndpoint | None
    seconds: float


def set_up(workload: Workload, shape: CorpusShape, seed: int, directory: Path) -> Setup:
    unit_before = calibration_unit_s()
    started, cpu_started = time.perf_counter(), time.process_time()
    corpus = generate(seed, shape)
    write_inputs(corpus, directory)
    endpoint = None
    if workload.remote:
        endpoint = stub.StubEndpoint(corpus, seed, latency_s=workload.latency_s,
                                     malformed_share=workload.malformed_share,
                                     accuracy=workload.accuracy)
    wall, cpu = time.perf_counter() - started, time.process_time() - cpu_started
    return Setup(directory, corpus, endpoint, scaled(wall, cpu, unit_before, calibration_unit_s()))


# --- one round of the chain -----------------------------------------------------

def stage_args(workload: Workload, iterations: int, setup: Setup,
               out: Path) -> dict[str, list[str]]:
    inputs = setup.directory
    labels = str(inputs / "labels.json")
    agent = f"{setup.endpoint.url}/agent" if setup.endpoint else "mock"
    predictor = (f"{setup.endpoint.url}/classifier" if setup.endpoint
                 else f"stub:{workload.accuracy}")
    return {
        "rephrase": ["--train", str(inputs / "train.jsonl"), "--labels", labels,
                     "--agent", agent, "--per-sample", "1", "--seed", CLI_SEED,
                     "--out", str(out / "val.jsonl")],
        "induce": ["--train", str(inputs / "train.jsonl"), "--val", str(out / "val.jsonl"),
                   "--labels", labels, "--agent", agent,
                   "--iterations", str(iterations), "--proposals", "5",
                   "--noise", "0.05", "--seed", CLI_SEED, "--out", str(out / "rules.json")],
        "filter": ["--rules", str(out / "rules.json"), "--min-reward", "0.8",
                   "--val", str(out / "val.jsonl"), "--labels", labels,
                   "--min-precision", str(checks.MIN_PRECISION),
                   "--min-support", str(checks.MIN_SUPPORT),
                   "--out", str(out / "filtered.json")],
        "predict": ["--val", str(inputs / "test.jsonl"), "--labels", labels,
                    "--rules", str(out / "filtered.json"), "--predictor", predictor,
                    "--override-threshold", str(checks.OVERRIDE_THRESHOLD),
                    "--seed", CLI_SEED, "--out", str(out / "preds.jsonl"),
                    "--report", str(out / "predict_report.json")],
        "eval": ["--pred", str(out / "preds.jsonl"), "--val", str(inputs / "test.jsonl"),
                 "--labels", labels, "--report", str(out / "report.json")],
    }


def stage_env(hash_seed: int) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k.lower() not in ("http_proxy", "https_proxy", "all_proxy")}
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


def run_stage(name: str, args: list[str], out: Path, trace: bool, env: dict,
              deadline: float) -> dict:
    sidecar = out / f"{name}.sidecar.json"
    log = out / f"{name}.log"
    with log.open("w", encoding="utf-8") as handle:
        cpu_before = children_cpu_s()
        spawned = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "stage.py"), str(sidecar), "1" if trace else "0",
             name, *args],
            stdout=handle, stderr=subprocess.STDOUT, env=env, cwd=ROOT,
        )
        try:
            status = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"stage {name} did not finish before the deadline") from None
        ended = time.perf_counter()
        cpu = children_cpu_s() - cpu_before
    if status != 0:
        tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise BenchError(f"stage {name} exited {status}:\n{tail}")
    doc = json.loads(sidecar.read_text(encoding="utf-8"))
    doc.update(name=name, spawned=spawned, ended=ended, wall=ended - spawned, cpu=cpu)
    return doc


def run_round(workload: Workload, iterations: int, setup: Setup, out: Path, trace: bool,
              hash_seed: int, deadline: float) -> dict:
    out.mkdir(parents=True)
    env = stage_env(hash_seed)
    before = setup.endpoint.snapshot() if setup.endpoint else None
    stages = {}
    unit = calibration_unit_s()
    for name, args in stage_args(workload, iterations, setup, out).items():
        stage = stages[name] = run_stage(name, args, out, trace, env, deadline)
        unit_after = calibration_unit_s()
        stage["scaled"] = scaled(stage["wall"], stage["cpu"], unit, unit_after)
        stage["unit_s"] = (unit + unit_after) / 2
        unit = unit_after
    after = setup.endpoint.snapshot() if setup.endpoint else None
    predict_report = json.loads((out / "predict_report.json").read_text(encoding="utf-8"))
    digests = {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in OUTPUTS}
    if after is not None:
        requests = after[0] - before[0]
        agent_calls = requests["propose"] + requests["evaluate"] + requests["rephrase"]
    else:
        requests = None
        agent_calls = sum(s["counts"].get("agents.mock_calls", 0) for s in stages.values())
    return {
        "out": out,
        "trace": trace,
        "stages": stages,
        "digests": digests,
        "agent_calls": agent_calls,
        "stub_requests": requests,
        "stub_service_s": after[1] - before[1] if after else 0.0,
        "predictor_failures": predict_report["predictor_failures"],
        "oss": json.loads((out / "report.json").read_text(encoding="utf-8"))["oss"],
    }


# --- checks and metrics ---------------------------------------------------------

def check_outputs(workload: Workload, setup: Setup, out: Path) -> tuple[list[str], float, float]:
    """Problems found in one round's outputs, the F1 recount and classifier-alone F1."""
    corpus = setup.corpus
    val = checks.read_jsonl(out / "val.jsonl")
    rules = checks.load_rules(out / "filtered.json")
    preds = checks.read_jsonl(out / "preds.jsonl")
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    rephrase = stub.rephrase if workload.remote else (lambda text: text)
    may_fail = set(FIXED_TEST_IDS) if workload.remote else set()
    problems = checks.check_validation(corpus.train, val, rephrase)
    problems += checks.check_rules(rules, val, corpus.planted, corpus.labels)
    problems += checks.check_predictions(preds, corpus.test, rules, corpus.labels, may_fail)
    found, oss, alone = checks.check_report(report, preds, corpus.test, corpus.labels)
    return problems + found, oss, alone


def end_to_end(rnd: dict, n_test: int) -> dict[str, float]:
    walls = {name: s["scaled"] for name, s in rnd["stages"].items()}
    return {
        "wall_s": sum(walls.values()),
        "rulebase_s": walls["rephrase"] + walls["induce"] + walls["filter"],
        "predict_samples_per_s": n_test / walls["predict"],
        "agent_calls": rnd["agent_calls"],
        "oss": rnd["oss"],
        "peak_rss_mb": max(s["maxrss_kb"] for s in rnd["stages"].values()) / 1024,
    }


def _self_times(spans: list[list]) -> list[float]:
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


SPAN_METRICS = {
    "dataset.load_s": "dataset.load", "dataset.save_s": "dataset.save",
    "dataset.rephrase_s": "dataset.rephrase",
    "predicate.measure_rule_s": "predicate.measure_rule", "predicate.parse_s": "predicate.parse",
    "agents.propose_s": "agents.propose", "agents.evaluate_s": "agents.evaluate",
    "agents.wait_s": "agents.wait", "mcts.search_s": "mcts.search",
    "rulebase.build_s": "rulebase.build", "rulebase.remove_dominated_s": "rulebase.remove_dominated",
    "rulebase.online_validate_s": "rulebase.online_validate", "rulebase.load_s": "rulebase.load",
    "rulebase.save_s": "rulebase.save", "inference.predict_batch_s": "inference.predict_batch",
    "inference.match_rules_s": "inference.match_rules", "inference.predictor_s": "inference.predictor",
    "inference.save_s": "inference.save", "harness.load_predictions_s": "harness.load_predictions",
    "harness.evaluate_s": "harness.evaluate",
}
COUNT_METRICS = {
    "dataset.records_loaded": "dataset.records_loaded",
    "predicate.measure_rule_calls": "predicate.measure_rule.calls",
    "predicate.samples_scanned": "predicate.samples_scanned",
    "agents.propose_calls": "agents.propose.calls", "agents.evaluate_calls": "agents.evaluate.calls",
    "agents.rephrase_calls": "agents.rephrase.calls", "mcts.searches": "mcts.searches",
    "mcts.iterations": "mcts.iterations", "mcts.evaluations": "mcts.evaluations",
    "mcts.unique_states": "mcts.unique_states",
    "rulebase.rules_harvested": "rulebase.rules_harvested",
    "rulebase.rules_kept": "rulebase.rules_kept", "inference.rule_checks": "inference.rule_checks",
    "inference.predictor_calls": "inference.predictor.calls",
    "inference.overrides": "inference.overrides",
    "inference.predictor_failures": "inference.predictor_failures",
}
PER_LAYER_UNITS = {
    **{name: "s" for name in SPAN_METRICS},
    **{name: "count" for name in COUNT_METRICS},
    "cli.startup_s": "s", **{f"cli.{s}_s": "s" for s in STAGES}, "cli.self_s": "s",
    "predicate.normalize_cache_entries": "count", "agents.retries": "count",
    "agents.sample_tokens_entries": "count", "mcts.unique_eval_ratio": "ratio",
    "mcts.self_s": "s", "stub.service_s": "s", "trace.overhead_s": "s",
}


def per_layer(rnd: dict) -> tuple[dict[str, float], list[str]]:
    """Per-layer figures of one traced round, plus span-accounting problems."""
    values = {name: 0.0 for name in PER_LAYER_UNITS}
    problems = []
    for stage in rnd["stages"].values():
        spans = stage["spans"]
        own = _self_times(spans)
        main_s = stage["end"] - stage["begin"]
        if sum(own) > main_s + 1e-6:
            problems.append(f"spans of stage {stage['name']} cover more than its run time")
        startup = stage["imported"] - stage["spawned"]
        values["cli.startup_s"] += startup
        values[f"cli.{stage['name']}_s"] = stage["wall"]
        roots = sum(e - s for _, s, e, parent in spans if parent < 0)
        values["cli.self_s"] += stage["wall"] - startup - roots
        for metric, span_name in SPAN_METRICS.items():
            values[metric] += sum(e - s for n, s, e, _ in spans if n == span_name)
        values["mcts.self_s"] += sum(t for t, (n, *_) in zip(own, spans) if n == "mcts.search")
        counts = stage["counts"]
        for metric, key in COUNT_METRICS.items():
            values[metric] += counts.get(key, 0)
        values["agents.retries"] += (counts.get("agents.wait.calls", 0)
                                     - counts.get("agents.remote_calls", 0))
        for key, entries in stage["caches"].items():
            values[key] = max(values[key], entries)
    if values["mcts.evaluations"]:
        values["mcts.unique_eval_ratio"] = values["mcts.unique_states"] / values["mcts.evaluations"]
    requests = rnd["stub_requests"]
    if requests:
        values["stub.service_s"] = rnd["stub_service_s"] / sum(
            requests[k] for k in ("propose", "evaluate", "rephrase", "classifier"))
    return values, problems


# --- the run ------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    workload = WORKLOADS[name]
    shape = TINY_SHAPE if tiny else workload.shape
    iterations = TINY_ITERATIONS if tiny else workload.iterations
    pin_to_one_cpu()
    deadline = time.perf_counter() + DEADLINE_S
    run_dir = RUNS_DIR / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    # Compile bytecode and warm the file cache before anything is timed.
    subprocess.run([sys.executable, "-c", "import rulesmith.cli"], env=stage_env(0),
                   cwd=ROOT, check=True, timeout=60)

    setups = []
    try:
        for k in range(SETUPS_PER_RUN):
            if setups and setups[-1].endpoint:
                setups[-1].endpoint.close()  # frees the stub's fixed port
            setups.append(set_up(workload, shape, seed, run_dir / f"inputs{k}"))
        setup = setups[-1]
        n_test = len(setup.corpus.test)

        rounds = []
        started = last = time.perf_counter()
        round_s = 0.0
        # A new round starts while it is expected to end by about --seconds.
        while len(rounds) < (2 * MIN_ROUNDS if trace else MIN_ROUNDS) or (
                last - started + round_s / 2 < seconds):
            traced = trace and len(rounds) % 2 == 1
            rounds.append(run_round(workload, iterations, setup, run_dir / f"round{len(rounds)}",
                                    traced, hash_seed=1 + len(rounds) % 2, deadline=deadline))
            round_s, last = time.perf_counter() - last, time.perf_counter()
        measured = last - started

        problems, oss, alone = check_outputs(workload, setup, rounds[0]["out"])
        for rnd in rounds[1:]:
            if rnd["digests"] != rounds[0]["digests"]:
                problems.append(f"outputs of {rnd['out'].name} differ from round0")
            if rnd["agent_calls"] != rounds[0]["agent_calls"]:
                problems.append(f"agent calls of {rnd['out'].name} differ from round0")
        # Keep the checked round and its inputs; the rest only repeat them.
        for path in [r["out"] for r in rounds[1:]] + [s.directory for s in setups[:-1]]:
            shutil.rmtree(path)
    finally:
        if setups and setups[-1].endpoint:
            setups[-1].endpoint.close()

    plain = [end_to_end(r, n_test) for r in rounds if not r["trace"]]
    metrics = {key: statistics.median(m[key] for m in plain) for key in plain[0]}
    metrics = {"setup_s": statistics.median(s.seconds for s in setups), **metrics}
    units = END_TO_END_UNITS
    if trace:
        layered = []
        for rnd in rounds:
            if rnd["trace"]:
                values, found = per_layer(rnd)
                layered.append(values)
                problems += found
        metrics = {key: statistics.median(v[key] for v in layered) for key in PER_LAYER_UNITS}
        traced_wall = statistics.median(end_to_end(r, n_test)["wall_s"] for r in rounds if r["trace"])
        untraced_wall = statistics.median(m["wall_s"] for m in plain)
        metrics["trace.overhead_s"] = traced_wall - untraced_wall
        units = PER_LAYER_UNITS

    attempted = 2 * n_test * len(rounds)  # classifier calls plus predictions
    failed = sum(r["predictor_failures"] for r in rounds)
    return {
        "name": name,
        "seed": seed,
        "rounds": len(rounds),
        "traced_rounds": sum(r["trace"] for r in rounds),
        "measured_s": measured,
        "problems": problems,
        "digests": rounds[0]["digests"],
        "classifier_f1": alone,
        "raw_wall_s": statistics.median(
            sum(s["wall"] for s in r["stages"].values()) for r in rounds if not r["trace"]),
        "unit_ms": 1000 * statistics.median(
            s["unit_s"] for r in rounds for s in r["stages"].values()),
        "oss_recount": oss,
        "result": {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
    }


def print_summary(run: dict) -> None:
    result = run["result"]
    print(f"workload {run['name']} seed {run['seed']}: {run['rounds']} rounds "
          f"({run['traced_rounds']} traced) in {run['measured_s']:.1f} s")
    print(f"  ({WORKLOADS[run['name']].why})")
    for name, metric in result["metrics"].items():
        print(f"  {name:36s} {metric['value']:.6g} {metric['unit']}")
    print(f"  unscaled wall_s {run['raw_wall_s']:.4f} s; calibration unit "
          f"{run['unit_ms']:.3f} ms (reference {1000 * REFERENCE_UNIT_S:g} ms)")
    print(f"  operations attempted {result['attempted']}, failed {result['failed']}")
    print(f"  classifier-alone F1 {run['classifier_f1']:.6f}, "
          f"collaborative F1 {run['oss_recount']:.6f}")
    for name, digest in run["digests"].items():
        print(f"  sha256 {name:20s} {digest}")
    for problem in run["problems"]:
        print(f"  CHECK FAILED: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny corpora, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rulesmith" / "cli.py").is_file():
        print(f"rulesmith sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    runs = []
    for name in names:
        try:
            run = run_workload(name, args.seed, args.seconds, bool(args.trace),
                               args.scale == "tiny")
        except BenchError as exc:
            print(f"workload {name} failed: {exc}", file=sys.stderr)
            return 1
        print_summary(run)
        runs.append(run)
    if len(runs) == 1:
        final = runs[0]["result"]
    else:
        final = {
            "correct": all(r["result"]["correct"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "metrics": {f"{r['name']}.{k}": v for r in runs
                        for k, v in r["result"]["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
