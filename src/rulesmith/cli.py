"""Command-line entry point wiring the pipeline stages together.

Subcommands: rephrase, induce, filter, predict, eval, report. Runs with a
mock agent and a stub predictor are bit-reproducible under a fixed
``--seed``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import suppress
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .agents import Agent, MockAgent, RemoteAgent, close_connections
from .dataset import (
    DatasetSplit,
    Task,
    generate_validation,
    load_dataset,
    load_taxonomy,
    save_dataset,
    write_json,
)
from .errors import ArgumentError, RulesmithError, check_at_least, check_ratio
from .harness import evaluate, format_report, load_report, report_to_dict, save_report
from .inference import (
    DEFAULT_OVERRIDE_THRESHOLD,
    Predictor,
    RemotePredictor,
    StubPredictor,
    load_predictions,
    predict_batch,
    save_predictions,
)
from .mcts import SearchConfig, run_search
from .predicate import SampleIndex
from .rulebase import (
    DEFAULT_MIN_PRECISION,
    DEFAULT_MIN_REWARD,
    DEFAULT_MIN_SUPPORT,
    EPOCH_ISO,
    RuleBase,
    RuleBaseMetadata,
    check_labels,
    filter_by_reward,
    load_rulebase,
    online_validate,
    save_rulebase,
)


def _metadata(train_path: str, config: dict, seed: int | None) -> RuleBaseMetadata:
    import hashlib  # only induce takes digests

    # A fixed seed promises bit-identical output files, so the timestamp
    # must not come from the wall clock in that case.
    if seed is None:
        from datetime import datetime, timezone

        created = datetime.now(timezone.utc).isoformat()
    else:
        created = EPOCH_ISO
    return RuleBaseMetadata(
        created_at=created,
        dataset_digest=hashlib.sha256(Path(train_path).read_bytes()).hexdigest(),
        config_digest=hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest(),
    )


def _endpoint(spec: str, option: str, local: str) -> str:
    """``spec`` if it is an endpoint URL; a mistyped local spec fails here,
    before any request is sent or any output file is written."""
    if not spec.startswith(("http://", "https://")):
        raise ArgumentError(f"{option} must be {local} or an http(s):// URL, got {spec!r}")
    return spec


def _build_agent(spec: str, corpus, seed: int | None, noise: float) -> Agent:
    if spec == "mock":
        return MockAgent(corpus, seed=seed if seed is not None else 0, noise=noise)
    check_ratio("noise", noise)  # a remote agent ignores it, but config_digest records it
    return RemoteAgent(_endpoint(spec, "--agent", "'mock'"))


def _build_predictor(spec: str, taxonomy, seed: int | None) -> Predictor:
    if spec.startswith("stub:"):
        try:
            accuracy = float(spec.split(":", 1)[1])
        except ValueError:
            raise ArgumentError(f"--predictor must be 'stub:<accuracy>', got {spec!r}") from None
        return StubPredictor(taxonomy, accuracy, seed=seed if seed is not None else 0)
    return RemotePredictor(_endpoint(spec, "--predictor", "'stub:<accuracy>'"), taxonomy)


def _cmd_rephrase(args: argparse.Namespace) -> dict:
    taxonomy = load_taxonomy(args.labels)
    train = load_dataset(args.train, taxonomy)
    agent = _build_agent(args.agent, train, args.seed, noise=0.0)
    try:
        generated = generate_validation(train, agent, per_sample=args.per_sample)
    finally:
        close_connections(agent)
    print(f"wrote {len(generated)} validation samples to {args.out}")
    return {args.out: lambda path: save_dataset(generated, path)}


def _cmd_induce(args: argparse.Namespace) -> dict:
    taxonomy = load_taxonomy(args.labels)
    train = load_dataset(args.train, taxonomy)
    validation = load_dataset(args.val, taxonomy)
    # One index for the whole stage, so each task's searches share its bitsets.
    split = DatasetSplit(train=tuple(train), validation=SampleIndex(validation))
    agent = _build_agent(args.agent, train, args.seed, noise=args.noise)
    try:
        cfg = SearchConfig(max_iterations=args.iterations, proposals_per_expansion=args.proposals)
        harvested = []
        val_tasks = {s.task for s in validation}
        train_labels = {(s.task, s.gold_label) for s in train if s.gold_label}
        for task in (Task.INTENT, Task.IMAGE_SCENE):
            labels = [label for label in taxonomy.labels_for(task) if (task, label) in train_labels]
            if labels and task not in val_tasks:
                print(f"{task.value}: skipped {len(labels)} labels, "
                      f"because --val has no {task.value} samples")
                continue
            for label in labels:
                result = run_search(label, task, split, agent, cfg)
                harvested.extend(rule for rule, _ in result.rules)
                print(
                    f"{task.value}/{label}: {len(result.rules)} rules "
                    f"from {result.evaluations} evaluations "
                    f"({result.agent_evaluations} agent evaluations)"
                )
    finally:
        close_connections(agent)

    spec = args.agent
    if spec != "mock":  # the endpoint's scheme and path, not its host and port
        from urllib.parse import urlsplit

        spec = urlsplit(spec)._replace(netloc="").geturl()
    config_digest_input = {"iterations": args.iterations, "proposals": args.proposals,
                           "seed": args.seed, "noise": args.noise, "agent": spec}
    base = RuleBase.build(harvested, _metadata(args.train, config_digest_input, args.seed))
    print(f"wrote {len(base.rules)} rules to {args.out}")
    return {args.out: lambda path: save_rulebase(base, path)}


def _cmd_filter(args: argparse.Namespace) -> dict:
    check_ratio("min_precision", args.min_precision)  # with or without --val
    check_at_least("min_support", args.min_support, 0)
    if args.val and not args.labels:
        raise ArgumentError("--val requires --labels to load the validation set")
    base = load_rulebase(args.rules)
    taxonomy = None
    if args.labels:
        taxonomy = load_taxonomy(args.labels)
        check_labels(base.rules, taxonomy)
    rules = filter_by_reward(list(base.rules), args.min_reward)
    dropped_online = 0
    if args.val:
        validation = load_dataset(args.val, taxonomy)
        outcome = online_validate(
            rules, validation, min_precision=args.min_precision, min_support=args.min_support
        )
        rules = list(outcome.kept)
        dropped_online = len(outcome.dropped)
    filtered = RuleBase.build(rules, base.metadata)
    dropped = f" ({dropped_online} failed online validation)" if args.val else ""
    print(f"kept {len(filtered.rules)} of {len(base.rules)} rules{dropped}")
    return {args.out: lambda path: save_rulebase(filtered, path)}


def _cmd_predict(args: argparse.Namespace) -> dict:
    taxonomy = load_taxonomy(args.labels)
    samples = load_dataset(args.val, taxonomy)
    base = load_rulebase(args.rules)
    check_labels(base.rules, taxonomy)
    predictor = _build_predictor(args.predictor, taxonomy, args.seed)
    try:
        result = predict_batch(base, predictor, samples, override_threshold=args.override_threshold)
    finally:
        close_connections(predictor)
    print(f"wrote {len(result.predictions)} predictions to {args.out}")
    print(json.dumps(asdict(result.report)))
    outputs = {args.out: lambda path: save_predictions(result.predictions, path)}
    if args.report:  # the same path as --out: the report wins
        outputs[args.report] = lambda path: write_json(path, asdict(result.report))
    return outputs


def _cmd_eval(args: argparse.Namespace) -> dict:
    taxonomy = load_taxonomy(args.labels)
    samples = load_dataset(args.val, taxonomy)
    predictions = load_predictions(args.pred)
    report = evaluate(predictions, samples, taxonomy)
    print(format_report(report_to_dict(report)))
    return {args.report: lambda path: save_report(report, path)} if args.report else {}


def _cmd_report(args: argparse.Namespace) -> dict:
    print(format_report(load_report(args.report)))
    return {}


def _commit(outputs: dict) -> None:
    """Write all of ``outputs``, ``{destination: saver}``, or none: each saver
    writes a hidden temporary beside its destination, and the temporaries
    replace their destinations only once every saver has returned."""
    temps: list[Path] = []
    replaced: list[str] = []
    try:
        for i, (destination, save) in enumerate(outputs.items()):
            path = Path(destination)
            temps.append(path.parent / f".{path.name}.{os.getpid()}.{i}.tmp")
            save(temps[-1])
        for destination, temp in zip(outputs, temps):
            os.replace(temp, destination)
            replaced.append(destination)
    except OSError as exc:  # name the destination, not its temporary
        raise exc if exc.filename is None else OSError(exc.errno, exc.strerror, destination)
    finally:
        if len(replaced) < len(outputs):  # any exception, KeyboardInterrupt too
            for path in temps + replaced:
                with suppress(OSError):
                    os.remove(path)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rulesmith",
        description="Rule induction and rule/classifier collaborative prediction.",
    )
    parser.add_argument("--version", action="version", version=f"rulesmith {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rephrase", help="generate validation samples by rephrasing")
    p.add_argument("--train", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--agent", default="mock", help="'mock' or an endpoint URL")
    p.add_argument("--per-sample", type=int, default=1)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_rephrase)

    p = sub.add_parser("induce", help="search for rules with MCTS")
    p.add_argument("--train", required=True)
    p.add_argument("--val", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--agent", default="mock", help="'mock' or an endpoint URL")
    p.add_argument("--iterations", type=int, default=200)
    p.add_argument("--proposals", type=int, default=5)
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_induce)

    p = sub.add_parser("filter", help="filter, deduplicate, and validate rules")
    p.add_argument("--rules", required=True)
    p.add_argument("--min-reward", type=float, default=DEFAULT_MIN_REWARD)
    p.add_argument("--val", default=None, help="optionally re-validate on this dataset")
    p.add_argument("--labels", default=None)
    p.add_argument("--min-precision", type=float, default=DEFAULT_MIN_PRECISION)
    p.add_argument("--min-support", type=int, default=DEFAULT_MIN_SUPPORT)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("predict", help="predict with rules correcting a classifier")
    p.add_argument("--val", required=True, help="samples to predict")
    p.add_argument("--labels", required=True)
    p.add_argument("--rules", required=True)
    p.add_argument("--predictor", required=True, help="'stub:<accuracy>' or an endpoint URL")
    p.add_argument("--override-threshold", type=float, default=DEFAULT_OVERRIDE_THRESHOLD)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None, help="optionally write the run report here")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("eval", help="score predictions against gold labels")
    p.add_argument("--pred", required=True)
    p.add_argument("--val", required=True, help="gold dataset")
    p.add_argument("--labels", required=True)
    p.add_argument("--report", default=None, help="optionally write the report here")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("report", help="pretty-print a saved evaluation report")
    p.add_argument("--report", required=True)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        _commit(args.func(args))
        return 0
    # UnicodeEncodeError: stdout cannot encode a label or path. Anything else is a bug.
    except (RulesmithError, OSError, UnicodeEncodeError) as exc:
        name = "OSError" if isinstance(exc, OSError) else type(exc).__name__
        print(json.dumps({"error": name, "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
