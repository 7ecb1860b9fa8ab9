"""Run one rulesmith CLI stage in a fresh interpreter, as the console script does.

    python3 perfbench/stage.py SIDECAR TRACE <subcommand> [args...]

With PYTHONPATH pointing at the checkout's ``src``, this imports
``rulesmith.cli`` and calls ``main`` with the remaining arguments, then
writes SIDECAR: a JSON object with the time the import finished, the span
of ``main``, the process's peak RSS and the counters below.

Untraced (TRACE 0), only the mock agent's calls are counted: one integer
increment per call. Traced (TRACE 1), wrappers go around the public
functions of each rulesmith module, in every rulesmith module that imported
them by name, and record a span (name, start, end, parent) per call plus
counts at the same boundaries. Per-predicate calls are never wrapped.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import threading
import time
from collections import Counter


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            entry = [name, time.perf_counter(), 0.0, stack[-1] if stack else None]
            stack.append(entry)
            try:
                result = fn(*args, **kwargs)
            finally:
                entry[2] = time.perf_counter()
                stack.pop()
                self.spans.append(entry)
                self.counts[name + ".calls"] += 1
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def export(self) -> list[list]:
        index = {id(entry): i for i, entry in enumerate(self.spans)}
        return [[n, s, e, index[id(p)] if p is not None else -1] for n, s, e, p in self.spans]


def _rulesmith_modules() -> list:
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "rulesmith" or name.startswith("rulesmith."))]


def patch_function(module, attr: str, make) -> None:
    """Replace a module function everywhere rulesmith holds a reference to it."""
    original = getattr(module, attr, None)
    if original is None:
        return
    wrapped = make(original)
    for m in _rulesmith_modules():
        if getattr(m, attr, None) is original:
            setattr(m, attr, wrapped)


def patch_method(cls, attr: str, make) -> None:
    if cls is None or attr not in vars(cls):
        return
    raw = vars(cls)[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(make(raw.__func__)))
    else:
        setattr(cls, attr, make(raw))


def install(recorder: Recorder, subcommand: str, trace: bool) -> None:
    import rulesmith.agents as agents
    import rulesmith.dataset as dataset
    import rulesmith.harness as harness
    import rulesmith.inference as inference
    import rulesmith.mcts as mcts
    import rulesmith.predicate as predicate
    import rulesmith.rulebase as rulebase

    mock = getattr(agents, "MockAgent", None)
    remote = getattr(agents, "RemoteAgent", None)
    agent_methods = (("propose_predicates", "propose"), ("evaluate_rule", "evaluate"),
                     ("rephrase", "rephrase"))
    for method, _ in agent_methods:
        patch_method(mock, method, lambda fn: recorder.counter("agents.mock_calls", fn))
    if not trace:
        return
    span = recorder.span
    counts = recorder.counts

    def records_loaded(args, kwargs, result):
        counts["dataset.records_loaded"] += len(result)

    patch_function(dataset, "load_dataset", lambda fn: span("dataset.load", fn, records_loaded))
    patch_function(dataset, "save_dataset", lambda fn: span("dataset.save", fn))
    patch_function(dataset, "generate_validation", lambda fn: span("dataset.rephrase", fn))

    def scanned(args, kwargs, result):
        counts["predicate.samples_scanned"] += len(args[1] if len(args) > 1 else kwargs["validation"])

    patch_function(predicate, "measure_rule", lambda fn: span("predicate.measure_rule", fn, scanned))
    patch_function(predicate, "parse_predicate", lambda fn: span("predicate.parse", fn))

    for method, name in agent_methods:
        patch_method(mock, method, lambda fn, name=name: span("agents." + name, fn))
        patch_method(remote, method, lambda fn, name=name: span(
            "agents." + name, recorder.counter("agents.remote_calls", fn)))

    # Only the agents module's reference: inference builds the classifier's
    # transport from the same factory, and that wait belongs to inference.
    factory = getattr(agents, "http_chat_transport", None)
    if factory is not None:
        @functools.wraps(factory)
        def agent_transport(*args, **kwargs):
            return span("agents.wait", factory(*args, **kwargs))

        agents.http_chat_transport = agent_transport

    def searched(args, kwargs, result):
        counts["mcts.searches"] += 1
        counts["mcts.iterations"] += result.iterations
        counts["mcts.evaluations"] += result.evaluations
        counts["mcts.unique_states"] += len({rule.predicates for rule, _ in result.rules})
        counts["rulebase.rules_harvested"] += len(result.rules)

    patch_function(mcts, "run_search", lambda fn: span("mcts.search", fn, searched))

    def saved(args, kwargs, result):
        if subcommand == "filter":
            counts["rulebase.rules_kept"] += len(args[0].rules)

    patch_method(getattr(rulebase, "RuleBase", None), "build",
                 lambda fn: span("rulebase.build", fn))
    patch_function(rulebase, "remove_dominated", lambda fn: span("rulebase.remove_dominated", fn))
    patch_function(rulebase, "online_validate", lambda fn: span("rulebase.online_validate", fn))
    patch_function(rulebase, "load_rulebase", lambda fn: span("rulebase.load", fn))
    patch_function(rulebase, "save_rulebase", lambda fn: span("rulebase.save", fn, saved))

    def batch_done(args, kwargs, result):
        counts["inference.overrides"] += result.report.from_rules
        counts["inference.predictor_failures"] += result.report.predictor_failures

    same_task: dict[int, dict] = {}

    def rules_checked(args, kwargs, result):
        base, sample = args[0], args[1]
        by_task = same_task.get(id(base))
        if by_task is None:
            by_task = same_task[id(base)] = Counter(r.task for r in base.rules)
        counts["inference.rule_checks"] += by_task[sample.task]

    patch_function(inference, "predict_batch", lambda fn: span("inference.predict_batch", fn, batch_done))
    patch_function(inference, "match_rules", lambda fn: span("inference.match_rules", fn, rules_checked))
    for cls in (getattr(inference, "StubPredictor", None), getattr(inference, "RemotePredictor", None)):
        patch_method(cls, "predict", lambda fn: span("inference.predictor", fn))
    patch_function(inference, "save_predictions", lambda fn: span("inference.save", fn))
    patch_function(inference, "load_predictions", lambda fn: span("harness.load_predictions", fn))
    patch_function(harness, "evaluate", lambda fn: span("harness.evaluate", fn))


def _cache_entries(*functions) -> int:
    return sum(fn.cache_info().currsize for fn in functions if hasattr(fn, "cache_info"))


def main() -> int:
    sidecar, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    import rulesmith.cli as cli

    imported = time.perf_counter()
    recorder = Recorder()
    install(recorder, argv[0], trace)
    begin = time.perf_counter()
    try:
        status = cli.main(argv)
    finally:
        end = time.perf_counter()
        import rulesmith.agents as agents
        import rulesmith.predicate as predicate

        caches = {
            "predicate.normalize_cache_entries": _cache_entries(
                getattr(predicate, "normalize_text", None),
                getattr(predicate, "_normalized_field_text", None)),
            "agents.sample_tokens_entries": _cache_entries(getattr(agents, "sample_tokens", None)),
        }
        doc = {
            "imported": imported,
            "begin": begin,
            "end": end,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "counts": recorder.counts,
            "caches": caches if trace else {},
            "spans": recorder.export(),
        }
        with open(sidecar, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
    return status


if __name__ == "__main__":
    sys.exit(main())
