"""Per-layer tracing from the benchmark's own files.

The program has no clock of its own, so the traced run wraps each
layer's public entry points from outside: the wrapper replaces the
attribute the *caller* looks up (``repro.system.execute``, not
``repro.strategies.execution.execute``; class attributes for methods
called on instances) and restores it afterwards.

Every wrapped call records a span — layer, parent span, operation
index, start, end — in flat arrays kept in memory; nothing is written
until the run ends.  A layer's self time is its spans' durations minus
the durations of their direct child spans.  Counts come from public
return values and public snapshots (``Answer.trace``, execution
results, ``session.report()``, ``FederatedStore.summary()``,
``learner.total_tests``).

Iterator-returning storage probes (``retrieve``, ``facts_matching``)
do their work when the caller advances them, so the wrapper times
each ``next`` as its own span of the storage layer.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from contextlib import contextmanager
from typing import Dict, List, Tuple

import repro.system as system_module
from repro.datalog import parser
from repro.datalog.database import Database
from repro.datalog.engine import TopDownEngine
from repro.datalog.qsqn import QSQNEngine
from repro.graphs.contexts import LazyDatalogContext
from repro.learning.pib import PIB
from repro.serving.cache import AnswerCache, SubgoalMemo
from repro.serving.server import QueryServer
from repro.storage.federation import FederatedStore

from .harness import ANSWERED, CLIMBED, DEGRADED, learned_share

__all__ = ["Tracer", "layer_metrics", "COUNTERS", "PER_LAYER"]

#: Layers whose spans count as storage work (a probe is a call into
#: one of them from outside both).
STORAGE_LAYERS = ("storage", "storage.federation")

#: Every per-layer metric, with its unit, in report order.
PER_LAYER = (
    ("serving.server.self_ms_per_read", "ms"),
    ("serving.cache.self_ms_per_read", "ms"),
    ("serving.cache.answer_hit_rate", "ratio"),
    ("serving.cache.memo_hit_rate", "ratio"),
    ("serving.cache.answer_evictions", "count"),
    ("system.self_ms_per_read", "ms"),
    ("system.learned_share", "ratio"),
    ("graphs.build_calls", "count"),
    ("graphs.build_ms", "ms"),
    ("graphs.contexts_self_ms_per_read", "ms"),
    ("strategies.execute_self_ms_per_read", "ms"),
    ("strategies.arcs_per_read", "arcs/read"),
    ("strategies.arc_success_rate", "ratio"),
    ("learning.record_self_ms_per_read", "ms"),
    ("learning.eq6_tests", "count"),
    ("learning.climbs", "count"),
    ("learning.last_climb_read", "read"),
    ("datalog.parse_ms", "ms"),
    ("datalog.topdown.prove_self_ms_per_read", "ms"),
    ("datalog.reductions_per_read", "count/read"),
    ("datalog.retrievals_per_read", "count/read"),
    ("datalog.retrieval_hit_rate", "ratio"),
    ("datalog.qsqn.prove_self_ms_per_read", "ms"),
    ("datalog.qsqn.window_growth", "ratio"),
    ("storage.probes_per_read", "probes/read"),
    ("storage.probe_self_ms_per_read", "ms"),
    ("storage.rows_per_probe", "rows/probe"),
    ("storage.load_ms", "ms"),
    ("storage.write_self_ms", "ms"),
    ("storage.federation.dark_probe_rate", "ratio"),
    ("storage.federation.hedged_reads_per_read", "count/read"),
    ("storage.federation.billed_cost_per_read", "cost"),
    ("resilience.faults_absorbed", "count"),
    ("resilience.degraded_reads", "count"),
    ("tracing.overhead_ratio", "ratio"),
)

#: The per-layer metrics that are pure counts of work: for one seed
#: and run size they repeat exactly between traced runs.
COUNTERS = (
    "serving.cache.answer_hit_rate",
    "serving.cache.memo_hit_rate",
    "serving.cache.answer_evictions",
    "system.learned_share",
    "graphs.build_calls",
    "strategies.arcs_per_read",
    "strategies.arc_success_rate",
    "learning.eq6_tests",
    "learning.climbs",
    "learning.last_climb_read",
    "datalog.reductions_per_read",
    "datalog.retrievals_per_read",
    "datalog.retrieval_hit_rate",
    "storage.probes_per_read",
    "storage.rows_per_probe",
    "storage.federation.dark_probe_rate",
    "storage.federation.hedged_reads_per_read",
    "storage.federation.billed_cost_per_read",
    "resilience.faults_absorbed",
    "resilience.degraded_reads",
)


class Tracer:
    """Spans in flat arrays, plus the counters the wrappers collect."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.layer = array("i")
        self.parent = array("i")
        self.ops = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        #: Index of the operation in flight (-1: set-up).
        self.op = -1
        self.counts: Dict[str, float] = {}
        #: The PIB learners seen recording (for their public counters).
        self.learners: Dict[int, PIB] = {}
        self._patches: list = []

    # -- spans ---------------------------------------------------------

    def layer_id(self, name: str) -> int:
        lid = self._ids.get(name)
        if lid is None:
            lid = self._ids[name] = len(self.names)
            self.names.append(name)
        return lid

    def _enter(self, lid: int) -> int:
        index = len(self.layer)
        stack = self._stack
        self.layer.append(lid)
        self.parent.append(stack[-1] if stack else -1)
        self.ops.append(self.op)
        self.end.append(0.0)
        stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _exit(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own call into a layer."""
        index = self._enter(self.layer_id(name))
        try:
            yield
        finally:
            self._exit(index)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _inside_storage(self) -> bool:
        stack = self._stack
        return bool(stack) and self.names[self.layer[stack[-1]]] in STORAGE_LAYERS

    # -- wrappers ------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, layer: str, on_result=None) -> None:
        """Span every call of ``owner.attr``; ``on_result(result,
        args)`` collects counts from what the call returned."""
        original = getattr(owner, attr)
        lid = self.layer_id(layer)
        enter, leave = self._enter, self._exit

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = enter(lid)
            try:
                result = original(*args, **kwargs)
            finally:
                leave(index)
            if on_result is not None:
                on_result(result, args)
            return result

        self._patch(owner, attr, traced)

    def wrap_probe(self, owner, attr: str, layer: str, iterates: bool) -> None:
        """Span a storage probe; count it (and the rows it returns)
        when it is called from outside the storage layers."""
        original = getattr(owner, attr)
        lid = self.layer_id(layer)
        enter, leave = self._enter, self._exit
        tracer = self

        def rows(iterator, outermost):
            while True:
                index = enter(lid)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    leave(index)
                if outermost:
                    tracer.count("storage.rows")
                yield item

        @functools.wraps(original)
        def traced(store, *args, **kwargs):
            outermost = not tracer._inside_storage()
            federated = outermost and isinstance(store, FederatedStore)
            if outermost:
                tracer.count("storage.probes")
            if federated:
                injected = store.plan.summary()
                faults = injected["faults"] + injected["timeouts"]
                dark = store.dark_probes
            index = enter(lid)
            try:
                result = original(store, *args, **kwargs)
            finally:
                leave(index)
            if federated:
                injected = store.plan.summary()
                if store.dark_probes == dark:
                    tracer.count(
                        "resilience.faults_absorbed",
                        injected["faults"] + injected["timeouts"] - faults,
                    )
            if iterates:
                return rows(result, outermost)
            if outermost and result:
                tracer.count("storage.rows")
            return result

        self._patch(owner, attr, traced)

    def install_setup_wrappers(self) -> None:
        """Wrap what set-up calls: the parser."""
        self.wrap(parser, "parse_program", "datalog.parse")

    def install_run_wrappers(self) -> None:
        """Wrap every layer the timed phase goes through."""
        self.wrap(QueryServer, "run_requests", "serving.server")
        self.wrap(QueryServer, "submit", "serving.server")
        for cache in (AnswerCache, SubgoalMemo):
            self.wrap(cache, "lookup", "serving.cache")
            self.wrap(cache, "store", "serving.cache")
        self.wrap(
            system_module.SelfOptimizingQueryProcessor, "query", "system"
        )
        self.wrap(system_module, "build_inference_graph", "graphs.build")
        self.wrap(LazyDatalogContext, "traversable", "graphs.contexts")
        for name in ("execute", "execute_resilient"):
            self.wrap(system_module, name, "strategies", self._on_execution)
        self.wrap(PIB, "record", "learning", self._on_record)
        self.wrap(TopDownEngine, "prove", "datalog.topdown", self._on_prove)
        self.wrap(QSQNEngine, "prove", "datalog.qsqn", self._on_prove)
        for store, layer in ((Database, "storage"),
                             (FederatedStore, "storage.federation")):
            self.wrap_probe(store, "retrieve", layer, iterates=True)
            self.wrap_probe(store, "facts_matching", layer, iterates=True)
            self.wrap_probe(store, "succeeds", layer, iterates=False)
            self.wrap(store, "add", "storage.write")
            self.wrap(store, "remove", "storage.write")

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- counters from return values -----------------------------------

    def _on_execution(self, result, args) -> None:
        self.count("strategies.arcs", len(result.attempted))
        self.count("strategies.observed", len(result.observations))
        self.count(
            "strategies.observed_ok", sum(result.observations.values())
        )

    def _on_record(self, result, args) -> None:
        learner = args[0]
        self.learners[id(learner)] = learner

    def _on_prove(self, answer, args) -> None:
        trace = answer.trace
        self.count("datalog.reductions", trace.reductions)
        self.count("datalog.retrievals", len(trace.retrievals))
        self.count(
            "datalog.retrieval_hits",
            sum(1 for event in trace.retrievals if event.succeeded),
        )

    # -- output --------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for index in range(len(self.layer)):
                handle.write(json.dumps({
                    "span": index,
                    "layer": self.names[self.layer[index]],
                    "parent": self.parent[index],
                    "op": self.ops[index],
                    "start": self.start[index],
                    "end": self.end[index],
                }) + "\n")


def _self_times(tracer: Tracer):
    """Per span: duration, and self time (duration minus children)."""
    count = len(tracer.layer)
    start, end, parent = tracer.start, tracer.end, tracer.parent
    duration = [end[i] - start[i] for i in range(count)]
    children = [0.0] * count
    for index in range(count):
        up = parent[index]
        if up >= 0:
            children[up] += duration[index]
    return duration, [duration[i] - children[i] for i in range(count)]


def _window_growth(tracer: Tracer, duration, is_read: List[bool]) -> float:
    """Mean QSQN prove time over the last third of each write window
    divided by the mean over its first third (0 without QSQN work)."""
    qsqn = tracer._ids.get("datalog.qsqn")
    if qsqn is None:
        return 0.0
    prove: Dict[int, float] = {}
    for index in range(len(tracer.layer)):
        if tracer.layer[index] == qsqn:
            up = tracer.parent[index]
            if up < 0 or tracer.layer[up] != qsqn:
                op = tracer.ops[index]
                prove[op] = prove.get(op, 0.0) + duration[index]
    windows: List[List[int]] = [[]]
    for op, read in enumerate(is_read):
        if read:
            windows[-1].append(op)
        else:
            windows.append([])
    early, late = [], []
    for window in windows:
        third = len(window) // 3
        if third == 0:
            continue
        early.extend(prove.get(op, 0.0) for op in window[:third])
        late.extend(prove.get(op, 0.0) for op in window[-third:])
    if not early or sum(early) == 0.0:
        return 0.0
    return (sum(late) / len(late)) / (sum(early) / len(early))


def layer_metrics(
    tracer: Tracer,
    session,
    prepared,
    run,
    setups: int,
    untraced_wall: float,
) -> Tuple[Dict[str, Dict[str, object]], Dict[str, float]]:
    """Reduce the spans and counters of one traced run to metrics, and
    to each layer's share of the self time spent inside reads."""
    duration, self_time = _self_times(tracer)
    is_read = prepared.is_read
    reads = max(1, prepared.reads)
    writes = prepared.writes
    read_self: Dict[str, float] = {}
    write_self = 0.0
    setup_self: Dict[str, float] = {}
    build_ms, build_calls = 0.0, 0
    for index in range(len(tracer.layer)):
        name = tracer.names[tracer.layer[index]]
        op = tracer.ops[index]
        if op < 0:
            setup_self[name] = setup_self.get(name, 0.0) + self_time[index]
        elif is_read[op]:
            read_self[name] = read_self.get(name, 0.0) + self_time[index]
        elif name == "storage.write":
            write_self += self_time[index]
        if name == "graphs.build":
            build_ms += duration[index] * 1000.0
            build_calls += 1

    def per_read_ms(*layers: str) -> float:
        return sum(read_self.get(layer, 0.0) for layer in layers) * 1000.0 / reads

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    counts = tracer.counts
    report = session.report()
    serving = report["serving"]
    answered = [flags for flags in run.flags if flags & ANSWERED]
    climbs = [i for i, flags in enumerate(answered) if flags & CLIMBED]
    learners = list(tracer.learners.values())
    store = session.database
    federation = (
        store.summary() if isinstance(store, FederatedStore) else None
    )
    retries = report.get("resilience", {}).get("retries", 0)

    values = {
        "serving.server.self_ms_per_read": per_read_ms("serving.server"),
        "serving.cache.self_ms_per_read": per_read_ms("serving.cache"),
        "serving.cache.answer_hit_rate":
            serving.get("answer_cache", {}).get("hit_rate", 0.0),
        "serving.cache.memo_hit_rate":
            serving.get("subgoal_memo", {}).get("hit_rate", 0.0),
        "serving.cache.answer_evictions":
            serving.get("answer_cache", {}).get("evictions", 0),
        "system.self_ms_per_read": per_read_ms("system"),
        "system.learned_share": learned_share(run),
        "graphs.build_calls": build_calls,
        "graphs.build_ms": build_ms,
        "graphs.contexts_self_ms_per_read": per_read_ms("graphs.contexts"),
        "strategies.execute_self_ms_per_read": per_read_ms("strategies"),
        "strategies.arcs_per_read":
            counts.get("strategies.arcs", 0) / reads,
        "strategies.arc_success_rate": ratio(
            counts.get("strategies.observed_ok", 0),
            counts.get("strategies.observed", 0),
        ),
        "learning.record_self_ms_per_read": per_read_ms("learning"),
        "learning.eq6_tests": sum(l.total_tests for l in learners),
        "learning.climbs": sum(l.climbs for l in learners),
        "learning.last_climb_read": climbs[-1] if climbs else 0,
        "datalog.parse_ms":
            setup_self.get("datalog.parse", 0.0) * 1000.0 / setups,
        "datalog.topdown.prove_self_ms_per_read":
            per_read_ms("datalog.topdown"),
        "datalog.reductions_per_read":
            counts.get("datalog.reductions", 0) / reads,
        "datalog.retrievals_per_read":
            counts.get("datalog.retrievals", 0) / reads,
        "datalog.retrieval_hit_rate": ratio(
            counts.get("datalog.retrieval_hits", 0),
            counts.get("datalog.retrievals", 0),
        ),
        "datalog.qsqn.prove_self_ms_per_read": per_read_ms("datalog.qsqn"),
        "datalog.qsqn.window_growth":
            _window_growth(tracer, duration, is_read),
        "storage.probes_per_read": counts.get("storage.probes", 0) / reads,
        "storage.probe_self_ms_per_read":
            per_read_ms(*STORAGE_LAYERS),
        "storage.rows_per_probe": ratio(
            counts.get("storage.rows", 0), counts.get("storage.probes", 0)
        ),
        "storage.load_ms":
            setup_self.get("storage.load", 0.0) * 1000.0 / setups,
        "storage.write_self_ms": ratio(write_self * 1000.0, writes),
        "storage.federation.dark_probe_rate": ratio(
            federation["dark_probes"], federation["probes"]
        ) if federation else 0.0,
        "storage.federation.hedged_reads_per_read":
            federation["hedged_reads"] / reads if federation else 0.0,
        "storage.federation.billed_cost_per_read":
            federation["billed_cost"] / reads if federation else 0.0,
        "resilience.faults_absorbed":
            counts.get("resilience.faults_absorbed", 0) + retries,
        "resilience.degraded_reads":
            sum(bool(flags & DEGRADED) for flags in answered),
        "tracing.overhead_ratio": run.wall / untraced_wall,
    }
    units = dict(PER_LAYER)
    metrics = {
        name: {"value": values[name], "unit": units[name]}
        for name, _ in PER_LAYER
    }
    whole = sum(read_self.values()) or 1.0
    shares = {name: read_self[name] / whole for name in sorted(read_self)}
    return metrics, shares
