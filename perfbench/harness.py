"""Drive one workload through the public session API and measure it.

A run has three phases:

1. *Inputs*: the workload's generator builds rules, facts, the
   operation sequence and the expected answers from the seed.  Queries
   and written facts are parsed here, before anything is timed.
2. *Set-up* (timed as ``setup_s``): parse the rules and facts, build
   the store and open the session, at least :data:`MIN_SETUPS` times
   and until :data:`SETUP_SECONDS` have passed; the median is reported
   and the last session is kept.
3. *Timed phase*: one client thread sends one operation at a time
   (closed loop, one request in flight, ``ServingConfig(workers=1)``).
   A read is one ``QuerySession.run_requests([Request(q)])`` call from
   entry to its typed outcome; a read answered *partial* (a shard
   stayed dark) is sent again, up to :data:`SENDS` times in all, and
   its latency and billed cost cover every send.  A write is
   ``FactStore.remove`` then ``FactStore.add`` on the session's store.

Between reads, after each run of writes and around each set-up the
client times a fixed kernel, and every reported timing is rescaled to the kernel's
reference speed, so a slow spell of a shared host does not move it
(see :mod:`perfbench.speed`).

Every read is then checked against the generator's expected answer.
A complete, served, non-degraded answer that disagrees is *wrong* and
fails the run; a rejected, degraded or partial answer is an honest
failure and only lowers ``ok_frac``.
"""

from __future__ import annotations

import gc
import math
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import (
    CacheConfig,
    FaultSpec,
    FederatedStore,
    Request,
    ServingConfig,
    SessionConfig,
    open_session,
)
from repro.datalog import parser
from repro.datalog.database import Database

from .speed import Speedometer, factor_of
from .workloads import WORKLOADS, Inputs, Read, Workload

__all__ = ["Prepared", "Run", "run_workload", "percentile"]

#: Set-ups per run: at least ``MIN_SETUPS``, more while they add up
#: to less than ``SETUP_SECONDS`` (a small fact base sets up in
#: milliseconds, where one timing is mostly noise), at most
#: ``MAX_SETUPS``.  ``setup_s`` is their median.
MIN_SETUPS = 3
SETUP_SECONDS = 1.0
MAX_SETUPS = 40
#: Kernel samples taken before the first set-up and after each one.
SETUP_SAMPLES = 50
#: Kernel samples taken just after each run of consecutive writes.  A
#: burst of writes lasts about a millisecond, shorter than the host's
#: fast and slow spells, so its rescaling factor comes from these
#: samples rather than from a second's mix.  None are taken just
#: before a burst: they would change the state of the processor's
#: caches the first write finds.
BURST_SAMPLES = 10
#: How often the client sends a read whose answer keeps coming back
#: partial (some shard dark) before it counts the read as failed.
SENDS = 3
#: Shards of the federated store, and the fault profiles of their
#: primaries and replicas.  A probe goes dark only when the primary
#: and its hedge both fail, which these rates make rare but not absent.
SHARDS = 3
PRIMARY_FAULTS = FaultSpec(fault_rate=0.05, timeout_rate=0.02)
REPLICA_FAULTS = FaultSpec(fault_rate=0.02, timeout_rate=0.01)


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (``0 < q <= 1``)."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def beyond(count: int, q: float) -> int:
    """How many samples lie above the nearest-rank ``q`` percentile."""
    return count - max(1, math.ceil(q * count))


@dataclass
class Prepared:
    """The operation sequence in the form the client sends it."""

    #: ``(Request, expected)`` for reads, ``(remove, add)`` atoms for
    #: writes; told apart by :attr:`is_read`.
    ops: list
    is_read: List[bool]
    reads: int
    writes: int


def prepare(inputs: Inputs) -> Prepared:
    ops, is_read = [], []
    for op in inputs.ops:
        if isinstance(op, Read):
            ops.append((Request(parser.parse_query(op.query)), op.expected))
            is_read.append(True)
        else:
            ops.append((parser.parse_atom(op.remove), parser.parse_atom(op.add)))
            is_read.append(False)
    reads = sum(is_read)
    return Prepared(ops, is_read, reads, len(ops) - reads)


def cache_config(workload: Workload) -> CacheConfig:
    default = CacheConfig.default_enabled()
    if workload.subgoal_memo:
        return default
    return CacheConfig(answer_capacity=default.answer_capacity)


def session_config(workload: Workload) -> SessionConfig:
    return SessionConfig.from_options(
        retries=workload.retries, engine=workload.engine
    )


def open_store(workload: Workload, facts: str, seed: int):
    if workload.federated:
        return FederatedStore.from_program(
            facts,
            shards=SHARDS,
            seed=seed,
            fault=PRIMARY_FAULTS,
            replicas=True,
            replica_fault=REPLICA_FAULTS,
            retry_budget=1,
        )
    return Database.from_program(facts)


def setup(workload: Workload, inputs: Inputs, seed: int, tracer=None):
    """Parse, build the store, open the session; returns it and the
    wall time the three took."""
    start = time.perf_counter()
    rules = parser.parse_program(inputs.rules)
    if tracer is not None:
        with tracer.span("storage.load"):
            store = open_store(workload, inputs.facts, seed)
    else:
        store = open_store(workload, inputs.facts, seed)
    session = open_session(
        rules,
        store,
        config=session_config(workload),
        cache=cache_config(workload),
        serving=ServingConfig(workers=1),
    )
    return session, time.perf_counter() - start


@dataclass
class Run:
    """What the timed phase observed, in operation order."""

    #: When each operation was sent, then when the last one returned,
    #: on a clock that stops while the speed kernel runs.
    starts: List[float]
    read_latency: List[float]
    write_latency: List[float]
    #: Per read, its outcome's flags (see :func:`summarise`) and the
    #: cost its answer billed.
    flags: List[int]
    costs: List[float]
    #: Whether each write's remove and add both took effect.
    writes_applied: List[bool]
    #: Sends repeated because the answer came back partial, and the
    #: cost those partial answers billed.
    resends: int = 0
    resent_cost: float = 0.0
    #: Per operation, the factor that rescales its timings to the
    #: reference speed (see :mod:`perfbench.speed`).
    factor: List[float] = field(default_factory=list)
    #: Per write, the factor from the samples taken just after its burst.
    write_factor: List[float] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return self.starts[-1] - self.starts[0]


#: Bits of a read's outcome flags.
SERVED, ANSWERED, DEGRADED, PARTIAL, PROVED, CACHED, LEARNED, CLIMBED = (
    1 << bit for bit in range(8)
)


def _partial(outcome) -> bool:
    return outcome.answer is not None and outcome.answer.completeness.partial


def summarise(outcome) -> int:
    """A read's outcome as flag bits.  The client keeps these small
    integers rather than the outcomes, so the objects it holds do not
    grow the heap the program's garbage collections walk."""
    answer = outcome.answer
    flags = SERVED if outcome.served else 0
    if answer is None:
        return flags
    return flags | ANSWERED | (
        DEGRADED * bool(answer.degraded)
        | PARTIAL * bool(answer.completeness.partial)
        | PROVED * bool(answer.proved)
        | CACHED * bool(answer.cached)
        | LEARNED * bool(answer.learned)
        | CLIMBED * bool(answer.climbed)
    )


def drive(session, prepared: Prepared, meter: Speedometer, tracer=None) -> Run:
    """The closed loop: one operation in flight, in sequence order,
    with a speed sample between operations when one is due."""
    store = session.database
    run_requests = session.run_requests
    clock = time.perf_counter
    read_latency: List[float] = []
    write_latency: List[float] = []
    flags: List[int] = []
    costs: List[float] = []
    writes_applied: List[bool] = []
    starts: List[float] = []
    resends, resent_cost = 0, 0.0
    write_factor: List[float] = []

    def close_burst() -> None:
        factor = factor_of(meter.samples(BURST_SAMPLES))
        write_factor.extend([factor] * (len(write_latency) - len(write_factor)))

    meter.sample()
    for index, (op, is_read) in enumerate(zip(prepared.ops, prepared.is_read)):
        if tracer is not None:
            tracer.op = index
        if is_read and len(write_factor) < len(write_latency):
            close_burst()
        began = clock()
        if is_read and began >= meter.due:  # writes wait: BURST_SAMPLES
            meter.sample()
            began = clock()
        starts.append(began - meter.paused)
        if is_read:
            request = op[0]
            outcome = run_requests([request])[0]
            sends = 1
            while sends < SENDS and _partial(outcome):
                resent_cost += outcome.answer.cost
                outcome = run_requests([request])[0]
                sends += 1
            read_latency.append(clock() - began)
            flags.append(summarise(outcome))
            costs.append(outcome.answer.cost if outcome.answer is not None else 0.0)
            resends += sends - 1
        else:
            remove, add = op
            removed = store.remove(remove)
            added = store.add(add)
            write_latency.append(clock() - began)
            writes_applied.append(removed and added)
    starts.append(clock() - meter.paused)
    if len(write_factor) < len(write_latency):
        close_burst()
    meter.sample()
    if tracer is not None:
        tracer.op = -1
    return Run(
        starts, read_latency, write_latency, flags, costs, writes_applied,
        resends, resent_cost, meter.factors(starts[:-1]), write_factor,
    )


@dataclass
class Verdict:
    """The correctness gate's findings."""

    wrong: int = 0
    rejected: int = 0
    degraded: int = 0
    partial: int = 0
    writes_lost: int = 0
    examples: List[str] = field(default_factory=list)
    #: Indices (in the operation sequence) of the operations that failed.
    failed_ops: List[int] = field(default_factory=list)

    @property
    def failed(self) -> int:
        """Operations that did not succeed: honest failures plus wrong
        answers and writes that did not apply."""
        return (
            self.wrong + self.rejected + self.degraded + self.partial
            + self.writes_lost
        )

    @property
    def correct(self) -> bool:
        return self.wrong == 0 and self.writes_lost == 0


def check(prepared: Prepared, run: Run) -> Verdict:
    verdict = Verdict()
    outcomes, applied = iter(run.flags), iter(run.writes_applied)
    for index, (op, is_read) in enumerate(zip(prepared.ops, prepared.is_read)):
        if not is_read:
            if not next(applied):
                verdict.writes_lost += 1
                verdict.failed_ops.append(index)
            continue
        (request, expected), flags = op, next(outcomes)
        proved = bool(flags & PROVED)
        if not flags & SERVED or not flags & ANSWERED:
            verdict.rejected += 1
        elif flags & DEGRADED:
            verdict.degraded += 1
        elif flags & PARTIAL:
            verdict.partial += 1
        elif proved != expected:
            verdict.wrong += 1
            if len(verdict.examples) < 5:
                verdict.examples.append(
                    f"{request.query}: answered {proved}, expected {expected}"
                )
        else:
            continue
        verdict.failed_ops.append(index)
    return verdict


#: A run's timings are summarised per chunk — a contiguous slice of
#: the operations or samples — and the median over chunks is reported,
#: so a stall of the host during part of the run moves no metric.
CHUNKS = 10


def _groups(values: list, samples_per_group: int) -> List[list]:
    """Split ``values`` into up to :data:`CHUNKS` contiguous groups of
    at least ``samples_per_group`` each (one group when too few)."""
    count = max(1, min(CHUNKS, len(values) // samples_per_group))
    bounds = [round(k * len(values) / count) for k in range(count + 1)]
    return [values[bounds[k]:bounds[k + 1]] for k in range(count)]


def _per_group(q: float) -> int:
    """Samples a group needs to leave ten beyond its ``q`` percentile."""
    return max(2, int(round(10 / (1 - q))))


def chunked_percentile(values: List[float], q: float) -> float:
    """Median over groups of each group's nearest-rank ``q`` percentile,
    each group leaving at least ten samples beyond it."""
    per_group = _per_group(q)
    return statistics.median(
        percentile(sorted(group), q) for group in _groups(values, per_group)
    )


def chunked_rate(spans: List[float], failed_ops: List[int]) -> float:
    """Median over :data:`CHUNKS` operation slices of the operations
    that succeeded per second of wall time, given each operation's
    span from its send to the next one's."""
    failed = set(failed_ops)
    rates = []
    for group in _groups(list(range(len(spans))), 1):
        ok = sum(1 for op in group if op not in failed)
        rates.append(ok / sum(spans[op] for op in group))
    return statistics.median(rates)


def rescaled(prepared: Prepared, run: Run) -> Dict[str, List[float]]:
    """The run's read and write latencies and operation spans, each
    rescaled to the reference speed by its operation's factor."""
    read_factor = [f for f, r in zip(run.factor, prepared.is_read) if r]
    starts = run.starts
    return {
        "read": [t * f for t, f in zip(run.read_latency, read_factor)],
        "write": [t * f for t, f in zip(run.write_latency, run.write_factor)],
        "span": [
            (starts[op + 1] - starts[op]) * f
            for op, f in enumerate(run.factor)
        ],
    }


def end_to_end(
    prepared: Prepared, run: Run, verdict: Verdict, setup_times: List[float]
) -> Dict[str, Dict[str, object]]:
    """The end-to-end metrics; ``setup_times`` are already rescaled."""
    attempted = len(prepared.ops)
    ms = 1000.0
    times = rescaled(prepared, run)
    values = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (chunked_rate(times["span"], verdict.failed_ops), "ops/s"),
        "read_p50_ms": (chunked_percentile(times["read"], 0.50) * ms, "ms"),
        "read_p99_ms": (chunked_percentile(times["read"], 0.99) * ms, "ms"),
        "write_p50_ms": (chunked_percentile(times["write"], 0.50) * ms, "ms"),
        "write_p90_ms": (chunked_percentile(times["write"], 0.90) * ms, "ms"),
        "billed_cost_per_read": (
            (sum(run.costs) + run.resent_cost) / len(run.costs),
            "cost",
        ),
        "ok_frac": ((attempted - verdict.failed) / attempted, "ratio"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }
    return {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in values.items()
    }


def _sampling(values: list, q: float) -> Dict[str, int]:
    """How many groups a chunked percentile used, and per group the
    samples behind it and beyond it."""
    groups = _groups(values, _per_group(q))
    smallest = min(len(group) for group in groups)
    return {
        "groups": len(groups),
        "samples_per_group": smallest,
        "beyond_per_group": beyond(smallest, q),
    }


def learned_share(run: Run) -> float:
    """Share of the reads the processor answered (not the answer cache)
    that took the learned path."""
    processed = [
        flags for flags in run.flags if flags & ANSWERED and not flags & CACHED
    ]
    if not processed:
        return 0.0
    return sum(bool(flags & LEARNED) for flags in processed) / len(processed)


def traffic(
    inputs: Inputs, prepared: Prepared, run: Run, session
) -> Dict[str, object]:
    """The traffic properties later claims cite, for this run."""
    answered = [flags for flags in run.flags if flags & ANSWERED]
    reads, writes = prepared.reads, prepared.writes
    cache = session.report()["serving"].get("answer_cache", {})
    properties = dict(inputs.traffic)
    properties.update(
        reads=reads,
        writes=writes,
        reads_per_write=(reads / writes) if writes else 0.0,
        read_p50=_sampling(run.read_latency, 0.50),
        read_p99=_sampling(run.read_latency, 0.99),
        write_p50=_sampling(run.write_latency, 0.50),
        write_p90=_sampling(run.write_latency, 0.90),
        answer_cache_hit_share=cache.get("hit_rate", 0.0),
        learned_share=learned_share(run),
        proved_share=sum(bool(flags & PROVED) for flags in answered)
        / max(1, len(answered)),
        partial_resends=run.resends,
        # How fast the host ran against the reference (below 1: slower),
        # and the read p50 before rescaling.
        host_speed=statistics.median(run.factor),
        measured_read_p50_ms=chunked_percentile(run.read_latency, 0.50) * 1000.0,
        measured_write_p50_ms=(
            chunked_percentile(run.write_latency, 0.50) * 1000.0
            if run.write_latency else 0.0
        ),
    )
    return properties


@dataclass
class Result:
    """One run's verdict, metrics and traffic, ready to print."""

    verdict: Verdict
    attempted: int
    metrics: Dict[str, Dict[str, object]]
    traffic: Dict[str, object]
    #: Traced runs: each layer's share of the self time inside reads.
    shares: Dict[str, float] = field(default_factory=dict)

    def line(self) -> Dict[str, object]:
        return {
            "correct": self.verdict.correct,
            "attempted": self.attempted,
            "failed": self.verdict.failed,
            "metrics": self.metrics,
        }


def measure(
    workload: Workload,
    inputs: Inputs,
    prepared: Prepared,
    seed: int,
    tracer=None,
):
    """Set up repeatedly (see :data:`MIN_SETUPS`), then drive the last
    session.  Returns the session, each set-up's time rescaled to the
    reference speed by the kernel samples just before and after it,
    and the run."""
    meter = Speedometer()
    session, elapsed_times, setup_times = None, [], []
    before = meter.samples(SETUP_SAMPLES)
    while len(elapsed_times) < MIN_SETUPS or (
        sum(elapsed_times) < SETUP_SECONDS and len(elapsed_times) < MAX_SETUPS
    ):
        session = None  # let the previous store go before building anew
        session, elapsed = setup(workload, inputs, seed, tracer)
        after = meter.samples(SETUP_SAMPLES)
        elapsed_times.append(elapsed)
        setup_times.append(elapsed * factor_of(before + after))
        before = after
    gc.collect()
    if tracer is not None:
        tracer.install_run_wrappers()
    return session, setup_times, drive(session, prepared, meter, tracer)


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: float = 1.0,
    spans_path: Optional[str] = None,
) -> Result:
    """Generate, set up, drive and check one workload.

    ``seconds`` sets how many operations the run sends; ``scale``
    shrinks the generated data (tests run at a tiny size).  A traced
    run drives an untraced session first, for the tracing overhead,
    and writes its spans to ``spans_path`` when one is given.
    """
    workload = WORKLOADS[name]
    reads = max(1, int(round(workload.reads_per_second * seconds)))
    inputs = workload.generate(random.Random(seed), reads, scale)
    prepared = prepare(inputs)
    # The inputs stay alive for the whole run.  Frozen, they are left
    # out of the program's garbage collections, whose cost would
    # otherwise grow with the size of the run.
    gc.collect()
    gc.freeze()
    try:
        return _run(workload, inputs, prepared, seed, trace, spans_path)
    finally:
        gc.unfreeze()


def _run(workload, inputs, prepared, seed, trace, spans_path) -> Result:
    session, setup_times, run = measure(workload, inputs, prepared, seed)
    verdict = check(prepared, run)
    properties = traffic(inputs, prepared, run, session)
    if not trace:
        metrics = end_to_end(prepared, run, verdict, setup_times)
        return Result(verdict, len(prepared.ops), metrics, properties)

    from .tracing import Tracer, layer_metrics

    untraced_wall = run.wall
    session = run = None
    tracer = Tracer()
    tracer.install_setup_wrappers()
    try:
        session, setup_times, run = measure(
            workload, inputs, prepared, seed, tracer
        )
    finally:
        tracer.uninstall()
    traced_verdict = check(prepared, run)
    metrics, shares = layer_metrics(
        tracer, session, prepared, run, len(setup_times), untraced_wall
    )
    if spans_path is not None:
        tracer.dump(spans_path)
    # A traced run must answer exactly like the untraced one.
    verdict.wrong += traced_verdict.wrong
    verdict.examples += traced_verdict.examples
    return Result(verdict, len(prepared.ops), metrics, properties, shares)
