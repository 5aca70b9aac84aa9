"""Seeded input generators for the session benchmark.

Every workload is a pure function of ``(seed, reads, scale)``: it
returns Datalog text for the rules and facts, the operation sequence
the client will send, and the expected answer of every read.  The
expected answers come from the generator's own model (selectivity
sets, the parent map of a hierarchy), never from the program under
test, so the correctness gate is independent of the code it checks.

The generators live here, outside ``src/repro``, so a change to the
program cannot also change the inputs it is measured on.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple, Union

__all__ = ["Read", "Write", "Inputs", "Workload", "WORKLOADS"]


@dataclass(frozen=True)
class Read:
    """One ground query and the answer the generator's model expects."""

    query: str
    expected: bool


@dataclass(frozen=True)
class Write:
    """One update: remove a fact, then add another (e.g. a re-parent)."""

    remove: str
    add: str


Op = Union[Read, Write]


@dataclass
class Inputs:
    """Everything the program is handed, plus the reference answers."""

    rules: str
    facts: str
    ops: List[Op]
    #: Properties of the generated data that later claims cite
    #: (fact count, hierarchy depth, ...).
    traffic: Dict[str, float] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Learned path: one-literal alternatives with seeded selectivities
# ----------------------------------------------------------------------

#: Query forms, and single-literal alternative rules per form.
FORMS = 8
ALTERNATIVES = 6
#: Selectivity levels, one per alternative, shuffled per form by the
#: seed.  Fixed levels (rather than drawn selectivities) keep the fact
#: count and the optimal strategy's cost equal across seeds, so the
#: seed changes which order is best, not how hard the form is.
SELECTIVITIES = (0.03, 0.08, 0.14, 0.22, 0.31, 0.42)
#: Zipf exponent of the read keys over the constants.
ZIPF_S = 0.8


def _zipf_cum_weights(n: int, s: float) -> List[float]:
    return list(itertools.accumulate(1.0 / (rank + 1) ** s for rank in range(n)))


def _skewed(
    rng: random.Random, reads: int, constants: int, every: int, burst: int
) -> Inputs:
    """``burst`` writes follow every ``every`` reads; each moves one
    constant out of a relation and another one in."""
    rules = [
        f"q{f}(X) :- r{f}_{a}(X)."
        for f in range(FORMS)
        for a in range(ALTERNATIVES)
    ]
    members: Dict[Tuple[int, int], List[int]] = {}
    facts: List[str] = []
    for f in range(FORMS):
        levels = list(SELECTIVITIES)
        rng.shuffle(levels)
        for a, p in enumerate(levels):
            members[f, a] = [c for c in range(constants) if rng.random() < p]
            facts.extend(f"r{f}_{a}(c{c})." for c in members[f, a])
    present = {key: set(chosen) for key, chosen in members.items()}

    def move() -> Write:
        f, a = rng.randrange(FORMS), rng.randrange(ALTERNATIVES)
        chosen, relation = members[f, a], present[f, a]
        slot = rng.randrange(len(chosen))
        old, new = chosen[slot], rng.randrange(constants)
        while new in relation:
            new = rng.randrange(constants)
        chosen[slot] = new
        relation.discard(old)
        relation.add(new)
        return Write(f"r{f}_{a}(c{old})", f"r{f}_{a}(c{new})")

    ranked = list(range(constants))
    rng.shuffle(ranked)
    keys = rng.choices(
        ranked, cum_weights=_zipf_cum_weights(constants, ZIPF_S), k=reads
    )
    ops: List[Op] = []
    for index, c in enumerate(keys):
        f = rng.randrange(FORMS)
        expected = any(c in present[f, a] for a in range(ALTERNATIVES))
        ops.append(Read(f"q{f}(c{c})", expected))
        if index % every == every - 1:
            ops.extend(move() for _ in range(burst))
    return Inputs(
        rules="\n".join(rules),
        facts="\n".join(facts),
        ops=ops,
        traffic={"facts": len(facts), "constants": constants},
    )


# ----------------------------------------------------------------------
# Recursion: an org-chart hierarchy
# ----------------------------------------------------------------------

HIERARCHY_RULES = """\
above(X, Y) :- parent(X, Y).
above(X, Y) :- parent(Z, Y), above(X, Z).
below(X, Y) :- above(Y, X).
peer(X, Y) :- parent(Z, X), parent(Z, Y).
peer(X, Y) :- parent(A, X), parent(B, Y), peer(A, B).
"""


#: Divisions directly under the head of the hierarchy.
DIVISIONS = 16


def _depths(parent: List[int]) -> List[int]:
    """Depth of every member; parents always precede their children."""
    depth = [0] * len(parent)
    for member in range(1, len(parent)):
        depth[member] = depth[parent[member]] + 1
    return depth


def _is_above(parent: List[int], x: int, y: int) -> bool:
    """Whether ``x`` is a proper ancestor of ``y``."""
    while y != 0:
        y = parent[y]
        if y == x:
            return True
    return False


def _hierarchy(
    rng: random.Random, reads: int, members: int, every: int, burst: int
) -> Inputs:
    """An org chart: ``m0`` heads :data:`DIVISIONS` divisions, and each
    division is a random recursive tree — every later member reports
    to a uniform earlier member of its division.  Depth is whatever
    the draw gives, never clamped.  Many independent divisions keep
    the mean depth, and with it the cost of a read, nearly equal
    across seeds.

    ``burst`` re-parents follow every ``every`` reads.  A re-parent
    moves a member under another earlier member, so parents keep
    preceding children and the hierarchy stays one tree under ``m0``.
    """
    parent = [0] * members
    staff: List[List[int]] = [[head] for head in range(1, DIVISIONS + 1)]
    for member in range(DIVISIONS + 1, members):
        division = staff[rng.randrange(DIVISIONS)]
        parent[member] = rng.choice(division)
        division.append(member)
    initial_depth = _depths(parent)
    depth = initial_depth
    facts = [f"parent(m{parent[c]}, m{c})." for c in range(1, members)]

    def reparent() -> Write:
        nonlocal depth
        child = rng.randrange(2, members)
        new = rng.randrange(child - 1)
        if new >= parent[child]:
            new += 1  # any earlier member but the current parent
        old = parent[child]
        parent[child] = new
        depth = _depths(parent)
        return Write(f"parent(m{old}, m{child})", f"parent(m{new}, m{child})")

    ops: List[Op] = []
    for index in range(reads):
        kind = index % 3
        x, y = rng.randrange(members), rng.randrange(members)
        if kind == 0:
            query, expected = f"above(m{x}, m{y})", _is_above(parent, x, y)
        elif kind == 1:
            query, expected = f"below(m{x}, m{y})", _is_above(parent, y, x)
        else:
            query = f"peer(m{x}, m{y})"
            expected = depth[x] == depth[y] >= 1
        ops.append(Read(query, expected))
        if index % every == every - 1:
            ops.extend(reparent() for _ in range(burst))
    return Inputs(
        rules=HIERARCHY_RULES,
        facts="\n".join(facts),
        ops=ops,
        traffic={
            "facts": len(facts),
            "members": members,
            "hierarchy_max_depth": max(initial_depth),
            "hierarchy_mean_depth": sum(initial_depth) / members,
        },
    )


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """One traffic mix: its generator and the session it runs against
    (``BENCHMARK.json`` says why each is in the benchmark).

    ``reads_per_second`` converts the run's ``--seconds`` into a fixed
    number of reads (about ``--seconds`` of work at the commit the
    benchmark was written against), so every run of a seed does the
    same work and the deterministic metrics repeat exactly.
    """

    name: str
    generate: Callable[[random.Random, int, float], Inputs]
    reads_per_second: float
    engine: str = "topdown"
    federated: bool = False
    #: The CLI's ``--retries`` (0: resilience layer off).
    retries: int = 0
    #: Whether the subgoal memo tier runs beside the answer cache
    #: (both at the capacities of the CLI's ``--cache``).
    subgoal_memo: bool = True


#: The mostly-read workloads send their writes in this many bursts,
#: spread evenly over the run, of :data:`BURST` writes each: enough
#: for a write p90 with ten samples beyond it in each burst, sampled
#: at several moments of the run rather than one.
BURSTS = 10
BURST = 100


def _scaled(count: int, scale: float, floor: int) -> int:
    return max(floor, int(round(count * scale)))


def _bursts(reads: int, scale: float) -> Tuple[int, int]:
    """``(every, burst)`` for :data:`BURSTS` bursts over ``reads``."""
    return max(1, reads // BURSTS), _scaled(BURST, scale, 2)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="learn_skewed",
            generate=lambda rng, reads, scale: _skewed(
                rng, reads, _scaled(5000, scale, 50), *_bursts(reads, scale)
            ),
            reads_per_second=6000,
        ),
        Workload(
            name="recursive_sld",
            generate=lambda rng, reads, scale: _hierarchy(
                rng, reads, _scaled(5000, scale, 30), *_bursts(reads, scale)
            ),
            reads_per_second=2000,
        ),
        Workload(
            name="recursive_qsqn_writes",
            generate=lambda rng, reads, scale: _hierarchy(
                rng, reads, _scaled(1000, scale, 30), 10, 1
            ),
            reads_per_second=110,
            engine="qsqn",
        ),
        Workload(
            name="learn_federated_faults",
            generate=lambda rng, reads, scale: _skewed(
                rng, reads, _scaled(4000, scale, 50), *_bursts(reads, scale)
            ),
            reads_per_second=5500,
            federated=True,
            retries=3,
            # The memo records a probe of a dark shard as "no match"
            # and later serves it as a complete answer, so this
            # workload runs the answer tier alone (``--cache-answers``);
            # tests/test_perfbench.py pins the defect.
            subgoal_memo=False,
        ),
    )
}
