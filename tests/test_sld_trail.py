"""The binding-trail SLD core against the compose-based core it replaced.

``ComposingEngine`` restores the old resolution core: every reduction
builds a fresh body-atom list and every step composes a new
``Substitution``.  The trail core must reproduce it byte for byte —
proved flag, substitutions, trace cost, reduction count, and the full
retrieval sequence, fresh-variable names included — so the rewrite
changes speed only, never what the paper bills.
"""

import random
from typing import Dict, FrozenSet, List, Optional, Tuple

import pytest

from repro.datalog.database import Database
from repro.datalog.engine import Answer, ProofTrace, TopDownEngine
from repro.datalog.parser import parse_atom, parse_program, parse_query
from repro.datalog.rules import Rule
from repro.datalog.terms import (
    EMPTY_SUBSTITUTION,
    Atom,
    Substitution,
    Term,
    Variable,
    variables_of,
)
from repro.datalog.unify import fresh_variable_factory
from repro.resilience.faults import FaultSpec
from repro.storage.federation import FederatedStore
from repro.workloads.hostile import (
    deep_recursion_program,
    negation_mix_program,
    same_generation_program,
)

_Goal = Tuple[Atom, bool, FrozenSet[tuple]]


def _deref(term: Term, outer: Dict[Variable, Term]) -> Term:
    while type(term) is Variable:
        bound = outer.get(term)
        if bound is None:
            return term
        term = bound
    return term


class ComposingEngine(TopDownEngine):
    """Reference core: one composed ``Substitution`` per resolution step."""

    def prove(self, query, database):
        trace = ProofTrace()
        for substitution in self._solve(
            [(query, True, frozenset())],
            EMPTY_SUBSTITUTION, database, trace, self.max_depth,
        ):
            answer = substitution.restrict(variables_of(query))
            return Answer(True, answer, trace)
        return Answer(False, EMPTY_SUBSTITUTION, trace)

    def answers(self, query, database, limit=None):
        trace = ProofTrace()
        seen = set()
        produced = 0
        for substitution in self._solve(
            [(query, True, frozenset())],
            EMPTY_SUBSTITUTION, database, trace, self.max_depth,
        ):
            answer = substitution.restrict(variables_of(query))
            key = answer.apply(query)
            if key in seen:
                continue
            seen.add(key)
            yield Answer(True, answer, trace)
            produced += 1
            if limit is not None and produced >= limit:
                return

    @staticmethod
    def _canonical(atom: Atom) -> tuple:
        mapping: Dict[Variable, int] = {}
        parts: List[object] = [atom.predicate]
        for arg in atom.args:
            if type(arg) is Variable:
                index = mapping.get(arg)
                if index is None:
                    index = mapping[arg] = len(mapping)
                parts.append(index)
            else:
                parts.append(arg)
        return tuple(parts)

    def _reduce(
        self, rule: Rule, goal: Atom, ancestry: FrozenSet[tuple]
    ) -> Optional[Tuple[Substitution, List[_Goal]]]:
        plan = rule.plan
        slots: List[Optional[Term]] = [None] * plan.nslots
        outer: Dict[Variable, Term] = {}
        for spec, garg in zip(plan.head_args, goal.args):
            if outer and type(garg) is Variable:
                garg = _deref(garg, outer)
            if type(spec) is int:
                cur = slots[spec]
                if cur is None:
                    slots[spec] = garg
                    continue
                if outer and type(cur) is Variable:
                    cur = _deref(cur, outer)
                if cur is garg or cur == garg:
                    continue
                if type(garg) is Variable:
                    outer[garg] = cur
                elif type(cur) is Variable:
                    outer[cur] = garg
                    slots[spec] = garg
                else:
                    return None
            else:
                if type(garg) is Variable:
                    outer[garg] = spec
                elif garg != spec:
                    return None
        if outer:
            for var, term in outer.items():
                while type(term) is Variable and term in outer:
                    term = outer[term]
                outer[var] = term
            unifier = Substitution._resolved(outer)
        else:
            unifier = EMPTY_SUBSTITUTION
        body: List[_Goal] = []
        for lp in plan.body:
            args: List[Term] = []
            for spec in lp.args:
                if type(spec) is int:
                    value = slots[spec]
                    if value is None:
                        value = slots[spec] = self._factory(
                            plan.slot_vars[spec].name)
                    args.append(value)
                else:
                    args.append(spec)
            body.append((Atom._make(lp.predicate, tuple(args)), lp.positive,
                         ancestry))
        return unifier, body

    def _solve(self, goals, bindings, database, trace, depth):
        if not goals:
            yield bindings
            return
        if depth <= 0:
            return
        pending, positive, ancestry = goals[0]
        goal = pending.substitute(bindings)
        rest = goals[1:]
        if not positive:
            yield from self._solve_negation(
                goal, rest, bindings, database, trace, depth
            )
            return
        key = self._canonical(goal)
        if key in ancestry:
            return
        child_ancestry = ancestry | {key}
        rules = self.rule_base.rules_for(goal)
        for rule in self.rule_order(goal, rules):
            reduced = self._reduce(rule, goal, child_ancestry)
            if reduced is None:
                continue
            unifier, body = reduced
            trace.record_reduction(self.cost_model.reduction(rule))
            yield from self._solve(
                body + rest, bindings.compose(unifier), database, trace,
                depth - 1,
            )
        if not rules or goal.signature in database.signatures():
            cost = self.cost_model.retrieval(goal)
            found = False
            for fact_binding in database.retrieve(goal):
                if not found:
                    trace.record_retrieval(goal, True, cost)
                    found = True
                yield from self._solve(
                    rest, bindings.compose(fact_binding), database, trace,
                    depth,
                )
            if not found:
                trace.record_retrieval(goal, False, cost)

    def _solve_negation(self, atom, rest, bindings, database, trace, depth):
        for _ in self._solve(
            [(atom, True, frozenset())],
            EMPTY_SUBSTITUTION, database, trace, depth - 1,
        ):
            return
        yield from self._solve(rest, bindings, database, trace, depth)


def fingerprint(answer: Answer) -> tuple:
    """Everything one answer exposes, rendered so a mismatch prints."""
    trace = answer.trace
    return (
        answer.proved,
        repr(answer.substitution),
        trace.cost,
        trace.reductions,
        [(str(event.goal), event.succeeded, event.cost)
         for event in trace.retrievals],
    )


def run(engine: TopDownEngine, queries, database, limit: int) -> list:
    """Per query: the prove, the full enumeration, and a first-k run."""
    observed = []
    for query in queries:
        proof = engine.prove(query, database)
        everything = list(engine.answers(query, database))
        first_k = list(engine.answers(query, database, limit=limit))
        observed.append((
            fingerprint(proof),
            [repr(answer.substitution) for answer in everything],
            fingerprint(everything[-1]) if everything else None,
            [repr(answer.substitution) for answer in first_k],
            fingerprint(first_k[-1]) if first_k else None,
        ))
    return observed


def assert_same(rules, queries, database, where, limit=2, **options):
    got = run(TopDownEngine(rules, **options), queries, database, limit)
    want = run(ComposingEngine(rules, **options), queries, database, limit)
    assert len(got) == len(want)
    for query, mine, theirs in zip(queries, got, want):
        assert mine == theirs, f"{where}: {query}"


HOSTILE_SHAPES = {
    "deep-recursion": lambda seed: deep_recursion_program(
        seed, depth=12, n_queries=6
    ),
    "same-generation": lambda seed: same_generation_program(
        seed, depth=3, fanout=2, n_queries=6
    ),
    "negation-mix": lambda seed: negation_mix_program(seed, n_queries=8),
}

HIERARCHY = """
above(X, Y) :- parent(X, Y).
above(X, Y) :- parent(Z, Y), above(X, Z).
below(X, Y) :- above(Y, X).
peer(X, Y) :- parent(Z, X), parent(Z, Y).
peer(X, Y) :- parent(A, X), parent(B, Y), peer(A, B).
"""


def hierarchy(seed, members=60, divisions=3, reads=15):
    """A seeded org chart (every member reports to an earlier member of
    its division) and a mix of ground and open reads over it."""
    rng = random.Random(seed)
    facts = [parse_atom(f"parent(m0, m{head})")
             for head in range(1, divisions + 1)]
    staff = [[head] for head in range(1, divisions + 1)]
    for member in range(divisions + 1, members):
        division = staff[rng.randrange(divisions)]
        facts.append(parse_atom(f"parent(m{rng.choice(division)}, m{member})"))
        division.append(member)
    queries = []
    for index in range(reads):
        name = ("above", "below", "peer")[index % 3]
        x, y = rng.randrange(members), rng.randrange(members)
        right = f"m{y}" if index % 4 else "Y"
        queries.append(parse_query(f"{name}(m{x}, {right})?"))
    return facts, queries


LOOPING = """
tc(X, Y) :- tc(X, Z), e(Z, Y).
tc(X, Y) :- e(X, Y).
sym(X, Y) :- sym(Y, X).
sym(X, Y) :- e(X, Y).
gap(X) :- n(X), not e(X, Y), n(Y).
twin(X, X) :- n(X).
"""


def cyclic_graph(seed, nodes=7):
    """Seeded edges with cycles, and reads that hit the loop check, a
    repeated head variable, and a predicate with both rules and facts."""
    rng = random.Random(seed)
    names = [f"v{index}" for index in range(nodes)]
    facts = [parse_atom(f"n({name})") for name in names]
    for _ in range(nodes + 3):
        facts.append(parse_atom(f"e({rng.choice(names)}, {rng.choice(names)})"))
    facts.append(parse_atom(f"sym({rng.choice(names)}, {rng.choice(names)})"))
    queries = ["tc(X, Y)?", "sym(X, Y)?", "gap(X)?", "twin(A, B)?"]
    for _ in range(6):
        left, right = rng.choice(names), rng.choice(names)
        queries += [f"tc({left}, {right})?", f"sym({left}, X)?"]
    return facts, [parse_query(text) for text in queries]


class TestMatchesComposingCore:
    @pytest.mark.parametrize("shape", sorted(HOSTILE_SHAPES))
    def test_hostile_zoo(self, shape):
        for seed in range(20):
            rules, facts, queries = HOSTILE_SHAPES[shape](seed)
            assert_same(
                parse_program("\n".join(rules)),
                [parse_query(text) for text in queries],
                Database.from_program("\n".join(facts)),
                f"{shape} seed {seed}",
            )

    def test_hierarchy(self):
        rules = parse_program(HIERARCHY)
        for seed in range(3):
            facts, queries = hierarchy(seed)
            assert_same(rules, queries, Database(facts), f"seed {seed}",
                        limit=3)

    def test_left_recursion_and_cycles(self):
        rules = parse_program(LOOPING)
        for seed in range(10):
            facts, queries = cyclic_graph(seed)
            assert_same(rules, queries, Database(facts), f"seed {seed}")

    def test_reversed_rule_order(self):
        rules = parse_program(HIERARCHY)
        facts, queries = hierarchy(7)
        assert_same(rules, queries, Database(facts), "reversed",
                    rule_order=lambda goal, rs: list(rs)[::-1])

    def test_truncating_depth_bound(self):
        rules, facts, queries = deep_recursion_program(3, depth=24)
        rules = parse_program("\n".join(rules))
        queries = [parse_query(text) for text in queries]
        database = Database.from_program("\n".join(facts))
        # The smallest bound that still proves the deepest goal; one
        # less cuts it off silently (a failed search), and both cores
        # must cut identically.
        enough = next(bound for bound in range(1, 65) if TopDownEngine(
            rules, max_depth=bound).holds(queries[0], database))
        assert enough > 10
        assert not TopDownEngine(rules, max_depth=enough - 1).holds(
            queries[0], database)
        for max_depth in (3, enough - 1, enough):
            assert_same(rules, queries, database, f"max_depth {max_depth}",
                        max_depth=max_depth)

    def test_fault_injected_federated_store(self):
        rules = parse_program(HIERARCHY)
        facts, queries = hierarchy(11)

        def store():
            return FederatedStore(
                facts, shards=3, seed=4,
                fault=FaultSpec(fault_rate=0.2, timeout_rate=0.05),
                replicas=True, replica_fault=FaultSpec(fault_rate=0.3),
            )

        mine, theirs = store(), store()
        got = run(TopDownEngine(rules), queries, mine, 2)
        want = run(ComposingEngine(rules), queries, theirs, 2)
        assert got == want
        assert mine.probes > 0 and mine.dark_probes > 0
        assert (mine.billed_cost, mine.probes, mine.dark_probes) == (
            theirs.billed_cost, theirs.probes, theirs.dark_probes)


class TestFreshVariables:
    def test_not_interned(self):
        before = len(Variable._intern)
        factory = fresh_variable_factory()
        minted = [factory("X") for _ in range((1 << 16) + 10)]
        assert len(Variable._intern) == before
        last = minted[-1]
        assert last.name == f"X#{len(minted) - 1}"
        assert last == Variable(last.name)
        assert hash(last) == hash(Variable(last.name))

    def test_engine_leaves_intern_table_alone(self):
        rules = parse_program(HIERARCHY)
        facts, queries = hierarchy(2)
        database = Database(facts)
        engine = TopDownEngine(rules)
        before = len(Variable._intern)
        for query in queries:
            list(engine.answers(query, database))
        assert len(Variable._intern) == before
