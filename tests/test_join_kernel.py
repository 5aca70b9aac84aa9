"""The shared slot-join kernel against the two joins it replaced.

The bottom-up ``_join_rule`` and QSQN's ``_activate`` used to carry one
copy each of the same slot-array backtracking join.  Both now call
:func:`repro.datalog.rules.slot_join`.  The copies are kept here as
test-only references, and the kernel must reproduce them byte for
byte: the naive and semi-naive models in insertion order, QSQN's answer
order and tabled relations, and every trace's cost, reduction count and
retrieval sequence.  The worlds are the hostile zoo plus programs whose
derived relations also hold stored facts.
"""

import random
from itertools import product
from typing import Dict, Iterator, List, Optional

import pytest

from repro.datalog import bottomup
from repro.datalog.bottomup import naive_evaluate, seminaive_evaluate
from repro.datalog.database import Database
from repro.datalog.parser import parse_atom, parse_program, parse_query
from repro.datalog.qsqn import QSQNEngine
from repro.datalog.rules import Rule, instantiate, slot_join
from repro.datalog.terms import Atom, Term, Variable
from repro.workloads.hostile import (
    deep_recursion_program,
    mutation_storm,
    negation_mix_program,
    same_generation_program,
)


def reference_join_rule(rule: Rule, facts: Database,
                        required: Optional[Database] = None
                        ) -> Iterator[Atom]:
    """The bottom-up rule join as it was before the shared kernel."""
    plan = rule.plan
    positives = bottomup._join_order(plan.positive, facts)
    negateds = plan.negated
    slots: List[Optional[object]] = [None] * plan.nslots
    slot_vars = plan.slot_vars
    n_positive = len(positives)

    def blocked_by_negation() -> bool:
        for lp in negateds:
            args: List[object] = []
            ground = True
            for spec in lp.args:
                if type(spec) is int:
                    value = slots[spec]
                    if value is None:
                        value = slot_vars[spec]
                        ground = False
                    args.append(value)
                else:
                    args.append(spec)
            goal = Atom._make(lp.predicate, tuple(args))
            if not ground:
                if facts.succeeds(goal):
                    return True
            elif goal in facts:
                return True
        return False

    def join(level: int, used_delta: bool) -> Iterator[bool]:
        if level == n_positive:
            if required is not None and not used_delta:
                return
            if not blocked_by_negation():
                yield True
            return
        lp = positives[level]
        specs = lp.args
        args = []
        for spec in specs:
            if type(spec) is int:
                value = slots[spec]
                args.append(value if value is not None else slot_vars[spec])
            else:
                args.append(spec)
        pattern = Atom._make(lp.predicate, tuple(args))
        for fact in facts.facts_matching(pattern):
            bound_here: List[int] = []
            for spec, f_arg in zip(specs, fact.args):
                if type(spec) is int and slots[spec] is None:
                    slots[spec] = f_arg
                    bound_here.append(spec)
            in_delta = used_delta or (required is not None and fact in required)
            yield from join(level + 1, in_delta)
            for spec in bound_here:
                slots[spec] = None

    head_predicate = rule.head.predicate
    for _ in join(0, False):
        args = []
        for spec in plan.head.args:
            args.append(slots[spec] if type(spec) is int else spec)
        yield Atom._make(head_predicate, tuple(args))


class ReferenceQSQN(QSQNEngine):
    """QSQN with the walk/extend activation it had before the kernel:
    positive edges in body order, then negated ones, each joined by a
    recursive callback instead of a generator."""

    def _activate(self, state, rule, subquery, database, trace):
        plan = rule.plan
        slots: List[Optional[Term]] = [None] * plan.nslots
        looked: Dict[tuple, int] = {}
        for spec, q_arg in zip(plan.head.args, subquery.args):
            if type(q_arg) is Variable:
                continue
            if type(spec) is int:
                current = slots[spec]
                if current is None:
                    slots[spec] = q_arg
                elif current != q_arg:
                    return looked
            elif spec != q_arg:
                return looked
        trace.record_reduction(self.cost_model.reduction(rule))

        slot_vars = plan.slot_vars
        edges = plan.positive + plan.negated
        n_edges = len(edges)
        signatures = database.signatures()
        head_signature = rule.head.signature
        head_predicate = rule.head.predicate
        heard = state.heard
        retrieval = self.cost_model.retrieval

        def pattern_for(lp) -> Atom:
            args: List[Term] = []
            for spec in lp.args:
                if type(spec) is int:
                    value = slots[spec]
                    args.append(value if value is not None
                                else slot_vars[spec])
                else:
                    args.append(spec)
            return Atom._make(lp.predicate, tuple(args))

        def emit() -> None:
            args = tuple(slots[spec] if type(spec) is int else spec
                         for spec in plan.head.args)
            if state.ans.add(Atom._make(head_predicate, args)):
                state.version += 1
                for bound in product(*[(arg, None) for arg in args]):
                    if head_signature + bound in heard:
                        heard[head_signature + bound] += 1

        def walk(level: int) -> None:
            if level == n_edges:
                emit()
                return
            lp = edges[level]
            if not lp.positive:
                if not self._negation_blocked(
                    state, pattern_for(lp), database, trace, looked
                ):
                    walk(level + 1)
                return
            pattern = pattern_for(lp)
            specs = lp.args
            intensional = lp.signature in self._idb

            def extend(fact: Atom) -> None:
                bound_here: List[int] = []
                for spec, f_arg in zip(specs, fact.args):
                    if type(spec) is int and slots[spec] is None:
                        slots[spec] = f_arg
                        bound_here.append(spec)
                walk(level + 1)
                for spec in bound_here:
                    slots[spec] = None

            stored = not intensional or lp.signature in signatures
            if stored:
                cost = retrieval(pattern)
                found = False
                for fact in database.facts_matching(pattern):
                    if not found:
                        trace.record_retrieval(pattern, True, cost)
                        found = True
                    extend(fact)
                if not found:
                    trace.record_retrieval(pattern, False, cost)
            if intensional:
                key = self._register(state, lp.signature, pattern)
                looked.setdefault(key, heard[key])
                for fact in list(state.ans.facts_matching(pattern)):
                    if not (stored and fact in database):
                        extend(fact)

        walk(0)
        return looked


MIXED_RULES = [
    "tc(X, Y) :- e(X, Y).",
    "tc(X, Y) :- tc(X, Z), e(Z, Y).",
    "sym(X, Y) :- e(X, Y).",
    "sym(X, Y) :- sym(Y, X).",
    "hop(X, Y) :- sym(X, Z), tc(Z, Y), n(Y).",
    "gap(X) :- n(X), not tc(X, X).",
]


def mixed_relations_program(seed, nodes=6):
    """Seeded cyclic edges under rules whose derived relations also hold
    stored facts, some derivable and some not: the lookups that join a
    relation from the store and from the answer tables."""
    rng = random.Random(seed)
    names = [f"v{index}" for index in range(nodes)]
    facts = [f"n({name})." for name in names]
    for _ in range(nodes + 2):
        facts.append(f"e({rng.choice(names)}, {rng.choice(names)}).")
    for relation in ("tc", "sym", "tc", "sym"):
        facts.append(f"{relation}({rng.choice(names)}, {rng.choice(names)}).")
    queries = ["tc(X, Y)?", "hop(X, Y)?", "gap(X)?"]
    for _ in range(3):
        left, right = rng.choice(names), rng.choice(names)
        queries += [f"hop({left}, Y)?", f"sym({left}, {right})?"]
    return MIXED_RULES, facts, queries


HOSTILE_SHAPES = {
    "deep-recursion": lambda seed: deep_recursion_program(
        seed, depth=12, n_queries=6
    ),
    "same-generation": lambda seed: same_generation_program(
        seed, depth=3, fanout=2, n_queries=6
    ),
    "negation-mix": lambda seed: negation_mix_program(seed, n_queries=8),
    "mixed-relations": mixed_relations_program,
}

SEEDS = range(20)
STORM_STEPS = 2


def storm_states(shape, seed):
    """The rule base, then the database after each storm step (the
    first state is the world as generated)."""
    rules, facts, queries = HOSTILE_SHAPES[shape](seed)
    rule_base = parse_program("\n".join(rules))
    db = Database.from_program("\n".join(facts))
    yield rule_base, db, [parse_query(text) for text in queries]
    for op, text in mutation_storm(seed, facts, STORM_STEPS):
        (db.add if op == "add" else db.remove)(parse_atom(text))
        yield rule_base, db, [parse_query(text) for text in queries]


def trace_fingerprint(trace) -> tuple:
    return (
        trace.cost,
        trace.reductions,
        [(str(event.goal), event.succeeded, event.cost)
         for event in trace.retrievals],
    )


def qsqn_run(engine, queries, db) -> list:
    """Per query: the prove and the full enumeration, traces included."""
    observed = []
    for query in queries:
        proof = engine.prove(query, db)
        answers = list(engine.answers(query, db))
        observed.append((
            proof.proved,
            repr(proof.substitution),
            trace_fingerprint(proof.trace),
            [repr(answer.substitution) for answer in answers],
            trace_fingerprint(answers[-1].trace) if answers else None,
        ))
    return observed


class TestBottomUpKernel:
    @pytest.mark.parametrize("shape", sorted(HOSTILE_SHAPES))
    @pytest.mark.parametrize("evaluate", [naive_evaluate, seminaive_evaluate],
                             ids=["naive", "seminaive"])
    def test_model_matches_reference(self, shape, evaluate, monkeypatch):
        for seed in SEEDS:
            for step, (rules, db, _) in enumerate(storm_states(shape, seed)):
                got = list(evaluate(rules, db))
                with monkeypatch.context() as patch:
                    patch.setattr(bottomup, "_join_rule", reference_join_rule)
                    want = list(evaluate(rules, db))
                assert got == want, f"{shape} seed {seed} step {step}"


class TestQSQNKernel:
    @pytest.mark.parametrize("shape", sorted(HOSTILE_SHAPES))
    def test_matches_reference_activation(self, shape):
        for seed in SEEDS:
            for step, (rules, db, queries) in enumerate(
                storm_states(shape, seed)
            ):
                engine, reference = QSQNEngine(rules), ReferenceQSQN(rules)
                where = f"{shape} seed {seed} step {step}"
                assert qsqn_run(engine, queries, db) == qsqn_run(
                    reference, queries, db
                ), where
                assert list(engine._state(db).ans) == list(
                    reference._state(db).ans
                ), where


class TestSlotJoin:
    RULE = "p(X, Z) :- e(X, Y), e(Y, Z), not q(Z)."

    def test_yields_bindings_and_restores_slots(self):
        rule = next(iter(parse_program(self.RULE)))
        plan = rule.plan
        facts = Database.from_program("e(a, b). e(b, c). e(b, d).")
        slots = [None] * plan.nslots
        seen = []
        for matched in slot_join(plan.positive, slots, plan.slot_vars,
                                 facts.facts_matching):
            seen.append((
                [str(fact) for fact in matched],
                str(instantiate(plan.head, slots, plan.slot_vars)),
            ))
        assert seen == [
            (["e(a, b)", "e(b, c)"], "p(a, c)"),
            (["e(a, b)", "e(b, d)"], "p(a, d)"),
        ]
        assert slots == [None] * plan.nslots

    def test_lookup_sees_bound_patterns_in_join_order(self):
        rule = next(iter(parse_program(self.RULE)))
        plan = rule.plan
        facts = Database.from_program("e(a, b). e(b, c).")
        asked = []

        def lookup(pattern):
            asked.append(str(pattern))
            return facts.facts_matching(pattern)

        slots = [None] * plan.nslots
        list(slot_join(plan.positive, slots, plan.slot_vars, lookup))
        assert asked == ["e(X, Y)", "e(b, Z)", "e(c, Z)"]

    def test_unbound_slots_instantiate_to_rule_variables(self):
        plan = next(iter(parse_program(self.RULE))).plan
        slots = [None] * plan.nslots
        assert str(instantiate(plan.negated[0], slots, plan.slot_vars)) \
            == "q(Z)"

    def test_no_literals_yields_once(self):
        assert list(slot_join((), [], (), lambda pattern: ())) == [[]]
