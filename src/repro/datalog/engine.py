"""Top-down SLD resolution: the paper's query processor substrate.

The query processor of the paper "uses the rules in a rule base to
reduce a given query to a series of attempted retrievals from a
database of facts".  This module implements that reduction:

* :class:`TopDownEngine` performs SLD resolution with the leftmost
  literal selection rule, negation-as-failure for ground negated
  subgoals, a depth bound, and a pluggable *rule-ordering policy* (the
  ordering is exactly the strategic choice PIB and PAO learn);
* :class:`CostModel` charges each rule reduction and each attempted
  retrieval, reproducing the paper's unit-cost accounting
  ("assume that each reduction … and each atomic retrieval costs 1
  unit");
* :class:`ProofTrace` records every attempted retrieval and its
  outcome — the only statistics PIB and PAO ever need (Section 5.1:
  "recording (at most) the number of times a query processor attempts
  each database retrieval and how often that retrieval succeeds").

The satisficing entry point is :meth:`TopDownEngine.prove`; the
all-answers generator :meth:`TopDownEngine.answers` supports the
substrate tests and the first-``k`` variant of Section 5.2.

Reduction attempts run over the compiled
:class:`~repro.datalog.rules.RulePlan` of each rule: the goal is
unified against the plan's positional head slots directly into a slot
frame, and fresh variables are minted only for body slots the goal
left unbound.  A search keeps one mutable binding store, undone on
backtracking by a trail, and pending goals are (body literal, frame)
cells of a linked list, so no step copies a substitution, a goal list
or an atom; atoms are built only for retrievals, whose patterns the
trace records.  The charged cost and the trace are identical to those
of a search that composes a fresh ``Substitution`` per step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from .database import Database
from .rules import Rule, RuleBase
from .terms import (
    EMPTY_SUBSTITUTION,
    Atom,
    Substitution,
    Term,
    Variable,
    variables_of,
)
from .unify import fresh_variable_factory

__all__ = ["CostModel", "RetrievalEvent", "ProofTrace", "Answer", "TopDownEngine"]

#: A rule-ordering policy: given the goal and the candidate rules, return
#: the rules in the order they should be tried.  The default preserves
#: rule-base order (the paper's depth-first left-to-right strategies).
RuleOrder = Callable[[Atom, Sequence[Rule]], Sequence[Rule]]


@dataclass(frozen=True)
class CostModel:
    """Charges for the two unit operations of the paper's cost model.

    ``reduction_cost`` is paid each time a rule is used to reduce a
    goal to its body; ``retrieval_cost`` is paid for each *attempted*
    database retrieval, successful or not.  Both default to the paper's
    1 unit.  ``retrieval_cost`` may be a mapping from predicate name to
    cost for non-uniform access paths.
    """

    reduction_cost: float = 1.0
    retrieval_cost: float = 1.0
    per_predicate_retrieval: Optional[Dict[str, float]] = None

    def reduction(self, rule: Rule) -> float:
        return self.reduction_cost

    def retrieval(self, goal: Atom) -> float:
        if self.per_predicate_retrieval is not None:
            return self.per_predicate_retrieval.get(
                goal.predicate, self.retrieval_cost
            )
        return self.retrieval_cost


@dataclass(frozen=True)
class RetrievalEvent:
    """One attempted retrieval: the instantiated goal and its outcome."""

    goal: Atom
    succeeded: bool
    cost: float


@dataclass
class ProofTrace:
    """Everything observed while processing one query.

    ``cost`` is the total charged cost; ``retrievals`` lists each
    attempted retrieval in order; ``reductions`` counts rule uses.
    """

    cost: float = 0.0
    retrievals: List[RetrievalEvent] = field(default_factory=list)
    reductions: int = 0

    def record_retrieval(self, goal: Atom, succeeded: bool, cost: float) -> None:
        self.retrievals.append(RetrievalEvent(goal, succeeded, cost))
        self.cost += cost

    def record_reduction(self, cost: float) -> None:
        self.reductions += 1
        self.cost += cost

    def success_counts(self) -> Dict[Tuple[str, int], Tuple[int, int]]:
        """Per-signature ``(attempts, successes)`` counters.

        These are exactly the counters PIB maintains per retrieval.
        Counters are keyed by the full ``(predicate, arity)``
        signature: ``p/1`` and ``p/2`` are distinct retrievals and
        their statistics must never collide.
        """
        counts: Dict[Tuple[str, int], Tuple[int, int]] = {}
        for event in self.retrievals:
            signature = event.goal.signature
            attempts, successes = counts.get(signature, (0, 0))
            counts[signature] = (
                attempts + 1,
                successes + (1 if event.succeeded else 0),
            )
        return counts


@dataclass(frozen=True)
class Answer:
    """A satisficing answer: the binding found and the trace behind it.

    ``substitution`` is restricted to the query's own variables;
    ``proved`` is ``False`` for the "no" answer (trace still populated:
    a failed search has a cost, which is what the learners care about).
    """

    proved: bool
    substitution: Substitution
    trace: ProofTrace


#: The pending conjunction is a cons list of ``(literal, frame,
#: ancestry, rest)`` cells, ``None`` when empty.  ``literal`` is a
#: compiled :class:`~repro.datalog.rules.LiteralPlan` read through
#: ``frame``, the slot array of the reduction that introduced it, or a
#: :class:`_Probe` whose arguments are already terms (frame ``None``);
#: ``ancestry`` holds the variant keys of the goal's branch ancestors.
_Goals = Optional[tuple]

_NO_ANCESTORS: FrozenSet[tuple] = frozenset()


class _Probe:
    """A goal literal not taken from a rule body.

    The query and the positive twin of a negated subgoal arrive as
    terms rather than slots; a probe carries them under the attribute
    names of :class:`~repro.datalog.rules.LiteralPlan`, so the
    resolution loop reads both alike.
    """

    __slots__ = ("predicate", "signature", "positive", "args")

    def __init__(self, predicate: str, args: Tuple[Term, ...]):
        self.predicate = predicate
        self.signature = (predicate, len(args))
        self.positive = True
        self.args = args


def _rule_base_order(goal: Atom, rules: Sequence[Rule]) -> Sequence[Rule]:
    """The default :data:`RuleOrder`: try rules in rule-base order."""
    return rules


def _resolve(term: Term, env: Dict[Variable, Term]) -> Term:
    """Follow ``env``'s variable bindings to the representative term."""
    while type(term) is Variable:
        bound = env.get(term)
        if bound is None:
            return term
        term = bound
    return term


def _restrict(query: Atom, env: Dict[Variable, Term]) -> Substitution:
    """The answer substitution: ``env`` resolved on the query's variables."""
    bindings: Dict[Variable, Term] = {}
    for var in variables_of(query):
        term = _resolve(var, env)
        if term is not var:
            bindings[var] = term
    return Substitution._resolved(bindings)


def _variant_key(predicate: str, args: Tuple[Term, ...]) -> tuple:
    """A variant-invariant key: variables numbered by first occurrence.

    Two goals are variants (equal up to variable renaming) iff their
    keys coincide; the loop check uses this to recognize a subgoal that
    repeats one of its own ancestors.  The key is the predicate plus,
    per argument, the occurrence index for a variable or the constant
    itself (``int`` never equals ``Constant``, so the two kinds of
    entry cannot collide).
    """
    mapping: Dict[Variable, int] = {}
    parts: List[object] = [predicate]
    for arg in args:
        if type(arg) is Variable:
            index = mapping.get(arg)
            if index is None:
                index = mapping[arg] = len(mapping)
            parts.append(index)
        else:
            parts.append(arg)
    return tuple(parts)


class TopDownEngine:
    """SLD resolution over a rule base with pluggable rule ordering.

    The engine treats predicates with no defining rules as extensional
    (database retrievals); predicates defined by rules are reduced.  A
    predicate that has both rules and facts is tried against the rules
    *and* the database, rules first, mirroring the inference-graph view
    where a goal node can have both reduction and retrieval arcs.
    """

    def __init__(
        self,
        rule_base: RuleBase,
        cost_model: Optional[CostModel] = None,
        rule_order: Optional[RuleOrder] = None,
        max_depth: int = 64,
    ):
        self.rule_base = rule_base
        self.cost_model = cost_model or CostModel()
        self.rule_order = rule_order or _rule_base_order
        if max_depth <= 0:
            raise ValueError("max_depth must be positive")
        self.max_depth = max_depth
        # One factory for the engine's lifetime: fresh variables must
        # never collide across recursion depths of a single proof.
        self._factory = fresh_variable_factory()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def prove(self, query: Atom, database: Database) -> Answer:
        """Satisficing search: return the first answer found, with trace.

        This is the paper's query-processor run: follow rules and
        attempt retrievals, in strategy order, until one derivation
        succeeds or the space is exhausted.
        """
        trace = ProofTrace()
        for env in self._search(query, database, trace):
            return Answer(True, _restrict(query, env), trace)
        return Answer(False, EMPTY_SUBSTITUTION, trace)

    def answers(
        self, query: Atom, database: Database, limit: Optional[int] = None
    ) -> Iterator[Answer]:
        """Yield up to ``limit`` distinct answers (first-k of Section 5.2).

        Each yielded :class:`Answer` shares one cumulative trace, so the
        trace cost after consuming ``k`` answers is the cost of the
        first-``k`` search.
        """
        trace = ProofTrace()
        seen = set()
        produced = 0
        for env in self._search(query, database, trace):
            key = tuple(_resolve(arg, env) for arg in query.args)
            if key in seen:
                continue
            seen.add(key)
            yield Answer(True, _restrict(query, env), trace)
            produced += 1
            if limit is not None and produced >= limit:
                return

    def holds(self, query: Atom, database: Database) -> bool:
        """Boolean convenience wrapper over :meth:`prove`."""
        return self.prove(query, database).proved

    # ------------------------------------------------------------------
    # Resolution core
    # ------------------------------------------------------------------

    def _search(
        self, query: Atom, database: Database, trace: ProofTrace
    ) -> Iterator[Dict[Variable, Term]]:
        """Yield the proof's binding store once per derivation of ``query``.

        One search owns one binding store ``env`` and one ``trail`` of
        the variables bound in it, in binding order.  Head unification
        and retrieval bind into ``env`` and push onto the trail;
        backtracking pops the trail back to the mark taken before the
        step.  The store is complete only while the search is suspended
        at a yield, so callers read their answer off it there.

        Each pending goal carries the variant keys of its *branch
        ancestors*; a selected subgoal that is a variant of one of them
        is pruned (the standard Datalog loop check — any proof through
        a repeated variant subgoal has a shorter proof without it), so
        recursive rule bases terminate without relying on the depth
        bound.  Only goals with rules can be ancestors, so goals without
        rules skip the check.
        """
        env: Dict[Variable, Term] = {}
        trail: List[Variable] = []
        rules_of = self.rule_base.rules_by_signature().get
        rule_order = self.rule_order
        reorder = rule_order is not _rule_base_order
        reduction_cost = self.cost_model.reduction
        retrieval_cost = self.cost_model.retrieval
        factory = self._factory

        def unwind(mark: int) -> None:
            while len(trail) > mark:
                del env[trail.pop()]

        def solve(goals: _Goals, depth: int) -> Iterator[bool]:
            if goals is None:
                yield True
                return
            if depth <= 0:
                return

            literal, frame, ancestry, rest = goals
            resolved: List[Term] = []
            for term in literal.args:
                if type(term) is int:
                    term = frame[term]
                while type(term) is Variable:
                    bound = env.get(term)
                    if bound is None:
                        break
                    term = bound
                resolved.append(term)
            args = tuple(resolved)
            predicate = literal.predicate

            if not literal.positive:
                # Negation-as-failure: free variables left in the
                # subgoal are existential *inside* the negation (rule
                # safety keeps them local to the literal), so
                # ``not owns(x, Y)`` succeeds iff ``x`` owns nothing.
                # The inner search is satisficing — one owned item
                # refutes pauperhood (Section 5.2) — and its bindings
                # are unwound before the conjunction continues.
                mark = len(trail)
                refuted = next(solve(
                    (_Probe(predicate, args), None, _NO_ANCESTORS, None),
                    depth - 1,
                ), False)
                unwind(mark)
                if not refuted:
                    yield from solve(rest, depth)
                return

            signature = literal.signature
            rules = rules_of(signature)
            if rules:
                key = _variant_key(predicate, args)
                if key in ancestry:
                    return  # variant loop: this branch cannot make progress
                child = ancestry | {key}
                if reorder:
                    rules_tried = rule_order(
                        Atom._make(predicate, args), list(rules))
                else:
                    rules_tried = rules
                # Rule reductions first (inference-graph order:
                # reduction arcs above retrieval arcs).
                for rule in rules_tried:
                    plan = rule.plan
                    slots: List[Optional[Term]] = [None] * plan.nslots
                    mark = len(trail)
                    for spec, garg in zip(plan.head_args, args):
                        if type(garg) is Variable and len(trail) != mark:
                            garg = _resolve(garg, env)
                        if type(spec) is int:
                            cur = slots[spec]
                            if cur is None:
                                slots[spec] = garg
                                continue
                            if type(cur) is Variable and len(trail) != mark:
                                cur = _resolve(cur, env)
                            if cur is garg or cur == garg:
                                continue
                            if type(garg) is Variable:
                                env[garg] = cur
                                trail.append(garg)
                            elif type(cur) is Variable:
                                env[cur] = garg
                                trail.append(cur)
                                slots[spec] = garg
                            else:
                                break  # two distinct constants
                        elif type(garg) is Variable:
                            env[garg] = spec
                            trail.append(garg)
                        elif garg != spec:
                            break
                    else:
                        # Slots past the head's first occur in the body:
                        # mint their fresh variables in slot order, which
                        # is their first-occurrence order in the body.
                        slot_vars = plan.slot_vars
                        for slot in range(plan.head_slots, plan.nslots):
                            slots[slot] = factory(slot_vars[slot].name)
                        trace.record_reduction(reduction_cost(rule))
                        body = rest
                        for body_literal in reversed(plan.body):
                            body = (body_literal, slots, child, body)
                        yield from solve(body, depth - 1)
                    unwind(mark)

            # Then the database retrieval, if the relation is
            # extensional or mixed: exactly one ``retrieve`` call per
            # attempted retrieval, billed once whatever it returns.
            if not rules or signature in database.signatures():
                goal = Atom._make(predicate, args)
                cost = retrieval_cost(goal)
                found = False
                for fact_binding in database.retrieve(goal):
                    if not found:
                        trace.record_retrieval(goal, True, cost)
                        found = True
                    mark = len(trail)
                    bindings = fact_binding._bindings
                    env.update(bindings)
                    trail.extend(bindings)
                    yield from solve(rest, depth)
                    unwind(mark)
                if not found:
                    trace.record_retrieval(goal, False, cost)

        for _ in solve((_Probe(query.predicate, query.args), None,
                        _NO_ANCESTORS, None), self.max_depth):
            yield env
