"""Query-Subquery Nets: goal-directed set-at-a-time evaluation.

The third evaluation strategy, after top-down SLD resolution
(:mod:`repro.datalog.engine`) and bottom-up fixpoints
(:mod:`repro.datalog.bottomup`).  QSQ-nets [arXiv:1201.2564] evaluate a
query *goal-directedly* like the top-down engine — only subqueries
reachable from the user's query are ever explored — but
*set-at-a-time* like the bottom-up engine: every derived fact is
tabled in a global answer relation per predicate, so recursion
terminates without loop checks or depth bounds.

The net:

* an **input relation** per predicate holds the registered subqueries
  (goal patterns), canonicalized so that variants collapse to one
  entry — the adornment structure of the QSQ literature;
* an **answer relation** per predicate tables every derived fact;
* per rule, an *activation* propagates a subquery through the body:
  the shared :func:`~repro.datalog.rules.slot_join` kernel joins the
  positive literals left to right, each against the database
  (extensional) or the answer relation (intensional, registering the
  child subquery as it goes), and every complete binding then passes
  the negated literals.

Evaluation drains a fixpoint: activations run until no activation
derives a new answer or registers a new subquery.  Stratified negation
falls back to tuple-at-a-time: when a binding reaches a negated
literal, the (partially) bound goal's *own* subquery is registered and
the strictly-lower strata are drained to completion before the
emptiness test — sound because stratification guarantees the negated
predicate's stratum lies strictly below the head's.

Everything rides the compiled hot-path machinery: rules are joined
through their :class:`~repro.datalog.rules.RulePlan` slot arrays,
facts are enumerated via :meth:`Database.facts_matching`, and atoms
are built with the trusted :meth:`Atom._make` constructor.  All
iteration runs over insertion-ordered dicts, so answer enumeration
order and billed probe counts are byte-identical across
``PYTHONHASHSEED`` values.

Like :class:`~repro.datalog.bottomup.BottomUpEngine`, net state is
cached per database *state* (``Database.cache_key``): repeat queries
against an unmutated database reuse the tabled answers, a mutation
invalidates the whole net.
"""

from __future__ import annotations

from itertools import chain, product
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .database import Database
from .engine import Answer, CostModel, ProofTrace
from .rules import Rule, RuleBase, instantiate, slot_join
from .terms import Atom, Constant, Substitution, Term, Variable

__all__ = ["QSQNEngine"]

class _NetState:
    """The mutable net state for one database state.

    ``input`` maps each predicate signature to its registered
    subqueries (canonical key -> representative pattern atom), an
    insertion-ordered dict; ``ans`` tables the derived facts in a
    :class:`Database`, whose insertion-ordered per-argument index
    serves the answer lookups.  ``heard`` counts, per registered
    subquery key, the answers tabled since its registration that
    match it.  ``version`` counts net growth events (new answer or new
    subquery); ``processed`` memoizes, per (signature, key, rule
    index), the ``heard`` count of every subquery the activation last
    looked up, so the fixpoint loop skips activations none of whose
    lookups has grown.  ``settled`` is the (version, stratum) of the
    last finished drain: until the net grows, no drain that deep runs.
    """

    __slots__ = ("input", "ans", "heard", "version", "processed", "settled")

    def __init__(self) -> None:
        self.input: Dict[Tuple[str, int], Dict[tuple, Atom]] = {}
        self.ans = Database()
        self.heard: Dict[tuple, int] = {}
        self.version = 0
        self.processed: Dict[tuple, Dict[tuple, int]] = {}
        self.settled = (-1, -1)


class QSQNEngine:
    """Goal-directed set-at-a-time evaluation over a QSQ-net.

    The public surface matches the other two engines — :meth:`prove`,
    :meth:`answers`, :meth:`holds` — and bills the same unit-cost
    model: one reduction per rule activation, one retrieval per
    database probe.  Mixed predicates (rules *and* stored facts) take
    answers from both sources, matching the inference-graph view the
    top-down engine and the bottom-up model share.
    """

    def __init__(
        self,
        rule_base: RuleBase,
        cost_model: Optional[CostModel] = None,
    ):
        self.rule_base = rule_base
        self.cost_model = cost_model or CostModel()
        self._idb = rule_base.idb_predicates()
        # The net's rules, grouped by head signature in rule-base order.
        self._net: Dict[Tuple[str, int], List[Rule]] = {
            signature: list(rules)
            for signature, rules in rule_base.rules_by_signature().items()
        }
        # Stratum levels gate the nested drains under negation.  The
        # stratification raises on non-stratifiable rule bases, the
        # same contract the bottom-up engine enforces.
        self._level: Dict[Tuple[str, int], int] = {}
        for level, signatures in enumerate(rule_base.stratification()):
            for signature in signatures:
                self._level[signature] = level
        self._top_level = max(self._level.values(), default=0)
        # identity component of cache_key -> (generation, net state)
        self._cache: Dict[int, Tuple[int, _NetState]] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def prove(self, query: Atom, database: Database) -> Answer:
        """Satisficing entry point: the first tabled answer, with trace."""
        trace = ProofTrace()
        for fact in self._answer_facts(query, database, trace):
            return Answer(True, self._binding(query, fact), trace)
        return Answer(False, Substitution(), trace)

    def answers(
        self, query: Atom, database: Database, limit: Optional[int] = None
    ) -> Iterator[Answer]:
        """Yield up to ``limit`` distinct answers, sharing one trace."""
        trace = ProofTrace()
        produced = 0
        for fact in self._answer_facts(query, database, trace):
            yield Answer(True, self._binding(query, fact), trace)
            produced += 1
            if limit is not None and produced >= limit:
                return

    def holds(self, query: Atom, database: Database) -> bool:
        """Boolean convenience wrapper over :meth:`prove`."""
        return self.prove(query, database).proved

    def invalidate(self, database: Optional[Database] = None) -> None:
        """Drop cached net states (all of them, or one database's)."""
        if database is None:
            self._cache.clear()
        else:
            self._cache.pop(database.cache_key[0], None)

    # ------------------------------------------------------------------
    # Net evaluation
    # ------------------------------------------------------------------

    def _state(self, database: Database) -> _NetState:
        """The net state for this database *state* (cached, like the
        bottom-up model cache: keyed on ``(identity, generation)``)."""
        identity, generation = database.cache_key
        cached = self._cache.get(identity)
        if cached is None or cached[0] != generation:
            cached = (generation, _NetState())
            self._cache[identity] = cached
        return cached[1]

    def _answer_facts(
        self, query: Atom, database: Database, trace: ProofTrace
    ) -> Iterator[Atom]:
        """Ground instances of ``query``: database facts first (for
        extensional and mixed predicates), then tabled answers, both in
        insertion order, deduplicated."""
        signature = query.signature
        state = self._state(database)
        if signature in self._idb:
            self._register(state, signature, query)
            self._drain(state, database, trace, self._top_level)
        seen: Dict[Atom, None] = {}
        if signature not in self._idb or signature in database.signatures():
            cost = self.cost_model.retrieval(query)
            found = False
            for fact in database.facts_matching(query):
                if not found:
                    trace.record_retrieval(query, True, cost)
                    found = True
                seen[fact] = None
                yield fact
            if not found:
                trace.record_retrieval(query, False, cost)
        for fact in list(state.ans.facts_matching(query)):
            if fact not in seen:
                seen[fact] = None
                yield fact

    @staticmethod
    def _binding(query: Atom, fact: Atom) -> Substitution:
        """The substitution sending ``query`` to ``fact``, restricted to
        the query's variables (consistency already checked)."""
        bindings: Dict[Variable, Term] = {}
        for q_arg, f_arg in zip(query.args, fact.args):
            if type(q_arg) is Variable and q_arg not in bindings:
                bindings[q_arg] = f_arg
        return Substitution._resolved(bindings)

    @staticmethod
    def _canonical(pattern: Atom) -> tuple:
        """The relaxed canonical subquery key: constants stay, every
        variable position becomes the free marker.

        Relaxation (dropping repeated-variable constraints from the
        *subquery*, never from the rule) is sound — any fact derived
        under the relaxed goal is still a valid consequence of the
        program — and complete, since the relaxed goal subsumes the
        original.  It collapses ``p(X, Y)`` and ``p(X, X)`` into one
        input-relation entry, which is exactly the adorned form."""
        return (pattern.predicate, pattern.arity) + tuple(
            arg if type(arg) is Constant else None for arg in pattern.args
        )

    def _register(
        self, state: _NetState, signature: Tuple[str, int], pattern: Atom
    ) -> tuple:
        """Add a subquery to the input relation (variant-deduplicated)
        and return its canonical key."""
        key = self._canonical(pattern)
        inputs = state.input.get(signature)
        if inputs is None:
            inputs = state.input[signature] = {}
        if key not in inputs:
            inputs[key] = pattern
            state.heard[key] = 0
            state.version += 1
        return key

    def _drain(
        self,
        state: _NetState,
        database: Database,
        trace: ProofTrace,
        upto: int,
    ) -> None:
        """Run activations at strata ``<= upto`` to a fixpoint.

        Deterministic sweep order: registered signatures in insertion
        order, subqueries in registration order, rules in rule-base
        order.  An activation re-runs only when a subquery it looked up
        has heard a new answer since: with the same answers to join, a
        re-run would register the same subqueries and emit nothing."""
        if state.settled[0] == state.version and state.settled[1] >= upto:
            return
        heard = state.heard
        changed = True
        while changed:
            changed = False
            for signature in list(state.input):
                if self._level.get(signature, 0) > upto:
                    continue
                rules = self._net.get(signature)
                if not rules:
                    continue
                for key in list(state.input[signature]):
                    pattern = state.input[signature][key]
                    for index, rule in enumerate(rules):
                        memo = (signature, key, index)
                        looked = state.processed.get(memo)
                        if looked is not None and all(
                            heard[read] == count
                            for read, count in looked.items()
                        ):
                            continue
                        before = state.version
                        # The counts are taken as each lookup snapshots
                        # its answers: an activation whose own later
                        # emissions answer an earlier lookup must run
                        # again, since that join missed those facts.
                        state.processed[memo] = self._activate(
                            state, rule, pattern, database, trace
                        )
                        if state.version != before:
                            changed = True
        state.settled = (state.version, upto)

    def _activate(
        self,
        state: _NetState,
        rule: Rule,
        subquery: Atom,
        database: Database,
        trace: ProofTrace,
    ) -> Dict[tuple, int]:
        """Propagate one subquery through one rule.

        The subquery is unified (relaxed) against the head's slot
        array; :func:`~repro.datalog.rules.slot_join` then joins the
        positive literals, seeded by the subquery's constants, through
        ``lookup``: a stored relation is probed (and billed), an
        intensional one registers its subquery and reads the answers
        tabled so far.  Each complete binding passes the negated
        literals in body order, tuple-at-a-time, before its head is
        tabled.  Returns the ``heard`` count of each subquery key at
        its first lookup."""
        plan = rule.plan
        slots: List[Optional[Term]] = [None] * plan.nslots
        looked: Dict[tuple, int] = {}
        head = plan.head
        for spec, q_arg in zip(head.args, subquery.args):
            if type(q_arg) is Variable:
                continue  # relaxed: a subquery variable binds nothing
            if type(spec) is int:
                current = slots[spec]
                if current is None:
                    slots[spec] = q_arg
                elif current != q_arg:
                    return looked  # repeated head slot, distinct constants
            elif spec != q_arg:
                return looked  # head constant conflicts with the subquery
        trace.record_reduction(self.cost_model.reduction(rule))

        slot_vars = plan.slot_vars
        negated = plan.negated
        idb = self._idb
        signatures = database.signatures()
        head_signature = head.signature
        heard = state.heard
        answers = state.ans
        retrieval = self.cost_model.retrieval

        def lookup(pattern: Atom) -> Iterable[Atom]:
            signature = pattern.signature
            if signature in idb and signature not in signatures:
                return self._tabled(state, pattern, looked)
            facts = list(database.facts_matching(pattern))
            trace.record_retrieval(pattern, bool(facts), retrieval(pattern))
            if signature not in idb:
                return facts

            # A mixed relation: its subquery is registered and its
            # answers read once the stored facts have been joined.
            def unstored() -> Iterator[Atom]:
                for fact in self._tabled(state, pattern, looked):
                    if fact not in database:  # joined above
                        yield fact

            return chain(facts, unstored())

        for _ in slot_join(plan.positive, slots, slot_vars, lookup):
            if negated and any(
                self._negation_blocked(
                    state, instantiate(literal, slots, slot_vars),
                    database, trace, looked,
                )
                for literal in negated
            ):
                continue
            fact = instantiate(head, slots, slot_vars)
            if answers.add(fact):
                state.version += 1
                # Count it for every registered subquery key it answers.
                for bound in product(*[(arg, None) for arg in fact.args]):
                    if head_signature + bound in heard:
                        heard[head_signature + bound] += 1
        return looked

    def _tabled(
        self, state: _NetState, pattern: Atom, looked: Dict[tuple, int]
    ) -> List[Atom]:
        """Register ``pattern``'s subquery, note its ``heard`` count in
        ``looked`` (first lookup wins), and snapshot its answers so far."""
        key = self._register(state, pattern.signature, pattern)
        looked.setdefault(key, state.heard[key])
        return list(state.ans.facts_matching(pattern))

    def _negation_blocked(
        self,
        state: _NetState,
        goal: Atom,
        database: Database,
        trace: ProofTrace,
        looked: Dict[tuple, int],
    ) -> bool:
        """Tuple-at-a-time negation test for one supplementary tuple.

        Unbound positions of ``goal`` are the literal-local existential
        variables the safety check licenses: the negation is blocked
        iff *any* matching instance holds.  For intensional predicates
        the goal's own subquery is registered and the strictly-lower
        strata are drained to completion first, so the answer relation
        is complete for this goal before the emptiness test."""
        signature = goal.signature
        if signature in self._idb:
            key = self._register(state, signature, goal)
            self._drain(
                state, database, trace, self._level.get(signature, 0)
            )
            looked.setdefault(key, state.heard[key])
            if state.ans.succeeds(goal):
                return True
            if signature not in database.signatures():
                return False
        cost = self.cost_model.retrieval(goal)
        blocked = database.succeeds(goal)
        trace.record_retrieval(goal, blocked, cost)
        return blocked
