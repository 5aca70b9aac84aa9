"""Bottom-up Datalog evaluation: naive and semi-naive, with stratified
negation.

The paper's query processor is top-down, but a reproduction needs a
ground-truth oracle: bottom-up evaluation computes the *complete* model
of the program, so the substrate tests can check that the satisficing
top-down engine answers "yes" exactly when the model contains a
matching fact, and the benchmarks can report the engine-level speedup
satisficing search buys over exhaustive evaluation.

Semi-naive evaluation is the standard delta-driven fixpoint [BR86]; the
naive fixpoint is retained both as the correctness oracle for the
semi-naive one (property-tested equal) and as a baseline in the engine
bench.

Rule joins run the shared :func:`~repro.datalog.rules.slot_join`
kernel over the compiled :class:`~repro.datalog.rules.RulePlan`: body
literals are joined through the database's per-argument hash indexes
into a positional slot array (no ``Substitution`` objects), and the
join order is chosen greedily by bound-position selectivity — most
bound positions first, smaller relation on ties — which is
deterministic and independent of hash seeds.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from .database import Database
from .rules import LiteralPlan, Rule, RuleBase, instantiate, slot_join
from .terms import Atom, Term, Variable

__all__ = ["naive_evaluate", "seminaive_evaluate", "BottomUpEngine"]


def _join_order(
    positives: Tuple[LiteralPlan, ...], facts: Database
) -> Tuple[LiteralPlan, ...]:
    """Greedy bound-position-selectivity join order.

    Repeatedly pick the literal with the most bound argument positions
    (constants, or slots bound by already-ordered literals); break ties
    toward the smaller relation, then original body order.  Fully
    deterministic: no hash-order input reaches the choice.
    """
    if len(positives) <= 1:
        return positives
    remaining = list(enumerate(positives))
    bound_slots: set = set()
    ordered: List[LiteralPlan] = []
    while remaining:
        best_at = 0
        best_key: Optional[Tuple[int, int, int]] = None
        for at, (index, lp) in enumerate(remaining):
            bound = sum(
                1 for spec in lp.args
                if type(spec) is not int or spec in bound_slots
            )
            key = (-bound, facts.count(*lp.signature), index)
            if best_key is None or key < best_key:
                best_key = key
                best_at = at
        _, chosen = remaining.pop(best_at)
        ordered.append(chosen)
        for spec in chosen.args:
            if type(spec) is int:
                bound_slots.add(spec)
    return tuple(ordered)


def _join_rule(rule: Rule, facts: Database,
               required: Optional[Database] = None) -> Iterator[Atom]:
    """All head instances derivable from ``rule`` over ``facts``.

    When ``required`` is given (semi-naive delta), at least one of the
    facts the positive literals matched must be in ``required``.
    Negated literals are then checked against ``facts`` — callers
    evaluate stratum by stratum, so the negated relations are final.
    """
    plan = rule.plan
    order = _join_order(plan.positive, facts)
    if required is not None:
        # Only literals over a relation with delta facts can match one.
        delta_signatures = required.signatures()
        delta_levels = [level for level, literal in enumerate(order)
                        if literal.signature in delta_signatures]
        if not delta_levels:
            return
    slots: List[Optional[Term]] = [None] * plan.nslots
    slot_vars = plan.slot_vars
    negated = plan.negated
    for matched in slot_join(order, slots, slot_vars, facts.facts_matching):
        if required is not None:
            for level in delta_levels:
                if matched[level] in required:
                    break
            else:
                continue
        if negated and _blocked(negated, slots, slot_vars, facts):
            continue
        yield instantiate(plan.head, slots, slot_vars)


def _blocked(negated: Tuple[LiteralPlan, ...], slots: List[Optional[Term]],
             slot_vars: Tuple[Variable, ...], facts: Database) -> bool:
    """Whether some negated literal holds under ``slots``.  An unbound
    slot is a literal-local existential variable: the literal holds iff
    any fact matches the partially bound goal."""
    for literal in negated:
        goal = instantiate(literal, slots, slot_vars)
        if (goal in facts) if goal.is_ground else facts.succeeds(goal):
            return True
    return False


def _strata_rules(rule_base: RuleBase) -> List[List[Rule]]:
    """Group rules by the stratum of their head predicate."""
    strata = rule_base.stratification()
    level_of: Dict[Tuple[str, int], int] = {}
    for level, signatures in enumerate(strata):
        for signature in signatures:
            level_of[signature] = level
    grouped: List[List[Rule]] = [[] for _ in strata]
    for rule in rule_base:
        grouped[level_of[rule.head.signature]].append(rule)
    return grouped


def naive_evaluate(rule_base: RuleBase, database: Database) -> Database:
    """Naive fixpoint: repeat all rules until nothing new derives.

    Returns a new database containing the EDB facts plus every
    derivable IDB fact, stratum by stratum.
    """
    model = database.copy()
    for rules in _strata_rules(rule_base):
        changed = True
        while changed:
            changed = False
            for rule in rules:
                for head in list(_join_rule(rule, model)):
                    if model.add(head):
                        changed = True
    return model


def seminaive_evaluate(rule_base: RuleBase, database: Database) -> Database:
    """Semi-naive fixpoint: only re-derive through last round's deltas."""
    model = database.copy()
    for rules in _strata_rules(rule_base):
        # Seed round: full join within the stratum.
        delta = Database()
        for rule in rules:
            for head in list(_join_rule(rule, model)):
                if head not in model:
                    delta.add(head)
        model.update(delta)
        while len(delta):
            new_delta = Database()
            for rule in rules:
                for head in list(_join_rule(rule, model, required=delta)):
                    if head not in model:
                        new_delta.add(head)
            model.update(new_delta)
            delta = new_delta
    return model


class BottomUpEngine:
    """Query interface over a materialized bottom-up model.

    Evaluation is lazy and cached per database *state*: the first
    query against a database pays for the fixpoint, later ones are
    index lookups.  The cache is keyed on ``Database.cache_key`` —
    ``(identity, generation)`` — exactly like the serving caches, so a
    mutated database is re-evaluated on its next query instead of
    returning a stale model, and recycled ``id()`` values can never
    alias two distinct databases.
    """

    def __init__(self, rule_base: RuleBase, seminaive: bool = True):
        self.rule_base = rule_base
        self.seminaive = seminaive
        # identity component of cache_key -> (generation, model)
        self._cache: Dict[int, Tuple[int, Database]] = {}

    def model(self, database: Database) -> Database:
        """The full model of the program over ``database`` (cached)."""
        identity, generation = database.cache_key
        cached = self._cache.get(identity)
        if cached is None or cached[0] != generation:
            evaluate = seminaive_evaluate if self.seminaive else naive_evaluate
            cached = (generation, evaluate(self.rule_base, database))
            self._cache[identity] = cached
        return cached[1]

    def holds(self, query: Atom, database: Database) -> bool:
        """Whether any instance of ``query`` is in the model."""
        return self.model(database).succeeds(query)

    def answers(self, query: Atom, database: Database) -> List["object"]:
        """All bindings of ``query``'s variables in the model."""
        return list(self.model(database).retrieve(query))

    def invalidate(self, database: Optional[Database] = None) -> None:
        """Drop cached models (all of them, or one database's)."""
        if database is None:
            self._cache.clear()
        else:
            self._cache.pop(database.cache_key[0], None)
