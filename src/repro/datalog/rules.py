"""Rules, rule bases, query forms, safety and stratification.

A *rule* is a function-free definite clause ``head :- body`` whose body
is a conjunction of literals; a literal is an atom, possibly negated
(negation-as-failure, Section 5.2 of the paper).  A *rule base* is an
ordered collection of rules plus the derived predicate-level metadata
the rest of the library needs:

* which predicates are intensional (IDB: appear in some head) versus
  extensional (EDB: only ever retrieved from the fact database);
* the predicate dependency graph, recursion detection, and a
  stratification for rule bases that use negation;
* lookup of the rules whose head may unify with a goal.

Query forms (``q^(b,f,...)``, Section 2 of the paper) are modelled by
:class:`QueryForm`.
"""

from __future__ import annotations

from collections import defaultdict
from typing import (Callable, Dict, Iterable, Iterator, List, Mapping, Optional,
                    Sequence, Set, Tuple)

from ..errors import EvaluationError, StratificationError
from .terms import Atom, Substitution, Term, Variable, variables_of

__all__ = ["Literal", "Rule", "RuleBase", "QueryForm", "RulePlan", "LiteralPlan",
           "slot_join", "instantiate"]


class Literal:
    """An atom with a polarity: positive, or negated (negation-as-failure)."""

    __slots__ = ("atom", "positive")

    def __init__(self, atom: Atom, positive: bool = True):
        if not isinstance(atom, Atom):
            raise TypeError("Literal wraps an Atom")
        self.atom = atom
        self.positive = bool(positive)

    def substitute(self, subst: Substitution) -> "Literal":
        return Literal(self.atom.substitute(subst), self.positive)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Literal)
            and self.atom == other.atom
            and self.positive == other.positive
        )

    def __hash__(self) -> int:
        return hash((Literal, self.atom, self.positive))

    def __repr__(self) -> str:
        return f"Literal({self.atom!r}, positive={self.positive})"

    def __str__(self) -> str:
        return str(self.atom) if self.positive else f"not {self.atom}"


class LiteralPlan:
    """One literal (body or head) of a :class:`RulePlan`, in positional form.

    ``args`` holds an ``int`` slot index per variable position and the
    :class:`~repro.datalog.terms.Constant` itself per constant
    position; ``signature`` is precomputed so join loops never rebuild
    the ``(predicate, arity)`` tuple.
    """

    __slots__ = ("predicate", "signature", "positive", "args")

    def __init__(self, atom: Atom, positive: bool, slot_of) -> None:
        self.predicate = atom.predicate
        self.signature = atom.signature
        self.positive = positive
        self.args = tuple(
            slot_of[arg] if isinstance(arg, Variable) else arg
            for arg in atom.args
        )

    def __repr__(self) -> str:
        return (f"LiteralPlan({self.predicate!r}, args={self.args!r}, "
                f"positive={self.positive})")


class RulePlan:
    """A rule precompiled to positional variable slots.

    Compiling replaces every variable of the rule by a small integer
    slot, once, so the engines stop paying per-attempt
    ``rename_apart`` + ``unify`` + string churn:

    * the top-down engine unifies a goal against ``head.args`` directly
      into a slot array, creating fresh variables only for the slots
      that remain unbound and only when they occur in the body;
    * the bottom-up and QSQN engines join the ``positive`` literals
      with :func:`slot_join`, binding slots from fact argument tuples
      instead of building ``Substitution`` objects, then test the
      ``negated`` literals and build the head with :func:`instantiate`.

    ``slot_vars[i]`` is the rule's original variable for slot ``i`` —
    the placeholder the joins use in retrieval patterns.  The head's
    variables take slots ``0 .. head_slots - 1``; every later slot
    first occurs in the body, in slot order.
    """

    __slots__ = ("nslots", "head_slots", "slot_vars", "head", "body",
                 "positive", "negated")

    def __init__(self, rule: "Rule") -> None:
        # Slot numbering must be deterministic (first occurrence, left
        # to right) — never via a set, whose order is hash-dependent.
        slot_of: Dict[Variable, int] = {}
        for var in rule.head.variables():
            slot_of.setdefault(var, len(slot_of))
        self.head_slots = len(slot_of)
        for literal in rule.body:
            for var in literal.atom.variables():
                slot_of.setdefault(var, len(slot_of))
        self.nslots = len(slot_of)
        self.slot_vars = tuple(slot_of)  # insertion order == slot index
        self.head = LiteralPlan(rule.head, True, slot_of)
        self.body = tuple(
            LiteralPlan(literal.atom, literal.positive, slot_of)
            for literal in rule.body
        )
        self.positive = tuple(lp for lp in self.body if lp.positive)
        self.negated = tuple(lp for lp in self.body if not lp.positive)

    def __repr__(self) -> str:
        return f"RulePlan({self.nslots} slots, {len(self.body)} literals)"


def instantiate(literal: LiteralPlan, slots: List[Optional[Term]],
                slot_vars: Tuple[Variable, ...]) -> Atom:
    """``literal`` as an atom under ``slots``: a bound slot gives its
    value, an unbound one the rule's own variable."""
    return Atom._make(literal.predicate, tuple([
        (value if (value := slots[spec]) is not None else slot_vars[spec])
        if type(spec) is int else spec
        for spec in literal.args
    ]))


def slot_join(
    literals: Sequence[LiteralPlan],
    slots: List[Optional[Term]],
    slot_vars: Tuple[Variable, ...],
    lookup: Callable[[Atom], Iterable[Atom]],
) -> Iterator[List[Atom]]:
    """Backtracking join of positive ``literals``, left to right, over
    the slot array ``slots`` — the one join the bottom-up and QSQN
    engines share.

    Each literal becomes a pattern (bound slots give their values,
    unbound ones the rule's own variable) and ``lookup(pattern)``
    supplies the ground facts matching it.  Each fact binds the slots
    the literal found free and the join recurses; when the literal's
    facts run out its slots are unbound again, so ``slots`` is back as
    the caller left it once the generator is exhausted.  ``lookup`` is
    asked lazily, one literal at a time, in join order: the QSQN engine
    bills probes and registers subqueries from inside it.

    Yields once per complete binding, with ``slots`` bound and the
    facts matched per literal in a list.  That list is reused: read it
    (and ``slots``) before asking for the next binding.
    """
    depth = len(literals)
    matched: List[Atom] = [None] * depth  # type: ignore[list-item]
    if not depth:
        return iter((matched,))

    def join(level: int) -> Iterator[List[Atom]]:
        literal = literals[level]
        # The slots this literal binds are the same for every fact it
        # matches (facts are ground); a slot repeated in the literal is
        # bound twice to the one value the pattern forced on both.
        args: List[Term] = []
        free = []
        for position, spec in enumerate(literal.args):
            if type(spec) is int:
                value = slots[spec]
                if value is None:
                    value = slot_vars[spec]
                    free.append((position, spec))
                args.append(value)
            else:
                args.append(spec)
        pattern = Atom._make(literal.predicate, tuple(args))
        deeper = level + 1 < depth
        for fact in lookup(pattern):
            values = fact.args
            for position, slot in free:
                slots[slot] = values[position]
            matched[level] = fact
            if deeper:
                yield from join(level + 1)
            else:
                yield matched
        for _, slot in free:
            slots[slot] = None

    return join(0)


class Rule:
    """A Datalog rule ``head :- body`` (facts are rules with empty body).

    ``name`` is an optional label used when rendering inference graphs;
    the paper labels its rules :math:`\\mathcal{R}_p`,
    :math:`\\mathcal{R}_g` and so on.
    """

    __slots__ = ("head", "body", "name", "_plan")

    def __init__(self, head: Atom, body: Sequence[Literal] = (),
                 name: Optional[str] = None):
        if not isinstance(head, Atom):
            raise TypeError("rule head must be an Atom")
        normalized: List[Literal] = []
        for item in body:
            if isinstance(item, Atom):
                item = Literal(item)
            if not isinstance(item, Literal):
                raise TypeError("rule body items must be Atoms or Literals")
            normalized.append(item)
        self.head = head
        self.body: Tuple[Literal, ...] = tuple(normalized)
        self.name = name
        self._plan: Optional[RulePlan] = None

    @property
    def is_fact(self) -> bool:
        """Whether the rule has an empty body (i.e. is a ground fact rule)."""
        return not self.body

    @property
    def plan(self) -> RulePlan:
        """The rule's compiled :class:`RulePlan` (built once, cached).

        Rules are immutable, so the plan is a pure function of the rule
        and safe to share across engines.
        """
        plan = self._plan
        if plan is None:
            plan = self._plan = RulePlan(self)
        return plan

    @property
    def is_disjunctive_simple(self) -> bool:
        """Whether the body has at most one literal.

        The paper's "simple disjunctive inference graphs" (Note 4) arise
        from rule bases in which every rule satisfies this predicate.
        """
        return len(self.body) <= 1

    def variables(self) -> Set[Variable]:
        """All variables occurring anywhere in the rule."""
        found = variables_of(self.head)
        for literal in self.body:
            found |= variables_of(literal.atom)
        return found

    def check_safety(self) -> None:
        """Raise :class:`EvaluationError` unless the rule is range-restricted.

        Safety requires every head variable to occur in some positive
        body literal.  A variable of a negated literal must either occur
        positively or be *local* to that single literal, in which case
        it is read as existentially quantified inside the negation —
        the reading the paper's ``pauper(X) :- not owns(X, Y)`` example
        (Section 5.2) requires.
        """
        positive_vars: Set[Variable] = set()
        for literal in self.body:
            if literal.positive:
                positive_vars |= variables_of(literal.atom)
        unsafe = variables_of(self.head) - positive_vars
        occurrences: Dict[Variable, int] = defaultdict(int)
        for literal in self.body:
            for var in set(variables_of(literal.atom)):
                occurrences[var] += 1
        occurrences_in_head = variables_of(self.head)
        for literal in self.body:
            if literal.positive:
                continue
            for var in variables_of(literal.atom) - positive_vars:
                if occurrences[var] > 1 or var in occurrences_in_head:
                    unsafe.add(var)
        if unsafe:
            names = ", ".join(sorted(v.name for v in unsafe))
            raise EvaluationError(f"unsafe rule {self}: unbound variables {names}")

    def substitute(self, subst: Substitution) -> "Rule":
        return Rule(
            self.head.substitute(subst),
            tuple(lit.substitute(subst) for lit in self.body),
            name=self.name,
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Rule)
            and self.head == other.head
            and self.body == other.body
        )

    def __hash__(self) -> int:
        return hash((Rule, self.head, self.body))

    def __repr__(self) -> str:
        return f"Rule({self.head!r}, {list(self.body)!r}, name={self.name!r})"

    def __str__(self) -> str:
        if self.is_fact:
            return f"{self.head}."
        body = ", ".join(str(lit) for lit in self.body)
        return f"{self.head} :- {body}."


class QueryForm:
    """A query form ``q^α`` (Section 2): relation plus binding pattern.

    ``pattern`` is a string over ``{'b', 'f'}`` with one character per
    argument position; ``instructor^(b)`` is
    ``QueryForm("instructor", "b")``.
    """

    __slots__ = ("predicate", "pattern")

    def __init__(self, predicate: str, pattern: str):
        if not isinstance(predicate, str) or not predicate:
            raise TypeError("predicate must be a non-empty string")
        if any(ch not in "bf" for ch in pattern):
            raise ValueError("binding pattern must contain only 'b' and 'f'")
        self.predicate = predicate
        self.pattern = pattern

    @property
    def arity(self) -> int:
        return len(self.pattern)

    @property
    def signature(self) -> Tuple[str, int]:
        return (self.predicate, self.arity)

    @classmethod
    def of(cls, query: Atom) -> "QueryForm":
        """The query form a concrete query atom belongs to."""
        return cls(query.predicate, query.binding_pattern())

    def matches(self, query: Atom) -> bool:
        """Whether ``query`` is an instance of this form."""
        return (
            query.predicate == self.predicate
            and query.binding_pattern() == self.pattern
        )

    def prototype(self) -> Atom:
        """A canonical non-ground atom of this form.

        Bound positions get distinguished variables named ``B0, B1, …``
        (stand-ins for the runtime constants), free positions get
        ``F0, F1, …``; the graph builder unfolds rules against this
        prototype.
        """
        args = [
            Variable(f"B{i}") if ch == "b" else Variable(f"F{i}")
            for i, ch in enumerate(self.pattern)
        ]
        return Atom(self.predicate, args)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QueryForm)
            and self.predicate == other.predicate
            and self.pattern == other.pattern
        )

    def __hash__(self) -> int:
        return hash((QueryForm, self.predicate, self.pattern))

    def __repr__(self) -> str:
        return f"QueryForm({self.predicate!r}, {self.pattern!r})"

    def __str__(self) -> str:
        return f"{self.predicate}^({','.join(self.pattern)})"


class RuleBase:
    """An ordered collection of rules with derived predicate metadata.

    The rule base is the *static* part of the paper's knowledge base
    (Section 2.1: "the rule base, encoded as the inference graph G, is
    static"); the fact database varies per context.
    """

    def __init__(self, rules: Iterable[Rule] = ()):
        self._rules: List[Rule] = []
        self._by_head: Dict[Tuple[str, int], List[Rule]] = defaultdict(list)
        self._name_counter = 0
        for rule in rules:
            self.add(rule)

    def add(self, rule: Rule) -> Rule:
        """Add a rule, auto-naming it ``R<k>`` when it has no name."""
        if not isinstance(rule, Rule):
            raise TypeError("RuleBase holds Rule objects")
        rule.check_safety()
        if rule.name is None:
            self._name_counter += 1
            rule = Rule(rule.head, rule.body, name=f"R{self._name_counter}")
        self._rules.append(rule)
        self._by_head[rule.head.signature].append(rule)
        return rule

    def __iter__(self) -> Iterator[Rule]:
        return iter(self._rules)

    def __len__(self) -> int:
        return len(self._rules)

    def rules_for(self, goal: Atom) -> List[Rule]:
        """Rules whose head has the same signature as ``goal``."""
        return list(self._by_head.get(goal.signature, ()))

    def rules_by_signature(self) -> Mapping[Tuple[str, int], List[Rule]]:
        """The live head-signature index behind :meth:`rules_for`.

        Returned without copying for the SLD engine, which looks rules
        up once per selected goal — treat it as read-only.
        """
        return self._by_head

    def rule_named(self, name: str) -> Rule:
        """Look up a rule by its label; raises :class:`KeyError` if absent."""
        for rule in self._rules:
            if rule.name == name:
                return rule
        raise KeyError(f"no rule named {name!r}")

    # ------------------------------------------------------------------
    # Predicate-level metadata
    # ------------------------------------------------------------------

    def idb_predicates(self) -> Set[Tuple[str, int]]:
        """Signatures defined by at least one rule head (intensional)."""
        return set(self._by_head)

    def edb_predicates(self) -> Set[Tuple[str, int]]:
        """Signatures referenced in bodies but never defined (extensional).

        These are exactly the relations answered by database retrieval
        arcs in the inference graph.
        """
        idb = self.idb_predicates()
        edb: Set[Tuple[str, int]] = set()
        for rule in self._rules:
            for literal in rule.body:
                if literal.atom.signature not in idb:
                    edb.add(literal.atom.signature)
        return edb

    def dependency_graph(self) -> Dict[Tuple[str, int], Set[Tuple[str, int]]]:
        """Predicate dependency graph: head signature -> body signatures."""
        graph: Dict[Tuple[str, int], Set[Tuple[str, int]]] = defaultdict(set)
        for rule in self._rules:
            graph[rule.head.signature].update(
                literal.atom.signature for literal in rule.body
            )
        return dict(graph)

    def is_recursive(self) -> bool:
        """Whether any predicate (transitively) depends on itself."""
        graph = self.dependency_graph()
        visiting: Set[Tuple[str, int]] = set()
        done: Set[Tuple[str, int]] = set()

        def visit(node: Tuple[str, int]) -> bool:
            if node in done:
                return False
            if node in visiting:
                return True
            visiting.add(node)
            for child in graph.get(node, ()):
                if visit(child):
                    return True
            visiting.discard(node)
            done.add(node)
            return False

        return any(visit(signature) for signature in graph)

    def stratification(self) -> List[Set[Tuple[str, int]]]:
        """Partition the predicates into strata for stratified negation.

        Returns a list of strata, lowest first, such that every positive
        dependency stays within or below its stratum and every negative
        dependency points strictly below.  Raises
        :class:`StratificationError` when negation occurs inside a
        recursive cycle.
        """
        signatures: Set[Tuple[str, int]] = set(self._by_head)
        for rule in self._rules:
            for literal in rule.body:
                signatures.add(literal.atom.signature)

        stratum: Dict[Tuple[str, int], int] = {sig: 0 for sig in signatures}
        total = len(signatures)
        changed = True
        iterations = 0
        while changed:
            changed = False
            iterations += 1
            if iterations > total + 1:
                raise StratificationError(
                    "rule base is not stratifiable (negation through recursion)"
                )
            for rule in self._rules:
                head_sig = rule.head.signature
                for literal in rule.body:
                    body_sig = literal.atom.signature
                    required = stratum[body_sig] + (0 if literal.positive else 1)
                    if stratum[head_sig] < required:
                        stratum[head_sig] = required
                        changed = True

        count = max(stratum.values(), default=0) + 1
        strata: List[Set[Tuple[str, int]]] = [set() for _ in range(count)]
        for signature, level in stratum.items():
            strata[level].add(signature)
        return strata

    def uses_negation(self) -> bool:
        """Whether any rule body contains a negated literal."""
        return any(
            not literal.positive for rule in self._rules for literal in rule.body
        )

    def __repr__(self) -> str:
        return f"RuleBase({len(self._rules)} rules)"

    def __str__(self) -> str:
        return "\n".join(str(rule) for rule in self._rules)
