"""Strategic-ability formulas over agent counts.

State formulas carry a strategic operator ``<<t1, t2>>`` whose arguments
count controllable and uncontrollable agents; they are naturals,
parameters ``z_i``, or the quantifiable agent counters ``y1``/``y2``.
``y1`` may only stand in the first position and ``y2`` only in the
second, and a quantifier may only bind occurrences of positive polarity.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

from .nodes import Node, set_slot

EXISTS = "E"
FORALL = "A"

# -- terms -------------------------------------------------------------------


class Nat(Node):
    __slots__ = _fields = ("value",)

    def __init__(self, value: int):
        set_slot(self, "_hash", None)
        set_slot(self, "value", value)

    def __eq__(self, other: object) -> bool:
        return other.__class__ is Nat and self.value == other.value

    __hash__ = Node.__hash__

    def _key(self) -> tuple:
        return (self.value,)


class _Indexed(Node):
    __slots__ = _fields = ("index",)

    def __init__(self, index: int):
        set_slot(self, "_hash", None)
        set_slot(self, "index", index)

    def __eq__(self, other: object) -> bool:
        return other.__class__ is self.__class__ and self.index == other.index

    __hash__ = Node.__hash__

    def _key(self) -> tuple:
        return (self.index,)


class AgentVar(_Indexed):
    __slots__ = ()   # index 1 or 2


class Param(_Indexed):
    __slots__ = ()


Term = Union[Nat, AgentVar, Param]
Y1 = AgentVar(1)
Y2 = AgentVar(2)


def term_symbol(t: Term) -> Optional[str]:
    """Assignment key for a term, None for numerals."""
    if isinstance(t, AgentVar):
        return f"y{t.index}"
    if isinstance(t, Param):
        return f"z{t.index}"
    return None


# -- formulas ----------------------------------------------------------------
#
# The parser shares subtrees (``a <-> b`` holds ``a`` and ``b`` twice), so
# a formula is a DAG whose tree can be exponentially larger.  Node hashes
# are computed once per node, and the walkers below memoise on node
# identity within one call, so both stay linear in the distinct nodes.


def _same_nodes(a, b) -> bool:
    """Structural equality of two formula nodes.  Unequal kept hashes
    settle a pair at once, and a pair found equal is not compared again,
    so shared subtrees cost one comparison per pair of distinct nodes."""
    equal: set[tuple[int, int]] = set()
    todo = [(a, b)]
    while todo:
        x, y = todo.pop()
        if x is y:
            continue
        if x.__class__ is not y.__class__:
            return False
        if not isinstance(x, Node):
            if x != y:
                return False
            continue
        pair = (id(x), id(y))
        if pair in equal:
            continue
        if hash(x) != hash(y):
            return False
        equal.add(pair)
        todo.extend(zip(x._key(), y._key()))
    return True


def _formula_eq(self, other: object) -> bool:
    return self is other or (other.__class__ is self.__class__
                             and _same_nodes(self, other))


class StateFormula(Node):
    __slots__ = ("_facts",)   # kept by ``facts``, like ``_hash``
    __eq__ = _formula_eq
    __hash__ = Node.__hash__


class PathFormula(Node):
    __slots__ = ("_facts",)
    __eq__ = _formula_eq
    __hash__ = Node.__hash__


class Top(StateFormula):
    __slots__ = ()


class Prop(StateFormula):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str):
        set_slot(self, "_hash", None)
        set_slot(self, "name", name)

    def _key(self) -> tuple:
        return (self.name,)


class NotF(StateFormula):
    __slots__ = _fields = ("arg",)

    def __init__(self, arg: StateFormula):
        set_slot(self, "_hash", None)
        set_slot(self, "arg", arg)

    def _key(self) -> tuple:
        return (self.arg,)


class _Connective(StateFormula):
    """``AndF`` or ``OrF``."""

    __slots__ = _fields = ("lhs", "rhs")

    def __init__(self, lhs: StateFormula, rhs: StateFormula):
        set_slot(self, "_hash", None)
        set_slot(self, "lhs", lhs)
        set_slot(self, "rhs", rhs)

    def _key(self) -> tuple:
        return (self.lhs, self.rhs)


class AndF(_Connective):
    __slots__ = ()


class OrF(_Connective):
    __slots__ = ()


class Coop(StateFormula):
    """Strategic operator <<t1, t2>> applied to a temporal objective."""

    __slots__ = _fields = ("t1", "t2", "objective")

    def __init__(self, t1: Term, t2: Term, objective: PathFormula):
        set_slot(self, "_hash", None)
        set_slot(self, "t1", t1)
        set_slot(self, "t2", t2)
        set_slot(self, "objective", objective)

    def _key(self) -> tuple:
        return (self.t1, self.t2, self.objective)


QuantSpec = tuple[str, int]              # (quantifier, agent-variable index)
QuantPrefix = tuple[QuantSpec, ...]      # length 1 or 2


class Quant(StateFormula):
    __slots__ = _fields = ("prefix", "body")

    def __init__(self, prefix: QuantPrefix, body: StateFormula):
        set_slot(self, "_hash", None)
        set_slot(self, "prefix", prefix)
        set_slot(self, "body", body)

    def _key(self) -> tuple:
        return (self.prefix, self.body)


class _Temporal(PathFormula):
    """``Next`` or ``Globally``."""

    __slots__ = _fields = ("arg",)

    def __init__(self, arg: StateFormula):
        set_slot(self, "_hash", None)
        set_slot(self, "arg", arg)

    def _key(self) -> tuple:
        return (self.arg,)


class Next(_Temporal):
    __slots__ = ()


class Globally(_Temporal):
    __slots__ = ()


class Until(PathFormula):
    __slots__ = _fields = ("lhs", "rhs")

    def __init__(self, lhs: StateFormula, rhs: StateFormula):
        set_slot(self, "_hash", None)
        set_slot(self, "lhs", lhs)
        set_slot(self, "rhs", rhs)

    def _key(self) -> tuple:
        return (self.lhs, self.rhs)


TOP = Top()
Formula = Union[StateFormula, PathFormula]
_FORMULAS = (StateFormula, PathFormula)


def eventually(phi: StateFormula) -> PathFormula:
    """F phi is sugar for (true U phi)."""
    return Until(TOP, phi)


def children(phi: Formula) -> tuple[Formula, ...]:
    """The direct subformulas, in field order."""
    return tuple(f for f in phi._key() if isinstance(f, _FORMULAS))


class Facts(NamedTuple):
    """What a formula mentions: the negation parities (0 or 1) of the free
    occurrences of y1 and of y2, its parameter indices and its
    propositions."""
    parities: tuple[frozenset[int], frozenset[int]]
    params: frozenset[int]
    props: frozenset[str]


def facts(phi: Formula) -> Facts:
    """The formula's ``Facts``, by one walk that keeps each node's facts on
    the node, so that no node is walked for them twice."""
    def step(f: Formula, recurse) -> Facts:
        kept = getattr(f, "_facts", None)
        if kept is not None:
            return kept
        below = [recurse(c) for c in children(f)]
        parities = [frozenset().union(*(b.parities[j] for b in below))
                    for j in (0, 1)]
        params = frozenset().union(*(b.params for b in below))
        props = frozenset().union(*(b.props for b in below))
        if isinstance(f, Prop):
            props = frozenset((f.name,))
        elif isinstance(f, NotF):
            parities = [frozenset(1 - n for n in found) for found in parities]
        elif isinstance(f, Quant):
            parities = [frozenset() if any(i == j + 1 for _, i in f.prefix)
                        else found for j, found in enumerate(parities)]
        elif isinstance(f, Coop):
            for t in (f.t1, f.t2):
                if isinstance(t, AgentVar):
                    parities[t.index - 1] |= {0}
                elif isinstance(t, Param):
                    params |= {t.index}
        kept = Facts(tuple(parities), params, props)
        set_slot(f, "_facts", kept)
        return kept

    return getattr(phi, "_facts", None) or memo_walk(phi, step)


def props_of(phi: Formula) -> frozenset[str]:
    return facts(phi).props


def free_agent_vars(phi: Formula) -> frozenset[int]:
    return frozenset(y for y in (1, 2) if facts(phi).parities[y - 1])


def assignment_symbols(phi: Formula) -> list[str]:
    """The assignment keys a formula needs: ``z<n>`` for each parameter,
    then ``y<i>`` for each free agent variable, each in index order."""
    return ([f"z{i}" for i in sorted(facts(phi).params)]
            + [f"y{i}" for i in sorted(free_agent_vars(phi))])


def polarity(phi: Formula, y: int) -> str:
    """Polarity of the free occurrences of y1 or y2 in the formula.

    Returns one of ``all-positive``, ``all-negative``, ``mixed``, ``absent``.
    """
    found = facts(phi).parities[y - 1]
    if not found:
        return "absent"
    if found == {0}:
        return "all-positive"
    if found == {1}:
        return "all-negative"
    return "mixed"


# -- shared-node walks -------------------------------------------------------


def map_children(phi: Formula, fn) -> Formula:
    """The node rebuilt with ``fn`` applied to each direct subformula; the
    node itself when ``fn`` returns each of them as it is, or when it has
    none (``Top``, ``Prop``)."""
    fields = phi._key()
    mapped = [fn(f) if isinstance(f, _FORMULAS) else f for f in fields]
    if all(new is old for new, old in zip(mapped, fields)):
        return phi
    # every formula class takes its fields in ``_key`` order
    return phi.__class__(*mapped)


def memo_walk(phi: Formula, step, *context):
    """``step(node, recurse, *context)`` evaluated once per distinct node
    and context.

    ``recurse(node, *context)`` memoises on the node's identity and the
    context for the duration of the call; the memo holds each node it has
    seen, so no identity is reused while it runs, not even one of a node
    that ``step`` builds on the fly.
    """
    memo: dict[tuple, tuple] = {}

    def recurse(f: Formula, *context):
        key = (id(f), context)
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = (f, step(f, recurse, *context))
        return hit[1]

    try:
        return recurse(phi, *context)
    finally:
        # ``recurse`` refers to itself: emptying its cell leaves no cycle
        del recurse


# -- vacuous quantifiers ----------------------------------------------------


def simplify_vacuous(phi: Formula) -> Formula:
    """Drop quantifiers over variables with no free occurrence in their body."""
    def step(f: Formula, recurse) -> Formula:
        if isinstance(f, Quant):
            body = recurse(f.body)
            # the body keeps its free variables, and its facts
            free = free_agent_vars(f.body)
            kept = tuple(q for q in f.prefix if q[1] in free)
            if kept == f.prefix and body is f.body:
                return f
            return Quant(kept, body) if kept else body
        return map_children(f, recurse)

    facts(phi)
    return memo_walk(phi, step)


# -- syntax checking ---------------------------------------------------------


class PositionViolation(Node):
    # slot 1: y2 in the first position; slot 2: y1 in the second
    __slots__ = _fields = ("path", "slot")

    def __init__(self, path: tuple[int, ...], slot: int):
        set_slot(self, "_hash", None)
        set_slot(self, "path", path)
        set_slot(self, "slot", slot)


class PolarityViolation(Node):
    __slots__ = _fields = ("path", "variable", "found")

    def __init__(self, path: tuple[int, ...], variable: int, found: str):
        set_slot(self, "_hash", None)
        set_slot(self, "path", path)
        set_slot(self, "variable", variable)
        set_slot(self, "found", found)

    def __str__(self) -> str:
        how = "only negatively" if self.found == "all-negative" else \
            "both positively and negatively"
        return (f"y{self.variable} occurs {how} under its quantifier;"
                " it must occur only positively")


class InadmissiblePrefix(Node):
    __slots__ = _fields = ("path", "prefix")

    def __init__(self, path: tuple[int, ...], prefix: QuantPrefix):
        set_slot(self, "_hash", None)
        set_slot(self, "path", path)
        set_slot(self, "prefix", prefix)

    def __str__(self) -> str:
        text = " ".join(f"{q} y{i}" for q, i in self.prefix)
        return (f"the quantifier prefix '{text}' is not admissible;"
                " it must bind y1, y2 or both, each once")


SyntaxIssue = Union[PositionViolation, PolarityViolation, InadmissiblePrefix]


def check_syntax(phi: StateFormula) -> list[SyntaxIssue]:
    """Positional, polarity and prefix-admissibility checks.

    Vacuous quantifiers are simplified away before the polarity checks, per
    the convention that such quantification is removed automatically.
    """
    def step(f: Formula, recurse) -> list[SyntaxIssue]:
        # paths are relative to ``f``; a parent puts its child's index first
        issues: list[SyntaxIssue] = []
        if isinstance(f, Coop):
            if f.t1 == Y2:
                issues.append(PositionViolation((), 1))
            if f.t2 == Y1:
                issues.append(PositionViolation((), 2))
        if isinstance(f, Quant):
            admissible = (
                1 <= len(f.prefix) <= 2
                and all(q in (EXISTS, FORALL) and i in (1, 2) for q, i in f.prefix)
                and len({i for _, i in f.prefix}) == len(f.prefix))
            if not admissible:
                issues.append(InadmissiblePrefix((), f.prefix))
            for _, i in f.prefix:
                found = polarity(f.body, i) if i in (1, 2) else "absent"
                if found not in ("all-positive", "absent"):
                    issues.append(PolarityViolation((), i, found))
        for idx, c in enumerate(children(f)):
            issues += [issue.__class__((idx,) + issue.path, *issue._key()[1:])
                       for issue in recurse(c)]
        return issues

    return memo_walk(simplify_vacuous(phi), step)
