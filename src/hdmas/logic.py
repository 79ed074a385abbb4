"""Strategic-ability formulas over agent counts.

State formulas carry a strategic operator ``<<t1, t2>>`` whose arguments
count controllable and uncontrollable agents; they are naturals,
parameters ``z_i``, or the quantifiable agent counters ``y1``/``y2``.
``y1`` may only stand in the first position and ``y2`` only in the
second, and a quantifier may only bind occurrences of positive polarity.
"""

from __future__ import annotations

from typing import Iterator, Optional, Union

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


def assignment_symbols(phi: Formula) -> list[str]:
    """The assignment keys a formula needs: ``z<n>`` for each parameter,
    then ``y<i>`` for each free agent variable, each in index order."""
    return ([f"z{i}" for i in sorted(params_of(phi))]
            + [f"y{i}" for i in sorted(free_agent_vars(phi))])


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
    __slots__ = ()
    __eq__ = _formula_eq
    __hash__ = Node.__hash__


class PathFormula(Node):
    __slots__ = ()
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


def subformulas(phi: Formula) -> Iterator[Formula]:
    """Subformulas in preorder; a node shared by several parents is
    yielded once."""
    seen: set[int] = set()
    stack = [phi]
    while stack:
        f = stack.pop()
        if id(f) in seen:
            continue
        seen.add(id(f))
        yield f
        stack.extend(reversed(children(f)))


def props_of(phi: Formula) -> frozenset[str]:
    return frozenset(f.name for f in subformulas(phi) if isinstance(f, Prop))


def params_of(phi: Formula) -> frozenset[int]:
    out = set()
    for f in subformulas(phi):
        if isinstance(f, Coop):
            for t in (f.t1, f.t2):
                if isinstance(t, Param):
                    out.add(t.index)
    return frozenset(out)


def _parities(phi: Formula, y: int) -> frozenset[int]:
    """Negation parities (0 or 1) of the free occurrences of an agent
    variable."""
    def step(f: Formula, recurse) -> frozenset[int]:
        if isinstance(f, NotF):
            return frozenset(1 - n for n in recurse(f.arg))
        if isinstance(f, Quant) and any(i == y for _, i in f.prefix):
            return frozenset()
        out: frozenset[int] = frozenset()
        if isinstance(f, Coop) and AgentVar(y) in (f.t1, f.t2):
            out = frozenset((0,))
        for c in children(f):
            out |= recurse(c)
        return out

    return memo_walk(phi, step)


def free_agent_vars(phi: Formula) -> frozenset[int]:
    return frozenset(y for y in (1, 2) if _parities(phi, y))


def polarity(phi: Formula, y: int) -> str:
    """Polarity of the free occurrences of y1 or y2 in the formula.

    Returns one of ``all-positive``, ``all-negative``, ``mixed``, ``absent``.
    """
    found = _parities(phi, y)
    if not found:
        return "absent"
    if found == {0}:
        return "all-positive"
    if found == {1}:
        return "all-negative"
    return "mixed"


# -- shared-node walks -------------------------------------------------------


def map_children(phi: Formula, fn) -> Formula:
    """The node rebuilt with ``fn`` applied to each direct subformula; a
    node without one (``Top``, ``Prop``) is returned as it is."""
    fields = phi._key()
    if not any(isinstance(f, _FORMULAS) for f in fields):
        return phi
    # every formula class takes its fields in ``_key`` order
    return phi.__class__(*[fn(f) if isinstance(f, _FORMULAS) else f
                           for f in fields])


def memo_walk(phi: Formula, step):
    """``step(node, recurse)`` evaluated once per distinct node.

    ``recurse`` memoises on node identity for the duration of the call;
    the memo holds each node it has seen, so no identity is reused while
    it runs, not even one of a node that ``step`` builds on the fly.
    """
    memo: dict[int, tuple] = {}

    def recurse(f: Formula):
        hit = memo.get(id(f))
        if hit is None:
            hit = memo[id(f)] = (f, step(f, recurse))
        return hit[1]

    return recurse(phi)


# -- substitution ------------------------------------------------------------


def subst_term(phi: Formula, target: Term, k: int) -> Formula:
    """Uniform substitution of the free occurrences of a term by a numeral."""
    replacement = Nat(k)

    def step(f: Formula, recurse) -> Formula:
        if isinstance(f, Coop):
            return Coop(replacement if f.t1 == target else f.t1,
                        replacement if f.t2 == target else f.t2,
                        recurse(f.objective))
        if (isinstance(f, Quant) and isinstance(target, AgentVar)
                and any(i == target.index for _, i in f.prefix)):
            return f            # every occurrence below is bound here
        return map_children(f, recurse)

    return memo_walk(phi, step)


# -- vacuous quantifiers and merged prefixes --------------------------------


def simplify_vacuous(phi: Formula) -> Formula:
    """Drop quantifiers over variables with no free occurrence in their body."""
    def step(f: Formula, recurse) -> Formula:
        if isinstance(f, Quant):
            body = recurse(f.body)
            free = free_agent_vars(body)
            kept = tuple(q for q in f.prefix if q[1] in free)
            return Quant(kept, body) if kept else body
        return map_children(f, recurse)

    return memo_walk(phi, step)


def merge_quantifiers(phi: Formula) -> Formula:
    """Fuse nested quantifier nodes into maximal admissible prefixes."""
    def step(f: Formula, recurse) -> Formula:
        if isinstance(f, Quant):
            body = recurse(f.body)
            prefix = f.prefix
            while (isinstance(body, Quant)
                   and len(prefix) + len(body.prefix) <= 2
                   and {i for _, i in prefix}.isdisjoint(
                       i for _, i in body.prefix)):
                prefix = prefix + body.prefix
                body = body.body
            return Quant(prefix, body)
        return map_children(f, recurse)

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
    issues: list[SyntaxIssue] = []
    # shared nodes whose subtree raised nothing are not walked again
    clean: set[int] = set()

    def walk(f: Formula, path: tuple[int, ...]) -> None:
        if id(f) in clean:
            return
        before = len(issues)
        if isinstance(f, Coop):
            if f.t1 == Y2:
                issues.append(PositionViolation(path, 1))
            if f.t2 == Y1:
                issues.append(PositionViolation(path, 2))
        if isinstance(f, Quant):
            admissible = (
                1 <= len(f.prefix) <= 2
                and all(q in (EXISTS, FORALL) and i in (1, 2) for q, i in f.prefix)
                and len({i for _, i in f.prefix}) == len(f.prefix))
            if not admissible:
                issues.append(InadmissiblePrefix(path, f.prefix))
            for _, i in f.prefix:
                found = polarity(f.body, i)
                if found not in ("all-positive", "absent"):
                    issues.append(PolarityViolation(path, i, found))
        for idx, c in enumerate(children(f)):
            walk(c, path + (idx,))
        if len(issues) == before:
            clean.add(id(f))

    walk(simplify_vacuous(phi), ())
    return issues


# -- normal form -------------------------------------------------------------


def is_normal_form(phi: StateFormula) -> bool:
    """NF1: no universal y1 or existential y2 quantifiers anywhere.
    NF2: a strategic operator using a bound y1 (or y2) alone is directly
    under its binder, which is the innermost quantifier of that node.
    NF3: one using both is directly under E y1 A y2 or A y2 E y1."""
    target = merge_quantifiers(phi)

    ok = True
    seen: set[tuple] = set()

    def walk(f: Formula, bound: frozenset[int],
             parent_prefix: Optional[QuantPrefix]) -> None:
        nonlocal ok
        key = (id(f), bound, parent_prefix)
        if not ok or key in seen:
            return
        seen.add(key)
        if isinstance(f, Quant):
            for q, i in f.prefix:
                if (q, i) in ((FORALL, 1), (EXISTS, 2)):
                    ok = False
                    return
            inner = f.prefix if isinstance(f.body, Coop) else None
            walk(f.body, bound | {i for _, i in f.prefix}, inner)
            return
        if isinstance(f, Coop):
            b1 = f.t1 == Y1 and 1 in bound
            b2 = f.t2 == Y2 and 2 in bound
            if b1 and b2:
                if parent_prefix not in (((EXISTS, 1), (FORALL, 2)),
                                         ((FORALL, 2), (EXISTS, 1))):
                    ok = False
                    return
            elif b1:
                if not parent_prefix or parent_prefix[-1] != (EXISTS, 1):
                    ok = False
                    return
            elif b2:
                if not parent_prefix or parent_prefix[-1] != (FORALL, 2):
                    ok = False
                    return
            walk(f.objective, bound, None)
            return
        for c in children(f):
            walk(c, bound, None)

    walk(target, frozenset(), None)
    return ok
