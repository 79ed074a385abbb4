"""Homogeneous dynamic multi-agent system models.

A model is a finite set of states, a shared action alphabet with a
distinguished idle action, per-state action availability, and a guard
matrix of quantifier-free arithmetic formulas over action counters.
State sets are integer bitmasks over the state order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Optional

from .presburger import (FALSE, PresFormula, conj, disj, evaluate, free_vars,
                         is_quantifier_free, neg)
from .qe import Game, _conjuncts, decide, is_valid

# the idle action has no user-visible name and its counter never occurs
# in guards
IDLE = ""
IDLE_COUNTER = "#"

StateSet = int


class ModelError(Exception):
    pass


class DomainMismatch(ModelError):
    """Two action distributions over different counter domains."""


class MalformedModel(ModelError):
    """An operation relied on well-formedness that does not hold."""


def counter_name(action: str) -> str:
    return IDLE_COUNTER if action == IDLE else "#" + action


class ActionTable:
    """Ordered action alphabet and its counter variables."""

    __slots__ = ("actions",)

    def __init__(self, actions: tuple[str, ...]):
        if IDLE in actions:
            raise ValueError("the idle action is implicit")
        if len(set(actions)) != len(actions):
            raise ValueError("duplicate action names")
        self.actions = actions

    def __eq__(self, other: object) -> bool:
        return other.__class__ is ActionTable and self.actions == other.actions

    def __hash__(self) -> int:
        return hash(self.actions)

    def counters(self) -> tuple[str, ...]:
        return tuple(counter_name(a) for a in self.actions)

    def counter(self, action: str) -> str:
        if action != IDLE and action not in self.actions:
            raise KeyError(action)
        return counter_name(action)


class ActionDistribution:
    """Counting abstraction of a joint action: counter -> agent count."""

    __slots__ = ("counts",)

    def __init__(self, counts: tuple[tuple[str, int], ...]):
        self.counts = counts

    def __eq__(self, other: object) -> bool:
        return other.__class__ is ActionDistribution and self.counts == other.counts

    def __hash__(self) -> int:
        return hash(self.counts)

    @staticmethod
    def make(counts: Mapping[str, int]) -> "ActionDistribution":
        for v in counts.values():
            if v < 0:
                raise ValueError("agent counts are naturals")
        return ActionDistribution(tuple(sorted(counts.items())))

    def domain(self) -> frozenset[str]:
        return frozenset(c for c, _ in self.counts)

    def total(self) -> int:
        return sum(v for _, v in self.counts)

    def as_dict(self) -> dict[str, int]:
        return dict(self.counts)


def oplus(a: ActionDistribution, b: ActionDistribution) -> ActionDistribution:
    """Component-wise sum of two distributions over the same domain."""
    if a.domain() != b.domain():
        raise DomainMismatch(f"{sorted(a.domain())} vs {sorted(b.domain())}")
    bd = b.as_dict()
    return ActionDistribution(tuple((c, v + bd[c]) for c, v in a.counts))


class Adjacency:
    """Guard matrix by state index, built once per model.

    Equal guard formulas share one guard id, so a set of guard ids names
    a disjunction up to the order of its disjuncts.
    """

    __slots__ = ("index", "out", "guard_by_id", "pred")

    def __init__(self, index: Mapping[str, int],
                 out: tuple[tuple[tuple[int, int], ...], ...],
                 guard_by_id: tuple[PresFormula, ...],
                 pred: tuple[tuple[int, ...], ...]):
        self.index = index
        self.out = out                  # (dst index, guard id), by dst
        self.guard_by_id = guard_by_id
        self.pred = pred

    def __eq__(self, other: object) -> bool:
        return other.__class__ is Adjacency and \
            (self.index, self.out, self.guard_by_id, self.pred) == \
            (other.index, other.out, other.guard_by_id, other.pred)

    @staticmethod
    def build(states: tuple[str, ...],
              guards: Mapping[tuple[str, str], PresFormula]) -> "Adjacency":
        index = {s: i for i, s in enumerate(states)}
        ids: dict[PresFormula, int] = {}
        out: list[list[tuple[int, int]]] = [[] for _ in states]
        pred: list[list[int]] = [[] for _ in states]
        for (src, dst), g in guards.items():
            i, d = index[src], index[dst]
            out[i].append((d, ids.setdefault(g, len(ids))))
            pred[d].append(i)
        return Adjacency(index, tuple(tuple(sorted(e)) for e in out),
                         tuple(ids), tuple(tuple(p) for p in pred))


@dataclass(frozen=True)
class HdmasModel:
    """States, availability, guard matrix and labelling."""

    states: tuple[str, ...]
    table: ActionTable
    avail: Mapping[str, frozenset[str]]
    guards: Mapping[tuple[str, str], PresFormula]
    props: tuple[str, ...]
    labels: Mapping[str, frozenset[str]]

    def __post_init__(self):
        if len(set(self.states)) != len(self.states):
            raise ValueError("duplicate state names")

    @cached_property
    def adjacency(self) -> Adjacency:
        return Adjacency.build(self.states, self.guards)

    @cached_property
    def compiled_guards(self) -> dict[PresFormula, tuple]:
        """Memo of ``engine._compiled``: each disjunct of a guard union,
        compiled once per model for every game built from it."""
        return {}

    # -- state sets as bitmasks ----------------------------------------

    def index(self, state: str) -> int:
        return self.adjacency.index[state]

    def all_states(self) -> StateSet:
        return (1 << len(self.states)) - 1

    def mask_of(self, names: Iterable[str]) -> StateSet:
        out = 0
        for n in names:
            out |= 1 << self.index(n)
        return out

    def names_of(self, mask: StateSet) -> tuple[str, ...]:
        return tuple(s for i, s in enumerate(self.states) if mask >> i & 1)

    def prop_mask(self, prop: str) -> StateSet:
        if prop not in self.props:
            raise KeyError(prop)
        return self.mask_of(s for s in self.states if prop in self.labels[s])

    # -- per-state structure -------------------------------------------

    def counters_at(self, state: str) -> tuple[str, ...]:
        """Counters of available actions at a state, idle counter last."""
        av = self.avail[state]
        out = [counter_name(a) for a in self.table.actions if a in av]
        if IDLE in av:
            out.append(IDLE_COUNTER)
        return tuple(out)

    def guard(self, src: str, dst: str) -> PresFormula:
        return self.guards.get((src, dst), FALSE)

    def edges_from(self, src: str) -> list[tuple[str, PresFormula]]:
        """Outgoing edges in state order."""
        adj = self.adjacency
        return [(self.states[d], adj.guard_by_id[gid])
                for d, gid in adj.out[adj.index[src]]]

    def to_json(self) -> dict:
        from .parsing import guard_to_str

        # each distinct guard is rendered once, by its guard id
        adj = self.adjacency
        texts = [guard_to_str(g) for g in adj.guard_by_id]
        edges = sorted((self.states[i], self.states[d], gid)
                       for i, out in enumerate(adj.out) for d, gid in out)
        return {
            "schema": 1,
            "states": list(self.states),
            "actions": list(self.table.actions),
            "props": list(self.props),
            "avail": {s: sorted(a for a in self.avail[s] if a != IDLE)
                      for s in self.states},
            "labels": {s: sorted(self.labels[s]) for s in self.states},
            "guards": {f"{s} -> {d}": texts[gid] for s, d, gid in edges},
        }


def guard_union(model: HdmasModel, state: str, targets: StateSet) -> PresFormula:
    """Disjunction of the guards from ``state`` into the target set."""
    adj = model.adjacency
    return disj([adj.guard_by_id[gid] for d, gid in adj.out[adj.index[state]]
                 if targets >> d & 1])


def distributions(model: HdmasModel, state: str, m: int) -> Iterator[ActionDistribution]:
    """All ways for ``m`` agents to split over the actions available at a state.

    Yields each composition exactly once, first counter counting down from m.
    """
    if m < 0:
        raise ValueError("agent count is a natural")
    counters = model.counters_at(state)

    def split(rest: int, idx: int, acc: list[int]) -> Iterator[ActionDistribution]:
        if idx == len(counters) - 1:
            yield ActionDistribution(tuple(zip(counters, acc + [rest])))
            return
        for v in range(rest, -1, -1):
            yield from split(rest - v, idx + 1, acc + [v])

    if not counters:
        raise MalformedModel(f"state {state} has no available actions")
    yield from split(m, 0, [])


def distribution_count(model: HdmasModel, state: str, m: int) -> int:
    r = len(model.counters_at(state))
    return math.comb(m + r - 1, r - 1)


def successor(model: HdmasModel, state: str, eta: ActionDistribution) -> str:
    """The unique state whose guard the distribution satisfies."""
    expected = frozenset(model.counters_at(state))
    if eta.domain() != expected:
        raise DomainMismatch(f"distribution domain {sorted(eta.domain())} does "
                             f"not match available counters {sorted(expected)}")
    valuation = eta.as_dict()
    found = None
    for dst, g in model.edges_from(state):
        if evaluate(g, valuation):
            if found is not None:
                raise MalformedModel(f"both {found} and {dst} enabled from "
                                     f"{state} under {valuation}")
            found = dst
    if found is None:
        raise MalformedModel(f"no successor of {state} under {valuation}")
    return found


# ---------------------------------------------------------------------------
# well-formedness


class CheckOutcome:
    __slots__ = ("ok", "witness", "detail")

    def __init__(self, ok: bool, witness: Optional[dict[str, int]] = None,
                 detail: str = ""):
        self.ok = ok
        self.witness = witness
        self.detail = detail

    def __eq__(self, other: object) -> bool:
        return other.__class__ is CheckOutcome and \
            (self.ok, self.witness, self.detail) == \
            (other.ok, other.witness, other.detail)

    def __repr__(self) -> str:
        return (f"CheckOutcome(ok={self.ok}, witness={self.witness},"
                f" detail={self.detail!r})")


def _witness_text(witness: Optional[dict[str, int]]) -> str:
    """The witness as ``str`` writes it, each count through the printers'
    digit guard."""
    from .parsing import _digits

    if witness is None:
        return "None"
    return "{" + ", ".join(f"{k!r}: {_digits(n)}"
                           for k, n in witness.items()) + "}"


class WellformednessReport:
    """Verdicts for every state and every ordered pair of declared edges
    out of a state.

    ``determinism`` is keyed (source, dst1, dst2) and lists both orders of
    each pair, the pairs in the state order of their destinations.
    """

    def __init__(self):
        self.idle: dict[str, CheckOutcome] = {}
        self.scoping: dict[str, CheckOutcome] = {}
        self.totality: dict[str, CheckOutcome] = {}
        self.determinism: dict[tuple[str, str, str], CheckOutcome] = {}

    @property
    def ok(self) -> bool:
        tables: list[dict] = [self.idle, self.scoping, self.totality, self.determinism]
        return all(v.ok for t in tables for v in t.values())

    def lines(self) -> list[str]:
        out = []
        for s, v in self.idle.items():
            out.append(f"idle-availability {s}: {'ok' if v.ok else 'FAIL'}")
        for s, v in self.scoping.items():
            out.append(f"guard-scoping     {s}: {'ok' if v.ok else 'FAIL ' + v.detail}")
        for s, v in self.totality.items():
            # a state whose guards fail scoping is skipped: no witness
            found = v.detail if v.witness is None else \
                f"witness {_witness_text(v.witness)}"
            out.append(f"totality          {s}: {'ok' if v.ok else 'FAIL ' + found}")
        for (s, d1, d2), v in self.determinism.items():
            if v.ok:
                continue
            out.append(f"determinism       {s}: edges to {d1} and {d2} overlap,"
                       f" witness {_witness_text(v.witness)}")
        if all(v.ok for v in self.determinism.values()):
            out.append("determinism       all ordered pairs: ok")
        return out


def least_point(phi: PresFormula,
                counters: tuple[str, ...]) -> Optional[dict[str, int]]:
    """The lexicographically least natural point of ``phi`` in counter
    order, or None when it has none.

    Each counter takes the least ``b`` with ``exists counters. c <= b &
    phi``, the counters before it pinned to their values, found by
    doubling and then bisection: O(n log value) decisions, with no bound
    on the values.  ``phi`` is walked into conjuncts once; each decision
    adds one literal conjunct to them, and each found value one pin.
    """
    if is_valid(neg(phi), counters):
        return None
    conjuncts = _conjuncts(phi, False)
    point: dict[str, int] = {}
    for c in counters:
        part = ((c, 1),)

        def holds(b: int) -> bool:
            return decide(Game(counters, [*conjuncts, [((part, 1, b + 1),)]]))

        lo, hi = -1, 0
        while not holds(hi):
            lo, hi = hi, 2 * hi + 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if holds(mid) else (mid, hi)
        point[c] = hi
        conjuncts.append([((part, 2, hi),)])
    return point


def check_wellformed(model: HdmasModel) -> WellformednessReport:
    """Idle availability, guard scoping, totality and determinism checks.

    Scoping and totality are checked per state over its declared edges,
    determinism per ordered pair of declared edges out of a state; a
    missing guard is false, so a pair with one is disjoint by definition.
    Each distinct check is decided once per call: totality by the set of
    guard ids out of a state, determinism by the two guard ids, each with
    the counters of the state, which name the witness's keys.

    Failures are reported, never raised; totality and determinism failures
    carry the least counterexample valuation in action order.
    """
    adj = model.adjacency
    report = WellformednessReport()
    syntax: dict[int, tuple[frozenset[str], bool]] = {}
    totality: dict[tuple[frozenset[int], tuple[str, ...]], CheckOutcome] = {}
    overlap: dict[tuple[int, int, tuple[str, ...]], CheckOutcome] = {}
    for i, s in enumerate(model.states):
        report.idle[s] = CheckOutcome(IDLE in model.avail[s])

        counters = tuple(c for c in model.counters_at(s) if c != IDLE_COUNTER)
        legal = set(counters)
        edges = adj.out[i]
        offending = []
        for dst, gid in edges:
            if gid not in syntax:
                g = adj.guard_by_id[gid]
                syntax[gid] = (free_vars(g), is_quantifier_free(g))
            names, quantifier_free = syntax[gid]
            extra = names - legal
            if extra or not quantifier_free:
                offending.append((model.states[dst], sorted(extra)))
        report.scoping[s] = CheckOutcome(not offending, detail=str(offending))
        if offending:
            # the arithmetic checks below would be meaningless
            report.totality[s] = CheckOutcome(False, detail="skipped: bad scoping")
            continue

        # the order and repeats of the disjuncts change neither the verdict
        # nor the least counterexample, so the set of guard ids will do
        key = (frozenset(gid for _, gid in edges), counters)
        if key not in totality:
            union = guard_union(model, s, model.all_states())
            witness = least_point(neg(union), counters)
            totality[key] = CheckOutcome(witness is None, witness=witness)
        report.totality[s] = totality[key]

        for j, (d1, g1) in enumerate(edges):
            for d2, g2 in edges[j + 1:]:
                pair = (g1, g2, counters)
                if pair not in overlap:
                    both = conj((adj.guard_by_id[g1], adj.guard_by_id[g2]))
                    witness = least_point(both, counters)
                    overlap[pair] = CheckOutcome(witness is None, witness=witness)
                outcome = overlap[pair]
                report.determinism[(s, model.states[d1], model.states[d2])] = outcome
                report.determinism[(s, model.states[d2], model.states[d1])] = outcome
    return report
