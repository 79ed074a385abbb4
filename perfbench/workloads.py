"""Seeded query lists of the four workloads, each with its reference.

A reference never comes from the engine under test.  It is one of:

* a closed form for the ring and fortress families (``Ref.states``);
* the enumeration oracle on a concrete-count formula (``Ref.oracle``);
* the limit of an oracle row over one agent count (``Ref.union`` over
  coalitions with no adversary, ``Ref.inter`` over adversaries with no
  coalition), as ``tests/test_acceptance.py`` criterion 10 establishes;
* an answer pinned in ``tests/test_acceptance.py``.

Quantified subformulas with pinned answers are also composed with
concrete outer operators: the oracle then runs on fig2 with an extra
proposition labelling the pinned extension.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from .models import IllFormed, not_total, overlapping

WORKLOADS = ("fig2-prefixes", "ring-states", "fortress-actions", "wellformed")

# per-query deadline: over five times the slowest query that gets a
# verdict (the fortress-5 count, about 1.5 s)
DEADLINE_S = 10.0
SMOKE_DEADLINE_S = 2.0

# nominal seconds of a run outside its rounds (interpreter, references and
# set-ups), of the queries that run once, and of one round of the others,
# calibrations included.  Measured on a 2-core x86-64 VM with CPython 3.11
# while it ran about 50 % slower than the reference speed, its slow end.
# The number of rounds follows from them and the run's seconds, so that
# every machine draws the same number of samples and the tail percentile
# always lands among the same queries
NOMINAL_S = {"fig2-prefixes": (3.5, 0.0, 6.0),
             "ring-states": (4.0, 7.8, 5.9),
             "fortress-actions": (3.0, 12.3, 3.6),
             "wellformed": (5.5, 6.3, 2.2)}
# traced rounds take about this much longer than untraced ones
TRACE_FACTOR = 1.4


FIG2_STATES = tuple(f"s{i}" for i in range(1, 7))

# pinned in tests/test_acceptance.py (criteria 2, 4 and 5)
AE_G_P = "A y2 E y1 <<y1,y2>> G p"
EA_X_PQ = "E y1 A y2 <<y1,y2>> X (p|q)"
A0_G_Q = "A y2 <<0,y2>> G q"
E10_U = f"E y1 <<y1,10>> (({AE_G_P}) U ({A0_G_Q}))"
PINNED = {
    AE_G_P: {"s2", "s4"},
    EA_X_PQ: {"s2", "s4", "s5", "s6"},
    A0_G_Q: {"s6"},
    E10_U: {"s2", "s4", "s6"},
    f"<<7,4>> X ({AE_G_P})": {"s4", "s5"},
    f"<<6,3>> X ({E10_U})": {"s1", "s4", "s5", "s6"},
}
# extra propositions labelling pinned extensions, for composed queries
RELABEL = {"wae": PINNED[AE_G_P], "wea": PINNED[EA_X_PQ],
           "wq": PINNED[A0_G_Q], "wu": PINNED[E10_U]}


@dataclass(frozen=True)
class Ref:
    """How the expected answer of one query is obtained."""

    kind: str                        # states | oracle | union | inter | member
    states: frozenset = frozenset()  # kind "states"
    formula: str = ""                # oracle formula; "{c}"/"{n}" for rows
    member: Optional[bool] = None    # kind "member": only --state is pinned


@dataclass(frozen=True)
class Query:
    instance: str                    # model name, e.g. "ring-80"
    command: str                     # verify | check-model
    formula: str = ""
    state: Optional[str] = None
    ref: Optional[Ref] = None        # verify queries
    ill: Optional[IllFormed] = None  # check-model of an ill-formed model
    once: bool = False               # heavy: first round only, not repeated

    def argv(self, path: str) -> list[str]:
        if self.command == "check-model":
            return ["check-model", path, "--json"]
        out = ["verify", path, "-f", self.formula, "--json"]
        if self.state is not None:
            out += ["--state", self.state]
        return out


@dataclass
class Workload:
    name: str
    seed: int
    models: list[str]
    queries: list[Query]
    deadline_s: float
    ill: dict[str, IllFormed] = field(default_factory=dict)

    def rounds(self, seconds: float, traced: bool) -> int:
        """Rounds of a run of ``seconds``: the first has every query, the
        others only those not marked ``once``.  With tracing, each round
        is an untraced and a traced pass."""
        outside_s, once_s, round_s = NOMINAL_S[self.name]
        if traced:
            once_s, round_s = once_s * TRACE_FACTOR, round_s * (1 + TRACE_FACTOR)
        return max(1, int((seconds - outside_s - once_s) / round_s))


def _states(names) -> Ref:
    return Ref("states", frozenset(names))


def _count_pair(rng: random.Random) -> tuple[int, int]:
    return rng.randint(0, 6), rng.randint(0, 4)


def _fig2(rng: random.Random, smoke: bool) -> list[Query]:
    out: list[Query] = []

    def add(formula, ref, state=None):
        out.append(Query("fig2", "verify", formula, state, ref))

    def oracle(formula):
        return Ref("oracle", formula=formula)

    flat = ["X p", "X (p|q)", "X !q", "G p", "G (p|q)", "F q", "(p U q)",
            "(!q U p)"]
    for objective in flat:
        for draw in range(3):
            c, n = _count_pair(rng)
            formula = f"<<{c},{n}>> {objective}"
            state = rng.choice(FIG2_STATES) if draw == 2 else None
            add(formula, oracle(formula), state)
    nested = ["X (<<{c},{n}>> G p)", "G (<<{c},{n}>> X (p|q))",
              "(p U <<{c},{n}>> X q)", "F (<<{c},{n}>> G q)"]
    for template in nested:
        for _ in range(3):
            c, n = _count_pair(rng)
            c2, n2 = _count_pair(rng)
            formula = f"<<{c},{n}>> " + template.format(c=c2, n=n2)
            add(formula, oracle(formula))

    rows = ["X p", "G p", "F q", "(p U q)", "X (p|q)", "G (p|q)"]
    for objective in rows:
        # a coalition limit with no adversary, and its double-existential form
        union = Ref("union", formula="<<{c},0>> " + objective)
        add(f"E y1 <<y1,0>> {objective}", union)
        add(f"E y1 E y2 <<y1,y2>> {objective}", union)
        # an adversary limit against no coalition, and the double universal
        inter = Ref("inter", formula="<<0,{n}>> " + objective)
        add(f"A y2 <<0,y2>> {objective}", inter)
        add(f"A y1 A y2 <<y1,y2>> {objective}", inter)
    for objective in rows[:4]:
        # mixed pairs collapse to the concrete <<0,0>> operator
        exact = oracle("<<0,0>> " + objective)
        add(f"A y1 E y2 <<y1,y2>> {objective}", exact)
        add(f"E y2 A y1 <<y1,y2>> {objective}", exact)

    for formula, states in PINNED.items():
        add(formula, _states(states))
    add("E y1 <<y1,11>> X p", Ref("member", member=False), "s1")

    composed = [
        (f"X ({AE_G_P})", "X wae"),
        (f"G ({EA_X_PQ})", "G wea"),
        (f"F ({AE_G_P})", "F wae"),
        (f"(({AE_G_P}) U ({A0_G_Q}))", "(wae U wq)"),
        (f"(p U ({EA_X_PQ}))", "(p U wea)"),
        (f"X ({E10_U})", "X wu"),
    ]
    # four draws of the heaviest composition keep the tail, 10 samples from
    # the top, inside the group of queries around E10_U
    for objective, relabelled in composed:
        for _ in range(3 if relabelled != "X wu" else 4):
            c, n = _count_pair(rng)
            add(f"<<{c},{n}>> {objective}", oracle(f"<<{c},{n}>> {relabelled}"))
    add(f"E y1 <<y1,0>> X ({AE_G_P})", Ref("union", formula="<<{c},0>> X wae"))
    add(f"A y2 <<0,y2>> F ({EA_X_PQ})", Ref("inter", formula="<<0,{n}>> F wea"))
    if smoke:
        out = out[::6]
    return out


# ring objectives and whether they reach or avoid the goal state
RING_OBJECTIVES = {
    "F goal": "reach",
    "(!goal U goal)": "reach",
    "G !goal": "avoid",
}


def ring_answer(n: int, objective: str, holds: bool) -> frozenset:
    """Closed form on ring-n: ``<<t1,t2>> F goal`` (and ``!goal U goal``)
    gives every state iff t1 > t2, else only the goal; ``<<t1,t2>> G !goal``
    gives every state but the goal iff t1 >= t2, else none."""
    states = [f"s{i}" for i in range(n)]
    if RING_OBJECTIVES[objective] == "reach":
        return frozenset(states if holds else states[-1:])
    return frozenset(states[:-1] if holds else ())


def ring_holds(objective: str, t1: int, t2: int) -> bool:
    return t1 > t2 if RING_OBJECTIVES[objective] == "reach" else t1 >= t2


# concrete count pairs per objective on each ring size.  Every pair makes
# the fixpoint walk the whole ring, as do one of the two quantified
# queries per objective, so ring-n asks 3 * (draws + 2) queries, of which
# 3 * (draws + 1) walk it.  The counts put the median among the 15 walks
# of ring-20 and the tail (10 samples from the top) among the walks of
# ring-40, with the cheap queries and ring-10 below and ring-80 above
RING_DRAWS = {10: 1, 20: 4, 40: 2, 80: 1}
# ring-80 walks take about a second each: asked once per run
RING_ONCE = 80


def _ring(rng: random.Random, smoke: bool) -> list[Query]:
    out = []
    for n in ((10, 20) if smoke else tuple(RING_DRAWS)):
        name = f"ring-{n}"
        once = n == RING_ONCE
        for objective, kind in RING_OBJECTIVES.items():
            # the seed draws the counts, always on the side of the
            # threshold where the fixpoint walks the whole ring, so every
            # seed does the same work
            t2 = rng.randint(1, 6)
            for _ in range(RING_DRAWS[n]):
                t1 = (t2 + rng.randint(1, 3) if kind == "reach"
                      else rng.randint(0, t2 - 1))
                holds = ring_holds(objective, t1, t2)
                out.append(Query(name, "verify", f"<<{t1},{t2}>> {objective}",
                                 ref=_states(ring_answer(n, objective, holds)),
                                 once=once))
            # the predicate is t1 > t2 or t1 >= t2: some coalition beats
            # each adversary, no coalition beats every adversary
            for prefix, holds in (("A y2 E y1", True), ("E y1 A y2", False)):
                out.append(Query(name, "verify",
                                 f"{prefix} <<y1,y2>> {objective}",
                                 ref=_states(ring_answer(n, objective, holds)),
                                 once=once))
    return out


def fortress_holds(k: int, t1: int, t2: int) -> bool:
    """Closed form: s1 satisfies ``<<t1,t2>> G !captured`` on fortress-k iff
    t1 >= 5, or t1 >= 2 and t2 < t1 + min(k, t1 // 2)."""
    return t1 >= 5 or (t1 >= 2 and t2 < t1 + min(k, t1 // 2))


# concrete-count queries per fortress size, besides the two quantified
# ones.  A round has 44 queries: the median falls among the 22 on
# fortress-3 and the tail (10 samples from the top) among the samples of
# the 6 on fortress-4, so neither sits on the boundary between two sizes
FORTRESS_DRAWS = {1: 6, 2: 6, 3: 20, 4: 4}
# the fortress-5 concrete count, asked once per run: t1 = 5 is among the
# cheapest (about 1.5 s) and sets the deadline; the quantified queries
# take 5-6 s there and would need a 30 s deadline
FORTRESS_5_T1 = 5


def _fortress(rng: random.Random, smoke: bool) -> list[Query]:
    out = []
    objective = "G !captured"

    def add(k, formula, holds, once=False):
        out.append(Query(f"fortress-{k}", "verify", f"{formula} {objective}",
                         ref=_states({"s1"} if holds else ()), once=once))

    for k in ((1, 2, 3) if smoke else tuple(FORTRESS_DRAWS)):
        # s1 holds for every adversary size iff the coalition has 5 agents;
        # hence also some coalition beats every adversary
        add(k, f"A y2 <<{5 * k},y2>>", True)
        add(k, "E y1 A y2 <<y1,y2>>", True)
        # t1 runs through 0..7 so every seed has the same mix of cheap and
        # costly counts; the seed draws t2 and the order
        for draw in range(FORTRESS_DRAWS[k]):
            t1, t2 = draw % 8, rng.randint(0, 9)
            add(k, f"<<{t1},{t2}>>", fortress_holds(k, t1, t2))
    if not smoke:
        t1, t2 = FORTRESS_5_T1, rng.randint(0, 9)
        add(5, f"<<{t1},{t2}>>", fortress_holds(5, t1, t2), once=True)
    # fortress-6 has given no verdict in 240 s: the recorded timeout
    add(6, "A y2 <<30,y2>>", True, once=True)
    return out


# ill-formed rings of 30 states next to the well-formed ring-30: with
# them the median check (the 11th and 12th of 22) falls in a group of
# seven checks of the same size rather than between two ring sizes
WELLFORMED_ILL_30 = 3
# checks of rings this large take 0.8-1.4 s each: asked once per run.  The
# four of them are among the 10 samples beyond the tail, which falls among
# the samples of ring-60
WELLFORMED_ONCE = 70


def _wellformed(rng: random.Random, smoke: bool) -> tuple[list[Query], dict]:
    names = ["fig2"]
    names += [f"fortress-{k}" for k in ((1, 2, 3) if smoke else range(1, 6))]
    names += [f"ring-{n}" for n in ((10, 20) if smoke else range(10, 90, 10))]
    # one ring that is not total and one with overlapping guards at the
    # largest size, and more of each at 30 states; the seed draws the
    # broken state and the overlap
    size, middle = (20, 10) if smoke else (80, 30)
    ill = [not_total(size, rng.randrange(size)),
           overlapping(size, rng.randrange(size), rng.randint(1, 3))]
    for i in range(1 if smoke else WELLFORMED_ILL_30):
        ill.append(not_total(middle, rng.randrange(middle), i))
        ill.append(overlapping(middle, rng.randrange(middle),
                               rng.randint(1, 3), i))

    def once(n: int) -> bool:
        return not smoke and n >= WELLFORMED_ONCE

    queries = [Query(name, "check-model",
                     once=name.startswith("ring-") and once(int(name[5:])))
               for name in names]
    queries += [Query(bad.name, "check-model", ill=bad, once=once(bad.n))
                for bad in ill]
    return queries, {bad.name: bad for bad in ill}


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    """The query list of one workload; the same seed gives the same list."""
    rng = random.Random(f"{name}/{seed}")
    ill: dict[str, IllFormed] = {}
    if name == "fig2-prefixes":
        queries = _fig2(rng, smoke)
    elif name == "ring-states":
        queries = _ring(rng, smoke)
    elif name == "fortress-actions":
        queries = _fortress(rng, smoke)
    elif name == "wellformed":
        queries, ill = _wellformed(rng, smoke)
    else:
        raise ValueError(f"unknown workload {name!r}")
    rng.shuffle(queries)
    models = sorted({q.instance for q in queries})
    deadline = SMOKE_DEADLINE_S if smoke else DEADLINE_S
    return Workload(name, seed, models, queries, deadline, ill)
