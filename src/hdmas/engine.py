"""Global model checking of normal-form strategic formulas.

The controllable pre-image of a state set is computed symbolically: per
state a Presburger formula states that some split of the controllable
agents over the available actions defeats every split of the
uncontrollable agents into the target set.  Temporal operators iterate
pre-images to their fixpoints.

A quantifier prefix binds the counts.  The formula is monotone in the
coalition count and antitone in the adversary count, so a prefix drops
the counts it leaves unbounded instead of quantifying them:

    none        ∃k̄ (Σk ≤ t1 ∧ ∀l̄ (Σl ≤ t2 → G))
    E y1        ∃k̄ ∀l̄ (Σl ≤ t2 → G)
    A y2        ∃k̄ (Σk ≤ t1 ∧ ∀l̄ G)
    E y1 A y2   ∃k̄ ∀l̄ G
    A y2 E y1   ∀y2 ∃k̄ ∀l̄ (Σl ≤ y2 → G)

E y1 goes because ∃y1 ∃k̄ (Σk ≤ y1 ∧ Φ) is ∃k̄ Φ (take y1 = Σk).  A y2
goes where the choice k̄ ranges over a finite set: the k̄ that serve one
y2 shrink as y2 grows, so some k̄ serves infinitely many y2, and so every
y2.  Under A y2 E y1 the choice is unbounded and A y2 stays
(``quantified_prf``).
"""

from __future__ import annotations

from typing import Mapping, Optional, Union

from .logic import (EXISTS, FORALL, AgentVar, AndF, Coop, Globally, Nat, Next,
                    NotF, OrF, Prop, Quant, QuantPrefix, StateFormula, Term,
                    Top, Until, assignment_symbols, check_syntax,
                    term_symbol)
from .model import IDLE_COUNTER, HdmasModel, StateSet, guard_union
from .normalform import nf
from .presburger import (TRUE, Exists, Forall, FreeVariableError, Not, Or,
                         PresFormula, _canonical, free_vars, simplify)
from .qe import Game, QeStats, _conjuncts, decide

Assignment = Mapping[str, int]

PFIXES: tuple[QuantPrefix, ...] = (
    (),
    ((EXISTS, 1),),
    ((FORALL, 2),),
    ((EXISTS, 1), (FORALL, 2)),
    ((FORALL, 2), (EXISTS, 1)),
)


class EngineError(Exception):
    pass


class UnassignedParameter(EngineError):
    """A term was not closed by the assignment."""


class NotNormalForm(EngineError):
    """global_mc requires a normal-form input."""


class FormulaSyntaxError(EngineError):
    def __init__(self, issues):
        super().__init__(f"ill-formed formula: {issues}")
        self.issues = issues


def _resolve_term(t: Term, theta: Assignment, pfix: QuantPrefix) -> Union[int, str]:
    """Close a term by the assignment unless the prefix binds it."""
    if isinstance(t, Nat):
        return t.value
    if isinstance(t, AgentVar) and any(i == t.index for _, i in pfix):
        return f"y{t.index}"
    sym = term_symbol(t)
    if sym is None or sym not in theta:
        raise UnassignedParameter(sym)
    value = theta[sym]
    if value < 0:
        raise UnassignedParameter(f"{sym} must be a natural, got {value}")
    return value


Count = Union[int, str, None]


def build_prf(model: HdmasModel, state: str, t1: Count, t2: Count,
              targets: StateSet) -> Game:
    """Per-state controllability game for a target set:
    ``∃k̄ (Σk ≤ t1 ∧ ∀l̄ (Σl ≤ t2 → G))``, as ``decide`` takes it.

    Counters split into controllable and adversarial shares ``k``/``l``.
    The game is assembled from the compiled disjuncts of the guard union
    (``_compiled``): the adversary's conjuncts are their negations, and
    only the counters they mention get shares.  A union that holds a
    disjunct beside its negation is true, as ``simplify`` would fold it,
    and leaves no adversary.  A count is a natural, a variable name, or None
    for a side that no total bounds, whose sum bound is left out.
    """
    union = guard_union(model, state, targets)
    disjuncts = union.args if isinstance(union, Or) else (union,)
    compiled = [_compiled(model, g) for g in disjuncts]
    used = set().union(*(counters for counters, _ in compiled))
    available = model.counters_at(state)
    if not used.issubset(available):
        raise FreeVariableError(sorted(used.difference(available)))
    names = [c.lstrip("#") for c in available if c != IDLE_COUNTER and c in used]
    ks = tuple(_share("k", n) for n in names)
    ls = tuple(_share("l", n) for n in names)
    conjuncts = [] if t1 is None else [_sum_at_most(ks, t1)]
    if TRUE in disjuncts or any(isinstance(a, Not) and a.arg in disjuncts
                                for a in disjuncts):
        return Game(ks if conjuncts else (), conjuncts)
    negated = [alts for _, n in compiled for alts in n]
    if t2 is not None:
        negated.insert(0, _sum_at_most(ls, t2))
    return Game(ks, conjuncts, ((ls, negated),))


def _compiled(model: HdmasModel, guard: PresFormula) -> tuple:
    """A disjunct of a guard union, compiled once per model: the counters
    it mentions, and the conjuncts (``qe._conjuncts``) of its negation,
    simplified, with each counter ``#a`` replaced by ``k_a + l_a``.  A
    canonical literal stays canonical under that replacement, so the
    literals are read once, over the counters, and then shifted."""
    hit = model.compiled_guards.get(guard)
    if hit is None:
        simplified = simplify(guard)
        hit = model.compiled_guards[guard] = (
            free_vars(simplified),
            tuple(tuple(tuple((_shares(part), side, value)
                              for part, side, value in alt) for alt in alts)
                  for alts in _conjuncts(simplified, True)))
    return hit


def _sum_at_most(names: tuple[str, ...], t: Union[int, str]) -> list[tuple]:
    """The alternatives of ``Σ names ≤ t`` as ``qe._to_dnf`` gives them,
    one canonical bound (or none, when it holds), for ``t`` a natural or a
    variable."""
    coeffs = [(n, 1) for n in names]
    if isinstance(t, str):
        coeffs.append((t, -1))
    value = 1 if isinstance(t, str) else t + 1
    if not coeffs:
        return [()] if value > 0 else []
    return [(_canonical(tuple(sorted(coeffs)), 1, value),)]


def _shares(coeffs: tuple) -> tuple:
    """Sorted coefficient pairs with each counter ``#a`` replaced by
    ``k_a + l_a``: every ``k`` share sorts before every ``l`` share."""
    return tuple((_share(side, c.lstrip("#")), x)
                 for side in "kl" for c, x in coeffs)


def quantified_prf(model: HdmasModel, state: str, t1: Union[int, str],
                   t2: Union[int, str], targets: StateSet,
                   pfix: QuantPrefix) -> Game:
    """``build_prf`` under the quantifier prefix that binds its ``y``
    terms: the closed game decided for ``state``.

    Innermost first, a prefix quantifier with no kept quantifier under it,
    whose variable is the count of its own side alone, is dropped with
    that side's bound.  Both rules are exact over N:
    - ``∃y ∃k̄ (Σk ≤ y ∧ Φ)`` is ``∃k̄ Φ``: take y = Σk;
    - ``∀y ∃k̄ (Σk ≤ t1 ∧ Φ(k̄, y))``, with ``Φ = ∀l̄ (Σl ≤ y → G)``
      antitone in y, is ``∃k̄ (Σk ≤ t1 ∧ ∀l̄ G)`` while t1 is bounded
      (concrete, or bound outside y): the k̄ that serve one y form a
      finite set that shrinks as y grows, so some k̄ serves infinitely
      many y, and so every y.
    The five prefixes then give the formulas of the module docstring;
    under ``A y2 E y1`` the first rule leaves t1 unbounded, so ``A y2``
    stays.  A count that is also the other side's is kept bounded.
    """
    b1: Count = t1
    b2: Count = t2
    kept: list[tuple[str, str]] = []
    for q, y in reversed(pfix):
        name = f"y{y}"
        if not kept and q == EXISTS and t1 == name != t2:
            b1 = None
        elif not kept and q == FORALL and t2 == name != t1 and b1 is not None:
            b2 = None
        else:
            kept.append((q, name))
    game = build_prf(model, state, b1, b2, targets)
    for q, name in kept:
        game = game.quantified(Exists if q == EXISTS else Forall, name)
    return game


def _share(side: str, action: str) -> str:
    """``build_prf``'s variable for the agents of one side on an action."""
    return f"{side}_{action}"


class ModelChecker:
    """Caching evaluator for one model.

    Pre-image verdicts are cached before any game is built, keyed on
    ``(actions available at the state, ids of the guards into the target
    set, t1, t2, prefix)``: that key fixes the per-state game up to the
    order of its disjuncts, whichever state it came from.  Only a miss
    assembles the game from the model's compiled guards and decides it.

    Only states that can still change the answer are decided.  A
    pre-image examines the states with an edge into the targets; a G or U
    round, as the pre-image is monotone, only its candidates with an edge
    into the states that just changed.  G's candidates are the states of
    its set (its first round examines them all), U's those of ψ1 outside
    its set (ψ2 counts as just joined in its first round).  A candidate
    with no edge into the targets leaves the set with no game built.
    Every round yields the same set as the plain Kleene iteration.

    ``global_mc`` takes ``nf``'s output as it is, with no walk to merge
    or check it, and cuts the assignment down to the symbols the formula
    needs; every subformula, fixpoint operands included, is normal, and
    its extension is memoised by the node and that assignment.  The instance
    is reusable across formulas and assignments.
    """

    def __init__(self, model: HdmasModel, stats: Optional[QeStats] = None):
        self.model = model
        self.stats = QeStats() if stats is None else stats
        self._verdicts: dict[tuple, bool] = {}
        self._extents: dict = {}

    def _pre_states(self, t1: Term, t2: Term, targets: StateSet,
                    theta: Assignment, pfix: QuantPrefix, pre: StateSet,
                    dirty: StateSet) -> StateSet:
        """``pre`` with the states in ``dirty`` re-examined against targets.

        A state left out keeps its membership in ``pre``.  One with no edge
        into the targets is out of it, in any model, with no game built:
        its guard union is ⊥, and ∃k̄ (Σk ≤ t1 ∧ ∀l̄ (Σl ≤ t2 → ⊥)) is false
        for every natural t2 (take l̄ = 0), and so is each prefix's form.
        """
        if pfix not in PFIXES:
            raise NotNormalForm(f"unsupported quantifier prefix {pfix}")
        r1 = _resolve_term(t1, theta, pfix)
        r2 = _resolve_term(t2, theta, pfix)
        model = self.model
        out_edges = model.adjacency.out
        while dirty:
            low = dirty & -dirty
            dirty ^= low
            i = low.bit_length() - 1
            state = model.states[i]
            gids = frozenset(gid for d, gid in out_edges[i] if targets >> d & 1)
            if not gids:
                pre &= ~low
                continue
            key = (model.avail[state], gids, r1, r2, pfix)
            hit = self._verdicts.get(key)
            if hit is None:
                game = quantified_prf(model, state, r1, r2, targets, pfix)
                hit = self._verdicts[key] = decide(game, self.stats)
            pre = pre | low if hit else pre & ~low
        return pre

    def _predecessors(self, changed: StateSet) -> StateSet:
        """States with an edge into ``changed``."""
        pred = self.model.adjacency.pred
        out = 0
        while changed:
            low = changed & -changed
            changed ^= low
            for i in pred[low.bit_length() - 1]:
                out |= 1 << i
        return out

    def pre_image(self, t1: Term, t2: Term, targets: StateSet,
                  theta: Assignment, pfix: QuantPrefix) -> StateSet:
        """States where the prefixed controllability formula is true."""
        return self._pre_states(t1, t2, targets, theta, pfix, 0,
                                self._predecessors(targets))

    def g_fixpoint(self, t1: Term, t2: Term, psi: StateFormula,
                   theta: Assignment, pfix: QuantPrefix,
                   trace: Optional[list[StateSet]] = None) -> StateSet:
        """Greatest fixpoint for invariance objectives; ``psi`` is normal,
        as every operand below ``global_mc`` is."""
        targets = self._extent(psi, theta)
        w = self.model.all_states()
        z = dirty = targets
        if trace is not None:
            trace.append(z)
        while w & ~z:
            w = z
            z = self._pre_states(t1, t2, w, theta, pfix, w, dirty)
            # only states of the set can leave it
            dirty = self._predecessors(w & ~z) & z
            if trace is not None:
                trace.append(z)
        return z

    def u_fixpoint(self, t1: Term, t2: Term, psi1: StateFormula,
                   psi2: StateFormula, theta: Assignment, pfix: QuantPrefix,
                   trace: Optional[list[StateSet]] = None) -> StateSet:
        """Least fixpoint for reachability-until objectives; the operands
        are normal."""
        q1 = self._extent(psi1, theta)
        w = 0
        z = self._extent(psi2, theta)
        if trace is not None:
            trace.append(z)
        while z & ~w:
            # only states of q1 outside the set can join it
            dirty = self._predecessors(z & ~w) & q1 & ~z
            w = z
            z = self._pre_states(t1, t2, w, theta, pfix, w, dirty)
            if trace is not None:
                trace.append(z)
        return z

    def global_mc(self, phi: StateFormula, theta: Assignment) -> StateSet:
        """Extension of a formula in ``nf``'s normal form under an
        assignment.  A quantifier node not directly on a strategic operator,
        or a prefix outside ``PFIXES``, raises ``NotNormalForm`` where it is
        met."""
        return self._extent(phi, {k: theta[k] for k in assignment_symbols(phi)
                                  if k in theta})

    def check(self, state: str, phi: StateFormula, theta: Assignment) -> bool:
        """Local check of an arbitrary well-formed formula via normalisation."""
        issues = check_syntax(phi)
        if issues:
            raise FormulaSyntaxError(issues)
        mask = self.global_mc(nf(phi), theta)
        return bool(mask >> self.model.index(state) & 1)

    # -- internals -------------------------------------------------------

    def _extent(self, phi: StateFormula, theta: Assignment) -> StateSet:
        key = (phi, frozenset(theta.items()))
        hit = self._extents.get(key)
        if hit is not None:
            return hit
        out = self._extent_raw(phi, theta)
        self._extents[key] = out
        return out

    def _extent_raw(self, phi: StateFormula, theta: Assignment) -> StateSet:
        model = self.model
        if isinstance(phi, Top):
            return model.all_states()
        if isinstance(phi, Prop):
            return model.prop_mask(phi.name)
        if isinstance(phi, NotF):
            return model.all_states() & ~self._extent(phi.arg, theta)
        if isinstance(phi, AndF):
            return self._extent(phi.lhs, theta) & self._extent(phi.rhs, theta)
        if isinstance(phi, OrF):
            return self._extent(phi.lhs, theta) | self._extent(phi.rhs, theta)
        if isinstance(phi, Coop):
            return self._temporal(phi, theta, ())
        if isinstance(phi, Quant):
            if not isinstance(phi.body, Coop):
                raise NotNormalForm(phi)
            return self._temporal(phi.body, theta, phi.prefix)
        raise TypeError(phi)

    def _temporal(self, op: Coop, theta: Assignment,
                  pfix: QuantPrefix) -> StateSet:
        objective = op.objective
        if isinstance(objective, Next):
            targets = self._extent(objective.arg, theta)
            return self.pre_image(op.t1, op.t2, targets, theta, pfix)
        if isinstance(objective, Globally):
            return self.g_fixpoint(op.t1, op.t2, objective.arg, theta, pfix)
        if isinstance(objective, Until):
            return self.u_fixpoint(op.t1, op.t2, objective.lhs,
                                   objective.rhs, theta, pfix)
        raise TypeError(objective)
