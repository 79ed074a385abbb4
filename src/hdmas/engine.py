"""Global model checking of normal-form strategic formulas.

The controllable pre-image of a state set is computed symbolically: per
state a Presburger formula states that some split of the controllable
agents over the available actions defeats every split of the
uncontrollable agents into the target set.  Temporal operators iterate
pre-images to their fixpoints; quantifier prefixes become arithmetic
quantifiers on the per-state formula.
"""

from __future__ import annotations

from typing import Mapping, Optional, Union

from .logic import (EXISTS, FORALL, AgentVar, AndF, Coop, Globally, Nat, Next,
                    NotF, OrF, Prop, Quant, QuantPrefix, StateFormula, Term,
                    Top, Until, check_syntax, free_agent_vars, is_normal_form,
                    merge_quantifiers, params_of, simplify_vacuous,
                    term_symbol)
from .model import IDLE_COUNTER, HdmasModel, StateSet, guard_union
from .normalform import nf
from .presburger import (Exists, Forall, PresFormula, atom_le, conj,
                         free_vars, implies, num, simplify, substitute_all,
                         var)
from .qe import QeStats, decide

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


def build_prf(model: HdmasModel, state: str, t1: Union[int, str],
              t2: Union[int, str], targets: StateSet) -> PresFormula:
    """Per-state controllability formula for a target set.

    Counters split into controllable and adversarial shares ``k``/``l``.
    Availability is resolved structurally: only counters that occur in the
    guard union are quantified, and the idle counters are folded into
    inequalities on the share sums.
    """
    grd = guard_union(model, state, targets)
    t1_term = var(t1) if isinstance(t1, str) else num(t1)
    t2_term = var(t2) if isinstance(t2, str) else num(t2)
    used = free_vars(grd)
    counters = [c for c in model.counters_at(state)
                if c != IDLE_COUNTER and c in used]
    names = [c.lstrip("#") for c in counters]
    ks = [_share("k", n) for n in names]
    ls = [_share("l", n) for n in names]
    # one walk for all counters; no replacement mentions a counter
    shifted = substitute_all(grd, {c: var(k).add(var(l))
                                   for c, k, l in zip(counters, ks, ls)})
    k_sum = num(0)
    for k in ks:
        k_sum = k_sum.add(var(k))
    l_sum = num(0)
    for l in ls:
        l_sum = l_sum.add(var(l))
    inner: PresFormula = implies(atom_le(l_sum, t2_term), shifted)
    for l in reversed(ls):
        inner = Forall(l, inner)
    body = conj((atom_le(k_sum, t1_term), inner))
    for k in reversed(ks):
        body = Exists(k, body)
    return simplify(body)


def quantified_prf(model: HdmasModel, state: str, t1: Union[int, str],
                   t2: Union[int, str], targets: StateSet,
                   pfix: QuantPrefix) -> PresFormula:
    """``build_prf`` under the quantifier prefix that binds its ``y``
    terms: the closed formula decided for ``state``."""
    phi = build_prf(model, state, t1, t2, targets)
    for q, y in reversed(pfix):
        name = f"y{y}"
        phi = Exists(name, phi) if q == EXISTS else Forall(name, phi)
    return phi


def _share(side: str, action: str) -> str:
    """``build_prf``'s variable for the agents of one side on an action."""
    return f"{side}_{action}"


class ModelChecker:
    """Caching evaluator for one model.

    Pre-image verdicts are cached before any formula is built, keyed on
    ``(actions available at the state, ids of the guards into the target
    set, t1, t2, prefix)``: that key fixes the per-state formula up to the
    order of its disjuncts, whichever state it came from.  Only a miss
    builds the formula and decides it.

    Only states that can still change the answer are decided.  A
    pre-image examines the states with an edge into the targets; a G or U
    round, as the pre-image is monotone, only its candidates with an edge
    into the states that just changed.  G's candidates are the states of
    its set (its first round examines them all), U's those of ψ1 outside
    its set (ψ2 counts as just joined in its first round).  Every round
    yields the same set as the plain Kleene iteration.
    Subformula extensions are memoised too; the instance is reusable
    across formulas and assignments.
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
        into the targets need not be examined, in any model: its guard
        union is ⊥, and ∃k̄ (Σk ≤ t1 ∧ ∀l̄ (Σl ≤ t2 → ⊥)) is false for every
        natural t2 (take l̄ = 0), so under every prefix too.
        """
        if pfix not in PFIXES:
            raise EngineError(f"unsupported quantifier prefix {pfix}")
        r1 = _resolve_term(t1, theta, pfix)
        r2 = _resolve_term(t2, theta, pfix)
        model = self.model
        out_edges = model.adjacency.out
        while dirty:
            low = dirty & -dirty
            dirty ^= low
            i = low.bit_length() - 1
            state = model.states[i]
            key = (model.avail[state],
                   frozenset(gid for d, gid in out_edges[i] if targets >> d & 1),
                   r1, r2, pfix)
            hit = self._verdicts.get(key)
            if hit is None:
                phi = quantified_prf(model, state, r1, r2, targets, pfix)
                hit = self._verdicts[key] = decide(phi, self.stats)
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
        """Greatest fixpoint for invariance objectives."""
        targets = self.global_mc(psi, theta)
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
        """Least fixpoint for reachability-until objectives."""
        q1 = self.global_mc(psi1, theta)
        w = 0
        z = self.global_mc(psi2, theta)
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
        """Extension of a normal-form formula under an assignment."""
        phi = merge_quantifiers(simplify_vacuous(phi))
        if not is_normal_form(phi):
            raise NotNormalForm(phi)
        return self._extent(phi, theta)

    def check(self, state: str, phi: StateFormula, theta: Assignment) -> bool:
        """Local check of an arbitrary well-formed formula via normalisation."""
        issues = check_syntax(phi)
        if issues:
            raise FormulaSyntaxError(issues)
        mask = self.global_mc(nf(phi), theta)
        return bool(mask >> self.model.index(state) & 1)

    # -- internals -------------------------------------------------------

    def _theta_key(self, phi: StateFormula, theta: Assignment) -> tuple:
        relevant = [f"z{i}" for i in params_of(phi)]
        relevant += [f"y{i}" for i in free_agent_vars(phi)]
        return tuple(sorted((k, theta[k]) for k in relevant if k in theta))

    def _extent(self, phi: StateFormula, theta: Assignment) -> StateSet:
        key = (phi, self._theta_key(phi, theta))
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


# functional entry points matching the operation contracts


def pre_image(model: HdmasModel, t1: Term, t2: Term, targets: StateSet,
              theta: Assignment, pfix: QuantPrefix) -> StateSet:
    return ModelChecker(model).pre_image(t1, t2, targets, theta, pfix)


def g_fixpoint(model: HdmasModel, t1: Term, t2: Term, psi: StateFormula,
               theta: Assignment, pfix: QuantPrefix,
               trace: Optional[list[StateSet]] = None) -> StateSet:
    return ModelChecker(model).g_fixpoint(t1, t2, psi, theta, pfix, trace)


def u_fixpoint(model: HdmasModel, t1: Term, t2: Term, psi1: StateFormula,
               psi2: StateFormula, theta: Assignment, pfix: QuantPrefix,
               trace: Optional[list[StateSet]] = None) -> StateSet:
    return ModelChecker(model).u_fixpoint(t1, t2, psi1, psi2, theta, pfix, trace)


def global_mc(model: HdmasModel, phi: StateFormula,
              theta: Assignment) -> StateSet:
    return ModelChecker(model).global_mc(phi, theta)


def check(model: HdmasModel, state: str, phi: StateFormula,
          theta: Assignment) -> bool:
    return ModelChecker(model).check(state, phi, theta)
