"""Explicit-enumeration semantics for concrete strategic formulas.

Ground truth for differential testing of the symbolic engine: agent
splits are enumerated outright, so the agent-count arguments must be
concrete naturals after applying the assignment.  Deliberately shares no
code with the Presburger route.
"""

from __future__ import annotations

import os
import sys
from typing import Mapping, Optional

from .logic import (AndF, Coop, Globally, Nat, Next, NotF, OrF, Prop, Quant,
                    StateFormula, Term, Top, Until, memo_walk,
                    term_symbol)
from .model import (ActionDistribution, HdmasModel, StateSet,
                    distribution_count, distributions, oplus, successor)

DEFAULT_CAP = 10 ** 6


class EnumerationCapExceeded(Exception):
    """A state asked for more distribution pairs than the configured cap."""


class QuantifiedFormula(Exception):
    """The enumeration oracle cannot range over all of N."""


class BadEnumCap(Exception):
    """HDMAS_ENUM_CAP is set but is not a natural number."""


def configured_cap() -> int:
    raw = os.environ.get("HDMAS_ENUM_CAP")
    if not raw:
        return DEFAULT_CAP
    # ASCII digits only, as for --assign: ``int`` also reads other
    # scripts' digits, underscores and a sign
    value = raw.strip()
    if not (value.isascii() and value.isdigit()):
        raise BadEnumCap(f"HDMAS_ENUM_CAP={raw!r} is not a natural number")
    try:
        return int(value)
    except ValueError:
        raise BadEnumCap(f"HDMAS_ENUM_CAP has {len(value)} digits, more than "
                         f"{sys.get_int_max_str_digits()}") from None


def _term_value(t: Term, theta: Mapping[str, int]) -> int:
    if isinstance(t, Nat):
        return t.value
    sym = term_symbol(t)
    if sym is None or sym not in theta:
        raise QuantifiedFormula(f"term {t} is not closed by the assignment")
    return theta[sym]


class Oracle:
    """Enumerating evaluator for one model; the cap defaults to
    ``configured_cap()``."""

    def __init__(self, model: HdmasModel, cap: Optional[int] = None):
        self.model = model
        self.cap = configured_cap() if cap is None else cap
        self._succ: dict = {}
        self._pre: dict = {}

    def _successor(self, state: str, combined: ActionDistribution) -> str:
        key = (state, combined)
        hit = self._succ.get(key)
        if hit is None:
            hit = successor(self.model, state, combined)
            self._succ[key] = hit
        return hit

    def concrete_pre_image(self, controllable: int, uncontrollable: int,
                           targets: StateSet) -> StateSet:
        """States with a split of the controllable agents whose every
        adversarial completion lands in the target set."""
        key = (controllable, uncontrollable, targets)
        hit = self._pre.get(key)
        if hit is None:
            hit = self._pre_image_raw(controllable, uncontrollable, targets)
            self._pre[key] = hit
        return hit

    def _pre_image_raw(self, c: int, n: int, targets: StateSet) -> StateSet:
        model = self.model
        out = 0
        for i, s in enumerate(model.states):
            pairs = distribution_count(model, s, c) * distribution_count(model, s, n)
            if pairs > self.cap:
                raise EnumerationCapExceeded(
                    f"state {s}: {pairs} distribution pairs exceed cap {self.cap}")
            adversary = list(distributions(model, s, n))
            for ours in distributions(model, s, c):
                for theirs in adversary:
                    dest = self._successor(s, oplus(ours, theirs))
                    if not targets >> model.index(dest) & 1:
                        break
                else:
                    out |= 1 << i
                    break
        return out

    def global_mc(self, phi: StateFormula, theta: Mapping[str, int]) -> StateSet:
        """Extension of a formula whose strategic operators are concrete."""
        return memo_walk(phi, lambda f, ext: self._extension(f, theta, ext))

    def _extension(self, phi: StateFormula, theta: Mapping[str, int],
                   ext) -> StateSet:
        model = self.model
        if isinstance(phi, Top):
            return model.all_states()
        if isinstance(phi, Prop):
            return model.prop_mask(phi.name)
        if isinstance(phi, NotF):
            return model.all_states() & ~ext(phi.arg)
        if isinstance(phi, AndF):
            return ext(phi.lhs) & ext(phi.rhs)
        if isinstance(phi, OrF):
            return ext(phi.lhs) | ext(phi.rhs)
        if isinstance(phi, Quant):
            raise QuantifiedFormula("enumeration cannot decide quantified formulas")
        if isinstance(phi, Coop):
            c = _term_value(phi.t1, theta)
            n = _term_value(phi.t2, theta)
            objective = phi.objective
            if isinstance(objective, Next):
                return self.concrete_pre_image(c, n, ext(objective.arg))
            if isinstance(objective, Globally):
                targets = ext(objective.arg)
                w = model.all_states()
                z = targets
                while w & ~z:
                    w = z
                    z = self.concrete_pre_image(c, n, w) & targets
                return z
            if isinstance(objective, Until):
                q1 = ext(objective.lhs)
                q2 = ext(objective.rhs)
                w = 0
                z = q2
                while z & ~w:
                    w = z
                    z = q2 | (self.concrete_pre_image(c, n, w) & q1)
                return z
        raise TypeError(phi)
