"""Quantifier-prefix normalisation of strategic formulas.

Three rewrites: ``pqe`` eliminates the quantifier patterns that collapse
by monotonicity, ``push`` distributes a quantifier prefix inward until it
sits directly on strategic operators, and ``nf`` composes the two
bottom-up.  The result of ``nf`` uses no universal y1 or existential y2
quantifier and every surviving binder stands immediately before the
operator it quantifies; it is equivalent to the input on finite models.
"""

from __future__ import annotations

from .logic import (EXISTS, FORALL, Coop, Formula, Nat, NotF, Quant,
                    QuantPrefix, Y1, Y2, map_children, memo_walk, subst_term)

_ZERO = Nat(0)


def _peel(phi: Formula) -> tuple[list, Formula]:
    quants = []
    while isinstance(phi, Quant):
        quants.extend(phi.prefix)
        phi = phi.body
    return quants, phi


def _rebuild(quants: list, core: Formula) -> Formula:
    out = core
    for q in reversed(quants):
        out = Quant((q,), out)
    return out


def _dual(prefix: QuantPrefix) -> QuantPrefix:
    return tuple((FORALL if q == EXISTS else EXISTS, i) for q, i in prefix)


def pqe(xi: Formula) -> Formula:
    """Replace trivialisable quantifier patterns by their closed forms."""
    def step(f: Formula, recurse) -> Formula:
        if not isinstance(f, Quant):
            return map_children(f, recurse)
        quants, core = _peel(f)
        if len(quants) == 2 and isinstance(core, Coop) \
                and core.t1 == Y1 and core.t2 == Y2:
            pair = (quants[0], quants[1])
            chi = recurse(core.objective)
            if pair in (((FORALL, 1), (EXISTS, 2)), ((EXISTS, 2), (FORALL, 1))):
                chi = subst_term(subst_term(chi, Y1, 0), Y2, 0)
                return Coop(_ZERO, _ZERO, chi)
            if pair in (((FORALL, 1), (FORALL, 2)), ((FORALL, 2), (FORALL, 1))):
                return Quant(((FORALL, 2),),
                             Coop(_ZERO, Y2, subst_term(chi, Y1, 0)))
            if pair in (((EXISTS, 1), (EXISTS, 2)), ((EXISTS, 2), (EXISTS, 1))):
                return Quant(((EXISTS, 1),),
                             Coop(Y1, _ZERO, subst_term(chi, Y2, 0)))
        if len(quants) == 1 and isinstance(core, Coop):
            q = quants[0]
            if q == (FORALL, 1) and core.t1 == Y1:
                return Coop(_ZERO, core.t2,
                            subst_term(recurse(core.objective), Y1, 0))
            if q == (EXISTS, 2) and core.t2 == Y2:
                return Coop(core.t1, _ZERO,
                            subst_term(recurse(core.objective), Y2, 0))
        return Quant((quants[0],), recurse(_rebuild(quants[1:], core)))

    return memo_walk(xi, step)


def push(prefix: QuantPrefix, xi: Formula) -> Formula:
    """Distribute a quantifier prefix inward onto strategic operators.

    Negation dualises the prefix; at a strategic operator the prefix keeps
    exactly the quantifiers whose variable stands in the matching slot and
    is also pushed into the temporal objective; at an inner quantifier the
    shadowed part of the prefix is dropped.
    """
    def step(xi: Formula, go, prefix: QuantPrefix) -> Formula:
        if isinstance(xi, NotF):
            return NotF(go(xi.arg, _dual(prefix)))
        if isinstance(xi, Coop):
            body = Coop(xi.t1, xi.t2, go(xi.objective, prefix))
            if len(prefix) == 1:
                q, i = prefix[0]
                matches = (xi.t1 == Y1) if i == 1 else (xi.t2 == Y2)
                return Quant(prefix, body) if matches else body
            m1 = xi.t1 == Y1
            m2 = xi.t2 == Y2
            if m1 and m2:
                return Quant(prefix, body)
            if not m1 and not m2:
                return body
            keep = 1 if m1 else 2
            entry = next(q for q in prefix if q[1] == keep)
            return Quant((entry,), body)
        if isinstance(xi, Quant):
            head = xi.prefix[0]
            rest: Formula = xi.body if len(xi.prefix) == 1 \
                else Quant(xi.prefix[1:], xi.body)
            if len(prefix) == 1:
                if prefix[0][1] == head[1]:
                    return go(rest, (head,))
                return go(rest, (prefix[0], head))
            first, second = prefix
            if first[1] == head[1]:
                return go(rest, (second, head))
            return go(rest, (first, head))
        return map_children(xi, lambda c: go(c, prefix))

    # memoised on (node identity, prefix)
    return memo_walk(xi, step, prefix)


def nf(xi: Formula) -> Formula:
    """Normal form: push the prefix through the recursively normalised body,
    then eliminate the trivialisable patterns."""
    def step(f: Formula, recurse) -> Formula:
        if isinstance(f, Quant):
            return pqe(push(f.prefix, recurse(f.body)))
        return map_children(f, recurse)

    return memo_walk(xi, step)
