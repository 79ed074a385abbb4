"""Quantifier-prefix normalisation of strategic formulas.

Two rewrites, one walk each: ``push`` distributes every quantifier prefix
inward until it sits directly on the strategic operators whose slots it
binds, and ``pqe`` then eliminates the quantifiers that collapse by
monotonicity.  ``nf = pqe ∘ push``.  The result of ``nf`` uses no universal
y1 or existential y2 quantifier, every surviving binder is one merged
prefix immediately before the operator it quantifies, and it is equivalent
to the input on finite models.
"""

from __future__ import annotations

from .logic import (EXISTS, FORALL, Coop, Formula, Nat, Quant, QuantPrefix,
                    Y1, Y2, map_children, memo_walk)

_ZERO = Nat(0)
# A y1 is worst at y1 = 0 and E y2 best at y2 = 0, in any prefix, so the
# five collapsing patterns are the prefixes holding either of them
_COLLAPSING = frozenset(((FORALL, 1), (EXISTS, 2)))


def pqe(xi: Formula) -> Formula:
    """Replace the collapsing quantifiers of ``push``'s output, each prefix
    directly on its operator, by 0 in their slots."""
    def step(f: Formula, recurse) -> Formula:
        if not isinstance(f, Quant) or _COLLAPSING.isdisjoint(f.prefix):
            return map_children(f, recurse)
        coop = f.body
        zeroed = {i for q, i in f.prefix if (q, i) in _COLLAPSING}
        kept = tuple(q for q in f.prefix if q not in _COLLAPSING)
        body = Coop(_ZERO if 1 in zeroed else coop.t1,
                    _ZERO if 2 in zeroed else coop.t2, recurse(coop.objective))
        return Quant(kept, body) if kept else body

    return memo_walk(xi, step)


def push(prefix: QuantPrefix, xi: Formula) -> Formula:
    """Distribute a quantifier prefix, empty or not, inward onto strategic
    operators.

    An inner quantifier joins the prefix, in place of the one over the
    same variable; at a strategic operator the prefix stands as one
    quantifier node keeping exactly the quantifiers whose variable is in
    the matching slot, and is also pushed into the temporal objective.  A
    negation passes the prefix on unchanged: ``check_syntax`` makes every
    bound variable occur positively, so an even number of negations lies
    between a quantifier and each slot it binds, and their dualisations
    would cancel.  A node that does not change comes back as it is.
    """
    def step(xi: Formula, go, prefix: QuantPrefix) -> Formula:
        if isinstance(xi, Coop):
            body = map_children(xi, lambda c: go(c, prefix))
            binds = (xi.t1 == Y1, xi.t2 == Y2)
            kept = tuple(q for q in prefix if binds[q[1] - 1])
            return Quant(kept, body) if kept else body
        if isinstance(xi, Quant):
            inner = prefix
            for head in xi.prefix:
                inner = tuple(q for q in inner if q[1] != head[1]) + (head,)
            out = go(xi.body, inner)
            # a prefix already on its operator comes back as it is
            if isinstance(out, Quant) and out.prefix == xi.prefix \
                    and out.body is xi.body:
                return xi
            return out
        return map_children(xi, lambda c: go(c, prefix))

    # memoised on (node identity, prefix)
    return memo_walk(xi, step, prefix)


def nf(xi: Formula) -> Formula:
    """Normal form: push every prefix onto its operators, then eliminate
    the collapsing quantifiers; two walks of the formula."""
    return pqe(push((), xi))
