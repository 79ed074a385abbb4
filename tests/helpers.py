"""Shared brute-force oracles and random generators for the test suite."""

import math

import numpy as np

from hdmas.engine import _resolve_term, _share, build_prf
from hdmas.logic import (EXISTS, FORALL, Y1, Y2, AgentVar, AndF, Coop,
                         Globally, Nat, Next, NotF, OrF, Prop, Quant, Top,
                         Until, children, map_children, memo_walk,
                         simplify_vacuous)
from hdmas.model import (IDLE, IDLE_COUNTER, CheckOutcome,
                         WellformednessReport, guard_union, least_point)
from hdmas.parsing import _parse_guard_expr, _Stream, guard_to_str, tokenize
from hdmas.presburger import (DVD, EQ, FALSE, LT, TRUE, And, Atom, AtomF,
                              Cell, Exists, FalseF, Forall, FreeVariableError,
                              LinTerm, Not, Or, TrueF, _fold_atom,
                              _quantifier_block, as_term, atom_eq, atom_ge,
                              atom_gt, atom_le, atom_lt, atom_ne, conj, disj,
                              free_vars, implies, is_quantifier_free,
                              literal_formula, neg, num, simplify, substitute,
                              var)
from hdmas.qe import QeStats, _block, _conjuncts, _to_dnf


# ---------------------------------------------------------------------------
# constructors and printers that only the tests use


def atom_dvd(divisor, t):
    """``divisor | t``, folded."""
    if divisor < 1:
        raise ValueError("divisor must be >= 1")
    return _fold_atom(Atom(DVD, as_term(t), divisor))


def atoms_of(phi):
    """All atoms in the tree, in traversal order (duplicates included)."""
    if isinstance(phi, AtomF):
        return [phi.atom]
    if isinstance(phi, Not):
        return atoms_of(phi.arg)
    if isinstance(phi, (And, Or)):
        return [a for arg in phi.args for a in atoms_of(arg)]
    if isinstance(phi, (Exists, Forall)):
        return atoms_of(phi.body)
    return []


def parse_guard(text):
    """A guard read alone, as the model reader reads one."""
    ts = _Stream(tokenize(text))
    out = _parse_guard_expr(ts)
    ts.expect("eof")
    return out


def model_to_text(model):
    """Render a model back into the DSL; inverse of parse_model."""
    lines = ["actions " + " ".join(model.table.actions) + ";"]
    if model.props:
        lines.append("props " + " ".join(model.props) + ";")
    for s in model.states:
        listed = " ".join(a for a in model.table.actions if a in model.avail[s])
        labelled = " ".join(p for p in model.props if p in model.labels[s])
        avail_part = f"avail: {listed};" if listed else "avail: ;"
        label_part = f"label: {labelled};" if labelled else "label: ;"
        lines.append(f"state {s} {{ {avail_part} {label_part} }}")
    for (src, dst), g in model.guards.items():
        lines.append(f"guard {src} -> {dst} : {guard_to_str(g)};")
    return "\n".join(lines) + "\n"


def canonical(lit):
    """The canonical literal (``presburger.atom_alternatives``) of a bound or
    divisibility literal given as a formula: None when it is true, False
    when it is false."""
    alternatives = _to_dnf(lit)
    assert len(alternatives) <= 1 and all(len(a) <= 1 for a in alternatives), lit
    if not alternatives:
        return False
    return alternatives[0][0] if alternatives[0] else None


def cell_of(literals, cell=None):
    """``cell.extend``, by default from ``Cell()``, of literals given as
    formulas; None when it empties."""
    lits = [canonical(lit) for lit in literals]
    if False in lits:
        return None
    return (Cell() if cell is None else cell).extend(
        [lit for lit in lits if lit is not None])


def coeff(term, v):
    """The coefficient of ``v`` in a linear term, 0 when it has none."""
    return dict(term.coeffs).get(v, 0)


def drop(term, v):
    """The linear term without its ``v`` summand."""
    return LinTerm(tuple((u, c) for u, c in term.coeffs if u != v), term.const)


def size(phi):
    """Node count of a state formula's tree, a shared node counted at each
    occurrence and quantifier prefixes counted per quantifier; each
    distinct node is visited once."""
    def step(f, recurse):
        extra = len(f.prefix) if isinstance(f, Quant) else 1
        return extra + sum(recurse(c) for c in children(f))

    return memo_walk(phi, step)


def _reassoc(phi):
    """Right-nest chains of the same binary connective, preserving order."""
    def step(f, recurse):
        if not isinstance(f, (AndF, OrF)):
            return map_children(f, recurse)
        ctor = AndF if isinstance(f, AndF) else OrF
        parts = []

        def flatten(g):
            if isinstance(g, ctor):
                flatten(g.lhs)
                flatten(g.rhs)
            else:
                parts.append(recurse(g))

        flatten(f)
        out = parts[-1]
        for p in reversed(parts[:-1]):
            out = ctor(p, out)
        return out

    return memo_walk(phi, step)


def canonical_shape(phi):
    """Shape of a state formula used for structural comparison: vacuous
    quantifiers dropped, prefixes merged, connective chains right-nested."""
    return _reassoc(merge_quantifiers(simplify_vacuous(phi)))


# ---------------------------------------------------------------------------
# merged quantifier prefixes and the normal-form predicate


def merge_quantifiers(phi):
    """Fuse nested quantifier nodes into maximal admissible prefixes."""
    def step(f, recurse):
        if isinstance(f, Quant):
            body = recurse(f.body)
            prefix = f.prefix
            while (isinstance(body, Quant)
                   and len(prefix) + len(body.prefix) <= 2
                   and {i for _, i in prefix}.isdisjoint(
                       i for _, i in body.prefix)):
                prefix = prefix + body.prefix
                body = body.body
            if prefix is f.prefix and body is f.body:
                return f
            return Quant(prefix, body)
        return map_children(f, recurse)

    return memo_walk(phi, step)


def is_normal_form(phi):
    """NF1: no universal y1 or existential y2 quantifiers anywhere.
    NF2: a strategic operator using a bound y1 (or y2) alone is directly
    under its binder, which is the innermost quantifier of that node.
    NF3: one using both is directly under E y1 A y2 or A y2 E y1.
    Nested quantifiers are merged (``merge_quantifiers``) first."""
    return is_merged_normal_form(merge_quantifiers(phi))


def is_merged_normal_form(phi):
    """``is_normal_form`` of a formula whose quantifiers are merged."""
    def step(f, recurse, bound, parent_prefix):
        if isinstance(f, Quant):
            if any(q in ((FORALL, 1), (EXISTS, 2)) for q in f.prefix):
                return False
            inner = f.prefix if isinstance(f.body, Coop) else None
            return recurse(f.body, bound | {i for _, i in f.prefix}, inner)
        if isinstance(f, Coop):
            b1 = f.t1 == Y1 and 1 in bound
            b2 = f.t2 == Y2 and 2 in bound
            if b1 and b2:
                placed = parent_prefix in (((EXISTS, 1), (FORALL, 2)),
                                           ((FORALL, 2), (EXISTS, 1)))
            elif b1 or b2:
                placed = bool(parent_prefix) and parent_prefix[-1] == (
                    (EXISTS, 1) if b1 else (FORALL, 2))
            else:
                placed = True
            return placed and recurse(f.objective, bound, None)
        return all(recurse(c, bound, None) for c in children(f))

    return memo_walk(phi, step, frozenset(), None)


# ---------------------------------------------------------------------------
# the normal form as it was built before ``nf`` became two walks: ``pqe``
# and ``push`` once per quantifier node, bottom-up, with a substitution of
# 0 into the objective per collapsed pattern; its output is neither merged
# nor free of vacuous quantifiers


def _reference_subst_term(phi, target, k):
    """Uniform substitution of the free occurrences of a term by a numeral."""
    replacement = Nat(k)

    def step(f, recurse):
        if isinstance(f, Coop):
            return Coop(replacement if f.t1 == target else f.t1,
                        replacement if f.t2 == target else f.t2,
                        recurse(f.objective))
        if (isinstance(f, Quant) and isinstance(target, AgentVar)
                and any(i == target.index for _, i in f.prefix)):
            return f
        return map_children(f, recurse)

    return memo_walk(phi, step)


def _reference_dual(prefix):
    return tuple((FORALL if q == EXISTS else EXISTS, i) for q, i in prefix)


def _reference_peel(phi):
    quants = []
    while isinstance(phi, Quant):
        quants.extend(phi.prefix)
        phi = phi.body
    return quants, phi


def _reference_rebuild(quants, core):
    out = core
    for q in reversed(quants):
        out = Quant((q,), out)
    return out


def reference_pqe(xi):
    zero = Nat(0)
    subst_term = _reference_subst_term

    def step(f, recurse):
        if not isinstance(f, Quant):
            return map_children(f, recurse)
        quants, core = _reference_peel(f)
        if len(quants) == 2 and isinstance(core, Coop) \
                and core.t1 == Y1 and core.t2 == Y2:
            pair = (quants[0], quants[1])
            chi = recurse(core.objective)
            if pair in (((FORALL, 1), (EXISTS, 2)), ((EXISTS, 2), (FORALL, 1))):
                chi = subst_term(subst_term(chi, Y1, 0), Y2, 0)
                return Coop(zero, zero, chi)
            if pair in (((FORALL, 1), (FORALL, 2)), ((FORALL, 2), (FORALL, 1))):
                return Quant(((FORALL, 2),),
                             Coop(zero, Y2, subst_term(chi, Y1, 0)))
            if pair in (((EXISTS, 1), (EXISTS, 2)), ((EXISTS, 2), (EXISTS, 1))):
                return Quant(((EXISTS, 1),),
                             Coop(Y1, zero, subst_term(chi, Y2, 0)))
        if len(quants) == 1 and isinstance(core, Coop):
            q = quants[0]
            if q == (FORALL, 1) and core.t1 == Y1:
                return Coop(zero, core.t2,
                            subst_term(recurse(core.objective), Y1, 0))
            if q == (EXISTS, 2) and core.t2 == Y2:
                return Coop(core.t1, zero,
                            subst_term(recurse(core.objective), Y2, 0))
        return Quant((quants[0],),
                     recurse(_reference_rebuild(quants[1:], core)))

    return memo_walk(xi, step)


def reference_push(prefix, xi):
    def step(xi, go, prefix):
        if isinstance(xi, NotF):
            return NotF(go(xi.arg, _reference_dual(prefix)))
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
            rest = xi.body if len(xi.prefix) == 1 \
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

    return memo_walk(xi, step, prefix)


def reference_nf(xi):
    def step(f, recurse):
        if isinstance(f, Quant):
            return reference_pqe(reference_push(f.prefix, recurse(f.body)))
        return map_children(f, recurse)

    return memo_walk(xi, step)


# ---------------------------------------------------------------------------
# the formula front end of the decision procedure: quantifiers anywhere in
# a formula, each block closed through ``qe._block`` and its cells turned
# back into a formula


def _close(phi, stats):
    """Eliminate all quantifiers bottom-up; result is quantifier-free.  An
    existential block's top-level conjuncts are closed one by one, and a
    universal block among them that shares no name with the rest becomes
    an adversary of ``_block`` instead of being eliminated."""
    if isinstance(phi, Exists):
        names, body = _quantifier_block(phi)
        taken = set(names) | free_vars(body)
        plain, games = [], []
        for part in body.args if isinstance(body, And) else (body,):
            if isinstance(part, Forall):
                ys, inner = _quantifier_block(part)
                if taken.isdisjoint(ys):
                    games.append((ys, _conjuncts(_close(inner, stats), True)))
                    continue
            plain.append(_close(part, stats))
        return _cells_formula(
            _block(names, _conjuncts(conj(plain), False), games, stats))
    if isinstance(phi, Forall):
        names, body = _quantifier_block(phi)
        return _cells_clauses(
            _block(names, _conjuncts(_close(body, stats), True), [], stats))
    if isinstance(phi, Not):
        return neg(_close(phi.arg, stats))
    if isinstance(phi, And):
        return conj(tuple(_close(a, stats) for a in phi.args))
    if isinstance(phi, Or):
        return disj(tuple(_close(a, stats) for a in phi.args))
    return phi


def _cells_formula(cells):
    """Disjunction of the cells, one conjunct per cell."""
    return disj(tuple(conj(tuple(cell.literals())) for cell in cells))


def _cells_clauses(cells):
    """Conjunction of the negated cells, one clause per cell."""
    return conj(tuple(disj(tuple(map(literal_formula, cell.clause())))
                      for cell in cells))


def eliminate_quantifiers(phi, stats=None):
    """Quantifier-free formula equivalent over N to ``phi``, with every
    quantifier relativised to >= 0.  Free variables stay free."""
    return simplify(_close(phi, QeStats() if stats is None else stats))


def decide_formula(phi):
    """Truth over N of a closed formula, all quantifiers relativised to
    >= 0."""
    fv = free_vars(phi)
    if fv:
        raise FreeVariableError(sorted(fv))
    result = eliminate_quantifiers(phi)
    assert result in (TRUE, FALSE), result
    return result == TRUE


def dnf_formulas(dnf):
    """Alternatives of canonical literals, each literal as a formula."""
    return [[literal_formula(lit) for lit in alt] for alt in dnf]


def np_eval(phi, arrays):
    """Evaluate a quantifier-free formula over numpy arrays of naturals."""
    if isinstance(phi, TrueF):
        return np.ones(np.broadcast(*arrays.values()).shape if arrays else (), bool)
    if isinstance(phi, FalseF):
        return np.zeros(np.broadcast(*arrays.values()).shape if arrays else (), bool)
    if isinstance(phi, AtomF):
        a = phi.atom
        total = np.int64(a.term.const)
        for v, c in a.term.coeffs:
            total = total + np.int64(c) * arrays[v]
        if a.kind == LT:
            return total < 0
        if a.kind == EQ:
            return total == 0
        if a.kind == DVD:
            return total % a.divisor == 0
        raise TypeError(a)
    if isinstance(phi, Not):
        return ~np_eval(phi.arg, arrays)
    if isinstance(phi, And):
        out = np_eval(phi.args[0], arrays)
        for sub in phi.args[1:]:
            out = out & np_eval(sub, arrays)
        return out
    if isinstance(phi, Or):
        out = np_eval(phi.args[0], arrays)
        for sub in phi.args[1:]:
            out = out | np_eval(sub, arrays)
        return out
    raise TypeError(phi)


def cooper_bound(phi, variables):
    """Enumeration bound: lcm of divisors and coefficients of the given
    variables, plus the largest absolute constant in the formula."""
    vset = set(variables)
    l = 1
    biggest = 0
    for a in atoms_of(phi):
        if a.kind == DVD:
            l = math.lcm(l, a.divisor)
        for v, c in a.term.coeffs:
            if v in vset and c != 0:
                l = math.lcm(l, abs(c))
        biggest = max(biggest, abs(a.term.const))
    return l + biggest


def enum_truth(block, names, matrix, bound):
    """Truth of ``block names . matrix`` with variables enumerated in 0..bound."""
    axis = np.arange(bound + 1, dtype=np.int64)
    if len(names) <= 2:
        grids = np.meshgrid(*[axis] * len(names), indexing="ij")
        sat = np_eval(matrix, dict(zip(names, grids))) if names else \
            np_eval(matrix, {})
        return bool(sat.any()) if block == "E" else bool(sat.all())
    inner = np.meshgrid(axis, axis, indexing="ij")
    for v0 in axis:
        arrays = {names[0]: np.int64(v0), names[1]: inner[0], names[2]: inner[1]}
        sat = np_eval(matrix, arrays)
        if block == "E" and sat.any():
            return True
        if block == "A" and not sat.all():
            return False
    return block == "A"


def checked_block_truth(block, names, matrix):
    """Enumeration verdict with bound escalation on disagreement.

    The base bound can be too small for chained multi-variable constraints,
    so when the symbolic decision disagrees the search is widened before the
    comparison counts as a failure.  Returns (oracle, symbolic, bound_used).
    """
    from hdmas.presburger import Exists, Forall

    closed = matrix
    for n in reversed(names):
        closed = Exists(n, closed) if block == "E" else Forall(n, closed)
    symbolic = decide_formula(closed)
    bound = cooper_bound(matrix, names)
    oracle = enum_truth(block, names, matrix, bound)
    used = bound
    if oracle != symbolic:
        for factor in (4, 16):
            used = bound * factor
            oracle = enum_truth(block, names, matrix, used)
            if oracle == symbolic:
                break
    return oracle, symbolic, used


def random_matrix(rng, names, max_coeff=5, max_const=20, atoms=3):
    ctors = [atom_lt, atom_le, atom_eq, atom_ge, atom_gt, atom_ne]
    parts = []
    for _ in range(atoms):
        t = LinTerm.make({n: rng.randint(-max_coeff, max_coeff) for n in names},
                         rng.randint(-max_const, max_const))
        parts.append(rng.choice(ctors)(t, num(0)))
    out = parts[0]
    for p in parts[1:]:
        out = conj((out, p)) if rng.random() < 0.5 else disj((out, p))
    if rng.random() < 0.3:
        out = neg(out)
    return out


# ---------------------------------------------------------------------------
# reference model checking: the per-state loop and the plain Kleene rounds


def verbatim_prf(model, state, t1, t2, targets):
    """The paper's per-state controllability formula, verbatim.

    Unlike ``build_prf`` it keeps one share quantifier per action, the
    idle shares ``k_eps``/``l_eps`` and equality-shaped sum constraints,
    with availability turned into constant implications.
    """
    grd = guard_union(model, state, targets)
    t1_term = var(t1) if isinstance(t1, str) else num(t1)
    t2_term = var(t2) if isinstance(t2, str) else num(t2)
    available = model.avail[state]
    names = list(model.table.actions)
    ks = [f"k_{n}" for n in names]
    ls = [f"l_{n}" for n in names]
    shifted = grd
    for a, k, l in zip(names, ks, ls):
        shifted = substitute(shifted, model.table.counter(a),
                             var(k).add(var(l)))

    def availability(shares):
        return conj(tuple(implies(atom_ne(var(x), 0),
                                  TRUE if a in available else FALSE)
                          for a, x in zip(names, shares)))

    k_sum = var("k_eps")
    for k in ks:
        k_sum = k_sum.add(var(k))
    l_sum = var("l_eps")
    for l in ls:
        l_sum = l_sum.add(var(l))
    inner = implies(conj((availability(ls), atom_eq(l_sum, t2_term))), shifted)
    for l in reversed(ls + ["l_eps"]):
        inner = Forall(l, inner)
    body = conj((availability(ks), atom_eq(k_sum, t1_term), inner))
    for k in reversed(ks + ["k_eps"]):
        body = Exists(k, body)
    return body


def sequential_prf(model, state, t1, t2, targets):
    """``build_prf`` with one ``substitute`` walk per counter, as it was
    built before all counters were substituted in one walk."""
    grd = guard_union(model, state, targets)
    t1_term = var(t1) if isinstance(t1, str) else num(t1)
    t2_term = var(t2) if isinstance(t2, str) else num(t2)
    counters = [c for c in model.counters_at(state)
                if c != IDLE_COUNTER and c in free_vars(grd)]
    ks = [_share("k", c.lstrip("#")) for c in counters]
    ls = [_share("l", c.lstrip("#")) for c in counters]
    shifted = grd
    for c, k, l in zip(counters, ks, ls):
        shifted = substitute(shifted, c, var(k).add(var(l)))
    k_sum = num(0)
    for k in ks:
        k_sum = k_sum.add(var(k))
    l_sum = num(0)
    for l in ls:
        l_sum = l_sum.add(var(l))
    inner = implies(atom_le(l_sum, t2_term), shifted)
    for l in reversed(ls):
        inner = Forall(l, inner)
    body = conj((atom_le(k_sum, t1_term), inner))
    for k in reversed(ks):
        body = Exists(k, body)
    return simplify(body)


def built_prf(model, state, t1, t2, targets):
    """The formula of ``build_prf``'s game."""
    return build_prf(model, state, t1, t2, targets).formula()


def reference_pre_image(model, t1, t2, targets, theta, pfix, decisions,
                        build=built_prf):
    """Pre-image by building with ``build`` and deciding every state's
    formula afresh.

    ``decisions`` memoises verdicts on the built formula across calls.
    """
    r1 = _resolve_term(t1, theta, pfix)
    r2 = _resolve_term(t2, theta, pfix)
    out = 0
    for i, s in enumerate(model.states):
        phi = build(model, s, r1, r2, targets)
        for q, y in reversed(pfix):
            phi = Exists(f"y{y}", phi) if q == EXISTS else Forall(f"y{y}", phi)
        if phi not in decisions:
            decisions[phi] = decide_formula(phi)
        if decisions[phi]:
            out |= 1 << i
    return out


def reference_g_fixpoint(model, t1, t2, targets, theta, pfix, decisions):
    """Greatest fixpoint with every state re-examined each round."""
    w, z = model.all_states(), targets
    trace = [z]
    while w & ~z:
        w = z
        z = reference_pre_image(model, t1, t2, w, theta, pfix, decisions) & targets
        trace.append(z)
    return z, trace


def reference_u_fixpoint(model, t1, t2, q1, q2, theta, pfix, decisions):
    """Least fixpoint with every state re-examined each round."""
    w, z = 0, q2
    trace = [z]
    while z & ~w:
        w = z
        z = q2 | (reference_pre_image(model, t1, t2, w, theta, pfix,
                                      decisions) & q1)
        trace.append(z)
    return z, trace


def ring_text(n, broken=None):
    """Ring of n states: ``s_i`` moves on to ``s_{i+1 mod n}`` when
    ``#a > #b`` and stays otherwise; ``goal`` labels the last state.
    ``broken`` maps a state index to a guard text replacing its ``else``."""
    broken = broken or {}
    lines = ["actions a b;", "props goal;"]
    for i in range(n):
        label = "goal" if i == n - 1 else ""
        lines.append(f"state s{i} {{ avail: a b; label: {label}; }}")
    for i in range(n):
        lines.append(f"guard s{i} -> s{(i + 1) % n} : #a > #b;")
        lines.append(f"guard s{i} -> s{i} : {broken.get(i, 'else')};")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# reference well-formedness check: every ordered pair of states per source


def reference_check_wellformed(model):
    """The all-pairs check that ``check_wellformed`` replaced, with the same
    witness routine.

    Its determinism table has an entry for every ordered pair of distinct
    states per source state, ok where either guard is missing.
    """
    report = WellformednessReport()
    for s in model.states:
        report.idle[s] = CheckOutcome(IDLE in model.avail[s])

        legal = set(model.counters_at(s)) - {IDLE_COUNTER}
        offending = []
        for dst, g in model.edges_from(s):
            extra = free_vars(g) - legal
            if extra or not is_quantifier_free(g):
                offending.append((dst, sorted(extra)))
        report.scoping[s] = CheckOutcome(not offending, detail=str(offending))
        if offending:
            # the arithmetic checks below would be meaningless
            report.totality[s] = CheckOutcome(False, detail="skipped: bad scoping")
            continue

        counters = tuple(c for c in model.counters_at(s) if c != IDLE_COUNTER)
        union = guard_union(model, s, model.all_states())
        witness = least_point(neg(union), counters)
        report.totality[s] = CheckOutcome(witness is None, witness=witness)

        for i, d1 in enumerate(model.states):
            for d2 in model.states[i + 1:]:
                g1 = model.guards.get((s, d1))
                g2 = model.guards.get((s, d2))
                if g1 is None or g2 is None:
                    outcome = CheckOutcome(True)
                else:
                    witness = least_point(conj((g1, g2)), counters)
                    outcome = CheckOutcome(witness is None, witness=witness)
                report.determinism[(s, d1, d2)] = outcome
                report.determinism[(s, d2, d1)] = outcome
    return report


# ---------------------------------------------------------------------------
# generated models and concrete formulas for differential testing


def _random_guard_atom(rng, counters):
    def side():
        picked = rng.sample(counters, rng.randint(1, min(2, len(counters))))
        return " + ".join(f"{rng.randint(1, 2)}*{c}" for c in picked)

    rhs = side() if rng.random() < 0.4 else str(rng.randint(0, 4))
    return f"{side()} {rng.choice(['<', '<=', '>', '>=', '=', '!='])} {rhs}"


def _symmetric_in_clone(atom, rng):
    """A guard symmetric in ``#c`` and ``#c2`` built from an atom over
    ``#c``: the atom joined with its copy over ``#c2``."""
    if "#c" not in atom:
        return atom
    return f"({atom}) {rng.choice(['&&', '||'])} ({atom.replace('#c', '#c2')})"


def random_model_text(rng, clone=False):
    """A small well-formed model: 2-4 states over 2-3 actions.

    Each state has 1-3 outgoing guards over the counters of its available
    actions.  Each explicit guard excludes the ones before it and the last
    is ``else``, so the guards of a state are total and pairwise disjoint
    by construction.

    With ``clone``, the actions are ``a``, ``b``, ``c`` and ``c2``, a copy
    of ``c``: available where ``c`` is, with every guard symmetric in
    ``#c`` and ``#c2``, so swapping the two is a symmetry of every state.
    """
    actions = ["a", "b", "c"] if clone else ["a", "b", "c"][:rng.randint(2, 3)]
    n = rng.randint(2, 4)
    avail = [rng.sample(actions, rng.randint(1, len(actions))) for _ in range(n)]
    if clone:
        actions = actions + ["c2"]
        avail = [a + ["c2"] if "c" in a else a for a in avail]
    lines = [f"actions {' '.join(actions)};", "props p q;"]
    for i in range(n):
        label = " ".join(x for x in "pq" if rng.random() < 0.5)
        lines.append(f"state s{i} {{ avail: {' '.join(avail[i])}; label: {label}; }}")
    for i in range(n):
        counters = [f"#{a}" for a in avail[i] if a != "c2"]
        dests = rng.sample(range(n), rng.randint(1, min(3, n)))
        earlier: list[str] = []
        for d in dests[:-1]:
            atom = _random_guard_atom(rng, counters)
            if clone:
                atom = _symmetric_in_clone(atom, rng)
            guard = " && ".join([f"({atom})"] + [f"!({e})" for e in earlier])
            earlier.append(atom)
            lines.append(f"guard s{i} -> s{d} : {guard};")
        lines.append(f"guard s{i} -> s{dests[-1]} : else;")
    return "\n".join(lines) + "\n"


def random_concrete_formula(rng, depth=2):
    """A state formula whose strategic operators have concrete counts 0..3
    and X, G or U objectives."""
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        leaf = rng.choice([Prop("p"), Prop("q"), Top()])
        return NotF(leaf) if rng.random() < 0.3 else leaf
    if roll < 0.45:
        pick = AndF if rng.random() < 0.5 else OrF
        return pick(random_concrete_formula(rng, depth - 1),
                    random_concrete_formula(rng, depth - 1))
    body = random_concrete_formula(rng, depth - 1)
    kind = rng.random()
    if kind < 0.35:
        objective = Next(body)
    elif kind < 0.65:
        objective = Globally(body)
    else:
        objective = Until(random_concrete_formula(rng, depth - 1), body)
    coop = Coop(Nat(rng.randint(0, 3)), Nat(rng.randint(0, 3)), objective)
    return NotF(coop) if rng.random() < 0.25 else coop


# ---------------------------------------------------------------------------
# reference lexer: one character at a time, symbols tried in order


_REF_SYMBOLS = ("<->", "<<", ">>", "->", "&&", "||", "<=", ">=", "!=",
                "{", "}", "(", ")", ";", ":", ",", "=", "<", ">", "!",
                "&", "|", "*", "+")


def reference_tokenize(text):
    """``(kind, text, line, col)`` of each token, ending in ``eof``; for a
    lexical error only ``("error", message, line, col)``."""
    out = []
    line, col, i, n = 1, 1, 0, len(text)

    def span(chars, start):
        j = start
        while j < n and text[j] in chars:
            j += 1
        return j

    letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_"
    digits = "0123456789"
    while i < n:
        ch = text[i]
        if ch == "\n":
            line, col, i = line + 1, 1, i + 1
            continue
        if ch in " \t\r":
            i, col = i + 1, col + 1
            continue
        if ch == "#":
            if i + 1 < n and text[i + 1] in letters:
                j = span(letters + digits, i + 1)
                out.append(("counter", text[i + 1:j], line, col))
                col += j - i
                i = j
                continue
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch in digits:
            j = span(digits, i)
            out.append(("nat", text[i:j], line, col))
            col, i = col + j - i, j
            continue
        if ch in letters:
            j = span(letters + digits, i)
            out.append(("name", text[i:j], line, col))
            col, i = col + j - i, j
            continue
        for sym in _REF_SYMBOLS:
            if text.startswith(sym, i):
                out.append(("sym", sym, line, col))
                col, i = col + len(sym), i + len(sym)
                break
        else:
            return [("error", f"unexpected character {ch!r}", line, col)]
    out.append(("eof", "", line, col))
    return out
