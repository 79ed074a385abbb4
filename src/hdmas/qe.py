"""Deciding truth of Presburger formulas over the naturals.

The procedure is quantifier elimination over the integers with every
quantified variable relativised by ``var >= 0``.  Elimination runs
innermost-first, one block of same-kind quantifiers at a time, through
cells (window maps plus divisibility literals, see ``presburger``).  An
existential block expands its body into cells depth-first, splitting one
conjunct at a time as DPLL(T) case splitting does, closes at once when a
cell over block variables only is satisfiable, and then eliminates its
variables cell by cell, cheapest first.  A universal block is eliminated
existentially on its negated body and returns the negated cells as
clauses, which the enclosing block expands lazily.

A variable is eliminated on the cell itself: an equality on it is pivoted
away and bound pairs are combined into windows, in the manner of the
Omega test, with Cooper elimination as the one fallback for a cell where
the variable occurs in a divisibility literal, and for a block whose
cells pass a size cap.  Every cell carries an interval per variable that
holds all its points; a new cell, in the expansion or in a projection,
propagates it only from the windows that changed, and is dropped when an
interval empties.  Simplification happens once per block, on its input,
and once on the final result (``eliminate_quantifiers``).

The caller may offer variable renamings that it expects to be symmetries
of the formula, such as the engine's permutations of interchangeable
actions.  A block uses a renaming only when it maps the block variables
onto themselves and the block's cell set onto itself, a check that is
exact for that block, so a wrong offer never changes a result.  The block
then eliminates one representative cell per orbit of the renamings and
closes the result cells under them; the closure is the union of the
images of the representatives' results, which is the result of the
whole cell set (Emerson & Sistla, "Symmetry and model checking", 1996).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional

from .presburger import (_OPEN, DVD, EQ, FALSE, LT, TRUE, And, Atom, AtomF,
                         Exists, FalseF, Forall, FreeVariableError, Implies,
                         LinTerm, Not, Or, PresFormula, QuantifiedInput, TrueF,
                         _cell_extend, _cell_literals, _fold_atom, _narrow,
                         _window_add, atom_dvd, atom_ge, atoms_of,
                         conj, disj, free_vars, implies, is_quantifier_free,
                         neg, num, simplify, substitute, to_nnf, var)


@dataclass
class QeStats:
    """Observability counters for a run of the decision procedure."""

    eliminated: int = 0
    peak_divisor_lcm: int = 1
    peak_atoms: int = 0
    elapsed: float = 0.0
    # blocks that hit a cell cap and went to Cooper elimination whole
    cap_fallbacks: int = 0
    # existential blocks closed by a satisfiable leaf over block variables
    early_exits: int = 0
    # cells eliminated as orbit representatives, and the cells they stand for
    orbit_reps: int = 0
    orbit_cells: int = 0

    def to_json(self) -> dict:
        return {
            "eliminated_quantifiers": self.eliminated,
            "peak_divisor_lcm": self.peak_divisor_lcm,
            "peak_atom_count": self.peak_atoms,
            "elapsed_seconds": self.elapsed,
            "cap_fallbacks": self.cap_fallbacks,
            "early_exits": self.early_exits,
            "orbit_reps": self.orbit_reps,
            "orbit_cells": self.orbit_cells,
        }


# Renamings of variables, each a permutation listing the variables it
# moves, that the caller expects to map the formula to an equal one.
Symmetry = tuple[Mapping[str, str], ...]


def eliminate_exists(v: str, phi: PresFormula,
                     stats: Optional[QeStats] = None) -> PresFormula:
    """Quantifier-free formula equivalent over N to ``exists v >= 0. phi``.

    The result may contain divisibility atoms.
    """
    if not is_quantifier_free(phi):
        raise QuantifiedInput("eliminate_exists needs a quantifier-free body")
    return simplify(_block([v], phi, stats, negate=False))


def eliminate_quantifiers(phi: PresFormula, stats: Optional[QeStats] = None,
                          symmetry: Symmetry = ()) -> PresFormula:
    """Quantifier-free formula equivalent over N to ``phi``, with every
    quantifier relativised to >= 0.  Free variables stay free.

    ``symmetry`` offers renamings to eliminate one cell per orbit with;
    each block checks them on its own cells, so they need not hold.
    """
    return simplify(_close(rename_apart(phi), stats, symmetry))


def decide(phi: PresFormula, stats: Optional[QeStats] = None,
           symmetry: Symmetry = ()) -> bool:
    """Truth over N of a closed formula, all quantifiers relativised to >= 0."""
    fv = free_vars(phi)
    if fv:
        raise FreeVariableError(sorted(fv))
    started = time.perf_counter()
    result = eliminate_quantifiers(phi, stats, symmetry)
    if stats is not None:
        stats.elapsed += time.perf_counter() - started
    if isinstance(result, TrueF):
        return True
    if isinstance(result, FalseF):
        return False
    raise AssertionError("closed formula did not reduce to a constant")


def is_valid(phi: PresFormula, variables: Iterable[str],
             stats: Optional[QeStats] = None) -> bool:
    """Whether a quantifier-free formula holds for every assignment over N."""
    closed: PresFormula = phi
    for v in sorted(set(variables) | set(free_vars(phi)), reverse=True):
        closed = Forall(v, closed)
    return decide(closed, stats)


def cooper_bound(phi: PresFormula, variables: Iterable[str]) -> int:
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


def rename_apart(phi: PresFormula) -> PresFormula:
    """Alpha-rename so no bound variable is repeated or shadows a free one."""
    used = set(free_vars(phi))
    counter = [0]

    def fresh(name: str) -> str:
        candidate = name
        while candidate in used:
            counter[0] += 1
            candidate = f"{name}~{counter[0]}"
        used.add(candidate)
        return candidate

    def walk(f: PresFormula, env: dict[str, str]) -> PresFormula:
        if isinstance(f, (TrueF, FalseF)):
            return f
        if isinstance(f, AtomF):
            t = f.atom.term
            if not any(v in env for v in t.vars()):
                return f
            return AtomF(Atom(f.atom.kind, t.rename(env), f.atom.divisor))
        if isinstance(f, Not):
            return Not(walk(f.arg, env))
        if isinstance(f, And):
            return And(tuple(walk(a, env) for a in f.args))
        if isinstance(f, Or):
            return Or(tuple(walk(a, env) for a in f.args))
        if isinstance(f, Implies):
            return Implies(walk(f.lhs, env), walk(f.rhs, env))
        if isinstance(f, (Exists, Forall)):
            name = fresh(f.var)
            env2 = dict(env)
            env2[f.var] = name
            body = walk(f.body, env2)
            return Exists(name, body) if isinstance(f, Exists) else Forall(name, body)
        raise TypeError(f)

    return walk(phi, {})


# ---------------------------------------------------------------------------
# quantifier structure


def _close(phi: PresFormula, stats: Optional[QeStats],
           symmetry: Symmetry) -> PresFormula:
    """Eliminate all quantifiers bottom-up; result is quantifier-free."""
    if isinstance(phi, (Exists, Forall)):
        kind = type(phi)
        names = [phi.var]
        body = phi.body
        while isinstance(body, kind):
            names.append(body.var)
            body = body.body
        return _block(names, _close(body, stats, symmetry), stats,
                      negate=kind is Forall, symmetry=symmetry)
    if isinstance(phi, Not):
        return neg(_close(phi.arg, stats, symmetry))
    if isinstance(phi, And):
        return conj(tuple(_close(a, stats, symmetry) for a in phi.args))
    if isinstance(phi, Or):
        return disj(tuple(_close(a, stats, symmetry) for a in phi.args))
    if isinstance(phi, Implies):
        return implies(_close(phi.lhs, stats, symmetry),
                       _close(phi.rhs, stats, symmetry))
    return phi


def _block(names: list[str], phi: PresFormula, stats: Optional[QeStats],
           negate: bool, symmetry: Symmetry = ()) -> PresFormula:
    """Quantifier-free equivalent of ``exists names. phi``, or of
    ``forall names. phi`` when ``negate``, for quantifier-free ``phi``.

    The body is simplified once on the way in; the result is left for the
    consumer (an enclosing block or ``eliminate_quantifiers``) to simplify.
    When a cell cap is hit the block is eliminated by Cooper's procedure
    instead, one variable at a time on the whole (negated) body.
    """
    body = simplify(to_nnf(neg(phi) if negate else phi))
    cells, boxes = _expand_depth_first(names, body, stats) or (None, None)
    if cells is not None:
        cells = _project_cells(names, _cells_prune_reps(cells), boxes, stats,
                               symmetry)
    if stats is not None:
        stats.eliminated += len(names)
    if cells is not None:
        return _reps_clauses(cells) if negate else _reps_formula(cells)
    if stats is not None:
        stats.cap_fallbacks += 1
    for v in names:
        body = _cooper(v, conj((body, atom_ge(var(v), 0))), stats)
        if stats is not None:
            stats.peak_atoms = max(stats.peak_atoms, len(atoms_of(body)))
    return to_nnf(neg(body)) if negate else body


# ---------------------------------------------------------------------------
# cells
#
# The cells of a block are deduplicated and subsumption-pruned globally
# after the expansion and after every eliminated variable, which keeps
# alternating prefixes tractable.

_CELL_CAP = 30_000
# nodes the depth-first expansion may visit before giving up
_NODE_CAP = 10 * _CELL_CAP


def _negated_literals(lit: PresFormula) -> list[PresFormula]:
    """Literals whose disjunction is the complement of one folded literal.
    A folded bound has coprime coefficients, and so has each atom here,
    which is therefore folded too."""
    if isinstance(lit, Not):
        return [lit.arg]
    a = lit.atom                                           # type: ignore[union-attr]
    if a.kind == LT:
        # not (t < 0)  iff  -t - 1 < 0
        return [AtomF(Atom(LT, a.term.scale(-1).shift(-1)))]
    if a.kind == EQ:
        return [AtomF(Atom(LT, a.term)), AtomF(Atom(LT, a.term.scale(-1)))]
    return [Not(lit)]


def _blocking_literal(alt: list[PresFormula]) -> Optional[PresFormula]:
    """Complement of an alternative that is one literal over one variable,
    when that complement is itself a literal."""
    if len(alt) != 1:
        return None
    lit = alt[0]
    if len(_literal_atom(lit).term.coeffs) != 1:
        return None
    negated = _negated_literals(lit)
    return negated[0] if len(negated) == 1 else None


def _cell_vars(windows: dict, divs: frozenset) -> set[str]:
    out = {v for part in windows for v, _ in part}
    for d in divs:
        out |= _literal_atom(d).term.vars()
    return out


def _open_conjuncts(cell: tuple, pending: list) -> Optional[list]:
    """Live alternatives of each conjunct the cell does not entail; None
    when some conjunct has none left."""
    windows, divs = cell
    out = []
    for alts in pending:
        live = []
        for alt in alts:
            ext = _cell_extend(windows, divs, alt)
            if ext == cell:
                break
            if ext is not None:
                live.append(alt)
        else:
            if not live:
                return None
            out.append(live)
    return out


def _expand_depth_first(names: list[str], body: PresFormula,
                        stats: Optional[QeStats]) -> Optional[tuple[dict, dict]]:
    """Cells of ``body`` for the existential block over ``names``, and the
    box of each (see ``_propagate``).

    Walks the conjuncts depth-first, each with its own DNF as the
    alternatives, in the style of DPLL(T) case splitting: a conjunct the
    cell entails is skipped, an alternative that empties the cell is
    dropped, the conjunct with the fewest live alternatives is split
    first, and after a one-literal one-variable alternative its complement
    joins the cell for the alternatives after it.  A node takes its
    parent's box and propagates it from the windows that changed.  Returns
    the leaves; only the empty cell when a leaf over block variables only
    is satisfiable, since the block then holds whatever the free variables
    are; None when a cap is hit.
    """
    conjuncts = []
    for child in (body.args if isinstance(body, And) else (body,)):
        alts = _to_dnf(child, _CELL_CAP)
        if alts is None:
            return None
        conjuncts.append(alts)
    block = set(names)
    leaves: dict = {}
    boxes: dict = {}
    stack = [(({}, frozenset()), dict.fromkeys(names, (0, None)), (), conjuncts)]
    visited = 0
    while stack:
        visited += 1
        if visited > _NODE_CAP:
            return None
        cell, box, changed, pending = stack.pop()
        box = _propagate(cell[0], box, changed)
        if box is None:
            continue
        open_ = _open_conjuncts(cell, pending)
        if open_ is None:
            continue
        windows, divs = cell
        if not open_:
            key = _cell_key(windows, divs)
            if _cell_vars(windows, divs) <= block:
                projected = _exists_block_reps(names, {key: cell}, stats,
                                               {key: box})
                if projected is None:
                    return None
                if projected:
                    if stats is not None:
                        stats.early_exits += 1
                    return {_cell_key({}, frozenset()): ({}, frozenset())}, {}
                continue
            leaves.setdefault(key, cell)
            boxes.setdefault(key, box)
            if len(leaves) > _CELL_CAP:
                return None
            continue
        split = min(range(len(open_)), key=lambda i: len(open_[i]))
        rest = open_[:split] + open_[split + 1:]
        children = []
        for alt in open_[split]:
            ext = _cell_extend(windows, divs, alt)
            if ext is not None:
                children.append((ext, box, _changed(cell[0], ext[0]), rest))
            blocking = _blocking_literal(alt)
            if blocking is not None:
                grown = _cell_extend(windows, divs, [blocking])
                if grown is None:
                    break
                windows, divs = grown
        stack.extend(reversed(children))
    return leaves, boxes


def _cheapest(names: list[str], cells: Iterable[tuple]) -> str:
    """The variable of ``names`` cheapest to eliminate over the cells, in
    one pass: one that an equality with a unit coefficient pivots away,
    then the least lcm of its coefficients, then the fewest literals that
    mention it; the first in ``names`` among equals."""
    cost = {v: [1, 1, 0] for v in names}
    for windows, divs in cells:
        literals = [(part, 3 - window.count(None), window[2] is not None)
                    for part, window in windows.items()]
        literals += [(_literal_atom(d).term.coeffs, 1, False) for d in divs]
        for part, count, equality in literals:
            for u, c in part:
                entry = cost.get(u)
                if entry is not None:
                    if equality and abs(c) == 1:
                        entry[0] = 0
                    entry[1] = math.lcm(entry[1], abs(c))
                    entry[2] += count
    return min(names, key=cost.__getitem__)


def _part_coeff(part: tuple, v: str) -> int:
    for u, c in part:
        if u == v:
            return c
    return 0


def _exists_block_reps(names: list[str], reps: dict, stats: Optional[QeStats],
                       boxes: dict) -> Optional[dict]:
    """Cells of ``exists names`` over the cells ``reps``, one variable at
    a time, cheapest first; a cell without the variable is kept as it is.
    A cell's box comes from ``boxes`` by key, or is propagated afresh for
    a cell that has none (one made by merging)."""
    remaining = list(names)
    while remaining:
        v = _cheapest(remaining, reps.values())
        naturals = dict.fromkeys(remaining, (0, None))
        remaining.remove(v)
        nxt: dict = {}
        nxt_boxes: dict = {}
        for key, cell in reps.items():
            box = boxes.get(key)
            if box is None:
                box = _propagate(cell[0], naturals, cell[0])
                if box is None:
                    continue
            projected: Optional[list] = [(cell, box)]
            if v in _cell_vars(*cell):
                projected = _project(v, cell, box, stats)
                if projected is None:
                    return None
            for new, new_box in projected:
                new_key = _cell_key(*new)
                if new_key not in nxt:
                    nxt[new_key] = new
                    nxt_boxes[new_key] = new_box
            if len(nxt) > _CELL_CAP:
                return None
        reps = _cells_prune_reps(nxt) if len(nxt) > 1 else nxt
        boxes = nxt_boxes
        if stats is not None:
            stats.peak_atoms = max(stats.peak_atoms,
                                   sum(len(w) * 2 + len(d)
                                       for w, d in reps.values()))
    return reps


# ---------------------------------------------------------------------------
# projection on cells, after the Omega test (Pugh, CACM 1992); a cell's box
# is an inclusive interval per variable, None unbounded, holding its points

# visits per window one propagation may make: bounds can climb forever on
# a cycle of windows, and past the budget the box is sound but not final
_ROUNDS = 32
_FREE = (None, None)


def _changed(old: dict, new: dict) -> list:
    return [part for part, window in new.items() if old.get(part) != window]


def _propagate(windows: dict, box: dict, todo: Iterable) -> Optional[dict]:
    """``box`` narrowed by interval propagation over the windows from the
    parts in ``todo``, None when an interval empties: a part's variable
    lies in its window minus the other terms' range, and one that narrows
    queues the parts that mention it.  Sound over the integers; a fixed
    point does not depend on the parts it started from."""
    queue = list(todo)
    if not queue:
        return box
    box, queued = dict(box), set(queue)
    budget = _ROUNDS * len(windows)
    for part in queue:
        queued.discard(part)
        budget -= 1
        if budget < 0:
            break
        lo, hi, eq = windows[part]
        if eq is not None:
            lo, hi = eq - 1, eq + 1
        terms = []                     # (u, c, least and most of c*u)
        least_sum = most_sum = least_open = most_open = 0
        for u, c in part:
            a, b = box.get(u, _FREE)[::1 if c > 0 else -1]
            if a is None:
                least_open += 1
            else:
                a *= c
                least_sum += a
            if b is None:
                most_open += 1
            else:
                b *= c
                most_sum += b
            terms.append((u, c, a, b))
        # a side of the window narrows a term only when the other terms
        # are bounded the other way, and the box does not imply it already
        bounded = most_open == least_open == 0
        if lo is not None and (most_open > 1 or bounded and lo < least_sum):
            lo = None
        if hi is not None and (least_open > 1 or bounded and hi > most_sum):
            hi = None
        if lo is None and hi is None:
            continue
        narrowed = set()
        for u, c, t_least, t_most in terms:
            # c*u lies in [lo + 1 - most of the rest, hi - 1 - least of it]
            at_least = at_most = None
            if lo is not None and (t_most is None) == (most_open == 1):
                at_least = lo + 1 - most_sum + (t_most or 0)
            if hi is not None and (t_least is None) == (least_open == 1):
                at_most = hi - 1 - least_sum + (t_least or 0)
            if c < 0:
                at_least, at_most = at_most, at_least
            a, b = old = box.get(u, _FREE)
            if at_least is not None and (a is None or -(-at_least // c) > a):
                a = -(-at_least // c)
            if at_most is not None and (b is None or at_most // c < b):
                b = at_most // c
            if (a, b) == old:
                continue
            if a is not None and b is not None and a > b:
                return None
            box[u] = (a, b)
            narrowed.add(u)
        for p in windows if narrowed else ():
            if p not in queued and any(u in narrowed for u, _ in p):
                queued.add(p)
                queue.append(p)
    return box


def _without(part: tuple, v: str) -> tuple:
    return tuple(p for p in part if p[0] != v)


def _combine(*terms: tuple) -> tuple:
    """Sorted non-zero coefficient pairs of ``sum(k * part)`` over the
    ``(part, k)`` terms."""
    acc: dict = {}
    for part, k in terms:
        for u, c in part:
            acc[u] = acc.get(u, 0) + k * c
    return tuple(sorted((u, c) for u, c in acc.items() if c))


def _project(v: str, cell: tuple, box: dict,
             stats: Optional[QeStats]) -> Optional[list]:
    """Cells whose union is ``exists v >= 0`` of the cell, each with its
    box; None when the Cooper fallback passes the cell cap."""
    windows, divs = cell
    unit = ((v, 1),)
    natural = _window_add(windows.get(unit, _OPEN), 0, -1)
    if natural is None:
        return []
    # a merge may leave a window with no bound; it states nothing
    windows = {p: w for p, w in windows.items() if w != _OPEN}
    windows[unit] = natural
    eqs = [p for p, w in windows.items() if w[2] is not None and _part_coeff(p, v)]
    if any(_literal_atom(d).term.coeff(v) for d in divs):
        cells = _cooper_cell(v, windows, divs, stats)
        if cells is None:
            return None
    elif eqs:
        cells = [_pivot(v, windows, divs, min(eqs), windows[min(eqs)][2])]
    else:
        cells = _shadow(v, windows, divs)
    boxed = [(new, _propagate(new[0], box, _changed(cell[0], new[0])))
             for new in cells if new is not None]
    return [(new, new_box) for new, new_box in boxed if new_box is not None]


def _pivot(v: str, windows: dict, divs: frozenset, eq_part: tuple,
           e: int) -> Optional[tuple]:
    """The cell without ``v``, by the equality ``eq_part = e``: with ``c*v
    + R = e``, each window on ``v`` is scaled by ``|c|`` and its ``|c|*v``
    replaced by ``sign(c)*(e - R)``, and the divisibility ``|c| | e - R``
    keeps ``v`` integral.  None when the cell empties."""
    c = _part_coeff(eq_part, v)
    scale, sign = abs(c), (1 if c > 0 else -1)
    rest = _without(eq_part, v)
    out = {p: w for p, w in windows.items() if not _part_coeff(p, v)}
    for part, window in windows.items():
        a = _part_coeff(part, v)
        if not a:
            continue
        q = _combine((_without(part, v), scale), (rest, -a * sign))
        for side, bound in enumerate(window):
            if bound is not None and not _narrow(out, q, side,
                                                 scale * bound - a * sign * e):
                return None
    return _cell_extend(out, divs, [_fold_atom(Atom(DVD, LinTerm(rest, -e),
                                                    scale))])


def _shadow(v: str, windows: dict, divs: frozenset) -> list:
    """``exists v`` of a cell whose constraints on ``v`` are all bounds:
    the dark shadow ``a*U - b*L >= (a-1)*(b-1)`` of each pair ``a*v >=
    L``, ``b*v <= U`` (exact Fourier-Motzkin when ``a`` or ``b`` is 1),
    plus the equality splinters ``a*v = L + k`` for the solutions that hug
    a lower bound."""
    lowers, uppers = [], []    # (a, part, sign, const): sign*part + const
    for part, (lo, hi, _) in sorted(windows.items()):
        c = _part_coeff(part, v)
        rest = _without(part, v)
        # c*v <= hi - 1 - R and c*v >= lo + 1 - R
        for bound, upper, shift in ((hi, True, -1), (lo, False, 1)):
            if c and bound is not None:
                (uppers if upper == (c > 0) else lowers).append(
                    (c, rest, -1, bound + shift) if c > 0
                    else (-c, rest, 1, -bound - shift))
    dark = {p: w for p, w in windows.items() if not _part_coeff(p, v)}
    cells = [(dark, divs)] if all(
        _narrow(dark, _combine((u_part, a * u_sign), (l_part, -b * l_sign)), 0,
                (a - 1) * (b - 1) - 1 - a * u_const + b * l_const)
        for a, l_part, l_sign, l_const in lowers
        for b, u_part, u_sign, u_const in uppers) else []
    b_max = max((b for b, *_ in uppers), default=1)
    for a, l_part, l_sign, l_const in lowers:
        for k in range((a * b_max - a - b_max) // b_max + 1):
            eq: dict = {}
            if _narrow(eq, _combine((((v, a),), 1), (l_part, -l_sign)), 2,
                       l_const + k):
                (eq_part, (_, _, e)), = eq.items()
                cells.append(_pivot(v, windows, divs, eq_part, e))
    return cells


def _cooper_cell(v: str, windows: dict, divs: frozenset,
                 stats: Optional[QeStats]) -> Optional[list]:
    """The fallback: Cooper elimination of ``v`` from the literals that
    mention it, the rest of the cell kept; None past the cell cap."""
    inside = {p: w for p, w in windows.items() if _part_coeff(p, v)}
    mention = frozenset(d for d in divs if _literal_atom(d).term.coeff(v))
    alts = _to_dnf(_cooper(v, conj(_cell_literals(inside, mention)), stats),
                   _CELL_CAP)
    if alts is None:
        return None
    outside = {p: w for p, w in windows.items() if p not in inside}
    return [_cell_extend(outside, divs - mention, alt) for alt in alts]


# ---------------------------------------------------------------------------
# orbits
#
# A renaming g that maps the block variables onto themselves and the cell
# set onto itself commutes with the block: exists names. g(C) is
# g(exists names. C).  So the result of the block is the union, over the
# group the accepted renamings generate, of the images of the results of
# one representative cell per orbit, and the closure of those results
# under the generators is exactly that union.


def _rename_cell(cell: tuple, g: Mapping[str, str]) -> tuple:
    """A cell with its variables renamed, renaming the window parts
    directly; a part whose leading coefficient turns negative is negated
    and its window mirrored."""
    windows, divs = cell
    out = {}
    for part, window in windows.items():
        if any(v in g for v, _ in part):
            part = tuple(sorted((g.get(v, v), c) for v, c in part))
            if part[0][1] < 0:
                part = tuple((v, -c) for v, c in part)
                lo, hi, eq = window
                window = (None if hi is None else -hi,
                          None if lo is None else -lo,
                          None if eq is None else -eq)
        out[part] = window
    if any(_literal_atom(d).term.vars() & g.keys() for d in divs):
        divs = frozenset(_rename_literal(d, g) for d in divs)
    return out, divs


def _rename_literal(lit: PresFormula, g: Mapping[str, str]) -> PresFormula:
    a = _literal_atom(lit)
    renamed = _fold_atom(Atom(a.kind, a.term.rename(g), a.divisor))
    return neg(renamed) if isinstance(lit, Not) else renamed


def _cell_images(g: Mapping[str, str], cells: dict) -> Optional[dict]:
    """Key of each cell's image under ``g``; None when ``g`` does not map
    the cell set onto itself."""
    images = {}
    for key, cell in cells.items():
        image = _cell_key(*_rename_cell(cell, g))
        if image not in cells:
            return None
        images[key] = image
    return images


def _project_cells(names: list[str], cells: dict, boxes: dict,
                   stats: Optional[QeStats],
                   symmetry: Symmetry) -> Optional[dict]:
    """``_exists_block_reps`` on one cell per orbit of the renamings that
    fix the block, its result closed under them; the plain elimination
    when none does."""
    if not symmetry or len(cells) < 2:
        return _exists_block_reps(names, cells, stats, boxes)
    block = set(names)
    moved = set().union(*(_cell_vars(w, d) for w, d in cells.values()))
    maps = []
    for g in symmetry:
        if not moved & g.keys() or {g.get(v, v) for v in names} != block:
            continue
        images = _cell_images(g, cells)
        if images is not None:
            maps.append((g, images))
    if not maps:
        return _exists_block_reps(names, cells, stats, boxes)
    reps = {}
    seen: set = set()
    for key in cells:
        if key in seen:
            continue
        reps[key] = cells[key]
        seen.add(key)
        todo = [key]
        while todo:
            at = todo.pop()
            for _, images in maps:
                if images[at] not in seen:
                    seen.add(images[at])
                    todo.append(images[at])
    if stats is not None:
        stats.orbit_reps += len(reps)
        stats.orbit_cells += len(cells)
    result = _exists_block_reps(names, reps, stats, boxes)
    if result is None:
        return None
    todo = list(result.values())
    while todo:
        cell = todo.pop()
        for g, _ in maps:
            image = _rename_cell(cell, g)
            key = _cell_key(*image)
            if key not in result:
                result[key] = image
                todo.append(image)
        if len(result) > _CELL_CAP:
            return None
    return _cells_prune_reps(result) if len(result) > 1 else result


def _reps_formula(reps: dict) -> PresFormula:
    """Disjunction of the cells, one conjunct per cell."""
    return disj(tuple(conj(tuple(_cell_literals(w, d)))
                      for w, d in reps.values()))


def _reps_clauses(reps: dict) -> PresFormula:
    """Conjunction of the negated cells, one clause per cell."""
    return conj(tuple(disj(tuple(n for lit in _cell_literals(w, d)
                                 for n in _negated_literals(lit)))
                      for w, d in reps.values()))


def _to_dnf(phi: PresFormula, cap: int) -> Optional[list[list[PresFormula]]]:
    if isinstance(phi, (AtomF, Not)):
        return [[phi]]
    if isinstance(phi, TrueF):
        return [[]]
    if isinstance(phi, FalseF):
        return []
    if isinstance(phi, Or):
        out: list[list[PresFormula]] = []
        for a in phi.args:
            sub = _to_dnf(a, cap)
            if sub is None or len(out) + len(sub) > cap:
                return None
            out.extend(sub)
        return out
    if isinstance(phi, And):
        out = [[]]
        for a in phi.args:
            sub = _to_dnf(a, cap)
            if sub is None or len(out) * len(sub) > cap:
                return None
            out = [x + y for x in out for y in sub]
        return out
    raise TypeError(phi)


def _cell_key(windows: dict, divs: frozenset) -> tuple:
    return (tuple(sorted(windows.items())), divs)


def _cell_subsumed(weak: tuple, strong: tuple) -> bool:
    """Whether every constraint of ``weak`` is implied by ``strong``: each
    bound of ``weak`` leaves the window of ``strong`` unchanged."""
    w_windows, w_divs = weak
    s_windows, s_divs = strong
    if len(w_windows) > len(s_windows) or len(w_divs) > len(s_divs):
        return False
    if not w_divs <= s_divs:
        return False
    for part, window in w_windows.items():
        s = s_windows.get(part)
        if s is None:
            return False
        if s == window:
            continue
        for side, value in enumerate(window):
            if value is not None and _window_add(s, side, value) != s:
                return False
    return True


_PRUNE_LIMIT = 1200


def _interval(window: tuple) -> tuple:
    lo, hi, eq = window
    if eq is not None:
        return (eq - 1, eq + 1)
    return (lo, hi)


def _mergeable(a: tuple, b: tuple) -> bool:
    # open integer intervals, None unbounded: their union is an interval
    # unless one starts at or after the other ends
    (a_lo, a_hi), (b_lo, b_hi) = a, b
    return ((b_lo is None or a_hi is None or b_lo < a_hi)
            and (a_lo is None or b_hi is None or a_lo < b_hi))


def _union_window(a: tuple, b: tuple) -> tuple:
    a_lo, a_hi = a
    b_lo, b_hi = b
    lo = None if a_lo is None or b_lo is None else min(a_lo, b_lo)
    hi = None if a_hi is None or b_hi is None else max(a_hi, b_hi)
    if lo is not None and hi is not None and lo + 2 == hi:
        return (None, None, lo + 1)
    return (lo, hi, None)


def _merge_cells(cells: dict) -> dict:
    """Union cells identical up to one adjacent or overlapping window."""
    buckets: dict = {}
    for w, d in cells.values():
        parts = tuple(sorted(w))
        buckets.setdefault((parts, d), []).append(
            tuple(w[p] for p in parts))
    out: dict = {}
    for (parts, d), rows in buckets.items():
        rows = list(dict.fromkeys(rows))
        if len(rows) > 1 and len(rows) <= 3000:
            changed = True
            while changed:
                changed = False
                for i in range(len(rows)):
                    if rows[i] is None:
                        continue
                    for j in range(i + 1, len(rows)):
                        if rows[j] is None:
                            continue
                        diff = [k for k in range(len(parts))
                                if rows[i][k] != rows[j][k]]
                        if len(diff) != 1:
                            continue
                        k = diff[0]
                        ia, ib = _interval(rows[i][k]), _interval(rows[j][k])
                        if _mergeable(ia, ib):
                            merged = list(rows[i])
                            merged[k] = _union_window(ia, ib)
                            rows[i] = tuple(merged)
                            rows[j] = None
                            changed = True
                rows = [r for r in rows if r is not None]
        for row in rows:
            w = dict(zip(parts, row))
            out[_cell_key(w, d)] = (w, d)
    return out


def _cells_prune_reps(cells: dict) -> dict:
    if len(cells) > 1:
        cells = _merge_cells(cells)
    if len(cells) > _PRUNE_LIMIT:
        return cells
    order = sorted(cells.items(),
                   key=lambda kv: len(kv[1][0]) + len(kv[1][1]))
    survivors: list[tuple] = []
    out = {}
    for key, rep in order:
        if any(_cell_subsumed(prev, rep) for prev in survivors):
            continue
        survivors.append(rep)
        out[key] = rep
    return out


def _literal_atom(lit: PresFormula) -> Atom:
    if isinstance(lit, AtomF):
        return lit.atom
    if isinstance(lit, Not) and isinstance(lit.arg, AtomF):
        return lit.arg.atom
    raise TypeError(lit)


def _map_atoms(phi: PresFormula,
               fn: Callable[[AtomF], PresFormula]) -> PresFormula:
    """Quantifier-free NNF tree with every atom node replaced by ``fn``."""
    if isinstance(phi, AtomF):
        return fn(phi)
    if isinstance(phi, Not):
        return neg(_map_atoms(phi.arg, fn))
    if isinstance(phi, (And, Or)):
        args = tuple(_map_atoms(x, fn) for x in phi.args)
        return conj(args) if isinstance(phi, And) else disj(args)
    return phi


def _cooper(v: str, phi: PresFormula, stats: Optional[QeStats]) -> PresFormula:
    """Full Cooper elimination of ``exists v`` (integer semantics) from NNF."""
    m = 1
    for a in atoms_of(phi):
        c = a.term.coeff(v)
        if c != 0:
            m = math.lcm(m, abs(c))

    def scale(f: AtomF) -> PresFormula:
        # rescale so the coefficient of v is +-1 (v stands for m*v)
        a = f.atom
        c = a.term.coeff(v)
        if c == 0:
            return f
        factor = m // abs(c)
        fixed = a.term.scale(factor).drop(v).add(LinTerm(((v, 1 if c > 0 else -1),)))
        return AtomF(Atom(a.kind, fixed, a.divisor * factor if a.kind == DVD else 0))

    scaled = _map_atoms(phi, scale)
    if m > 1:
        scaled = conj((scaled, atom_dvd(m, var(v))))

    period = 1
    lowers: dict[LinTerm, None] = {}
    uppers: dict[LinTerm, None] = {}
    for a in atoms_of(scaled):
        c = a.term.coeff(v)
        if c == 0:
            continue
        if a.kind == DVD:
            period = math.lcm(period, a.divisor)
        elif a.kind == LT:
            if c == -1:
                lowers.setdefault(a.term.drop(v))              # b < v
            else:
                uppers.setdefault(a.term.drop(v).scale(-1))    # v < b
        elif a.kind == EQ:
            rest = a.term.drop(v)
            value = rest.scale(-1) if c == 1 else rest
            lowers.setdefault(value.shift(-1))
            uppers.setdefault(value.shift(1))
    if stats is not None:
        stats.peak_divisor_lcm = max(stats.peak_divisor_lcm, period)

    # pick the smaller boundary set; both directions are exact
    from_below = len(lowers) <= len(uppers)
    boundary = lowers if from_below else uppers

    def at_limit(f: AtomF) -> PresFormula:
        # the atom as v goes to -inf (from below) or +inf
        a = f.atom
        c = a.term.coeff(v)
        if c == 0 or a.kind == DVD:
            return f
        if a.kind == EQ:
            return FALSE
        return FALSE if (c > 0) != from_below else TRUE

    def at(f: PresFormula, s: LinTerm) -> PresFormula:
        # a branch whose conjuncts interval propagation refutes is dropped
        out = substitute(f, v, s)
        lits = out.args if isinstance(out, And) else (out,)
        cell = _cell_extend({}, frozenset(),
                            [a for a in lits if isinstance(a, AtomF)])
        if cell is None or _propagate(cell[0], {}, cell[0]) is None:
            return FALSE
        return out

    branches: list[PresFormula] = []
    residue = simplify(_map_atoms(scaled, at_limit))
    if not isinstance(residue, FalseF):
        for j in range(1, period + 1):
            branches.append(at(residue, num(j if from_below else -j)))
    for b in boundary:
        for j in range(1, period + 1):
            branches.append(at(scaled, b.shift(j if from_below else -j)))
    return simplify(disj(branches))
