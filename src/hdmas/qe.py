"""Deciding truth of Presburger formulas over the naturals.

The procedure is Cooper-style quantifier elimination over the integers
with every quantified variable relativised by ``var >= 0``.  Elimination
runs innermost-first, one block of same-kind quantifiers at a time, and
always through cells (conjunctions of literals, see ``presburger``).  An
existential block expands its body into cells depth-first, splitting one
conjunct at a time as DPLL(T) case splitting does, closes at once when a
cell over block variables only is satisfiable, and then eliminates its
variables cell by cell, cheapest first.  A universal block is eliminated
existentially on its negated body and returns the negated cells as
clauses, which the enclosing block expands lazily instead of their
complement being multiplied out.  Conjunctions of literals take exact
shortcuts (equality pivoting, unit-coefficient bound combination,
interval refutation) with full Cooper elimination as the fallback; a
block whose cells pass a size cap goes to Cooper elimination whole.

Simplification happens once per block, on its input, and once on the
final result (``eliminate_quantifiers``).  In between the formula is a
set of cells: a variable's projection that is a conjunction of literals
extends a cell directly, a cell without the variable is kept as it is, and
only a projection with a disjunction is simplified and expanded again.  A
block's result is handed on unsimplified, since the enclosing block
simplifies it as part of its own input.

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

from .presburger import (DVD, EQ, FALSE, LT, TRUE, And, Atom, AtomF, Exists,
                         FalseF, Forall, FreeVariableError, Implies, LinTerm,
                         Not, Or, PresFormula, QuantifiedInput, TrueF,
                         _cell_extend, _cell_literals, _fold_atom,
                         _sign_split, _window_add, _window_atoms, atom_dvd,
                         atom_ge, atoms_of, conj, disj, free_vars, implies,
                         is_quantifier_free, neg, num, simplify, to_nnf, var)


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


def _relativize(v: str) -> PresFormula:
    return atom_ge(var(v), 0)


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
    cells = _expand_depth_first(names, body, stats)
    if cells is not None:
        if len(cells) > 1:
            cells = _cells_prune_reps(cells)
        cells = _project_cells(names, cells, stats, symmetry)
    if stats is not None:
        stats.eliminated += len(names)
    if cells is not None:
        return _reps_clauses(cells) if negate else _reps_formula(cells)
    if stats is not None:
        stats.cap_fallbacks += 1
    for v in names:
        body = _cooper(v, conj((body, _relativize(v))), stats)
        if stats is not None:
            stats.peak_atoms = max(stats.peak_atoms, len(atoms_of(body)))
    return to_nnf(neg(body)) if negate else body


# ---------------------------------------------------------------------------
# cells
#
# Inside a quantifier block the formula is a set of cells (window maps
# plus divisibility literals, see ``presburger``).  An existential block
# expands its body into cells depth-first, then eliminates its variables
# cell by cell; the cells are deduplicated and subsumption-pruned globally
# after every step, which keeps alternating prefixes tractable.  A
# universal block eliminates existentially on the negated body and
# returns the negated cells as clauses, which the enclosing block expands
# lazily.

_CELL_CAP = 30_000
# nodes the depth-first expansion may visit before giving up
_NODE_CAP = 10 * _CELL_CAP


def _smart_dnf_reps(phi: PresFormula, cap: int) -> Optional[dict]:
    items = list(phi.args) if isinstance(phi, And) else [phi]
    alternatives = []
    for child in items:
        sub = _to_dnf(child, cap)
        if sub is None:
            return None
        alternatives.append(sub)
    alternatives.sort(key=len)

    frontier: dict = {_cell_key({}, frozenset()): ({}, frozenset())}
    for alts in alternatives:
        nxt: dict = {}
        for windows, divs in frontier.values():
            for alt in alts:
                ext = _cell_extend(windows, divs, alt)
                if ext is None:
                    continue
                nxt.setdefault(_cell_key(*ext), ext)
        if len(nxt) > cap:
            return None
        if len(nxt) > 1:
            nxt = _cells_prune_reps(nxt)
        frontier = nxt
        if not frontier:
            return {}
    return frontier


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


def _cell_refuted(windows: dict, naturals: list[Atom]) -> bool:
    """Interval refutation of a cell, with the block variables >= 0."""
    return _refute_intervals(naturals + [a for part, window in windows.items()
                                         for a in _window_atoms(part, window)])


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
                        stats: Optional[QeStats]) -> Optional[dict]:
    """Cells of ``body`` for the existential block over ``names``.

    Walks the conjuncts depth-first, each with its own DNF as the
    alternatives, in the style of DPLL(T) case splitting: a conjunct the
    cell entails is skipped, an alternative that empties the cell is
    dropped, the conjunct with the fewest live alternatives is split
    first, and after a one-literal one-variable alternative its complement
    joins the cell for the alternatives after it.  Returns the leaves;
    only the empty cell when a leaf over block variables only is
    satisfiable, since the block then holds whatever the free variables
    are; None when a cap is hit.
    """
    conjuncts = []
    for child in (body.args if isinstance(body, And) else (body,)):
        alts = _to_dnf(child, _CELL_CAP)
        if alts is None:
            return None
        conjuncts.append(alts)
    block = set(names)
    naturals = [Atom(LT, LinTerm(((v, -1),), -1)) for v in names]
    leaves: dict = {}
    stack = [(({}, frozenset()), conjuncts)]
    visited = 0
    while stack:
        visited += 1
        if visited > _NODE_CAP:
            return None
        cell, pending = stack.pop()
        if _cell_refuted(cell[0], naturals):
            continue
        open_ = _open_conjuncts(cell, pending)
        if open_ is None:
            continue
        windows, divs = cell
        if not open_:
            key = _cell_key(windows, divs)
            if _cell_vars(windows, divs) <= block:
                projected = _exists_block_reps(names, {key: cell}, stats)
                if projected is None:
                    return None
                if projected:
                    if stats is not None:
                        stats.early_exits += 1
                    return {_cell_key({}, frozenset()): ({}, frozenset())}
                continue
            leaves.setdefault(key, cell)
            if len(leaves) > _CELL_CAP:
                return None
            continue
        split = min(range(len(open_)), key=lambda i: len(open_[i]))
        rest = open_[:split] + open_[split + 1:]
        children = []
        for alt in open_[split]:
            ext = _cell_extend(windows, divs, alt)
            if ext is not None:
                children.append((ext, rest))
            blocking = _blocking_literal(alt)
            if blocking is not None:
                grown = _cell_extend(windows, divs, [blocking])
                if grown is None:
                    break
                windows, divs = grown
        stack.extend(reversed(children))
    return leaves


def _reps_cost(v: str, cells: Iterable[tuple]) -> tuple:
    """Elimination cost of ``v`` over the cells: whether some equality
    with a unit coefficient pivots it away, the lcm of its coefficients,
    and how many literals mention it."""
    l = 1
    occurrences = 0
    unit_eq = False
    for windows, divs in cells:
        for part, window in windows.items():
            c = _part_coeff(part, v)
            if c == 0:
                continue
            occurrences += 3 - window.count(None)
            l = math.lcm(l, abs(c))
            if window[2] is not None and abs(c) == 1:
                unit_eq = True
        for d in divs:
            c = _literal_atom(d).term.coeff(v)
            if c != 0:
                occurrences += 1
                l = math.lcm(l, abs(c))
    return (0 if unit_eq else 1, l, occurrences)


def _part_coeff(part: tuple, v: str) -> int:
    for u, c in part:
        if u == v:
            return c
    return 0


def _cube(phi: PresFormula) -> Optional[list[PresFormula]]:
    """The literals of a conjunction of literals; None for any other
    shape."""
    if isinstance(phi, (AtomF, Not, FalseF)):
        return [phi]
    if isinstance(phi, TrueF):
        return []
    if isinstance(phi, And) and all(isinstance(a, (AtomF, Not))
                                    for a in phi.args):
        return list(phi.args)
    return None


def _exists_block_reps(names: list[str], reps: dict,
                       stats: Optional[QeStats]) -> Optional[dict]:
    """Cells of ``exists names`` over the cells ``reps``, one variable at
    a time, cheapest first.  A cell without the variable is kept as it is;
    a projection that is a conjunction of literals extends an empty cell
    directly, and only one with a disjunction is simplified and expanded."""
    remaining = list(names)
    while remaining:
        v = min(remaining, key=lambda n: _reps_cost(n, reps.values()))
        remaining.remove(v)
        rel = atom_ge(var(v), 0)
        nxt: dict = {}
        for key, cell in reps.items():
            if v not in _cell_vars(*cell):
                nxt.setdefault(key, cell)
                continue
            lowered = _eliminate_conjunct(v, _cell_literals(*cell) + [rel],
                                          stats)
            cube = _cube(lowered)
            if cube is not None:
                ext = _cell_extend({}, frozenset(), cube)
                if ext is not None:
                    nxt.setdefault(_cell_key(*ext), ext)
            else:
                sub = _smart_dnf_reps(simplify(lowered), _CELL_CAP)
                if sub is None:
                    return None
                for k, c in sub.items():
                    nxt.setdefault(k, c)
            if len(nxt) > _CELL_CAP:
                return None
        reps = _cells_prune_reps(nxt) if len(nxt) > 1 else nxt
        if stats is not None:
            stats.peak_atoms = max(stats.peak_atoms,
                                   sum(len(w) * 2 + len(d)
                                       for w, d in reps.values()))
    return reps


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
            part, sign, _ = _sign_split(LinTerm(tuple(sorted(
                (g.get(v, v), c) for v, c in part))))
            if sign < 0:
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


def _project_cells(names: list[str], cells: dict, stats: Optional[QeStats],
                   symmetry: Symmetry) -> Optional[dict]:
    """``_exists_block_reps`` on one cell per orbit of the renamings that
    fix the block, its result closed under them; the plain elimination
    when none does."""
    if not symmetry or len(cells) < 2:
        return _exists_block_reps(names, cells, stats)
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
        return _exists_block_reps(names, cells, stats)
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
    result = _exists_block_reps(names, reps, stats)
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
    # open integer intervals; None is unbounded.  Disjoint with a gap
    # exactly when one starts at or after the other ends.
    a_lo, a_hi = a
    b_lo, b_hi = b
    if a_lo is None or a_hi is None or b_lo is None or b_hi is None:
        left_ok = b_lo is None or a_hi is None or b_lo < a_hi
        right_ok = a_lo is None or b_hi is None or a_lo < b_hi
        return left_ok and right_ok
    return max(a_lo, b_lo) <= min(a_hi, b_hi) - 1


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


def _subst_atoms(phi: PresFormula, v: str, replacement: LinTerm) -> PresFormula:
    def subst(f: AtomF) -> PresFormula:
        a = f.atom
        if a.term.coeff(v) == 0:
            return f
        return _fold_atom(Atom(a.kind, a.term.subst(v, replacement), a.divisor))

    return _map_atoms(phi, subst)


def _refute_intervals(atoms: list[Atom]) -> bool:
    """True when interval propagation proves the conjunction empty.

    Sound over the integers; divisibility atoms are ignored.
    """
    los: dict[str, int] = {}
    his: dict[str, int] = {}
    rows = []
    for a in atoms:
        if a.kind == LT:
            rows.append((a.term, -a.term.const - 1))          # sum c_i v_i <= rhs
        elif a.kind == EQ:
            rows.append((a.term, -a.term.const))
            rows.append((a.term.scale(-1), a.term.const))
    for _ in range(6):
        changed = False
        for t, rhs in rows:
            for v, c in t.coeffs:
                slack = rhs
                ok = True
                for u, cu in t.coeffs:
                    if u == v:
                        continue
                    if cu > 0:
                        if u not in los:
                            ok = False
                            break
                        slack -= cu * los[u]
                    else:
                        if u not in his:
                            ok = False
                            break
                        slack -= cu * his[u]
                if not ok:
                    continue
                if c > 0:
                    b = slack // c
                    if v not in his or b < his[v]:
                        his[v] = b
                        changed = True
                else:
                    # c*v <= slack with c < 0 gives v >= ceil(slack / c)
                    b = -(slack // (-c))
                    if v not in los or b > los[v]:
                        los[v] = b
                        changed = True
                if v in los and v in his and los[v] > his[v]:
                    return True
        if not changed:
            break
    return False


def _conjunct_atoms(phi: PresFormula) -> list[Atom]:
    """Positive atoms conjunctively implied at the top of the formula."""
    out: list[Atom] = []
    if isinstance(phi, AtomF):
        out.append(phi.atom)
    elif isinstance(phi, And):
        for a in phi.args:
            if isinstance(a, AtomF):
                out.append(a.atom)
            elif isinstance(a, And):
                out.extend(_conjunct_atoms(a))
    return out


def _eliminate_conjunct(v: str, lits: list[PresFormula],
                        stats: Optional[QeStats]) -> PresFormula:
    outside, inside = [], []
    for l in lits:
        (inside if _literal_atom(l).term.coeff(v) else outside).append(l)
    if not inside:
        return conj(outside)
    if _refute_intervals([_literal_atom(l) for l in lits
                          if isinstance(l, AtomF)]):
        return FALSE

    # exact pivot on an equality; unit coefficients substitute directly,
    # larger ones rescale the other literals and add a divisibility atom
    for i, lit in enumerate(inside):
        if isinstance(lit, AtomF) and lit.atom.kind == EQ:
            c = lit.atom.term.coeff(v)
            rest = lit.atom.term.drop(v)
            others = inside[:i] + inside[i + 1:]
            if c in (1, -1):
                replacement = rest.scale(-1) if c == 1 else rest
                return conj(outside + [_subst_atoms(l, v, replacement)
                                       for l in others])
            # c*v = -rest: scale each literal by |c|, then c*v occurrences
            # become -sign(c)*rest; solvability needs |c| to divide rest
            sign = 1 if c > 0 else -1
            absc = abs(c)

            def pivot(f: AtomF) -> PresFormula:
                a = f.atom
                fixed = a.term.scale(absc).drop(v).add(
                    rest.scale(-a.term.coeff(v) * sign))
                return _fold_atom(Atom(a.kind, fixed,
                                       a.divisor * absc if a.kind == DVD else 0))

            replaced = [_map_atoms(l, pivot) for l in others]
            return conj(outside + replaced + [atom_dvd(absc, rest)])

    if all(isinstance(l, AtomF) and l.atom.kind == LT for l in inside):
        # strict bounds only: exact projection in the style of the omega
        # test.  The dark shadow a*U - b*L >= (a-1)(b-1) is exact unless a
        # solution hugs a lower bound, and those cases split into finitely
        # many equality splinters that pivot away exactly.
        lowers = []   # (a, L) meaning a*v >= L
        uppers = []   # (b, U) meaning b*v <= U
        for l in inside:
            c = l.atom.term.coeff(v)          # type: ignore[union-attr]
            rest = l.atom.term.drop(v)        # type: ignore[union-attr]
            if c < 0:
                lowers.append((-c, rest.shift(1)))
            else:
                uppers.append((c, rest.scale(-1).shift(-1)))
        if not lowers or not uppers:
            return conj(outside)
        dark = []
        for a, low in lowers:
            for b, up in uppers:
                margin = (a - 1) * (b - 1)
                dark.append(_fold_atom(Atom(
                    LT, low.scale(b).sub(up.scale(a)).shift(margin - 1))))
        branches = [conj(dark)]
        bmax = max(b for b, _ in uppers)
        for a, low in lowers:
            kmax = (a * bmax - a - bmax) // bmax
            for k in range(kmax + 1):
                eq = _fold_atom(Atom(EQ, LinTerm(((v, a),), 0)
                                     .sub(low).shift(-k)))
                if not isinstance(eq, FalseF):
                    branches.append(_eliminate_conjunct(v, inside + [eq],
                                                        stats))
        return conj(outside + [disj(branches)])

    return conj(outside + [_cooper(v, conj(inside), stats)])


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
        out = _subst_atoms(f, v, s)
        if isinstance(out, (And, AtomF)) and _refute_intervals(_conjunct_atoms(out)):
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
