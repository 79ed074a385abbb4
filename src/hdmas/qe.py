"""Deciding truth of Presburger formulas over the naturals.

The procedure is quantifier elimination over the integers with every
quantified variable relativised by ``var >= 0``.  Elimination runs
innermost-first, one block of same-kind quantifiers at a time, through
cells (``presburger.Cell``, which owns the window arithmetic, the interval
box and the elimination of variables).  An existential block expands its
body into cells depth-first, splitting one conjunct at a time as DPLL(T)
case splitting does, closes at once when a cell over block variables only
is satisfiable, and then eliminates its variables in rounds: each takes
out of every cell the variables it bounds from one side only, then
projects the cheapest one left.  A cell whose box empties is dropped, and
the cell set is merged (``presburger.merge_cells``) after the expansion
and after each round.  Projection is the only elimination of a variable
bounded from both sides; it unfolds a divisibility literal on the variable
into an equality with a fresh variable.  A universal block is eliminated
existentially on its negated body and returns the negated cells as
clauses, which the enclosing block expands lazily.  A block takes its body
as built, unsimplified (``build_prf`` simplifies the formula it builds
once); only the final result is simplified again
(``eliminate_quantifiers``).  Bound variables need no renaming apart: a
block's result mentions none of its variables, so a shadowed or repeated
name is gone before any outer block sees it.
"""

from __future__ import annotations

import math
import time
from typing import Iterable, Optional

from .presburger import (And, AtomF, Cell, Exists, FalseF, Forall,
                         FreeVariableError, Not, Or, PresFormula, TrueF,
                         _literal_atom, _quantifier_block, cheapest, complement,
                         conj, disj, free_vars, merge_cells, neg, simplify,
                         to_nnf)


class QeStats:
    """Observability counters for a run of the decision procedure."""

    def __init__(self):
        self.eliminated = 0
        self.peak_divisor_lcm = 1
        self.peak_atoms = 0
        self.one_sided = 0      # block variables left without a projection
        self.elapsed = 0.0
        # existential blocks closed by a satisfiable leaf over block variables
        self.early_exits = 0

    def to_json(self) -> dict:
        return {
            "eliminated_quantifiers": self.eliminated,
            "one_sided_eliminated": self.one_sided,
            "peak_divisor_lcm": self.peak_divisor_lcm,
            "peak_atom_count": self.peak_atoms,
            "elapsed_seconds": self.elapsed,
            "early_exits": self.early_exits,
        }


def eliminate_quantifiers(phi: PresFormula,
                          stats: Optional[QeStats] = None) -> PresFormula:
    """Quantifier-free formula equivalent over N to ``phi``, with every
    quantifier relativised to >= 0.  Free variables stay free."""
    return simplify(_close(phi, QeStats() if stats is None else stats))


def decide(phi: PresFormula, stats: Optional[QeStats] = None) -> bool:
    """Truth over N of a closed formula, all quantifiers relativised to >= 0."""
    fv = free_vars(phi)
    if fv:
        raise FreeVariableError(sorted(fv))
    stats = QeStats() if stats is None else stats
    started = time.perf_counter()
    result = eliminate_quantifiers(phi, stats)
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


# ---------------------------------------------------------------------------
# quantifier structure


def _close(phi: PresFormula, stats: QeStats) -> PresFormula:
    """Eliminate all quantifiers bottom-up; result is quantifier-free."""
    if isinstance(phi, (Exists, Forall)):
        names, body = _quantifier_block(phi)
        return _block(names, _close(body, stats), stats,
                      negate=isinstance(phi, Forall))
    if isinstance(phi, Not):
        return neg(_close(phi.arg, stats))
    if isinstance(phi, And):
        return conj(tuple(_close(a, stats) for a in phi.args))
    if isinstance(phi, Or):
        return disj(tuple(_close(a, stats) for a in phi.args))
    return phi


def _block(names: list[str], phi: PresFormula, stats: QeStats,
           negate: bool) -> PresFormula:
    """Quantifier-free equivalent of ``exists names. phi``, or of
    ``forall names. phi`` when ``negate``, for quantifier-free ``phi``.

    The body is taken as built, unsimplified, since the expansion and
    ``merge_cells`` do that work; ``eliminate_quantifiers`` simplifies the result.
    """
    body = to_nnf(neg(phi) if negate else phi)
    cells = merge_cells(_expand_depth_first(names, body, stats))
    cells = _exists_block(names, cells, stats)
    stats.eliminated += len(names)
    return _cells_clauses(cells) if negate else _cells_formula(cells)


# ---------------------------------------------------------------------------
# cells (see ``presburger.Cell``)
#
# The cells of a block are deduplicated and merged after the expansion
# and after every eliminated variable.


def _blocking_literal(alt: list[PresFormula]) -> Optional[PresFormula]:
    """Complement of an alternative that is one literal over one variable,
    when that complement is itself a literal."""
    if len(alt) != 1 or len(free_vars(alt[0])) != 1:
        return None
    negated = complement(alt[0])
    return None if isinstance(negated, Or) else negated


def _open_conjuncts(cell: Cell, pending: list) -> Optional[list]:
    """Live alternatives of each conjunct the cell does not entail; None
    when some conjunct has none left."""
    out = []
    for alts in pending:
        live = []
        for alt in alts:
            ext = cell.extend(alt)
            if ext is cell:
                break
            if ext is not None:
                live.append(alt)
        else:
            if not live:
                return None
            out.append(live)
    return out


def _expand_depth_first(names: list[str], body: PresFormula,
                        stats: QeStats) -> list[Cell]:
    """Cells of ``body`` for the existential block over ``names``.

    Walks the conjuncts depth-first, each with its own DNF as the
    alternatives, in the style of DPLL(T) case splitting: a conjunct the
    cell entails is skipped, an alternative that empties the cell is
    dropped, the conjunct with the fewest live alternatives is split
    first, and after a one-literal one-variable alternative its complement
    joins the cell for the alternatives after it.  A node whose box
    empties is dropped.  Returns the leaves; only the empty cell when a
    leaf over block variables only is satisfiable, since the block then
    holds whatever the free variables are.
    """
    conjuncts = [_to_dnf(child)
                 for child in (body.args if isinstance(body, And) else (body,))]
    block = set(names)
    leaves: dict = {}
    stack = [(Cell(), conjuncts)]
    while stack:
        cell, pending = stack.pop()
        if cell.box is None:
            continue
        open_ = _open_conjuncts(cell, pending)
        if open_ is None:
            continue
        if not open_:
            if cell.vars <= block:
                if _exists_block(names, [cell], stats):
                    stats.early_exits += 1
                    return [Cell()]
                continue
            leaves.setdefault(cell)
            continue
        split = min(range(len(open_)), key=lambda i: len(open_[i]))
        rest = open_[:split] + open_[split + 1:]
        children = []
        grown: Optional[Cell] = cell
        for alt in open_[split]:
            ext = grown.extend(alt)
            if ext is not None:
                children.append((ext, rest))
            blocking = _blocking_literal(alt)
            if blocking is not None:
                grown = grown.extend([blocking])
                if grown is None:
                    break
        stack.extend(reversed(children))
    return list(leaves)


def _exists_block(names: list[str], cells: list[Cell],
                  stats: QeStats) -> list[Cell]:
    """Cells of ``exists names`` over ``cells``: each round takes out of
    every cell the variables it bounds from one side only, then projects
    the cheapest variable a cell still mentions; a cell without it is kept
    as it is, and one whose box empties is dropped."""
    remaining = list(names)
    while True:
        dropped = [cell.drop_one_sided(remaining) for cell in cells]
        if any(new is not cell for new, cell in zip(dropped, cells)):
            cells = merge_cells(c for c in dropped if c and c.box is not None)
        v = cheapest(remaining, cells)
        if v is None:
            stats.one_sided += len(remaining)
            return cells
        remaining.remove(v)
        nxt: dict = {}
        for cell in cells:
            if cell.box is not None:
                nxt.update(dict.fromkeys(cell.project(v) if v in cell.vars else [cell]))
        cells = merge_cells(nxt)
        stats.peak_atoms = max(stats.peak_atoms,
                               sum(len(c.windows) * 2 + len(c.divs)
                                   for c in cells))
        stats.peak_divisor_lcm = max(stats.peak_divisor_lcm, math.lcm(
            *(_literal_atom(d).divisor for c in cells for d in c.divs)))


def _cells_formula(cells: list[Cell]) -> PresFormula:
    """Disjunction of the cells, one conjunct per cell."""
    return disj(tuple(conj(tuple(cell.literals())) for cell in cells))


def _cells_clauses(cells: list[Cell]) -> PresFormula:
    """Conjunction of the negated cells, one clause per cell."""
    return conj(tuple(cell.clause() for cell in cells))


def _to_dnf(phi: PresFormula) -> list[list[PresFormula]]:
    if isinstance(phi, (AtomF, Not)):
        return [[phi]]
    if isinstance(phi, TrueF):
        return [[]]
    if isinstance(phi, FalseF):
        return []
    if isinstance(phi, Or):
        return [alt for a in phi.args for alt in _to_dnf(a)]
    if isinstance(phi, And):
        out: list[list[PresFormula]] = [[]]
        for a in phi.args:
            sub = _to_dnf(a)
            out = [x + y for x in out for y in sub]
        return out
    raise TypeError(phi)
