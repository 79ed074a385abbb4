"""Deciding truth of Presburger formulas over the naturals.

The procedure is quantifier elimination over the integers with every
quantified variable relativised by ``var >= 0``.  Elimination runs
innermost-first, one block of same-kind quantifiers at a time, through
cells (``presburger.Cell``, which owns the window arithmetic, the interval
box and the elimination of variables).  A block walks its body once into
a DNF per top-level conjunct, pushing negations to the atoms as it goes,
and one depth-first walker (``_leaves``) expands those into cells,
splitting one conjunct at a time as DPLL(T) case splitting does.
Variables leave a cell in rounds: each takes out of every cell the
variables it bounds from one side only, then projects the cheapest one
left, after pinning it when the cell's box fixes its value.  A cell whose
box empties is dropped, and the cell set is deduplicated after each
round; no two cells are ever united.  Projection is the only
elimination of a variable bounded from both sides; it unfolds a
divisibility literal on the variable into an equality with a fresh
variable.

Every block goes through one procedure, ``_block``, a two-player loop over
cells (Monniaux, LPAR 2008; Bjorner & Janota, LPAR 2015).  It decides
``exists X. C & forall Y1. B1 & ...`` (each ``Bj`` closed first, each ``Yj``
apart from every other name, possibly no ``forall`` at all), so no
``forall Yj`` under an existential block is eliminated.  A universal block
``forall X. B`` is ``!exists X. !B``: the block without an adversary over
the DNF of ``!B``, its cells returned as clauses.  (As ``exists {}. true &
forall X. B`` it would build the complement of the adversary's cells as a
DNF.)  The controller walks ``C`` and the clauses learned so far to a leaf
``K``.  The adversary walks the DNF of each ``!Bj`` from ``K``; the literals
on a leaf's path without ``K`` form a cell ``A``, and the cells of ``exists
Yj. A`` (cached per ``A``) that are not learned yet and meet ``K``'s box are
learned as clauses, and ``K`` is split by them.  With no such cell left,
``K`` wins: ``W = exists X. K`` joins the result, and a ``W`` cell without
literals makes the block true.  A win is learned as clauses over the free
variables only when the block has an adversary.  Learning it always takes
the open universal block over ``SLOW_ALONE`` (``tests/test_qe.py``) from
3 ms to over 150 s, and learning it never takes fortress-7 ``E y1 A y2
<<y1,y2>> G !captured`` from 0.21 s to 145 s.  The result is exact:
learned adversary cells hold only points where some ``Yj`` falsifies
``Bj``; every point of a winning ``K`` satisfies each ``Bj`` for all ``Yj``,
since no adversary leaf under ``K`` has a point in it; and the walk ends
only when each point of ``C`` is in a learned cell, in a winning leaf, or
has its free part in a learned ``W``.  It ends.  Without an adversary
nothing is learned and no leaf is revisited, so the loop is one walk of a
finite tree.  With one, the adversary cells are finitely many, and each
``W`` holds a free value no earlier ``W`` holds, while every ``W`` projects
a leaf whose literals on ``X`` come from the finitely many alternatives of
``C`` and of the adversary cells, and whose literals on free variables
alone (the complements of earlier ``W`` among them) pass through the
projection, so no ``W`` repeats and they are drawn from a finite set.

Literals are canonical (``presburger.atom_alternatives``), one tuple
``(part, side, value)`` for a bound and a divisibility literal alike: each
is canonicalised once, when the walk into DNF meets its atom, every cell
that takes it after that reads its key as it is, and its negation is its
``complement``, as in a learned clause.  A ``Game`` hands
``_block`` its conjuncts already walked: ``build_prf`` assembles one per
state from guards compiled once per model, and ``decide`` takes it with no
formula to walk.  A block takes its body as built, unsimplified; only the
result of a formula is simplified (``eliminate_quantifiers``), and that of
a closed game is a constant already.  Bound variables need no renaming
apart: a block's result mentions none of its variables, so a shadowed or
repeated name is gone before any outer block sees it.
"""

from __future__ import annotations

import math
import time
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from .presburger import (And, AtomF, Cell, Exists, FalseF, Forall,
                         FreeVariableError, Not, Or, PresFormula, TrueF,
                         _quantifier_block, _quantify, atom_alternatives,
                         cheapest, complement, conj, disj, free_vars,
                         literal_formula, neg, simplify)


class QeStats:
    """Observability counters for a run of the decision procedure."""

    def __init__(self):
        self.eliminated = 0
        self.peak_divisor_lcm = 1
        self.peak_atoms = 0
        self.one_sided = 0      # block variables left without a projection
        self.elapsed = 0.0
        # blocks closed by a winning leaf whose projection covers every
        # free value (a satisfiable leaf over block variables among them)
        self.early_exits = 0
        self.refutations = 0    # adversary cells learned as clauses

    def to_json(self) -> dict:
        return {
            "eliminated_quantifiers": self.eliminated,
            "one_sided_eliminated": self.one_sided,
            "peak_divisor_lcm": self.peak_divisor_lcm,
            "peak_atom_count": self.peak_atoms,
            "elapsed_seconds": self.elapsed,
            "early_exits": self.early_exits,
            "refutations": self.refutations,
        }


def eliminate_quantifiers(phi: PresFormula,
                          stats: Optional[QeStats] = None) -> PresFormula:
    """Quantifier-free formula equivalent over N to ``phi``, with every
    quantifier relativised to >= 0.  Free variables stay free."""
    return simplify(_close(phi, QeStats() if stats is None else stats))


class Game(NamedTuple):
    """A closed decision as the pieces ``_block`` takes: ``exists names. C &
    forall ys1. B1 & ...`` under the ``outer`` quantifiers, innermost first,
    each ``(Exists or Forall, name)``.  ``conjuncts`` are ``C``'s and each
    adversary is ``(ys, N)``, ``N`` the conjuncts of ``!B``: lists of
    alternatives of canonical literals (``_conjuncts``)."""

    names: tuple
    conjuncts: Sequence
    adversaries: tuple = ()
    outer: tuple = ()

    def quantified(self, kind: type, name: str) -> "Game":
        """The game under one more quantifier: an existential right around
        the block joins its names, as ``_quantifier_block`` would read it."""
        if kind is Exists and not self.outer:
            return Game((name, *self.names), self.conjuncts, self.adversaries)
        return Game(self.names, self.conjuncts, self.adversaries,
                    self.outer + ((kind, name),))

    def formula(self) -> PresFormula:
        """The formula the game decides, with no variable left free."""
        body = conj((_conjuncts_formula(self.conjuncts),
                     *(_quantify(Forall, list(ys), _negated_formula(negated))
                       for ys, negated in self.adversaries)))
        phi = _quantify(Exists, list(self.names), body)
        for kind, name in self.outer:
            phi = kind(name, phi)
        return phi


def decide(phi: Union[PresFormula, Game],
           stats: Optional[QeStats] = None) -> bool:
    """Truth over N of a closed formula or ``Game``, all quantifiers
    relativised to >= 0.  The time it runs is added to ``stats.elapsed``
    however it ends."""
    if not isinstance(phi, Game):
        fv = free_vars(phi)
        if fv:
            raise FreeVariableError(sorted(fv))
    stats = QeStats() if stats is None else stats
    started = time.perf_counter()
    try:
        result = _close_game(phi, stats) if isinstance(phi, Game) else \
            eliminate_quantifiers(phi, stats)
    finally:
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
    """Eliminate all quantifiers bottom-up; result is quantifier-free.  An
    existential block's top-level conjuncts are closed one by one, and a
    universal block among them that shares no name with the rest becomes
    a game of ``_block`` instead of being eliminated."""
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


def _close_game(game: Game, stats: QeStats) -> PresFormula:
    """The game's block, then its outer quantifiers; a block of no
    variables and no adversary is its conjunction, as ``simplify`` leaves a
    quantifier of no variable out."""
    phi = _cells_formula(_block(game.names, game.conjuncts, game.adversaries,
                                stats)) if game.names or game.adversaries \
        else _conjuncts_formula(game.conjuncts)
    for kind, name in game.outer:
        phi = kind(name, phi)
    return _close(phi, stats)


def _block(names: Sequence[str], conjuncts: Sequence, games: list,
           stats: QeStats) -> list[Cell]:
    """Cells of ``exists names. C & forall ys. !N``, for the conjunction
    ``C`` of ``conjuncts`` and each ``(ys, N)`` of ``games``, ``N`` the
    ``_conjuncts`` of a negated body: the loop of the module docstring."""
    learned: list = []          # clauses, as conjuncts of the walk
    refuted: set = set()        # adversary cells learned
    projections: dict = {}
    wins: list[Cell] = []
    walk = _leaves(Cell(), conjuncts, learned)
    revisit = None
    while True:
        try:
            cell, _ = walk.send(revisit)
        except StopIteration:
            break
        revisit = _adversary(cell, games, refuted, projections, learned, stats)
        if revisit:
            continue
        won = _exists_block(names, cell, stats)
        if Cell() in won:
            stats.early_exits += 1
            wins = [Cell()]
            break
        wins += won
        if games:
            learned += map(_clause, won)
    stats.eliminated += len(names) + sum(len(ys) for ys, _ in games)
    return list(dict.fromkeys(wins))


def _adversary(cell: Cell, games: list, refuted: set, projections: dict,
               learned: list, stats: QeStats) -> bool:
    """Whether the adversary answers the controller's ``cell``: a leaf of
    some negated universal body under ``cell`` whose path, projected over
    that block's variables, has cells not learned yet that meet the cell.
    Those cells are then learned as clauses.  Learning only them, not the
    whole projection, keeps the splinters of a projection that the cell
    never meets out of the controller's walk."""
    for ys, conjuncts in games:
        for _, path in _leaves(cell, conjuncts):
            key = frozenset(path)
            cells = projections.get(key)
            if cells is None:
                start = Cell().extend(path)
                cells = projections[key] = \
                    [] if start is None else _exists_block(ys, start, stats)
            new = [d for d in cells if d not in refuted and d.meets(cell)]
            if new:
                learned += map(_clause, new)
                refuted.update(new)
                stats.refutations += len(new)
                return True
    return False


def _clause(cell: Cell) -> list[tuple]:
    """The negated cell (``Cell.clause``) as a conjunct of one-literal
    alternatives."""
    return [(lit,) for lit in cell.clause()]


# ---------------------------------------------------------------------------
# cells (see ``presburger.Cell``)
#
# The cells of a block are deduplicated, in walk order, after every
# eliminated variable and once more when the block ends.


def _blocking_literal(alt: tuple):
    """Complement of an alternative that is one literal over one variable,
    when that complement is itself a literal (not for an equality)."""
    if len(alt) != 1 or len(alt[0][0]) != 1 or alt[0][1] == 2:
        return None
    return complement(alt[0])[0]


def _open_conjuncts(cell: Cell, pending: list) -> Optional[tuple[list, tuple]]:
    """Live alternatives of each conjunct the cell does not entail, and the
    literals of an alternative the cell entails of each other conjunct;
    None when some conjunct has no alternative left."""
    out, entailed = [], []
    for alts in pending:
        live = []
        for alt in alts:
            ext = cell.extend(alt)
            if ext is cell:
                entailed += alt
                break
            if ext is not None:
                live.append(alt)
        else:
            if not live:
                return None
            out.append(live)
    return out, tuple(entailed)


def _leaves(root: Cell, conjuncts: list, learned: Sequence = ()):
    """The leaves of ``root`` and the conjunction of ``conjuncts`` (see
    ``_conjuncts``), depth-first, each with the literals chosen on its path
    from the root: one alternative of each conjunct and the blocking
    literals.  The one leaf walker of this module.

    The walk goes in the style of DPLL(T) case splitting: a conjunct the
    cell entails is skipped, an alternative that empties the cell is
    dropped, the conjunct with the fewest live alternatives is split
    first, and after a one-literal one-variable alternative its complement
    (the blocking literal) joins the cell for the alternatives after it.
    A node whose box empties is dropped.  A clause appended to ``learned``
    joins every branch still open; sending a true value back for a leaf
    puts it back on the walk, to be split by the clauses learned since.
    """
    stack = [(root, conjuncts, (), 0)]
    while stack:
        cell, pending, path, seen = stack.pop()
        if seen < len(learned):
            pending, seen = [*pending, *learned[seen:]], len(learned)
        if cell.box is None or cell.divs and cell.pinned(()) is None:
            continue
        opened = _open_conjuncts(cell, pending)
        if opened is None:
            continue
        open_, entailed = opened
        path += entailed
        if not open_:
            if (yield cell, path):
                stack.append((cell, (), path, seen))
            continue
        split = min(range(len(open_)), key=lambda i: len(open_[i]))
        rest = open_[:split] + open_[split + 1:]
        children = []
        grown: Optional[Cell] = cell
        for alt in open_[split]:
            ext = grown.extend(alt)
            if ext is not None:
                children.append((ext, rest, path + tuple(alt), seen))
            blocking = _blocking_literal(alt)
            if blocking is not None:
                grown = grown.extend([blocking])
                if grown is None:
                    break
                path += (blocking,)
        stack.extend(reversed(children))


def _exists_block(names: list[str], cell: Cell,
                  stats: QeStats) -> list[Cell]:
    """Cells of ``exists names. cell``: each round takes out of every cell
    the variables it bounds from one side only, then projects the cheapest
    variable a cell still mentions; a cell without it is kept as it is, and
    one whose box empties is dropped."""
    remaining, cells = list(names), [cell]
    while True:
        dropped = [cell.drop_one_sided(remaining) for cell in cells]
        if any(new is not cell for new, cell in zip(dropped, cells)):
            cells = list(dict.fromkeys(
                c for c in dropped if c and c.box is not None))
        v = cheapest(remaining, cells)
        if v is None:
            stats.one_sided += len(remaining)
            return cells
        remaining.remove(v)
        nxt: dict = {}
        for cell in cells:
            if v in cell.vars:
                cell = cell.pinned((v,))
            if cell is not None and cell.box is not None:
                nxt.update(dict.fromkeys(cell.project(v) if v in cell.vars else [cell]))
        cells = list(nxt)
        stats.peak_atoms = max(stats.peak_atoms,
                               sum(len(c.windows) * 2 + len(c.divs)
                                   for c in cells))
        stats.peak_divisor_lcm = max(stats.peak_divisor_lcm, math.lcm(
            *(d for c in cells for _, _, (d, _) in c.divs)))


def _cells_formula(cells: list[Cell]) -> PresFormula:
    """Disjunction of the cells, one conjunct per cell."""
    return disj(tuple(conj(tuple(cell.literals())) for cell in cells))


def _cells_clauses(cells: list[Cell]) -> PresFormula:
    """Conjunction of the negated cells, one clause per cell."""
    return conj(tuple(disj(tuple(map(literal_formula, cell.clause())))
                      for cell in cells))


def _conjuncts_formula(conjuncts: Sequence) -> PresFormula:
    """The conjunction of conjuncts of alternatives of literals."""
    return conj(tuple(disj(tuple(conj(tuple(map(literal_formula, alt)))
                                 for alt in alts)) for alts in conjuncts))


def _negated_formula(conjuncts: Sequence) -> PresFormula:
    """The negation of ``_conjuncts_formula``, pushed to the literals."""
    return disj(tuple(conj(tuple(disj(tuple(
        literal_formula(c) for lit in alt for c in complement(lit)))
        for alt in alts)) for alts in conjuncts))


def _conjuncts(phi: PresFormula, negated: bool) -> list[list[tuple]]:
    """The DNF (``_to_dnf``) of each top-level conjunct of ``phi``, or of
    ``!phi`` when ``negated``."""
    if isinstance(phi, Not):
        return _conjuncts(phi.arg, not negated)
    if isinstance(phi, Or if negated else And):
        return [dnf for a in phi.args for dnf in _conjuncts(a, negated)]
    return [_to_dnf(phi, negated)]


def _to_dnf(phi: PresFormula, negated: bool = False) -> list[tuple]:
    """The alternatives of ``phi``, or of ``!phi`` when ``negated``, each a
    tuple of canonical literals.  The negation is pushed to the atoms
    (``atom_alternatives``): a negated literal is its ``complement``, one
    literal or for an equality two alternatives."""
    if isinstance(phi, AtomF):
        return atom_alternatives(phi, negated)
    if isinstance(phi, Not):
        return _to_dnf(phi.arg, not negated)
    if isinstance(phi, (TrueF, FalseF)):
        return [()] if isinstance(phi, TrueF) != negated else []
    if isinstance(phi, And if negated else Or):
        return [alt for a in phi.args for alt in _to_dnf(a, negated)]
    if isinstance(phi, Or if negated else And):
        out: list[tuple] = [()]
        for a in phi.args:
            sub = _to_dnf(a, negated)
            out = [x + y for x in out for y in sub]
        return out
    raise TypeError(phi)
