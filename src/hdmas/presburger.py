"""Linear integer arithmetic over the naturals.

Terms, atoms and formulas are the immutable nodes of ``nodes``; every
operation builds a fresh tree.  Atoms are normalised to the shapes
``t < 0``, ``t = 0`` and ``d | t`` with an integer-combined linear term,
so structural equality is meaningful and usable as a cache key.
Variables are plain interned strings.  All values range over the
naturals; internal arithmetic is signed and unbounded.

A conjunction of literals is a ``Cell``: one bound window per variable
part plus divisibility literals, with an interval box per variable.  It is
the only code that combines bounds: quantifier elimination (``qe``)
expands formulas into cells and eliminates variables from them, and the
simplifier only folds constants, flattens and folds a formula beside its
own negation.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Mapping, Optional, Union

from .nodes import (And, Atom, AtomF, Exists, FalseF, Forall, LinTerm, Not, Or,
                    PresFormula, TrueF)


class PresburgerError(Exception):
    """Base class for errors raised by the arithmetic layer."""


class UnassignedVariable(PresburgerError):
    """A free variable had no value in the valuation."""


class QuantifiedInput(PresburgerError):
    """An operation requiring quantifier-free input was given a quantifier."""


class CaptureViolation(PresburgerError):
    """A substitution would capture a variable bound in the formula."""


class FreeVariableError(PresburgerError):
    """A closed formula was required but free variables remain."""


# ---------------------------------------------------------------------------
# linear terms


def var(name: str) -> LinTerm:
    return LinTerm(((name, 1),), 0)


def num(n: int) -> LinTerm:
    return LinTerm((), n)


TermLike = Union[LinTerm, int, str]


def as_term(t: TermLike) -> LinTerm:
    if isinstance(t, LinTerm):
        return t
    if isinstance(t, int):
        return num(t)
    return var(t)


# ---------------------------------------------------------------------------
# atoms and formulas

EQ = "="
LT = "<"
DVD = "|"

TRUE = TrueF()
FALSE = FalseF()

Valuation = Mapping[str, int]


# -- smart constructors ------------------------------------------------------


def _fold_atom(atom: Atom) -> PresFormula:
    t = atom.term
    if atom.kind == LT:
        if t.is_const():
            return TRUE if t.const < 0 else FALSE
        g = math.gcd(*(abs(c) for _, c in t.coeffs))
        if g > 1:
            # g*u + c < 0  iff  u <= floor((-c-1)/g)  iff  u - floor((-c-1)/g) - 1 < 0
            c2 = -((-t.const - 1) // g) - 1
            t = LinTerm(tuple((v, c // g) for v, c in t.coeffs), c2)
        return AtomF(Atom(LT, t))
    if atom.kind == EQ:
        if t.is_const():
            return TRUE if t.const == 0 else FALSE
        g = math.gcd(*(abs(c) for _, c in t.coeffs))
        if t.const % g != 0:
            return FALSE
        if g > 1:
            t = LinTerm(tuple((v, c // g) for v, c in t.coeffs), t.const // g)
        # fix sign of the leading coefficient for a unique representation
        if t.coeffs[0][1] < 0:
            t = t.scale(-1)
        return AtomF(Atom(EQ, t))
    # divisibility
    d = atom.divisor
    if d == 1:
        return TRUE
    if t.coeffs:
        # d | g*u + c is solvable only if gcd(g, d) divides c, and then
        # the whole relation divides through by that gcd
        g = math.gcd(*(abs(c) for _, c in t.coeffs))
        e = math.gcd(g, d)
        if e > 1:
            if t.const % e != 0:
                return FALSE
            t = LinTerm(tuple((v, c // e) for v, c in t.coeffs), t.const // e)
            d //= e
            if d == 1:
                return TRUE
    reduced = LinTerm(tuple((v, c % d) for v, c in t.coeffs if c % d != 0),
                      t.const % d)
    if reduced.is_const():
        return TRUE if reduced.const % d == 0 else FALSE
    return AtomF(Atom(DVD, reduced, d))


def atom_lt(lhs: TermLike, rhs: TermLike) -> PresFormula:
    """lhs < rhs"""
    return _fold_atom(Atom(LT, as_term(lhs).sub(as_term(rhs))))


def atom_le(lhs: TermLike, rhs: TermLike) -> PresFormula:
    """lhs <= rhs, normalised to strict form over the integers"""
    return _fold_atom(Atom(LT, as_term(lhs).sub(as_term(rhs)).shift(-1)))


def atom_gt(lhs: TermLike, rhs: TermLike) -> PresFormula:
    return atom_lt(rhs, lhs)


def atom_ge(lhs: TermLike, rhs: TermLike) -> PresFormula:
    return atom_le(rhs, lhs)


def atom_eq(lhs: TermLike, rhs: TermLike) -> PresFormula:
    return _fold_atom(Atom(EQ, as_term(lhs).sub(as_term(rhs))))


def atom_ne(lhs: TermLike, rhs: TermLike) -> PresFormula:
    return disj((atom_lt(lhs, rhs), atom_lt(rhs, lhs)))


def atom_dvd(divisor: int, t: TermLike) -> PresFormula:
    if divisor < 1:
        raise ValueError("divisor must be >= 1")
    return _fold_atom(Atom(DVD, as_term(t), divisor))


def neg(phi: PresFormula) -> PresFormula:
    if isinstance(phi, TrueF):
        return FALSE
    if isinstance(phi, FalseF):
        return TRUE
    if isinstance(phi, Not):
        return phi.arg
    return Not(phi)


def conj(args: Iterable[PresFormula]) -> PresFormula:
    flat: dict[PresFormula, None] = {}
    for a in args:
        if isinstance(a, FalseF):
            return FALSE
        if isinstance(a, TrueF):
            continue
        if isinstance(a, And):
            for b in a.args:
                if isinstance(b, FalseF):
                    return FALSE
                flat.setdefault(b)
        else:
            flat.setdefault(a)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return next(iter(flat))
    return And(tuple(flat))


def disj(args: Iterable[PresFormula]) -> PresFormula:
    flat: dict[PresFormula, None] = {}
    for a in args:
        if isinstance(a, TrueF):
            return TRUE
        if isinstance(a, FalseF):
            continue
        if isinstance(a, Or):
            for b in a.args:
                if isinstance(b, TrueF):
                    return TRUE
                flat.setdefault(b)
        else:
            flat.setdefault(a)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return next(iter(flat))
    return Or(tuple(flat))


def implies(lhs: PresFormula, rhs: PresFormula) -> PresFormula:
    """``lhs -> rhs``, which is sugar for ``!lhs | rhs``."""
    return disj((neg(lhs), rhs))


# -- structural queries ------------------------------------------------------


def free_vars(phi: PresFormula) -> frozenset[str]:
    """Variables with at least one free occurrence."""
    if isinstance(phi, (TrueF, FalseF)):
        return frozenset()
    if isinstance(phi, AtomF):
        return phi.atom.term.vars()
    if isinstance(phi, Not):
        return free_vars(phi.arg)
    if isinstance(phi, (And, Or)):
        out: frozenset[str] = frozenset()
        for a in phi.args:
            out |= free_vars(a)
        return out
    if isinstance(phi, (Exists, Forall)):
        return free_vars(phi.body) - {phi.var}
    raise TypeError(phi)


def _quantifier_block(phi: PresFormula) -> tuple[list[str], PresFormula]:
    """The variables of the outermost block of same-kind quantifiers, outer
    first, and the body under it."""
    kind, names = type(phi), []
    while isinstance(phi, kind):
        names.append(phi.var)
        phi = phi.body
    return names, phi


def _quantify(kind: type, names: list[str], body: PresFormula) -> PresFormula:
    """``kind`` quantifiers over ``names``, outer first, around ``body``."""
    for v in reversed(names):
        body = kind(v, body)
    return body


def is_quantifier_free(phi: PresFormula) -> bool:
    if isinstance(phi, (Exists, Forall)):
        return False
    if isinstance(phi, Not):
        return is_quantifier_free(phi.arg)
    if isinstance(phi, (And, Or)):
        return all(is_quantifier_free(a) for a in phi.args)
    return True


def atoms_of(phi: PresFormula) -> list[Atom]:
    """All atoms in the tree, in traversal order (duplicates included)."""
    out: list[Atom] = []

    def walk(f: PresFormula) -> None:
        if isinstance(f, AtomF):
            out.append(f.atom)
        elif isinstance(f, Not):
            walk(f.arg)
        elif isinstance(f, (And, Or)):
            for a in f.args:
                walk(a)
        elif isinstance(f, (Exists, Forall)):
            walk(f.body)

    walk(phi)
    return out


# -- evaluation --------------------------------------------------------------


def evaluate(phi: PresFormula, valuation: Valuation) -> bool:
    """Truth value of a quantifier-free formula under a valuation over N."""
    for v in valuation.values():
        if v < 0:
            raise ValueError("valuations assign naturals")
    return _evaluate(phi, valuation)


def _evaluate(phi: PresFormula, valuation: Valuation) -> bool:
    if isinstance(phi, TrueF):
        return True
    if isinstance(phi, FalseF):
        return False
    if isinstance(phi, AtomF):
        value = phi.atom.term.const
        for v, c in phi.atom.term.coeffs:
            if v not in valuation:
                raise UnassignedVariable(v)
            value += c * valuation[v]
        return (value < 0 if phi.atom.kind == LT else value == 0
                if phi.atom.kind == EQ else value % phi.atom.divisor == 0)
    if isinstance(phi, Not):
        return not _evaluate(phi.arg, valuation)
    if isinstance(phi, And):
        return all(_evaluate(a, valuation) for a in phi.args)
    if isinstance(phi, Or):
        return any(_evaluate(a, valuation) for a in phi.args)
    if isinstance(phi, (Exists, Forall)):
        raise QuantifiedInput("evaluate requires a quantifier-free formula")
    raise TypeError(phi)


# -- substitution ------------------------------------------------------------


def substitute(phi: PresFormula, target: str, replacement: TermLike) -> PresFormula:
    """Replace every free occurrence of ``target`` by ``replacement``."""
    return substitute_all(phi, {target: replacement})


def substitute_all(phi: PresFormula,
                   replacements: Mapping[str, TermLike]) -> PresFormula:
    """Replace the free occurrences of every key of ``replacements`` by its
    term, all in one walk (simultaneously).

    Raises CaptureViolation if a replacement mentions a variable that is
    bound at some occurrence of its target.
    """
    def walk(f: PresFormula, reps: dict[str, LinTerm]) -> PresFormula:
        if isinstance(f, (TrueF, FalseF)):
            return f
        if isinstance(f, AtomF):
            t = f.atom.term
            if not any(v in reps for v, _ in t.coeffs):
                return f
            pairs = [(v, c) for v, c in t.coeffs if v not in reps]
            const = t.const
            for v, c in t.coeffs:
                if v in reps:
                    pairs.extend((u, c * d) for u, d in reps[v].coeffs)
                    const += c * reps[v].const
            return _fold_atom(Atom(f.atom.kind, LinTerm.make(pairs, const),
                                   f.atom.divisor))
        if isinstance(f, Not):
            return neg(walk(f.arg, reps))
        if isinstance(f, And):
            return conj(tuple(walk(a, reps) for a in f.args))
        if isinstance(f, Or):
            return disj(tuple(walk(a, reps) for a in f.args))
        if isinstance(f, (Exists, Forall)):
            names, body = _quantifier_block(f)
            free = free_vars(body)
            inner = {v: r for v, r in reps.items() if v not in names and v in free}
            if not inner:
                return f
            for v in names:
                if any(v in r.vars() for r in inner.values()):
                    raise CaptureViolation(v)
            return _quantify(type(f), names, walk(body, inner))
        raise TypeError(f)

    return walk(phi, {v: as_term(t) for v, t in replacements.items()})


# -- bound windows and cells ------------------------------------------------
#
# A conjunction of bound atoms over a shared variable part P is one window
# (lo, hi, eq): lo < P < hi, or P = eq, with None for no bound.  A Cell is
# a window map plus a set of other literals (divisibility and negations);
# it is the one representation of a conjunction of literals and the only
# code that combines bounds, used by QE to expand and project formulas.
# No other module reads or builds a window.


def _literal_atom(lit: PresFormula) -> Atom:
    if isinstance(lit, AtomF):
        return lit.atom
    if isinstance(lit, Not) and isinstance(lit.arg, AtomF):
        return lit.arg.atom
    raise TypeError(lit)


def complement(lit: PresFormula) -> PresFormula:
    """The negation of a literal: one literal, or for an equality the
    disjunction of two.  ``!(t < 0)`` is ``-t - 1 < 0``."""
    if isinstance(lit, Not):
        return lit.arg
    a = lit.atom                                           # type: ignore[union-attr]
    if a.kind == LT:
        return _fold_atom(Atom(LT, a.term.scale(-1).shift(-1)))
    if a.kind == EQ:
        return disj((_fold_atom(Atom(LT, a.term)),
                     _fold_atom(Atom(LT, a.term.scale(-1)))))
    return Not(lit)


def _canonical(coeffs: tuple, side: int,
               value: int) -> Optional[tuple[tuple, int, int]]:
    """Key ``sum(coeffs) > value`` (side 0), ``< value`` (1) or ``= value``
    (2), over sorted non-zero coefficient pairs, as (part, side, value)
    with the part primitive and its leading coefficient positive: the side
    is the position of the value in a window.  None for an equality
    without integer solutions."""
    if coeffs[0][1] < 0:
        coeffs = tuple((v, -c) for v, c in coeffs)
        side, value = (1, 0, 2)[side], -value
    g = 1 if coeffs[0][1] == 1 else math.gcd(*[c for _, c in coeffs])
    if g > 1:
        coeffs = tuple((v, c // g) for v, c in coeffs)
        if side == 2 and value % g:
            return None
        value = -(-value // g) if side == 1 else value // g
    return coeffs, side, value


_OPEN = (None, None, None)


def _window_add(window: tuple, side: int, value: int) -> Optional[tuple]:
    """A window narrowed by one bound; None when it becomes empty."""
    lo, hi, eq = window
    if side == 0:
        lo = value if lo is None else max(lo, value)
    elif side == 1:
        hi = value if hi is None else min(hi, value)
    else:
        if eq is not None and eq != value:
            return None
        eq = value
    if eq is None and lo is not None and hi is not None and lo + 2 == hi:
        eq = lo + 1
    if eq is not None:
        if (lo is not None and eq <= lo) or (hi is not None and eq >= hi):
            return None
        return (None, None, eq)
    if lo is not None and hi is not None and lo >= hi - 1:
        return None
    return (lo, hi, None)


def _window_union(a: tuple, b: tuple) -> Optional[tuple]:
    """The window of the integers in either window, ``_OPEN`` for all of
    them; None when a gap lies between the two."""
    (a_lo, a_hi), (b_lo, b_hi) = [w[:2] if w[2] is None else (w[2] - 1, w[2] + 1)
                                  for w in (a, b)]
    if ((b_lo is not None and a_hi is not None and b_lo >= a_hi)
            or (a_lo is not None and b_hi is not None and a_lo >= b_hi)):
        return None
    window = _OPEN
    if a_lo is not None and b_lo is not None:
        window = _window_add(window, 0, min(a_lo, b_lo))
    if a_hi is not None and b_hi is not None:
        window = _window_add(window, 1, max(a_hi, b_hi))   # type: ignore[arg-type]
    return window


def _window_atoms(part: tuple, window: tuple) -> list[Atom]:
    """Unfolded atoms stating one window."""
    lo, hi, eq = window
    out = []
    if eq is not None:
        out.append(Atom(EQ, LinTerm(part, -eq)))
    if hi is not None:
        out.append(Atom(LT, LinTerm(part, -hi)))
    if lo is not None:
        out.append(Atom(LT, LinTerm(tuple((v, -c) for v, c in part), lo)))
    return out


def _tighten(windows: dict, coeffs: tuple, side: int,
             value: int) -> Optional[tuple]:
    """The part and window that a bound, as ``_canonical`` reads it, makes
    of ``windows``, without changing them: () when the bound adds nothing,
    None when a window empties.  This is where a bound is canonicalised,
    and a constant one checked."""
    if not coeffs:
        holds = value < 0 if side == 0 else value > 0 if side == 1 else value == 0
        return () if holds else None
    key = _canonical(coeffs, side, value)
    if key is None:
        return None
    old = windows.get(key[0], _OPEN)
    window = _window_add(old, key[1], key[2])
    if window is None:
        return None
    return () if window == old else (key[0], window)


def _narrow(windows: dict, coeffs: tuple, side: int, value: int) -> bool:
    """Narrow ``windows`` in place by a bound; False when a window empties."""
    change = _tighten(windows, coeffs, side, value)
    if change:
        windows[change[0]] = change[1]
    return change is not None


def _part_coeff(part: tuple, v: str) -> int:
    for u, c in part:
        if u == v:
            return c
    return 0


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


# visits per window one propagation may make: bounds can climb forever on
# a cycle of windows, and past the budget the box is sound but not final
_ROUNDS = 32
_NATURAL = (0, None)          # the interval of a variable no bound narrowed


def _propagate(windows: dict, box: dict, todo: Iterable) -> Optional[dict]:
    """``box`` narrowed by interval propagation over the windows from the
    parts in ``todo``, None when an interval empties: a part's variable
    lies in its window minus the other terms' range, and one that narrows
    queues the parts that mention it.  Sound over the naturals; a fixed
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
            a, b = box.get(u, _NATURAL)[::1 if c > 0 else -1]
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
            a, b = old = box.get(u, _NATURAL)
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


class Cell:
    """An immutable conjunction of literals: a window per variable part,
    never an open one, and a frozenset of divisibility and negated
    literals.  Hash and equality go by a key computed once.

    The box, an inclusive interval per variable that holds every point, is
    propagated when first read: from the box of the cell this one was made
    from (``base``) over the windows that differ from it, or over every
    window from the box where every variable is natural (``_NATURAL``).  A
    variable leaves a cell through ``drop_one_sided`` when every window
    bounds it from one side only, else through ``project``.
    """

    __slots__ = ("windows", "divs", "_base", "_box", "_key")

    def __init__(self, windows: Optional[dict] = None,
                 divs: frozenset = frozenset(), base: Optional["Cell"] = None):
        self.windows = {} if windows is None else windows
        self.divs = divs
        self._base = {} if base is None else base   # None once the box is computed
        self._box = self._key = None

    @property
    def box(self) -> Optional[dict]:
        """The interval of each variable; None when one is empty, so the
        cell has no point."""
        base = self._base
        if base is not None:
            start, old = (base.box, base.windows) if isinstance(base, Cell) \
                else (base, {})
            self._box = None if start is None else _propagate(
                self.windows, start,
                [p for p, w in self.windows.items() if old.get(p) != w])
            self._base = None
        return self._box

    @property
    def key(self) -> tuple:
        if self._key is None:
            self._key = (tuple(sorted(self.windows.items())), self.divs)
        return self._key

    def __hash__(self) -> int:
        return hash(self.key)

    def __eq__(self, other: object) -> bool:
        return self is other or isinstance(other, Cell) and self.key == other.key

    @property
    def vars(self) -> set[str]:
        out = {v for part in self.windows for v, _ in part}
        for d in self.divs:
            out |= _literal_atom(d).term.vars()
        return out

    def extend(self, lits: Iterable[PresFormula]) -> Optional["Cell"]:
        """The cell with ``lits`` added: itself when they add nothing, None
        when it becomes empty."""
        windows, divs = self.windows, self.divs
        for lit in lits:
            if isinstance(lit, AtomF) and lit.atom.kind != DVD:
                t = lit.atom.term
                change = _tighten(windows, t.coeffs, 1 if lit.atom.kind == LT else 2,
                                  -t.const)
                if change is None:
                    return None
                if change:
                    # copied on the first change only
                    windows = dict(windows) if windows is self.windows else windows
                    windows[change[0]] = change[1]
            elif isinstance(lit, FalseF):
                return None
            elif not isinstance(lit, TrueF) and lit not in divs:
                if complement(lit) in divs:
                    return None
                divs = divs | {lit}
        if windows is self.windows and divs is self.divs:
            return self
        return Cell(windows, divs, self)

    def literals(self) -> list[PresFormula]:
        """Canonical literal list.  Window parts are primitive with a
        positive leading coefficient, so their atoms are already folded."""
        out: list[PresFormula] = [AtomF(a) for part, window in self.key[0]
                                  for a in _window_atoms(part, window)]
        out.extend(sorted(self.divs, key=repr))
        return out

    def clause(self) -> PresFormula:
        """The negated cell, the complements of ``literals`` in their order,
        built from the windows: ``P = e`` gives ``P - e < 0`` and ``-P + e <
        0``, ``P < h`` gives ``-P + h - 1 < 0`` and ``P > l`` gives ``P - l -
        1 < 0``, all folded and distinct, so they need no ``disj``."""
        out: list[PresFormula] = []
        for part, (lo, hi, eq) in self.key[0]:
            minus = tuple((v, -c) for v, c in part)
            if eq is not None:
                out += [AtomF(Atom(LT, LinTerm(part, -eq))),
                        AtomF(Atom(LT, LinTerm(minus, eq)))]
            if hi is not None:
                out.append(AtomF(Atom(LT, LinTerm(minus, hi - 1))))
            if lo is not None:
                out.append(AtomF(Atom(LT, LinTerm(part, -lo - 1))))
        out.extend(complement(d) for d in sorted(self.divs, key=repr))
        return Or(tuple(out)) if len(out) > 1 else out[0] if out else FALSE

    def drop_one_sided(self, names: Iterable[str]) -> Optional["Cell"]:
        """``exists >= 0`` of those ``names`` bounded from one side only and
        by no equality or other literal, in one pass (Pugh, CACM 1992): one
        bounded above only is 0, one bounded below only drops its windows.
        Itself when there is none, None when the cell empties."""
        barred = {u for d in self.divs for u in _literal_atom(d).term.vars()}
        # 1: bounded above only, -1: below only, None: from both sides
        side = {u: 0 for u in names if u not in barred}
        for part, (lo, hi, _) in self.windows.items():
            for u, c in part:
                if side.get(u) is not None:
                    s = 0 if (lo is None) == (hi is None) else \
                        1 if (c > 0) == (hi is not None) else -1
                    side[u] = s if s and side[u] in (0, s) else None
        if not any(side.values()):
            return self
        windows: dict = {}
        for part, window in self.windows.items():
            if -1 in {side.get(u) for u, _ in part}:
                continue
            rest = tuple(p for p in part if side.get(p[0]) != 1)
            for s, value in enumerate(window):
                if value is not None and not _narrow(windows, rest, s, value):
                    return None
        return Cell(windows, self.divs, self)

    def project(self, v: str) -> list["Cell"]:
        """Cells with non-empty boxes whose union is ``exists v >= 0`` of
        this one, after the Omega test (Pugh, CACM 1992): an equality on
        ``v`` pivots it away, the one with the least coefficient on ``v``
        first, and bounds on it combine by ``_shadow``.  A divisibility
        literal on ``v`` is first unfolded into equalities by ``_unfold``."""
        mention = [d for d in self.divs if _literal_atom(d).term.coeff(v)]
        if mention:
            return self._unfold(v, mention)
        unit = ((v, 1),)
        natural = _window_add(self.windows.get(unit, _OPEN), 0, -1)
        if natural is None:
            return []
        windows = dict(self.windows)
        windows[unit] = natural
        eqs = [p for p, w in windows.items() if w[2] is not None and _part_coeff(p, v)]
        if eqs:
            pivot = min(eqs, key=lambda p: (abs(_part_coeff(p, v)), p))
            cells = [self._pivot(v, windows, pivot, windows[pivot][2])]
        else:
            cells = self._shadow(v, windows)
        return [c for c in cells if c is not None and c.box is not None]

    def _unfold(self, v: str, mention: list) -> list["Cell"]:
        """``project(v)`` with the divisibility literals ``mention`` on ``v``
        made equalities: ``d | t`` is ``t = d*q`` and ``!(d | t)`` is ``t =
        d*q + r`` for some ``r`` in ``1..d-1``, with a fresh ``q`` that is
        projected after ``v``.  A folded ``t`` has coefficients in
        ``1..d-1`` and a constant in ``0..d-1``, so it is natural, and so is
        ``q``.  A fresh name avoids the box, which keeps the intervals of
        variables already projected away."""
        taken = set(self.box or ()) | self.vars
        names = (f"%{i}" for i in itertools.count())
        fresh = []
        cells: list = [Cell(self.windows, self.divs - frozenset(mention), self)]
        for lit in mention:
            atom = _literal_atom(lit)
            q = next(n for n in names if n not in taken)
            fresh.append(q)
            part = _combine((atom.term.coeffs, 1), (((q, 1),), -atom.divisor))
            residues = range(1, atom.divisor) if isinstance(lit, Not) else (0,)
            cells = [cell.extend([AtomF(Atom(EQ, LinTerm(part, atom.term.const - r)))])
                     for cell in cells for r in residues]
            cells = [c for c in cells if c is not None]
        for u in [v] + fresh:
            cells = [out for cell in cells for out in cell.project(u)]
        return cells

    def _pivot(self, v: str, windows: dict, eq_part: tuple,
               e: int) -> Optional["Cell"]:
        """The cell without ``v``, by the equality ``eq_part = e``: with
        ``c*v + R = e``, each window on ``v`` is scaled by ``|c|`` and its
        ``|c|*v`` replaced by ``sign(c)*(e - R)``, and the divisibility
        ``|c| | e - R`` keeps ``v`` integral.  None when the cell empties."""
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
                if bound is not None and not _narrow(
                        out, q, side, scale * bound - a * sign * e):
                    return None
        return Cell(out, self.divs, self).extend(
            [_fold_atom(Atom(DVD, LinTerm(rest, -e), scale))])

    def _shadow(self, v: str, windows: dict) -> list[Optional["Cell"]]:
        """``exists v`` of a cell whose constraints on ``v`` are all bounds:
        the dark shadow ``a*U - b*L >= (a-1)*(b-1)`` of each pair ``a*v >=
        L``, ``b*v <= U`` (exact Fourier-Motzkin when ``a`` or ``b`` is 1),
        plus the equality splinters ``a*v = L + k`` for the solutions that
        hug a lower bound."""
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
        cells: list[Optional[Cell]] = [Cell(dark, self.divs, self)] if all(
            _narrow(dark, _combine((u_part, a * u_sign), (l_part, -b * l_sign)),
                    0, (a - 1) * (b - 1) - 1 - a * u_const + b * l_const)
            for a, l_part, l_sign, l_const in lowers
            for b, u_part, u_sign, u_const in uppers) else []
        b_max = max((b for b, *_ in uppers), default=1)
        for a, l_part, l_sign, l_const in lowers:
            for k in range((a * b_max - a - b_max) // b_max + 1):
                eq: dict = {}
                if _narrow(eq, _combine((((v, a),), 1), (l_part, -l_sign)), 2,
                           l_const + k):
                    (eq_part, (_, _, e)), = eq.items()
                    cells.append(self._pivot(v, windows, eq_part, e))
        return cells


def cheapest(names: list[str], cells: Iterable[Cell]) -> Optional[str]:
    """The variable of ``names`` cheapest to eliminate over the cells, in
    one pass: one that an equality with a unit coefficient pivots away,
    then the least lcm of its coefficients, then the fewest literals that
    mention it; the first in ``names`` among equals.  None when no cell
    mentions any of them."""
    cost = {v: [1, 1, 0] for v in names}
    for cell in cells:
        literals = [(part, 3 - window.count(None), window[2] is not None)
                    for part, window in cell.windows.items()]
        literals += [(_literal_atom(d).term.coeffs, 1, False) for d in cell.divs]
        for part, count, equality in literals:
            for u, c in part:
                entry = cost.get(u)
                if entry is not None:
                    if equality and abs(c) == 1:
                        entry[0] = 0
                    entry[1] = math.lcm(entry[1], abs(c))
                    entry[2] += count
    return min((v for v in names if cost[v][2]), key=cost.__getitem__,
               default=None)


def merge_cells(cells: Iterable[Cell]) -> list[Cell]:
    """The cells deduplicated, and those identical up to one adjacent or
    overlapping window united; a window that the union opens is dropped."""
    buckets: dict = {}
    for cell in cells:
        parts = tuple(sorted(cell.windows))
        buckets.setdefault((parts, cell.divs), {}).setdefault(
            tuple(cell.windows[p] for p in parts), cell)
    out: dict = {}
    for (parts, divs), by_row in buckets.items():
        rows: list = list(by_row)
        changed = 1 < len(rows) <= 3000
        while changed:
            changed = False
            for i, j in itertools.combinations(range(len(rows)), 2):
                if rows[i] is None or rows[j] is None:
                    continue
                diff = [k for k in range(len(parts)) if rows[i][k] != rows[j][k]]
                union = (_window_union(rows[i][diff[0]], rows[j][diff[0]])
                         if len(diff) == 1 else None)
                if union is not None:
                    rows[i] = rows[i][:diff[0]] + (union,) + rows[i][diff[0] + 1:]
                    rows[j], changed = None, True
            rows = [r for r in rows if r is not None]
        for row in rows:
            cell = by_row.get(row) or Cell(
                {p: w for p, w in zip(parts, row) if w != _OPEN}, divs)
            out.setdefault(cell)
    return list(out)


# -- simplification ----------------------------------------------------------


def simplify(phi: PresFormula) -> PresFormula:
    """Constant folding and flattening; ``g & !g`` false and ``g | !g``
    true; quantifiers of absent variables dropped.  Bounds are merged only
    in cells."""
    if isinstance(phi, (TrueF, FalseF)):
        return phi
    if isinstance(phi, AtomF):
        return _fold_atom(phi.atom)
    if isinstance(phi, Not):
        return neg(simplify(phi.arg))
    if isinstance(phi, (Exists, Forall)):
        # one free-variable walk for the whole block; of a repeated name
        # only the innermost quantifier binds
        names, body = _quantifier_block(phi)
        body = simplify(body)
        free = free_vars(body)
        return _quantify(type(phi), [v for i, v in enumerate(names)
                                     if v in free and v not in names[i + 1:]], body)
    if isinstance(phi, (And, Or)):
        is_and = isinstance(phi, And)
        base = (conj if is_and else disj)(tuple(simplify(a) for a in phi.args))
        if isinstance(base, type(phi)):
            seen = set(base.args)
            if any(isinstance(k, Not) and k.arg in seen for k in base.args):
                return FALSE if is_and else TRUE
        return base
    raise TypeError(phi)
