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
own negation.  A cell takes its literals canonical (``atom_alternatives``),
one tuple form for a bound and a divisibility literal alike: a literal is
canonicalised once, when it leaves its atom, not each time it joins a
cell, and ``literal_formula`` is the only way back to a formula.
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
    """The atom in its canonical form (``literal_formula``), or a constant."""
    alts = atom_alternatives(AtomF(atom))
    return literal_formula(alts[0][0]) if alts and alts[0] else \
        TRUE if alts else FALSE


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
# a window map plus a set of divisibility literals; it is the one
# representation of a conjunction of literals and the only code that
# combines bounds, used by QE to expand and project formulas.  No other
# module reads or builds a window.
#
# A literal is canonical, a tuple ``(part, side, value)``: a bound ``P >
# value`` (side 0), ``P < value`` (1) or ``P = value`` (2) as ``_canonical``
# keys it, or ``d | P + c`` (3) or its negation (4), with value ``(d, c)``,
# as ``_divisible`` reduces it.

_SIDES = {LT: 1, EQ: 2, DVD: 3}


def atom_alternatives(phi: AtomF, negated: bool = False) -> list[tuple]:
    """The alternatives of an atom, or of its negation when ``negated``, each
    a tuple of canonical literals: the negation of a literal is its
    ``complement``.  [] when it is false, [()] when it is true."""
    atom = phi.atom
    t, side = atom.term, _SIDES[atom.kind]
    if side == 3:
        alts = _divisible(t.coeffs, side, (atom.divisor, t.const))
    elif not t.coeffs:
        alts = [()] if (t.const < 0 if side == 1 else t.const == 0) else []
    else:
        key = _canonical(t.coeffs, side, -t.const)
        alts = [(key,)] if key else []
    if not negated:
        return alts
    if alts and alts[0]:
        return [(lit,) for lit in complement(alts[0][0])]
    return [] if alts else [()]


def literal_formula(lit: tuple) -> PresFormula:
    """A canonical literal as a formula; its atom is already folded."""
    part, side, value = lit
    if side == 0:
        return AtomF(Atom(LT, LinTerm(tuple((v, -c) for v, c in part), value)))
    if side > 2:
        atom = AtomF(Atom(DVD, LinTerm(part, value[1]), value[0]))
        return atom if side == 3 else Not(atom)
    return AtomF(Atom(LT if side == 1 else EQ, LinTerm(part, -value)))


def complement(lit: tuple) -> tuple:
    """The alternatives of the negation of a canonical literal, one literal
    each: ``P > v`` gives ``P < v + 1``, ``P < v`` gives ``P > v - 1``, ``P =
    v`` gives ``P < v`` and ``P > v``, and a divisibility literal is negated."""
    part, side, value = lit
    if side == 2:
        return (part, 1, value), (part, 0, value)
    if side > 2:
        return ((part, 7 - side, value),)
    return ((part, 1, value + 1),) if side == 0 else ((part, 0, value - 1),)


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


def _divisible(coeffs: tuple, side: int, value: tuple) -> list[tuple]:
    """The alternatives (``atom_alternatives``) of ``d | sum(coeffs) + c``
    (side 3) or of its negation (4), for ``value`` ``(d, c)``: one literal
    with the gcd of ``d`` and the coefficients divided out, then the
    coefficients and ``c`` reduced mod ``d``, so that they lie in ``1..d-1``
    and ``0..d-1``."""
    d, c = value
    g = math.gcd(d, *(x for _, x in coeffs))
    holds = False         # d | g*u + c needs g | c, and then divides by g
    if c % g == 0:
        d, c = d // g, c // g % (d // g)
        part = tuple((v, x // g % d) for v, x in coeffs if x // g % d)
        if part:
            return [((part, side, (d, c)),)]
        holds = c == 0
    return [()] if holds == (side == 3) else []


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


def _tighten(windows: dict, coeffs: tuple, side: int,
             value: int) -> Optional[tuple]:
    """The part and window that a bound, as ``_canonical`` reads it, makes
    of ``windows``, without changing them: () when the bound adds nothing,
    None when a window empties.  A constant bound is checked."""
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
    """An immutable conjunction of canonical literals: a window per
    variable part, never an open one, and a frozenset of divisibility
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
        parts = [*self.windows, *(part for part, _, _ in self.divs)]
        return {v for part in parts for v, _ in part}

    def extend(self, lits: Iterable) -> Optional["Cell"]:
        """The cell with the canonical literals ``lits`` added: itself when
        they add nothing, None when it becomes empty."""
        windows, divs = self.windows, self.divs
        for lit in lits:
            part, side, value = lit
            if side > 2:
                if lit not in divs:
                    if complement(lit)[0] in divs:
                        return None
                    divs = divs | {lit}
                continue
            old = windows.get(part, _OPEN)
            window = _window_add(old, side, value)
            if window is None:
                return None
            if window != old:
                # copied on the first change only
                windows = dict(windows) if windows is self.windows else windows
                windows[part] = window
        if windows is self.windows and divs is self.divs:
            return self
        return Cell(windows, divs, self)

    def canonical(self) -> list[tuple]:
        """The cell's canonical literals in key order, divisibility ones
        last."""
        return [(part, side, value) for part, (lo, hi, eq) in self.key[0]
                for side, value in ((2, eq), (1, hi), (0, lo))
                if value is not None] + sorted(self.divs)

    def meets(self, other: "Cell") -> bool:
        """Whether the two cells together keep a non-empty box: False shows
        that they share no point."""
        both = other.extend(self.canonical())
        return both is not None and both.box is not None

    def literals(self) -> list[PresFormula]:
        """The canonical literals as formulas."""
        return list(map(literal_formula, self.canonical()))

    def clause(self) -> tuple:
        """The negated cell as canonical literals, the complements of
        ``literals`` in their order, all distinct."""
        return tuple(c for lit in self.canonical() for c in complement(lit))

    def drop_one_sided(self, names: Iterable[str]) -> Optional["Cell"]:
        """``exists >= 0`` of those ``names`` bounded from one side only and
        by no equality or other literal, in one pass (Pugh, CACM 1992): one
        bounded above only is 0, one bounded below only drops its windows.
        Itself when there is none, None when the cell empties."""
        barred = {u for part, _, _ in self.divs for u, _ in part}
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

    def pinned(self, names: Iterable[str]) -> Optional["Cell"]:
        """The cell with ``v = c`` for each variable that its box fixes to
        ``c`` and that is one of ``names`` or in a divisibility literal, and
        with those values put into the divisibility literals; the literals on
        one term and divisor that leave one residue become one literal.  The
        projection then pivots such a variable away, and unfolds one literal
        where it would unfold each.  None when the literals fail."""
        box = self.box
        if box is None:
            return None
        fixed = {v: lo for v, (lo, hi) in box.items() if lo is not None and lo == hi}
        pins = {v for v in names if v in fixed}
        if not pins and not self.divs:
            return self
        families: dict = {}
        for lit in sorted(self.divs):
            part, side, (d, c) = lit
            known = {v for v, _ in part if v in fixed}
            if known:
                pins |= known
                alts = _divisible(
                    tuple(p for p in part if p[0] not in known), side,
                    (d, c + sum(x * fixed[v] for v, x in part if v in known)))
                if not alts:
                    return None
                if not alts[0]:
                    continue
                (lit,), = alts
                part, side, (d, c) = lit
            families.setdefault((part, d), []).append(lit)
        divs = set()
        for (part, d), lits in families.items():
            if len(lits) > 1:
                left = [r for r in range(d) if all(
                    ((r + c) % d == 0) == (side == 3) for _, side, (_, c) in lits)]
                if not left:
                    return None
                if len(left) == 1:
                    lits = [(part, 3, (d, -left[0] % d))]
            divs.update(lits)
        windows = self.windows
        for v in pins:
            if windows.get(((v, 1),), _OPEN)[2] is None:
                windows = dict(windows) if windows is self.windows else windows
                _narrow(windows, ((v, 1),), 2, fixed[v])
        if windows is self.windows and divs == self.divs:
            return self
        return Cell(windows, frozenset(divs), self)

    def project(self, v: str) -> list["Cell"]:
        """Cells with non-empty boxes whose union is ``exists v >= 0`` of
        this one, after the Omega test (Pugh, CACM 1992): an equality on
        ``v`` pivots it away, the one with the least coefficient on ``v``
        first, and bounds on it combine by ``_shadow``.  A divisibility
        literal on ``v`` is first unfolded into equalities by ``_unfold``."""
        mention = [d for d in sorted(self.divs) if _part_coeff(d[0], v)]
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
        for coeffs, side, (d, c) in mention:
            q = next(n for n in names if n not in taken)
            fresh.append(q)
            part = _combine((coeffs, 1), (((q, 1),), -d))
            keys = [_canonical(part, 2, r - c)
                    for r in (range(1, d) if side == 4 else (0,))]
            cells = [cell.extend([key]) for cell in cells for key in keys if key]
            cells = [cell for cell in cells if cell is not None]
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
        alts = _divisible(rest, 3, (scale, -e))
        return Cell(out, self.divs, self).extend(alts[0]) if alts else None

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
        literals += [(part, 1, False) for part, _, _ in cell.divs]
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


# -- simplification ----------------------------------------------------------


def simplify(phi: PresFormula) -> PresFormula:
    """Constant folding and flattening; ``g & !g`` false and ``g | !g``
    true; quantifiers of absent variables dropped.  Bounds are combined
    only in cells."""
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
