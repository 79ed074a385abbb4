"""Linear integer arithmetic over the naturals.

Terms, atoms and formulas are immutable; every operation builds a fresh
tree.  Atoms are normalised to the shapes ``t < 0``, ``t = 0`` and
``d | t`` with an integer-combined linear term, so structural equality
is meaningful and usable as a cache key.  Variables are plain interned
strings.  All values range over the naturals; internal arithmetic is
signed and unbounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Union


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


@dataclass(frozen=True)
class LinTerm:
    """Integer-linear expression ``sum(c_i * x_i) + const``.

    ``coeffs`` is sorted by variable and never holds zero coefficients,
    so equal terms are structurally equal.
    """

    coeffs: tuple[tuple[str, int], ...] = ()
    const: int = 0

    @staticmethod
    def make(coeffs: dict[str, int] | Iterable[tuple[str, int]] = (),
             const: int = 0) -> "LinTerm":
        acc: dict[str, int] = {}
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        for v, c in items:
            acc[v] = acc.get(v, 0) + c
        return LinTerm(tuple(sorted((v, c) for v, c in acc.items() if c != 0)), const)

    def vars(self) -> frozenset[str]:
        return frozenset(v for v, _ in self.coeffs)

    def coeff(self, var: str) -> int:
        for v, c in self.coeffs:
            if v == var:
                return c
        return 0

    def add(self, other: "LinTerm") -> "LinTerm":
        return LinTerm.make(tuple(self.coeffs) + tuple(other.coeffs),
                            self.const + other.const)

    def sub(self, other: "LinTerm") -> "LinTerm":
        return self.add(other.scale(-1))

    def scale(self, k: int) -> "LinTerm":
        if k == 0:
            return LinTerm((), 0)
        return LinTerm(tuple((v, c * k) for v, c in self.coeffs), self.const * k)

    def shift(self, k: int) -> "LinTerm":
        return LinTerm(self.coeffs, self.const + k)

    def drop(self, var: str) -> "LinTerm":
        return LinTerm(tuple((v, c) for v, c in self.coeffs if v != var), self.const)

    def rename(self, mapping: Mapping[str, str]) -> "LinTerm":
        return LinTerm.make(tuple((mapping.get(v, v), c) for v, c in self.coeffs),
                            self.const)

    def evaluate(self, valuation: Mapping[str, int]) -> int:
        total = self.const
        for v, c in self.coeffs:
            if v not in valuation:
                raise UnassignedVariable(v)
            total += c * valuation[v]
        return total

    def is_const(self) -> bool:
        return not self.coeffs


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


@dataclass(frozen=True)
class Atom:
    """Canonical atom: ``term < 0``, ``term = 0`` or ``divisor | term``."""

    kind: str
    term: LinTerm
    divisor: int = 0


class PresFormula:
    """Base class for formula nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class TrueF(PresFormula):
    pass


@dataclass(frozen=True)
class FalseF(PresFormula):
    pass


@dataclass(frozen=True)
class AtomF(PresFormula):
    atom: Atom


@dataclass(frozen=True)
class Not(PresFormula):
    arg: PresFormula


@dataclass(frozen=True)
class And(PresFormula):
    args: tuple[PresFormula, ...]


@dataclass(frozen=True)
class Or(PresFormula):
    args: tuple[PresFormula, ...]


@dataclass(frozen=True)
class Implies(PresFormula):
    lhs: PresFormula
    rhs: PresFormula


@dataclass(frozen=True)
class Exists(PresFormula):
    var: str
    body: PresFormula


@dataclass(frozen=True)
class Forall(PresFormula):
    var: str
    body: PresFormula


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
    if isinstance(lhs, FalseF) or isinstance(rhs, TrueF):
        return TRUE
    if isinstance(lhs, TrueF):
        return rhs
    if isinstance(rhs, FalseF):
        return neg(lhs)
    return Implies(lhs, rhs)


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
    if isinstance(phi, Implies):
        return free_vars(phi.lhs) | free_vars(phi.rhs)
    if isinstance(phi, (Exists, Forall)):
        return free_vars(phi.body) - {phi.var}
    raise TypeError(phi)


def is_quantifier_free(phi: PresFormula) -> bool:
    if isinstance(phi, (Exists, Forall)):
        return False
    if isinstance(phi, Not):
        return is_quantifier_free(phi.arg)
    if isinstance(phi, (And, Or)):
        return all(is_quantifier_free(a) for a in phi.args)
    if isinstance(phi, Implies):
        return is_quantifier_free(phi.lhs) and is_quantifier_free(phi.rhs)
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
        elif isinstance(f, Implies):
            walk(f.lhs)
            walk(f.rhs)
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
        value = phi.atom.term.evaluate(valuation)
        return (value < 0 if phi.atom.kind == LT else value == 0
                if phi.atom.kind == EQ else value % phi.atom.divisor == 0)
    if isinstance(phi, Not):
        return not _evaluate(phi.arg, valuation)
    if isinstance(phi, And):
        return all(_evaluate(a, valuation) for a in phi.args)
    if isinstance(phi, Or):
        return any(_evaluate(a, valuation) for a in phi.args)
    if isinstance(phi, Implies):
        return (not _evaluate(phi.lhs, valuation)) or _evaluate(phi.rhs, valuation)
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
        if isinstance(f, Implies):
            return implies(walk(f.lhs, reps), walk(f.rhs, reps))
        if isinstance(f, (Exists, Forall)):
            free = free_vars(f.body)
            inner = {v: r for v, r in reps.items() if v != f.var and v in free}
            if not inner:
                return f
            if any(f.var in r.vars() for r in inner.values()):
                raise CaptureViolation(f.var)
            body = walk(f.body, inner)
            return Exists(f.var, body) if isinstance(f, Exists) else Forall(f.var, body)
        raise TypeError(f)

    return walk(phi, {v: as_term(t) for v, t in replacements.items()})


# -- negation normal form ----------------------------------------------------


def to_nnf(phi: PresFormula) -> PresFormula:
    """Push negations to the atoms.

    ``!(a < b)`` becomes ``b < a | a = b`` and ``!(a = b)`` becomes
    ``a < b | b < a``; negated divisibility atoms stay as literals.
    """
    return _nnf(phi, False)


def _nnf(phi: PresFormula, negated: bool) -> PresFormula:
    if isinstance(phi, TrueF):
        return FALSE if negated else TRUE
    if isinstance(phi, FalseF):
        return TRUE if negated else FALSE
    if isinstance(phi, AtomF):
        if not negated:
            return phi
        a = phi.atom
        if a.kind == LT:
            # !(t < 0)  ==  -t < 0  |  t = 0
            return disj((_fold_atom(Atom(LT, a.term.scale(-1))),
                         _fold_atom(Atom(EQ, a.term))))
        if a.kind == EQ:
            return disj((_fold_atom(Atom(LT, a.term)),
                         _fold_atom(Atom(LT, a.term.scale(-1)))))
        return Not(phi)
    if isinstance(phi, Not):
        return _nnf(phi.arg, not negated)
    if isinstance(phi, And):
        parts = tuple(_nnf(a, negated) for a in phi.args)
        return disj(parts) if negated else conj(parts)
    if isinstance(phi, Or):
        parts = tuple(_nnf(a, negated) for a in phi.args)
        return conj(parts) if negated else disj(parts)
    if isinstance(phi, Implies):
        if negated:
            return conj((_nnf(phi.lhs, False), _nnf(phi.rhs, True)))
        return disj((_nnf(phi.lhs, True), _nnf(phi.rhs, False)))
    if isinstance(phi, Exists):
        body = _nnf(phi.body, negated)
        return Forall(phi.var, body) if negated else Exists(phi.var, body)
    if isinstance(phi, Forall):
        body = _nnf(phi.body, negated)
        return Exists(phi.var, body) if negated else Forall(phi.var, body)
    raise TypeError(phi)


# -- bound windows and cells ------------------------------------------------
#
# A conjunction of bound atoms over a shared variable part P is one window
# (lo, hi, eq): lo < P < hi, or P = eq, with None for no bound.  A cell is
# a window map plus a set of other literals (divisibility and negations);
# it is the one representation of a conjunction of literals, used by
# simplify() to combine and condition siblings and by QE to expand and
# project formulas.


def _is_bound(phi: PresFormula) -> bool:
    return isinstance(phi, AtomF) and phi.atom.kind in (LT, EQ)


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


def _bound(atom: Atom) -> tuple[tuple, int, int]:
    """The window key of a folded non-constant LT/EQ atom."""
    return _canonical(atom.term.coeffs, 1 if atom.kind == LT else 2,
                      -atom.term.const)                 # type: ignore[return-value]


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


def _narrow(windows: dict, coeffs: tuple, side: int, value: int) -> bool:
    """Narrow ``windows`` in place by a bound as ``_canonical`` reads it;
    False when a window empties.  This is where a bound is canonicalised,
    and a constant one checked."""
    if not coeffs:
        return value < 0 if side == 0 else value > 0 if side == 1 else value == 0
    key = _canonical(coeffs, side, value)
    if key is None:
        return False
    window = _window_add(windows.get(key[0], _OPEN), key[1], key[2])
    if window is None:
        return False
    windows[key[0]] = window
    return True


def _cell_extend(windows: dict, divs: frozenset,
                 lits) -> Optional[tuple[dict, frozenset]]:
    """Add literals to a copied cell; None when it becomes empty."""
    windows = dict(windows)
    divs = set(divs)
    for lit in lits:
        if isinstance(lit, AtomF) and lit.atom.kind in (LT, EQ):
            t = lit.atom.term
            if not _narrow(windows, t.coeffs, 1 if lit.atom.kind == LT else 2,
                           -t.const):
                return None
        elif isinstance(lit, FalseF):
            return None
        elif not isinstance(lit, TrueF):
            complement = lit.arg if isinstance(lit, Not) else Not(lit)
            if complement in divs:
                return None
            divs.add(lit)
    return windows, frozenset(divs)


def _cell_literals(windows: dict, divs: frozenset) -> list[PresFormula]:
    """Canonical literal list of a cell.  Window parts are primitive with a
    positive leading coefficient, so their atoms are already folded."""
    out: list[PresFormula] = [AtomF(a) for part, window in sorted(windows.items())
                              for a in _window_atoms(part, window)]
    out.extend(sorted(divs, key=repr))
    return out


# -- simplification ----------------------------------------------------------
#
# Beyond the constructor-level folding, simplify() combines sibling bound
# atoms over a shared variable part.  A conjunction keeps the cell of its
# bound atoms and judges clause literals against it; a disjunction keeps
# the loosest bounds and detects covering ones.


def _combine_and(children: list[PresFormula]
                 ) -> Optional[tuple[list[PresFormula], dict]]:
    """The children with their bound atoms merged into one window per
    variable part, and those windows; None when a window is empty."""
    out: list[PresFormula] = []
    bounds: list[PresFormula] = []
    for ch in children:
        (bounds if _is_bound(ch) else out).append(ch)
    cell = _cell_extend({}, frozenset(), bounds)
    if cell is None:
        return None
    out.extend(_fold_atom(a) for part, window in cell[0].items()
               for a in _window_atoms(part, window))
    return out, cell[0]


def _combine_or(children: list[PresFormula]) -> list[PresFormula] | bool:
    groups: dict[tuple, list] = {}
    out: list[PresFormula] = []
    for ch in children:
        if not _is_bound(ch):
            out.append(ch)
            continue
        part, side, value = _bound(ch.atom)              # type: ignore[union-attr]
        g = groups.setdefault(part, [None, None, set()])
        if side == 2:
            g[2].add(value)
        else:
            loosest = min if side == 0 else max
            g[side] = value if g[side] is None else loosest(g[side], value)
    for part, (lo, hi, eqs) in groups.items():
        if lo is not None and hi is not None and lo < hi:
            return True
        windows = [(None, None, e) for e in sorted(eqs)
                   if not ((hi is not None and e < hi) or (lo is not None and e > lo))]
        windows.append((lo, hi, None))
        out.extend(_fold_atom(a) for window in windows
                   for a in _window_atoms(part, window))
    return out


def _condition_clauses(children: list[PresFormula],
                       windows: dict) -> Optional[list[PresFormula]]:
    """Evaluate clause literals against the windows of the sibling atoms.

    A literal that empties the siblings' cell is false and one that leaves
    it unchanged is true; only the window of the literal's own variable
    part can change, so only that one is narrowed.  Returns the rewritten
    child list, ``children`` itself when no clause changed, or None when a
    clause became empty (the conjunction is unsatisfiable).
    """
    if not windows:
        return children
    out: list[PresFormula] = []
    changed = False
    for ch in children:
        if not isinstance(ch, Or):
            out.append(ch)
            continue
        keep: list[PresFormula] = []
        for lit in ch.args:
            if _is_bound(lit):
                part, side, value = _bound(lit.atom)     # type: ignore[union-attr]
                window = windows.get(part)
                if window is not None:
                    narrowed = _window_add(window, side, value)
                    if narrowed == window:
                        break
                    if narrowed is None:
                        continue
            keep.append(lit)
        else:
            if not keep:
                return None
            dropped = len(keep) < len(ch.args)
            changed = changed or dropped
            out.append(disj(keep) if dropped else ch)
            continue
        changed = True
    return out if changed else children


_SUBSUME_LIMIT = 800


def _literal_set(phi: PresFormula, splitter) -> Optional[frozenset]:
    if isinstance(phi, (AtomF, Not)):
        return frozenset((phi,))
    if isinstance(phi, splitter):
        if all(isinstance(a, (AtomF, Not)) for a in phi.args):
            return frozenset(phi.args)
    return None


def _subsume(children: list[PresFormula], splitter) -> list[PresFormula]:
    """Drop children whose literal set is a superset of a sibling's.

    For a disjunction of conjuncts a superset conjunct is stronger and
    already covered; for a conjunction of clauses it is weaker and implied.
    """
    if len(children) > _SUBSUME_LIMIT:
        return children
    sets = [(_literal_set(c, splitter), c) for c in children]
    indexed = sorted((s for s in sets if s[0] is not None), key=lambda p: len(p[0]))
    survivors: list[frozenset] = []
    drop: set = set()
    for s, c in indexed:
        if any(other <= s for other in survivors):
            drop.add(c)
        else:
            survivors.append(s)
    if not drop:
        return children
    return [c for c in children if c not in drop]


def simplify(phi: PresFormula) -> PresFormula:
    """Constant folding, flattening, window combining, clause conditioning
    and subsumption."""
    if isinstance(phi, (TrueF, FalseF)):
        return phi
    if isinstance(phi, AtomF):
        return _fold_atom(phi.atom)
    if isinstance(phi, Not):
        return neg(simplify(phi.arg))
    if isinstance(phi, Implies):
        return implies(simplify(phi.lhs), simplify(phi.rhs))
    if isinstance(phi, Exists):
        body = simplify(phi.body)
        if phi.var not in free_vars(body):
            return body
        return Exists(phi.var, body)
    if isinstance(phi, Forall):
        body = simplify(phi.body)
        if phi.var not in free_vars(body):
            return body
        return Forall(phi.var, body)
    if isinstance(phi, And):
        base = conj(tuple(simplify(a) for a in phi.args))
        if not isinstance(base, And):
            return base
        kids = list(base.args)
        while True:
            seen = set(kids)
            for k in kids:
                if isinstance(k, Not) and k.arg in seen:
                    return FALSE
            combined = _combine_and(kids)
            if combined is None:
                return FALSE
            conditioned = _condition_clauses(*combined)
            if conditioned is combined[0]:
                break
            if conditioned is None:
                return FALSE
            # a conditioned clause may have shrunk to an atom that narrows
            # a window and so conditions further clauses; every pass drops
            # a literal, so this ends
            conditioned = [simplify(c) if isinstance(c, Or) else c
                           for c in conditioned]
            if any(isinstance(c, FalseF) for c in conditioned):
                return FALSE
            base = conj(tuple(conditioned))
            if not isinstance(base, And):
                return base
            kids = list(base.args)
        return conj(_subsume(conditioned, Or))
    if isinstance(phi, Or):
        base = disj(tuple(simplify(a) for a in phi.args))
        if not isinstance(base, Or):
            return base
        kids = list(base.args)
        seen = set(kids)
        for k in kids:
            if isinstance(k, Not) and k.arg in seen:
                return TRUE
        combined = _combine_or(kids)
        if combined is True:
            return TRUE
        return disj(_subsume(combined, And))
    raise TypeError(phi)
