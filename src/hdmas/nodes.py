"""Immutable syntax-tree nodes, written without generated code: the
``Node`` base, and the linear terms, atoms and formulas that
``presburger`` operates on.  ``logic`` builds its nodes on the same base.

A node class lists its fields as ``__slots__`` and ``_fields`` and writes
its own ``__init__``, ``__eq__`` and ``_key``, the tuple of its fields;
classes of the same shape, such as ``And`` and ``Or``, share them and
compare classes.  A node's hash is the hash of its ``_key``, as a frozen
dataclass's is the hash of its field tuple, and is kept in the ``_hash``
slot once computed: set order, and with it every printed formula,
depends on that hash.  ``Node`` blocks assignment and prints the
dataclass ``__repr__``.
"""

from __future__ import annotations

from typing import Iterable

# sets a slot past Node.__setattr__; only __init__ and __hash__ call it
set_slot = object.__setattr__


class Node:
    __slots__ = ("_hash",)
    _fields: tuple[str, ...] = ()   # a class with fields sets both to them

    def __init__(self):
        set_slot(self, "_hash", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = hash(self._key())
            set_slot(self, "_hash", value)
        return value

    def _key(self) -> tuple:
        # the node classes write their tuple out; this loop serves the rest
        return tuple(getattr(self, n) for n in self._fields)


# ---------------------------------------------------------------------------
# Presburger terms, atoms and formulas


class LinTerm(Node):
    """Integer-linear expression ``sum(c_i * x_i) + const``.

    ``coeffs`` is sorted by variable and never holds zero coefficients,
    so equal terms are structurally equal.
    """

    __slots__ = _fields = ("coeffs", "const")

    def __init__(self, coeffs: tuple[tuple[str, int], ...] = (), const: int = 0):
        set_slot(self, "_hash", None)
        set_slot(self, "coeffs", coeffs)
        set_slot(self, "const", const)

    def __eq__(self, other: object) -> bool:
        return other.__class__ is LinTerm and self.const == other.const \
            and self.coeffs == other.coeffs

    __hash__ = Node.__hash__

    def _key(self) -> tuple:
        return (self.coeffs, self.const)

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


class Atom(Node):
    """Canonical atom: ``term < 0``, ``term = 0`` or ``divisor | term``."""

    __slots__ = _fields = ("kind", "term", "divisor")

    def __init__(self, kind: str, term: LinTerm, divisor: int = 0):
        set_slot(self, "_hash", None)
        set_slot(self, "kind", kind)
        set_slot(self, "term", term)
        set_slot(self, "divisor", divisor)

    def __eq__(self, other: object) -> bool:
        return other.__class__ is Atom and self.kind == other.kind \
            and self.divisor == other.divisor and self.term == other.term

    __hash__ = Node.__hash__

    def _key(self) -> tuple:
        return (self.kind, self.term, self.divisor)


class PresFormula(Node):
    """Base class for formula nodes."""

    __slots__ = ()


class _Constant(PresFormula):
    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return other.__class__ is self.__class__

    __hash__ = Node.__hash__


class TrueF(_Constant):
    __slots__ = ()


class FalseF(_Constant):
    __slots__ = ()


class AtomF(PresFormula):
    __slots__ = _fields = ("atom",)

    def __init__(self, atom: Atom):
        set_slot(self, "_hash", None)
        set_slot(self, "atom", atom)

    def __eq__(self, other: object) -> bool:
        return other.__class__ is AtomF and self.atom == other.atom

    __hash__ = Node.__hash__

    def _key(self) -> tuple:
        return (self.atom,)


class Not(PresFormula):
    __slots__ = _fields = ("arg",)

    def __init__(self, arg: PresFormula):
        set_slot(self, "_hash", None)
        set_slot(self, "arg", arg)

    def __eq__(self, other: object) -> bool:
        return other.__class__ is Not and self.arg == other.arg

    __hash__ = Node.__hash__

    def _key(self) -> tuple:
        return (self.arg,)


class _Junction(PresFormula):
    """``And`` or ``Or`` of a tuple of formulas."""

    __slots__ = _fields = ("args",)

    def __init__(self, args: tuple[PresFormula, ...]):
        set_slot(self, "_hash", None)
        set_slot(self, "args", args)

    def __eq__(self, other: object) -> bool:
        return other.__class__ is self.__class__ and self.args == other.args

    __hash__ = Node.__hash__

    def _key(self) -> tuple:
        return (self.args,)


class And(_Junction):
    __slots__ = ()


class Or(_Junction):
    __slots__ = ()


class _Binder(PresFormula):
    """``Exists`` or ``Forall`` binding one variable."""

    __slots__ = _fields = ("var", "body")

    def __init__(self, var: str, body: PresFormula):
        set_slot(self, "_hash", None)
        set_slot(self, "var", var)
        set_slot(self, "body", body)

    def __eq__(self, other: object) -> bool:
        return other.__class__ is self.__class__ and self.var == other.var \
            and self.body == other.body

    __hash__ = Node.__hash__

    def _key(self) -> tuple:
        return (self.var, self.body)


class Exists(_Binder):
    __slots__ = ()


class Forall(_Binder):
    __slots__ = ()
