"""The contract of the syntax-tree nodes of ``presburger`` (defined in
``nodes``) and ``logic``: immutable, hashed as the tuple of their fields
(set order, and with it every printed formula, depends on that hash),
printed in the dataclass format, and equal only to nodes of their own
class."""

import inspect

import pytest

from hdmas import logic, nodes
from hdmas.logic import (AgentVar, AndF, Coop, Globally, Nat, Next, NotF, OrF,
                         Param, Prop, Quant, Top, Until)
from helpers import atom_dvd
from hdmas.presburger import (And, Atom, AtomF, Exists, FalseF, Forall, LinTerm,
                              Not, Or, TrueF, atom_lt, neg, var)

A, B = atom_lt("x", 3), atom_lt("y", "x")
P = Prop("p")
SAMPLES = [
    LinTerm((("x", 2), ("y", -1)), 4), Atom("<", LinTerm((("x", 1),), -3)),
    TrueF(), FalseF(), A, Not(A), And((A, B)), Or((A, B)),
    Exists("x", A), Forall("y", B),
    Nat(3), AgentVar(1), Param(2), Top(), P, NotF(P), AndF(P, Top()),
    OrF(Top(), P), Coop(Nat(1), AgentVar(2), Next(P)),
    Quant((("E", 1),), Coop(AgentVar(1), Nat(0), Globally(P))),
    Next(P), Globally(P), Until(Top(), P),
]


ABSTRACT = {nodes.Node, nodes.PresFormula, logic.StateFormula, logic.PathFormula}


def _fields(node):
    """The node's fields, in the order its constructor takes them."""
    return tuple(inspect.signature(type(node)).parameters)


def _node_classes(module, roots):
    return {cls for name, cls in vars(module).items()
            if inspect.isclass(cls) and cls.__module__ == module.__name__
            and issubclass(cls, roots) and not name.startswith("_")} - ABSTRACT


def test_every_node_class_has_a_sample():
    want = _node_classes(nodes, nodes.Node) \
        | _node_classes(logic, (Nat, AgentVar, Param, logic.StateFormula,
                                logic.PathFormula))
    assert {type(node) for node in SAMPLES} == want


@pytest.mark.parametrize("node", SAMPLES, ids=lambda n: type(n).__name__)
def test_fields_cannot_be_assigned(node):
    for name in _fields(node) or ("arg",):
        with pytest.raises(AttributeError):
            setattr(node, name, None)
        with pytest.raises(AttributeError):
            delattr(node, name)


@pytest.mark.parametrize("node", SAMPLES, ids=lambda n: type(n).__name__)
def test_hash_is_the_hash_of_the_field_tuple(node):
    fields = tuple(getattr(node, name) for name in _fields(node))
    assert hash(node) == hash(fields)
    assert hash(node) == hash(fields)       # kept, and the same


@pytest.mark.parametrize("node", SAMPLES, ids=lambda n: type(n).__name__)
def test_a_rebuilt_node_is_equal(node):
    fields = tuple(getattr(node, name) for name in _fields(node))
    twin = type(node)(*fields)
    assert twin is not node and twin == node and hash(twin) == hash(node)


def test_repr_is_the_dataclass_text():
    # Cell.literals sorts divisibility literals by repr
    assert repr(neg(atom_dvd(2, var("x").shift(1)))) == (
        "Not(arg=AtomF(atom=Atom(kind='|', term=LinTerm(coeffs=(('x', 1),), "
        "const=1), divisor=2)))")
    assert repr(Coop(Nat(1), AgentVar(2), Globally(P))) == (
        "Coop(t1=Nat(value=1), t2=AgentVar(index=2), "
        "objective=Globally(arg=Prop(name='p')))")
    assert repr(TrueF()) == "TrueF()"


def test_nodes_of_different_classes_differ_even_with_equal_hashes():
    pairs = [(TrueF(), FalseF()), (And((A, B)), Or((A, B))), (Nat(1), Param(1)),
             (AgentVar(1), Param(1)), (Exists("x", A), Forall("x", A)),
             (AndF(P, P), OrF(P, P)), (Next(P), Globally(P))]
    for one, other in pairs:
        assert hash(one) == hash(other)
        assert one != other and not one == other
