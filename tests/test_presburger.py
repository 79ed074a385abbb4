import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hdmas.presburger import (CaptureViolation, Exists, LinTerm,
                              QuantifiedInput, UnassignedVariable, atom_eq,
                              atom_ge, atom_gt, atom_le, atom_lt, atom_ne,
                              conj, disj, evaluate, free_vars, neg, num,
                              simplify, substitute, substitute_all, to_nnf,
                              var, TRUE, FALSE, Forall)

X1, X2, X3 = var("x1"), var("x2"), var("x3")

# guards of the six-state fixture model
G1 = conj((atom_ge(X1, X2.scale(2)), atom_le(X3, 3)))
G2 = conj((atom_le(X1.add(X2).add(X3), 10), atom_gt(X3, 3)))


def test_evaluate_guard_g1():
    assert evaluate(G1, {"x1": 4, "x2": 2, "x3": 0}) is True
    assert evaluate(G1, {"x1": 3, "x2": 2, "x3": 0}) is False


def test_evaluate_tautology_guard():
    assert evaluate(atom_eq(X1, X1), {"x1": 17}) is True


def test_evaluate_guard_g2():
    assert evaluate(G2, {"x1": 0, "x2": 0, "x3": 4}) is True
    assert evaluate(G2, {"x1": 0, "x2": 0, "x3": 11}) is False


def test_evaluate_missing_variable():
    with pytest.raises(UnassignedVariable):
        evaluate(atom_lt(X1, X2), {"x1": 0})


def test_evaluate_rejects_quantifiers():
    with pytest.raises(QuantifiedInput):
        evaluate(Exists("x1", atom_lt(X1, num(3))), {})


def test_evaluate_rejects_negative_values():
    with pytest.raises(ValueError):
        evaluate(atom_lt(X1, num(3)), {"x1": -1})


def test_substitute_constant():
    assert substitute(atom_lt(X1, var("y")), "x1", 3) == atom_lt(num(3), var("y"))


def test_substitute_bound_occurrence_untouched():
    phi = Exists("x1", atom_lt(X1, var("y")))
    assert substitute(phi, "x1", 3) == phi


def test_substitute_sum_equation():
    total = var("k1").add(var("k2")).add(var("ke"))
    assert substitute(atom_eq(total, var("t1")), "t1", 7) == atom_eq(total, num(7))


def test_substitute_capture():
    phi = Exists("y", atom_lt(X1, var("y")))
    with pytest.raises(CaptureViolation):
        substitute(phi, "x1", var("y"))


def test_free_vars():
    assert free_vars(G1) == {"x1", "x2", "x3"}
    assert free_vars(TRUE) == frozenset()
    assert free_vars(Exists("x1", atom_eq(X1, X2))) == {"x2"}


def test_nnf_of_negated_less_than():
    assert to_nnf(neg(atom_lt(X1, X2))) == disj((atom_lt(X2, X1), atom_eq(X1, X2)))


def test_nnf_double_negation():
    assert to_nnf(neg(neg(atom_lt(X1, X2)))) == atom_lt(X1, X2)


def test_nnf_equivalent_on_random_valuations():
    rng = random.Random(7)
    phi = neg(conj((G1, G2)))
    nnf = to_nnf(phi)
    for _ in range(1000):
        val = {v: rng.randrange(0, 25) for v in ("x1", "x2", "x3")}
        assert evaluate(nnf, val) == evaluate(phi, val)


def test_substitute_then_evaluate():
    rng = random.Random(11)
    for _ in range(200):
        val = {"x2": rng.randrange(8), "x3": rng.randrange(8)}
        c = rng.randrange(8)
        phi = disj((G1, neg(G2)))
        assert evaluate(substitute(phi, "x1", c), val) == \
            evaluate(phi, dict(val, x1=c))


def test_substitute_removes_variable():
    phi = conj((G1, G2))
    assert free_vars(substitute(phi, "x1", 4)) == {"x2", "x3"}


def test_valuation_outside_free_vars_is_ignored():
    # a distribution may assign the idle counter; guards never mention it
    val = {"x1": 4, "x2": 2, "x3": 0, "#": 9}
    trimmed = {"x1": 4, "x2": 2, "x3": 0}
    assert evaluate(G1, val) == evaluate(G1, trimmed)


@st.composite
def linterms(draw):
    names = draw(st.lists(st.sampled_from(["x1", "x2", "x3"]), unique=True))
    coeffs = {n: draw(st.integers(-4, 4)) for n in names}
    return LinTerm.make(coeffs, draw(st.integers(-10, 10)))


@st.composite
def formulas(draw, depth=3):
    if depth == 0:
        ctor = draw(st.sampled_from([atom_lt, atom_le, atom_eq, atom_ne, atom_ge]))
        return ctor(draw(linterms()), draw(linterms()))
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return neg(draw(formulas(depth=depth - 1)))
    if kind == 1:
        return conj((draw(formulas(depth=depth - 1)), draw(formulas(depth=depth - 1))))
    if kind == 2:
        return disj((draw(formulas(depth=depth - 1)), draw(formulas(depth=depth - 1))))
    return draw(formulas(depth=0))


@given(formulas(), st.dictionaries(st.sampled_from(["x1", "x2", "x3"]),
                                   st.integers(0, 12), min_size=3))
@settings(max_examples=300, deadline=None)
def test_nnf_and_simplify_preserve_truth(phi, val):
    expected = evaluate(phi, val)
    assert evaluate(to_nnf(phi), val) == expected
    assert evaluate(simplify(phi), val) == expected


@given(formulas())
@example(conj((disj((atom_gt(X1, 0), atom_lt(X1, 0))), atom_lt(X1, 1))))
@settings(max_examples=200, deadline=None)
def test_simplify_idempotent(phi):
    once = simplify(phi)
    assert simplify(once) == once


def test_simplify_folds_contradictory_window():
    # x1 < 3 and x1 > 2 has no integer solution
    assert simplify(conj((atom_lt(X1, 3), atom_gt(X1, 2)))) == FALSE


def test_simplify_folds_covering_disjunction():
    assert simplify(disj((atom_lt(X1, 5), atom_gt(X1, 2)))) == TRUE


@given(formulas(), st.sampled_from([None, "x1", "y1"]), st.booleans())
@settings(max_examples=200, deadline=None)
def test_substitute_all_is_one_walk_of_sequential_substitutions(phi, bound,
                                                                 universal):
    # replacements that mention no target give the same formula whichever
    # order the targets are substituted in, so one walk equals the chain;
    # a quantifier over a target shadows it, one over a replacement
    # variable captures it
    if bound is not None:
        quant = Forall if universal else Exists
        phi = quant(bound, conj((phi, atom_lt(var(bound), X3))))
    replacements = {"x1": var("y1").add(var("y2")), "x2": var("y2").shift(3),
                    "x3": num(4)}
    try:
        expected = phi
        for target, term in replacements.items():
            expected = substitute(expected, target, term)
    except CaptureViolation:
        with pytest.raises(CaptureViolation):
            substitute_all(phi, replacements)
        return
    assert substitute_all(phi, replacements) == expected
