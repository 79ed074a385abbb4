import random

import pytest

import hdmas.presburger as pb
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hdmas.presburger import (CaptureViolation, Exists, LinTerm, Or,
                              QuantifiedInput, UnassignedVariable, atom_dvd,
                              atom_eq, atom_ge, atom_gt, atom_le, atom_lt,
                              atom_ne, complement, conj, disj, evaluate,
                              free_vars, neg, num, simplify, substitute,
                              substitute_all, to_nnf, var, TRUE, FALSE, Forall)

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
    # one literal: not x1 < x2 is x2 <= x1
    assert to_nnf(neg(atom_lt(X1, X2))) == atom_le(X2, X1)


def test_complement_is_the_negation_of_a_literal():
    # one literal for a strict bound and a divisibility literal, two for an
    # equality; complementing twice gives back the literal's truth
    points = [{"x1": a, "x2": b} for a in range(6) for b in range(6)]
    for lit, disjuncts in ((atom_lt(X1.scale(2), X2.shift(3)), 1),
                           (atom_eq(X1.scale(3), X2), 2),
                           (atom_dvd(3, X1.add(X2)), 1), (neg(atom_dvd(2, X1)), 1)):
        negated = complement(lit)
        assert (len(negated.args) if isinstance(negated, Or) else 1) == disjuncts
        for p in points:
            assert evaluate(negated, p) != evaluate(lit, p), (lit, p)
            if not isinstance(negated, Or):
                assert evaluate(complement(negated), p) == evaluate(lit, p)


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


def test_simplify_folds_a_compound_formula_beside_its_negation():
    # fig2's s2 -> s4 guard #a1 > 5 && #a3 > #a1, and its s5 -> s2 guard
    # #a2 != #a3 (a conjunction flattens a conjunct's own conjuncts, so
    # g & !g is seen for a disjunctive g)
    g = conj((atom_gt(X1, 5), atom_gt(X3, X1)))
    assert simplify(disj((g, neg(g)))) == TRUE
    h = atom_ne(X2, X3)
    assert isinstance(h, Or)
    assert simplify(conj((h, neg(h)))) == FALSE


def test_simplify_joins_adjacent_sibling_windows():
    # x1 < x2, x2 < x1 and x1 = x2 join one by one into everything
    assert simplify(disj((atom_lt(X1, X2), atom_lt(X2, X1),
                          atom_eq(X1, X2)))) == TRUE
    assert simplify(disj((atom_lt(X1, 3), atom_eq(X1, 3)))) == atom_lt(X1, 4)
    # a union can join a sibling that neither of its bounds joins alone
    assert simplify(disj((atom_eq(X1, 4), atom_lt(X1, 3),
                          atom_eq(X1, 3)))) == atom_lt(X1, 5)


def test_simplify_keeps_a_two_sided_union_as_two_disjuncts():
    # joined, 0 < x1 < 3 would print as the two atoms x1 < 3 and x1 > 0,
    # whose disjunction is true
    two = simplify(disj((atom_eq(X1, 1), atom_eq(X1, 2))))
    assert isinstance(two, Or) and len(two.args) == 2
    assert [evaluate(two, {"x1": v}) for v in range(4)] == \
        [False, True, True, False]


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


def _free_vars_calls(monkeypatch, fn, phi):
    calls = []
    original = pb.free_vars
    monkeypatch.setattr(pb, "free_vars",
                        lambda f: calls.append(f) or original(f))
    fn(phi)
    monkeypatch.setattr(pb, "free_vars", original)
    return len(calls)


@pytest.mark.parametrize("fn", [simplify,
                                lambda phi: substitute_all(phi, {"z": num(1)})],
                         ids=["simplify", "substitute_all"])
def test_a_quantifier_block_walks_its_body_once(monkeypatch, fn):
    # a prefix of n same-kind quantifiers over one body: one walk of the
    # body per block, not one per quantifier
    def prefix(n):
        body = conj(tuple(atom_lt(var(f"x{i}"), var("z")) for i in range(4)))
        for i in reversed(range(n)):
            body = Exists(f"x{i}", body)
        return body
    small = _free_vars_calls(monkeypatch, fn, prefix(4))
    assert _free_vars_calls(monkeypatch, fn, prefix(24)) == small > 0


def test_simplify_keeps_the_innermost_of_repeated_quantifiers():
    inner = Exists("x1", atom_lt(X1, num(3)))
    assert simplify(Exists("x1", inner)) == inner
    assert simplify(Forall("x2", Exists("x2", inner))) == inner
    assert simplify(Exists("x2", Exists("x1", atom_lt(X1, X2)))) == \
        Exists("x2", Exists("x1", atom_lt(X1, X2)))
