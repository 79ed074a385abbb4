import itertools
import math
import random

import pytest

import hdmas.presburger as pb
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import atom_dvd, canonical, dnf_formulas
from hdmas.presburger import (DVD, EQ, LT, And, Atom, AtomF,
                              CaptureViolation, Exists,
                              LinTerm, Not, Or, QuantifiedInput,
                              UnassignedVariable, atom_eq, atom_ge,
                              atom_gt, atom_le, atom_lt, atom_ne, complement,
                              conj, disj, evaluate, free_vars,
                              literal_formula, neg, num, simplify, substitute,
                              substitute_all, var, TRUE, FALSE, Forall)
from hdmas.qe import _to_dnf

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


def _dnf_holds(alternatives, val):
    return any(all(evaluate(literal_formula(lit), val) for lit in alt)
               for alt in alternatives)


def test_nnf_of_negated_less_than():
    # one literal: not x1 < x2 is x2 <= x1
    assert dnf_formulas(_to_dnf(neg(atom_lt(X1, X2)))) == [[atom_le(X2, X1)]]
    assert dnf_formulas(_to_dnf(atom_lt(X1, X2), True)) == [[atom_le(X2, X1)]]


def test_complement_is_the_negation_of_a_literal():
    # the alternatives of the negation: one literal for a strict bound and
    # a divisibility literal, complementing which gives back the literal,
    # and two for an equality, as the negated atom's alternatives
    points = [{"x1": a, "x2": b} for a in range(6) for b in range(6)]
    for lit in (atom_lt(X1.scale(2), X2.shift(3)), atom_dvd(3, X1.add(X2)),
                neg(atom_dvd(2, X1))):
        (negated,) = complement(canonical(lit))
        assert complement(negated) == (canonical(lit),)
        for p in points:
            assert evaluate(literal_formula(negated), p) != evaluate(lit, p), (lit, p)
    equality = atom_eq(X1.scale(3), X2)
    negated = [(c,) for c in complement(canonical(equality))]
    assert len(negated) == 2 and negated == _to_dnf(equality, True)
    for p in points:
        assert _dnf_holds(negated, p) != evaluate(equality, p)


def test_nnf_double_negation():
    assert dnf_formulas(_to_dnf(Not(Not(atom_lt(X1, X2))))) == [[atom_lt(X1, X2)]]


def test_nnf_equivalent_on_random_valuations():
    rng = random.Random(7)
    phi = neg(conj((G1, G2)))
    dnf = _to_dnf(phi)
    for _ in range(1000):
        val = {v: rng.randrange(0, 25) for v in ("x1", "x2", "x3")}
        assert _dnf_holds(dnf, val) == evaluate(phi, val)


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
    assert _dnf_holds(_to_dnf(phi), val) == expected
    assert evaluate(simplify(phi), val) == expected


@st.composite
def negated_atoms(draw, depth=3):
    """``t < 0``, ``t = 0`` or ``d | t`` under zero to three raw negations,
    joined by raw conjunctions and disjunctions."""
    if depth == 0 or draw(st.booleans()):
        t, kind = draw(linterms()), draw(st.sampled_from(["<", "=", "|"]))
        phi = (atom_lt(t, 0) if kind == "<" else atom_eq(t, 0) if kind == "="
               else atom_dvd(draw(st.integers(2, 4)), t))
        for _ in range(draw(st.integers(0, 3))):
            phi = Not(phi)
        return phi
    kind = draw(st.sampled_from([And, Or, Not]))
    if kind is Not:
        return Not(draw(negated_atoms(depth=depth - 1)))
    return kind((draw(negated_atoms(depth=depth - 1)),
                 draw(negated_atoms(depth=depth - 1))))


@given(negated_atoms(), st.booleans(),
       st.fixed_dictionaries({v: st.integers(0, 12) for v in ("x1", "x2", "x3")}))
@example(Not(atom_lt(X1, 3)), False, {"x1": 3, "x2": 0, "x3": 0})
@example(Not(Not(atom_eq(X1, X2))), True, {"x1": 1, "x2": 2, "x3": 0})
@example(Not(atom_dvd(3, X1)), False, {"x1": 2, "x2": 0, "x3": 0})
@example(atom_dvd(3, X1), True, {"x1": 3, "x2": 0, "x3": 0})
@settings(max_examples=400, deadline=None)
def test_to_dnf_alternatives_evaluate_like_the_formula(phi, negated, val):
    # the alternatives hold exactly where phi does, or !phi when negated;
    # every literal is canonical: a bound (sides 0-2) over a primitive part
    # with a positive lead, a divisibility literal or its negation (3, 4)
    # with coefficients in 1..d-1, coprime to d, and a constant in 0..d-1
    alternatives = _to_dnf(phi, negated)
    for alt in alternatives:
        for part, side, value in alt:
            if side < 3:
                assert part[0][1] > 0 and math.gcd(*(c for _, c in part)) == 1, alt
            else:
                d, c = value
                assert side == 3 or side == 4, alt
                assert all(0 < x < d for _, x in part) and 0 <= c < d, alt
                assert part and math.gcd(d, *(x for _, x in part)) == 1, alt
    assert _dnf_holds(alternatives, val) == (evaluate(phi, val) != negated)


@st.composite
def canonical_literals(draw):
    """A canonical literal of any of the five sides: the one literal of an
    unfolded bound, equality or divisibility atom, or of its negation."""
    kind = draw(st.sampled_from([LT, EQ, DVD]))
    atom = AtomF(Atom(kind, draw(linterms()),
                      draw(st.integers(2, 6)) if kind == DVD else 0))
    alternatives = pb.atom_alternatives(atom, draw(st.booleans()))
    assume(len(alternatives) == 1 and len(alternatives[0]) == 1)
    return alternatives[0][0]


@given(canonical_literals())
@example(((("x1", 1), ("x2", -2)), 0, 3))
@example(((("x1", 2), ("x3", 3)), 2, 5))
@example(((("x1", 1), ("x2", 3)), 3, (4, 1)))
@example(((("x2", 2),), 4, (3, 0)))
@settings(max_examples=300, deadline=None)
def test_a_canonical_literal_reads_back_from_its_formula(lit):
    # the formula of a literal walks back into that literal, its negation
    # into the complement's alternatives, and those hold exactly where the
    # literal fails
    assert _to_dnf(literal_formula(lit)) == [(lit,)]
    negated = [(c,) for c in complement(lit)]
    assert _to_dnf(literal_formula(lit), True) == negated
    assert len(negated) == (2 if lit[1] == 2 else 1)
    for point in itertools.product(range(7), repeat=3):
        p = dict(zip(("x1", "x2", "x3"), point))
        assert _dnf_holds(negated, p) != evaluate(literal_formula(lit), p), p


@given(formulas())
@example(conj((disj((atom_gt(X1, 0), atom_lt(X1, 0))), atom_lt(X1, 1))))
@settings(max_examples=200, deadline=None)
def test_simplify_idempotent(phi):
    once = simplify(phi)
    assert simplify(once) == once


def test_simplify_folds_a_compound_formula_beside_its_negation():
    # fig2's s2 -> s4 guard #a1 > 5 && #a3 > #a1, and its s5 -> s2 guard
    # #a2 != #a3 (a conjunction flattens a conjunct's own conjuncts, so
    # g & !g is seen for a disjunctive g)
    g = conj((atom_gt(X1, 5), atom_gt(X3, X1)))
    assert simplify(disj((g, neg(g)))) == TRUE
    h = atom_ne(X2, X3)
    assert isinstance(h, Or)
    assert simplify(conj((h, neg(h)))) == FALSE


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
