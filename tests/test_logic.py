import random

import pytest
from helpers import canonical_shape, size

from hdmas.logic import (EXISTS, FORALL, AndF, Coop, Globally, Nat, Next,
                         NotF, OrF, Param, PolarityViolation,
                         PositionViolation, Prop, Quant, Top, Until, Y1, Y2,
                         assignment_symbols, check_syntax, children, eventually,
                         free_agent_vars, is_normal_form, map_children,
                         merge_quantifiers, polarity, simplify_vacuous,
                         subst_term)

E, A = EXISTS, FORALL
captured = Prop("captured")
p = Prop("p")


def test_assignment_symbols_are_parameters_then_free_agent_variables():
    # the y1 under E y1 is bound, so only y2 needs a value
    phi = AndF(Coop(Param(10), Y2, Next(p)),
               Quant(((E, 1),), Coop(Y1, Param(2), Next(p))))
    assert assignment_symbols(phi) == ["z2", "z10", "y2"]


def test_position_violation_first_slot():
    issues = check_syntax(Coop(Y2, Nat(3), Next(p)))
    assert any(isinstance(i, PositionViolation) and i.slot == 1 for i in issues)


def test_position_violation_second_slot():
    issues = check_syntax(Coop(Nat(3), Y1, Next(p)))
    assert any(isinstance(i, PositionViolation) and i.slot == 2 for i in issues)


def test_polarity_violation_under_negation():
    phi = Quant(((E, 1),), NotF(Coop(Y1, Nat(5), Next(p))))
    issues = check_syntax(phi)
    assert any(isinstance(i, PolarityViolation) and i.variable == 1
               for i in issues)


def test_fortress_specification_is_wellformed():
    phi = Quant(((A, 2), (E, 1)), Coop(Y1, Y2, Globally(NotF(captured))))
    assert check_syntax(phi) == []


def test_inadmissible_prefix():
    phi = Quant(((E, 1), (A, 1)), Coop(Y1, Nat(2), Next(p)))
    assert check_syntax(phi) != []


def test_polarity_classification():
    assert polarity(Coop(Y1, Nat(5), Next(p)), 1) == "all-positive"
    assert polarity(NotF(Coop(Y1, Nat(5), Next(p))), 1) == "all-negative"
    assert polarity(p, 1) == "absent"
    mixed = AndF(Coop(Y1, Nat(1), Next(p)), NotF(Coop(Y1, Nat(1), Next(p))))
    assert polarity(mixed, 1) == "mixed"


def test_polarity_ignores_bound_occurrences():
    # the inner y1 is rebound, so only the outer free occurrence counts
    inner = Quant(((E, 1),), Coop(Y1, Nat(5), Until(p, p)))
    phi = Coop(Y1, Nat(10), Next(NotF(inner)))
    assert polarity(phi, 1) == "all-positive"


def test_normal_form_accepts_declared_examples():
    assert is_normal_form(Quant(((E, 1),), Coop(Y1, Param(1), Globally(NotF(captured)))))
    chain = Coop(Nat(4), Nat(1), Next(Coop(Nat(4), Nat(2), Next(
        Coop(Nat(4), Nat(3), Next(NotF(captured)))))))
    assert is_normal_form(chain)


def test_normal_form_rejects_mixed_example():
    # nested quantified operators without their binders in front
    phi = OrF(
        Coop(Param(2), Param(2), Next(p)),
        Quant(((E, 1),), AndF(
            Coop(Y1, Param(1), eventually(Coop(Y1, Y2, Next(NotF(p))))),
            NotF(Quant(((A, 2),), Coop(Param(1), Y2,
                                       Next(NotF(Coop(Y1, Param(2),
                                                      Until(p, Prop("q")))))))))))
    assert not is_normal_form(phi)


def test_normal_form_rejects_universal_first_counter():
    assert not is_normal_form(Quant(((A, 1),), Coop(Y1, Nat(3), Next(p))))


def test_normal_form_requires_adjacent_binder():
    distant = Quant(((E, 1),), NotF(NotF(Coop(Y1, Nat(3), Next(p)))))
    assert not is_normal_form(distant)
    paired = Quant(((E, 1), (A, 2)), Coop(Y1, Y2, Next(p)))
    assert is_normal_form(paired)
    flipped = Quant(((A, 2), (E, 1)), Coop(Y1, Y2, Next(p)))
    assert is_normal_form(flipped)
    wrong_order = Quant(((E, 1), (A, 2)), Coop(Y1, Nat(3), Next(p)))
    assert not is_normal_form(wrong_order)


def test_subst_term_under_coop():
    phi = Coop(Y1, Param(1), Globally(Coop(Y1, Nat(2), Next(p))))
    got = subst_term(phi, Y1, 0)
    assert got == Coop(Nat(0), Param(1), Globally(Coop(Nat(0), Nat(2), Next(p))))


def test_subst_term_respects_binding():
    phi = Quant(((E, 1),), Coop(Y1, Nat(5), Next(p)))
    assert subst_term(phi, Y1, 9) == phi


def test_subst_term_parameter_both_positions():
    phi = Coop(Param(1), Param(1), Next(p))
    assert subst_term(phi, Param(1), 4) == Coop(Nat(4), Nat(4), Next(p))


def test_subst_term_idempotent():
    phi = Quant(((A, 2),), Coop(Nat(1), Y2, Until(p, Coop(Param(2), Y2, Next(p)))))
    once = subst_term(phi, Param(2), 3)
    assert subst_term(once, Param(2), 3) == once


def test_vacuous_quantifier_simplification():
    assert simplify_vacuous(Quant(((E, 1),), p)) == p
    assert simplify_vacuous(Quant(((A, 2),), Quant(((E, 1),), p))) == p
    partial = Quant(((E, 1), (A, 2)), Coop(Y1, Nat(3), Next(p)))
    assert simplify_vacuous(partial) == Quant(((E, 1),), Coop(Y1, Nat(3), Next(p)))


def test_merge_quantifiers():
    nested = Quant(((E, 1),), Quant(((A, 2),), Coop(Y1, Y2, Next(p))))
    assert merge_quantifiers(nested) == Quant(((E, 1), (A, 2)),
                                              Coop(Y1, Y2, Next(p)))
    shadowed = Quant(((E, 1),), Quant(((A, 1),), Coop(Y1, Nat(1), Next(p))))
    assert merge_quantifiers(shadowed) == shadowed


def test_canonical_reassociates():
    a, b, c = Prop("a"), Prop("b"), Prop("c")
    assert canonical_shape(AndF(AndF(a, b), c)) == canonical_shape(AndF(a, AndF(b, c)))
    assert canonical_shape(AndF(a, b)) != canonical_shape(AndF(b, a))


def test_free_agent_vars():
    assert free_agent_vars(Coop(Y1, Y2, Next(p))) == {1, 2}
    assert free_agent_vars(Quant(((E, 1),), Coop(Y1, Y2, Next(p)))) == {2}
    assert free_agent_vars(p) == frozenset()


def test_children_and_map_children_follow_the_fields():
    # one node of each class, with its subformulas in field order
    r = Prop("r")
    coop = Coop(Nat(2), Y2, Next(p))
    cases = [(Top(), ()), (p, ()), (NotF(p), (p,)), (AndF(p, r), (p, r)),
             (OrF(r, p), (r, p)), (coop, (coop.objective,)),
             (Quant(((A, 2),), coop), (coop,)), (Next(p), (p,)),
             (Globally(r), (r,)), (Until(p, r), (p, r))]
    for node, kids in cases:
        assert list(map(id, children(node))) == list(map(id, kids))
        seen = []
        rebuilt = map_children(node, lambda f: seen.append(f) or f)
        assert list(map(id, seen)) == list(map(id, kids))
        assert rebuilt.__class__ is node.__class__ and rebuilt == node
        if not kids:
            assert rebuilt is node
    # the function's results are what the rebuilt node holds
    assert map_children(Until(p, Top()), lambda f: NotF(f)) == \
        Until(NotF(p), NotF(Top()))
    assert map_children(coop, lambda f: Globally(f.arg)) == \
        Coop(Nat(2), Y2, Globally(p))


def test_size_counts_prefix_quantifiers():
    phi = Quant(((E, 1), (A, 2)), Coop(Y1, Y2, Next(p)))
    assert size(phi) == 2 + 1 + 1 + 1


def _size_and_calls(n):
    """``size`` of a parsed ``p <-> ... p`` chain of n operators, and the
    Python function calls it makes."""
    import sys

    from hdmas.parsing import parse_formula
    phi = parse_formula(" <-> ".join(["p"] * (n + 1)))
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        result = size(phi)
    finally:
        sys.setprofile(None)
    return result, calls


def test_size_of_shared_iff_chains_is_linear_work():
    # each <-> shares both of its sides, so the tree doubles per operator;
    # its size still counts every occurrence, but each distinct node is
    # visited once: four more operators cost well under 4 times the calls
    (small_size, small), (large_size, large) = _size_and_calls(8), _size_and_calls(12)
    assert large < 4 * small, (small, large)
    assert large_size > 8 * small_size
    # the same count as walking the expanded tree
    def expanded(f):
        extra = len(f.prefix) if isinstance(f, Quant) else 1
        return extra + sum(expanded(c) for c in children(f))
    from hdmas.parsing import parse_formula
    assert small_size == expanded(parse_formula(" <-> ".join(["p"] * 9)))


# -- grammar fuzzing ---------------------------------------------------------


def _random_valid(rng, depth, quantifiable):
    """Formulas built per the grammar with positive-polarity discipline."""
    roll = rng.random()
    if depth == 0 or roll < 0.25:
        return rng.choice([p, Prop("q"), Top()])
    if roll < 0.4:
        # negation flips what may be quantified below, so forbid it
        return NotF(_random_valid(rng, depth - 1, False))
    if roll < 0.55:
        return AndF(_random_valid(rng, depth - 1, quantifiable),
                    _random_valid(rng, depth - 1, quantifiable))
    if roll < 0.65:
        return OrF(_random_valid(rng, depth - 1, quantifiable),
                   _random_valid(rng, depth - 1, quantifiable))
    use_quant = quantifiable and rng.random() < 0.6
    t1 = Y1 if use_quant else rng.choice([Nat(rng.randrange(6)), Param(1)])
    t2 = Y2 if use_quant else rng.choice([Nat(rng.randrange(6)), Param(2)])
    kind = rng.random()
    body = _random_valid(rng, depth - 1, True)
    if kind < 0.4:
        objective = Next(body)
    elif kind < 0.7:
        objective = Globally(body)
    else:
        objective = Until(body, _random_valid(rng, depth - 1, True))
    coop = Coop(t1, t2, objective)
    if use_quant:
        prefix = rng.choice((((E, 1), (A, 2)), ((A, 2), (E, 1))))
        return Quant(prefix, coop)
    return coop


def test_generated_formulas_pass_and_mutations_fail():
    rng = random.Random(21)
    rejected = 0
    for _ in range(150):
        phi = _random_valid(rng, 3, True)
        assert check_syntax(phi) == [], phi
        # positional mutation: y2 in the first slot is always rejected
        mutant = Quant(((A, 2),), Coop(Y2, Nat(1), Next(phi)))
        assert any(isinstance(i, PositionViolation)
                   for i in check_syntax(mutant))
        # polarity mutation: quantifying a negated occurrence is rejected
        negated = Quant(((E, 1),), NotF(Coop(Y1, Nat(1), Next(phi))))
        if any(isinstance(i, PolarityViolation) for i in check_syntax(negated)):
            rejected += 1
    assert rejected == 150


def _calls_comparing_fresh_chains(leaves, n):
    """Python function calls made by comparing two separately parsed
    ``<->`` chains, equal and differing in the last leaf."""
    import sys

    from hdmas.parsing import parse_formula
    text = " <-> ".join(leaves[i % len(leaves)] for i in range(n + 1))
    a, b = parse_formula(text), parse_formula(text)
    c = parse_formula(text + " <-> q")
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        same, different = a == b, b == c
    finally:
        sys.setprofile(None)
    assert (same, different) == (True, False)
    return calls


@pytest.mark.parametrize("leaves", [["p"], ["(<<1,1>> X p)", "q", "(<<2,0>> G !q)"]],
                         ids=["props", "strategic"])
def test_comparing_fresh_iff_chains_is_linear(leaves):
    # each <-> shares both of its sides: comparing the trees node by node
    # does 16 times the work for four more operators, comparing each pair
    # of distinct nodes once well under 4 times
    small = _calls_comparing_fresh_chains(leaves, 8)
    large = _calls_comparing_fresh_chains(leaves, 12)
    assert large < 4 * small, (small, large)
