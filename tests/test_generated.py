"""The symbolic engine against the enumeration oracle on generated models."""

import random
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (random_concrete_formula, random_model_text,
                     reference_g_fixpoint, reference_u_fixpoint)
from hdmas.engine import ModelChecker
from hdmas.logic import Coop, Globally, Nat, Next, Prop, Until
from hdmas.model import check_wellformed
from hdmas.normalform import nf
from hdmas.oracle import Oracle
from hdmas.parsing import formula_to_str, parse_formula, parse_model


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_engine_agrees_with_oracle_on_generated_models(seed):
    rng = random.Random(seed)
    text = random_model_text(rng)
    model = parse_model(text).model
    assert check_wellformed(model).ok, text
    checker, oracle = ModelChecker(model), Oracle(model)
    for _ in range(5):
        phi = random_concrete_formula(rng, depth=3)
        assert checker.global_mc(phi, {}) == oracle.global_mc(phi, {}), \
            (text, formula_to_str(phi))


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_engine_agrees_with_oracle_with_a_cloned_action(seed):
    rng = random.Random(seed)
    text = random_model_text(rng, clone=True)
    model = parse_model(text).model
    assert check_wellformed(model).ok, text
    checker, oracle = ModelChecker(model), Oracle(model)
    for _ in range(5):
        phi = random_concrete_formula(rng, depth=3)
        assert checker.global_mc(phi, {}) == oracle.global_mc(phi, {}), \
            (text, formula_to_str(phi))


# seed 113 of the cloned-action generator: pivoting the guard equalities of
# s0 leaves divisibility literals on the block variables, which the
# projection unfolds
FOUR_ACTIONS = """\
actions a b c c2;  props p q;
state s0 { avail: c b a c2; label: p; }   state s1 { avail: c b c2; label: q; }
guard s0 -> s1 : ((2*#a + 1*#c = 2*#b + 2*#c) && (2*#a + 1*#c2 = 2*#b + 2*#c2));
guard s0 -> s0 : else;
guard s1 -> s1 : ((1*#b < 1*#b + 1*#c) || (1*#b < 1*#b + 1*#c2));
guard s1 -> s0 : else;
"""


def test_a_four_action_model_with_non_unit_equalities_agrees_with_oracle():
    model = parse_model(FOUR_ACTIONS).model
    checker, oracle = ModelChecker(model), Oracle(model)
    for objective in (Globally(Prop("p")), Next(Prop("p"))):
        phi = Coop(Nat(1), Nat(1), objective)
        got = checker.global_mc(phi, {})
        assert got == oracle.global_mc(phi, {}), formula_to_str(phi)
        assert model.names_of(got) == ("s0",)


# seed 161 of the cloned-action generator, which gave no verdict on
# <<0,1>> (p U q) while each block still simplified its input
SEED_161 = """\
actions a b c c2;  props p q;
state s0 { avail: c c2; label: q; }   state s1 { avail: a; label: p; }
state s2 { avail: c b a c2; label: ; }   state s3 { avail: c b a c2; label: q; }
guard s0 -> s2 : else;
guard s1 -> s2 : (2*#a <= 2);
guard s1 -> s3 : (2*#a > 3) && !(2*#a <= 2);
guard s1 -> s1 : else;
guard s2 -> s3 : ((2*#a + 1*#c = 2*#a + 1*#c) || (2*#a + 1*#c2 = 2*#a + 1*#c2));
guard s2 -> s0 : (1*#b < 1) && !((2*#a + 1*#c = 2*#a + 1*#c) || (2*#a + 1*#c2 = 2*#a + 1*#c2));
guard s2 -> s2 : else;
guard s3 -> s3 : ((1*#a + 2*#c <= 1) || (1*#a + 2*#c2 <= 1));
guard s3 -> s2 : ((1*#a < 2*#b + 1*#c) && (1*#a < 2*#b + 1*#c2)) && !((1*#a + 2*#c <= 1) || (1*#a + 2*#c2 <= 1));
guard s3 -> s0 : else;
"""


def test_seed_161_of_the_four_action_generator_agrees_with_oracle():
    model = parse_model(SEED_161).model
    phi = Coop(Nat(0), Nat(1), Until(Prop("p"), Prop("q")))
    got = ModelChecker(model).global_mc(phi, {})
    assert got == Oracle(model).global_mc(phi, {})
    assert model.names_of(got) == ("s0", "s3")


def test_seed_161_nested_until_agrees_with_oracle():
    # the slowest known draw of the generator: most states of its rounds
    # cannot change the answer and must not be decided
    model = parse_model(SEED_161).model
    phi = nf(parse_formula("<<0,2>> X (<<3,0>> (p U <<0,1>> (p U q)))"))
    got = ModelChecker(model).global_mc(phi, {})
    assert got == Oracle(model).global_mc(phi, {})
    assert model.names_of(got) == ("s2",)


def _adversary_limit(oracle, c, objective, bound):
    """The oracle's extensions of ``<<c,n>> objective`` intersected over
    n <= bound: they shrink as n grows, and the tail must be stable."""
    row = [oracle.global_mc(Coop(Nat(c), Nat(n), objective), {})
           for n in range(bound + 1)]
    assert row[-1] == row[-2] == row[-3], "adversary chain not stable"
    out = oracle.model.all_states()
    for value in row:
        out &= value
    return out


def _decide_quickly(model, formula):
    started = time.perf_counter()
    got = ModelChecker(model).global_mc(nf(parse_formula(formula)), {})
    # the bounded per-state formulas took over 5 s on each of these
    assert time.perf_counter() - started < 5.0, formula
    return got


def test_seed_161_a_y2_is_the_adversary_limit():
    model = parse_model(SEED_161).model
    got = _decide_quickly(model, "A y2 <<1,y2>> X q")
    assert got == _adversary_limit(Oracle(model), 1, Next(Prop("q")), 16)
    assert model.names_of(got) == ("s2",)


def test_seed_161_e_y1_a_y2_is_the_coalition_limit():
    model = parse_model(SEED_161).model
    oracle = Oracle(model)
    got = _decide_quickly(model, "E y1 A y2 <<y1,y2>> X q")
    # the limits grow with the coalition, so their union is the last
    row = [_adversary_limit(oracle, c, Next(Prop("q")), 12) for c in range(5)]
    assert row[-1] == row[-2] == row[-3], "coalition chain not stable"
    assert got == row[-1]
    assert model.names_of(got) == ("s1", "s2")


def test_seed_113_e_y1_a_y2_has_no_winning_coalition():
    # every coalition of at most 4 loses to some 12 adversaries
    model = parse_model(FOUR_ACTIONS).model
    oracle = Oracle(model)
    got = _decide_quickly(model, "E y1 A y2 <<y1,y2>> X p")
    assert got == 0
    for c in range(5):
        assert _adversary_limit(oracle, c, Next(Prop("p")), 12) == 0, c


def _random_objective(rng):
    body = random_concrete_formula(rng, depth=1)
    kind = rng.random()
    if kind < 0.35:
        return Next(body)
    if kind < 0.65:
        return Globally(body)
    return Until(random_concrete_formula(rng, depth=1), body)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_extensions_are_monotone_in_the_counts(seed):
    # more controllable agents can only help, more adversaries only hurt
    rng = random.Random(seed)
    text = random_model_text(rng)
    checker = ModelChecker(parse_model(text).model)
    for _ in range(3):
        objective = _random_objective(rng)
        ext = {(t1, t2): checker.global_mc(Coop(Nat(t1), Nat(t2), objective), {})
               for t1 in range(5) for t2 in range(5)}
        for (t1, t2), states in ext.items():
            if t1 < 4:
                assert states & ~ext[(t1 + 1, t2)] == 0, (text, objective, t1, t2)
            if t2 < 4:
                assert ext[(t1, t2 + 1)] & ~states == 0, (text, objective, t1, t2)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_fixpoint_traces_match_kleene_rounds(seed):
    # the fixpoints re-examine only states whose verdict can still flip;
    # every round must still equal the plain Kleene round
    rng = random.Random(seed)
    text = random_model_text(rng)
    model = parse_model(text).model
    checker, decisions = ModelChecker(model), {}
    for _ in range(3):
        t1, t2 = Nat(rng.randint(0, 3)), Nat(rng.randint(0, 3))
        psi1 = random_concrete_formula(rng, depth=1)
        psi2 = random_concrete_formula(rng, depth=1)
        q1, q2 = checker.global_mc(psi1, {}), checker.global_mc(psi2, {})
        trace = []
        got = checker.g_fixpoint(t1, t2, psi1, {}, (), trace)
        assert (got, trace) == reference_g_fixpoint(
            model, t1, t2, q1, {}, (), decisions), (text, t1, t2, psi1)
        trace = []
        got = checker.u_fixpoint(t1, t2, psi1, psi2, {}, (), trace)
        assert (got, trace) == reference_u_fixpoint(
            model, t1, t2, q1, q2, {}, (), decisions), (text, t1, t2, psi1, psi2)
