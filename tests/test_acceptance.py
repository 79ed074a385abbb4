"""Acceptance suite: one test per criterion, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines as the criteria complete.
"""

import pathlib
import random
import time

import pytest
from helpers import canonical_shape, checked_block_truth, random_matrix

from hdmas.logic import (EXISTS, FORALL, AndF, Coop, Globally, Nat, Next,
                         NotF, OrF, Prop, Quant, Top, Until, Y1, Y2,
                         eventually, is_normal_form)
from hdmas.model import check_wellformed
from hdmas.normalform import nf, push
from hdmas.parsing import parse_formula, parse_model

E, A = EXISTS, FORALL
EY1 = ((E, 1),)
AY2 = ((A, 2),)
EA = ((E, 1), (A, 2))
AE = ((A, 2), (E, 1))

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "src" / "hdmas" / "fixtures"


def ok(number, text):
    print(f"criterion {number}: PASS  [{text}]")


def names(model, mask):
    return set(model.names_of(mask))


# -- criterion 1: well-formedness ---------------------------------------------


def test_criterion_1_wellformedness():
    started = time.perf_counter()
    source = (FIXTURES / "fig2.hdmas").read_text()
    model = parse_model(source).model
    report = check_wellformed(model)
    assert report.ok
    assert all(v.ok for v in report.idle.values())
    assert all(v.ok for v in report.scoping.values())
    assert all(v.ok for v in report.totality.values())
    assert all(v.ok for v in report.determinism.values())
    assert len(report.idle) == 6

    # widen the second guard from s1 so it overlaps the first
    mutated = source.replace("#a1 + #a2 + #a3 <= 10 && #a3 > 3",
                             "#a1 + #a2 + #a3 <= 10 && #a3 >= 0")
    assert mutated != source
    bad = check_wellformed(parse_model(mutated).model)
    assert not bad.ok
    overlap = bad.determinism[("s1", "s2", "s3")]
    assert not overlap.ok
    assert overlap.witness is not None
    from hdmas.presburger import evaluate
    mutated_model = parse_model(mutated).model
    assert evaluate(mutated_model.guard("s1", "s2"), overlap.witness)
    assert evaluate(mutated_model.guard("s1", "s3"), overlap.witness)

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    ok(1, f"all checks pass, mutation caught with witness {overlap.witness}, "
          f"{elapsed:.2f}s")


# -- criterion 2: the worked pre-image example --------------------------------


def test_criterion_2_prf_example(fig2, fig2_checker):
    started = time.perf_counter()
    phi = parse_formula("E y1 A y2 <<y1,y2>> X (p|q)")
    got = names(fig2, fig2_checker.global_mc(phi, {}))
    elapsed = time.perf_counter() - started
    assert got == {"s2", "s4", "s5", "s6"}
    assert elapsed < 30.0
    ok(2, f"extension s2 s4 s5 s6 in {elapsed:.2f}s")


# -- criterion 3: local checks ------------------------------------------------


def test_criterion_3_local_checks(fig2_checker):
    assert fig2_checker.check("s1", parse_formula("<<7,5>> X p"), {}) is True
    assert fig2_checker.check("s1", parse_formula("E y1 <<y1,11>> X p"), {}) is False
    assert fig2_checker.check(
        "s4", parse_formula("<<7,4>> X (A y2 E y1 <<y1,y2>> G p)"), {}) is True
    ok(3, "all three memberships exact")


# -- criterion 4: invariance fixpoint run -------------------------------------


def test_criterion_4_g_fixpoint_run(fig2, fig2_checker):
    trace = []
    inner = fig2_checker.g_fixpoint(Y1, Y2, Prop("p"), {}, AE, trace)
    assert names(fig2, inner) == {"s2", "s4"}
    steps = [names(fig2, t) for t in trace]
    assert steps[0] == {"s2", "s3", "s4"}
    assert steps[1] == {"s2", "s4"}
    assert steps[2] == {"s2", "s4"}
    assert len(steps) == 3

    outer = fig2_checker.global_mc(
        parse_formula("<<7,4>> X (A y2 E y1 <<y1,y2>> G p)"), {})
    assert names(fig2, outer) == {"s4", "s5"}
    ok(4, "inner {s2,s4} stabilises at iteration 2, outer {s4,s5}")


# -- criterion 5: reachability fixpoint run -----------------------------------


def test_criterion_5_u_fixpoint_run(fig2, fig2_checker):
    g_trace = []
    g_inner = fig2_checker.g_fixpoint(Nat(0), Y2, Prop("q"), {}, AY2, g_trace)
    assert names(fig2, g_inner) == {"s6"}
    assert [names(fig2, t) for t in g_trace] == [{"s5", "s6"}, {"s6"}, {"s6"}]

    u_trace = []
    psi1 = Quant(AE, Coop(Y1, Y2, Globally(Prop("p"))))
    psi2 = Quant(AY2, Coop(Nat(0), Y2, Globally(Prop("q"))))
    u_inner = fig2_checker.u_fixpoint(Y1, Nat(10), psi1, psi2, {}, EY1, u_trace)
    assert names(fig2, u_inner) == {"s2", "s4", "s6"}
    assert [names(fig2, t) for t in u_trace] == \
        [{"s6"}, {"s4", "s6"}, {"s2", "s4", "s6"}, {"s2", "s4", "s6"}]

    final = fig2_checker.global_mc(parse_formula(
        "<<6,3>> X (E y1 <<y1,10>> ((A y2 E y1 <<y1,y2>> G p) U (A y2 <<0,y2>> G q)))"),
        {})
    assert names(fig2, final) == {"s1", "s4", "s5", "s6"}
    ok(5, "both iteration traces match, final {s1,s4,s5,s6}")


# -- criterion 6: normal-form transformations ---------------------------------


def _example_body():
    p1, p2, p3 = Prop("p1"), Prop("p2"), Prop("p3")
    return OrF(
        Coop(Y1, Nat(5), Until(
            Quant(AY2, Coop(Y1, Y2, Next(p1))),
            Quant(((E, 2),), Coop(Y1, Y2, eventually(p2))))),
        Quant(EY1, AndF(
            Quant(AY2, Coop(Y1, Y2, eventually(p3))),
            NotF(Quant(AY2, Coop(Nat(3), Y2, Next(p1)))))))


def test_criterion_6_normal_form_outputs():
    p1, p2, p3 = Prop("p1"), Prop("p2"), Prop("p3")
    body = _example_body()

    pushed = push(((A, 1),), body)
    expected_push = OrF(
        Quant(((A, 1),), Coop(Y1, Nat(5), Until(
            Quant(((A, 1), (A, 2)), Coop(Y1, Y2, Next(p1))),
            Quant(((A, 1), (E, 2)), Coop(Y1, Y2, eventually(p2)))))),
        AndF(
            Quant(EA, Coop(Y1, Y2, eventually(p3))),
            NotF(Quant(AY2, Coop(Nat(3), Y2, Next(p1))))))
    assert canonical_shape(pushed) == canonical_shape(expected_push)

    normalised = nf(Quant(((A, 1),), body))
    # the mixed-pair elimination collapses the until's right argument
    # to a fully concrete operator
    derived_nf = OrF(
        Coop(Nat(0), Nat(5), Until(
            Quant(AY2, Coop(Nat(0), Y2, Next(p1))),
            Coop(Nat(0), Nat(0), eventually(p2)))),
        AndF(
            Quant(EA, Coop(Y1, Y2, eventually(p3))),
            NotF(Quant(AY2, Coop(Nat(3), Y2, Next(p1))))))
    assert canonical_shape(normalised) == canonical_shape(derived_nf)
    assert is_normal_form(normalised)

    declared_nf = [
        Coop(Nat(4), Nat(1), Next(Coop(Nat(4), Nat(2), Next(
            Coop(Nat(4), Nat(3), Next(NotF(Prop("captured")))))))),
        Quant(EY1, Coop(Y1, Nat(6), Globally(NotF(Prop("captured"))))),
    ]
    for phi in declared_nf:
        assert nf(phi) == phi
    ok(6, "push distributes the prefix as expected; nf is exact and "
          "fixes the declared normal forms")


# -- shared corpus for criteria 7 and 8 ----------------------------------------


def _concrete_corpus(rng, props, count, max_cn=5):
    """Closed formulas with concrete strategic operators, depth <= 3."""

    def state(depth, budget):
        roll = rng.random()
        if depth == 0 or roll < 0.3:
            return rng.choice([Prop(props[0]), Prop(props[-1]), Top()])
        if roll < 0.4:
            return NotF(state(depth - 1, budget))
        if roll < 0.5:
            return AndF(state(depth - 1, budget), state(depth - 1, budget))
        if roll < 0.6:
            return OrF(state(depth - 1, budget), state(depth - 1, budget))
        return coop(depth - 1, budget)

    def coop(depth, budget):
        c = rng.randint(0, budget)
        n = rng.randint(0, budget)
        kind = rng.random()
        if kind < 0.45:
            objective = Next(state(depth, budget))
        elif kind < 0.75:
            objective = Globally(state(depth, budget))
        else:
            objective = Until(state(depth, budget), state(depth, budget))
        return Coop(Nat(c), Nat(n), objective)

    return [coop(2, max_cn) for _ in range(count)]


@pytest.fixture(scope="module")
def corpora(fig2, fortress):
    rng = random.Random(424242)
    return {
        "fig2": (fig2, _concrete_corpus(rng, ("p", "q"), 60)),
        "fortress": (fortress, _concrete_corpus(rng, ("captured",), 45)),
    }


# -- criterion 7: engine equals enumeration -----------------------------------


def test_criterion_7_oracle_equivalence(corpora, fig2_checker,
                                        fortress_checker, fig2_oracle,
                                        fortress_oracle):
    checkers = {"fig2": fig2_checker, "fortress": fortress_checker}
    oracles = {"fig2": fig2_oracle, "fortress": fortress_oracle}
    total = 0
    for key, (model, formulas) in corpora.items():
        for phi in formulas:
            total += 1
            symbolic = checkers[key].global_mc(phi, {})
            enumerated = oracles[key].global_mc(phi, {})
            assert symbolic == enumerated, (key, phi)
    assert total >= 100
    ok(7, f"{total} formulas, zero discrepancies on both models")


# -- criterion 8: monotonicity ------------------------------------------------


def test_criterion_8_monotonicity(corpora, fig2_checker, fortress_checker):
    checkers = {"fig2": fig2_checker, "fortress": fortress_checker}
    checked = 0
    for key, (model, formulas) in corpora.items():
        mc = checkers[key]
        for phi in formulas:
            base_c = phi.t1.value
            base_n = phi.t2.value
            base = mc.global_mc(phi, {})
            for dc in range(1, 4):
                larger = mc.global_mc(Coop(Nat(base_c + dc), phi.t2,
                                           phi.objective), {})
                assert base & ~larger == 0, (key, phi, dc)
            for smaller_n in range(base_n + 1):
                weaker = mc.global_mc(Coop(phi.t1, Nat(smaller_n),
                                           phi.objective), {})
                assert base & ~weaker == 0, (key, phi, smaller_n)
            checked += 1
    assert checked >= 100
    ok(8, f"{checked} operators varied, zero inclusion violations")


# -- criterion 9: fixpoint unfolding ------------------------------------------


def test_criterion_9_fixpoint_equivalences(fig2, fig2_checker):
    mc = fig2_checker
    phi = Prop("p")
    psi = Prop("q")
    checked = 0

    def ext(f):
        return mc.global_mc(f, {})

    for c in range(5):
        for n in range(5):
            tc, tn = Nat(c), Nat(n)
            lhs = ext(Coop(tc, tn, Globally(phi)))
            rhs = ext(phi) & ext(Coop(tc, tn, Next(Coop(tc, tn, Globally(phi)))))
            assert lhs == rhs, ("item 1", c, n)
            lhs = ext(Coop(tc, tn, Until(psi, phi)))
            rhs = ext(phi) | (ext(psi) & ext(
                Coop(tc, tn, Next(Coop(tc, tn, Until(psi, phi))))))
            assert lhs == rhs, ("item 2", c, n)
            checked += 2

    def quantified(prefix, objective_ctor):
        def make(inner=None):
            objective = objective_ctor(inner) if inner is not None else None
            return Quant(prefix, Coop(Y1 if any(i == 1 for _, i in prefix) else t_fixed,
                                      Y2 if any(i == 2 for _, i in prefix) else t_fixed,
                                      objective))
        return make

    for t in range(5):
        t_term = Nat(t)
        # items 3 and 5: existentially quantified controllable count
        g_formula = Quant(EY1, Coop(Y1, t_term, Globally(phi)))
        step = Quant(EY1, Coop(Y1, t_term, Next(g_formula)))
        assert ext(g_formula) == ext(phi) & ext(step), ("item 3", t)
        u_formula = Quant(EY1, Coop(Y1, t_term, Until(psi, phi)))
        u_step = Quant(EY1, Coop(Y1, t_term, Next(u_formula)))
        assert ext(u_formula) == ext(phi) | (ext(psi) & ext(u_step)), ("item 5", t)
        # items 4 and 6: universally quantified adversary count
        g4 = Quant(AY2, Coop(t_term, Y2, Globally(phi)))
        s4 = Quant(AY2, Coop(t_term, Y2, Next(g4)))
        assert ext(g4) == ext(phi) & ext(s4), ("item 4", t)
        u6 = Quant(AY2, Coop(t_term, Y2, Until(psi, phi)))
        s6 = Quant(AY2, Coop(t_term, Y2, Next(u6)))
        assert ext(u6) == ext(phi) | (ext(psi) & ext(s6)), ("item 6", t)
        checked += 4

    for prefix, label in ((AE, "items 7/9"), (EA, "items 8/10")):
        g_formula = Quant(prefix, Coop(Y1, Y2, Globally(phi)))
        step = Quant(prefix, Coop(Y1, Y2, Next(g_formula)))
        assert ext(g_formula) == ext(phi) & ext(step), label
        u_formula = Quant(prefix, Coop(Y1, Y2, Until(psi, phi)))
        u_step = Quant(prefix, Coop(Y1, Y2, Next(u_formula)))
        assert ext(u_formula) == ext(phi) | (ext(psi) & ext(u_step)), label
        checked += 2

    ok(9, f"items 1-10 hold on all {checked} instantiations")


# -- criterion 10: quantifier-pattern collapses -------------------------------


def test_criterion_10_quantifier_collapses(fig2, fig2_checker):
    # Instance extensions are monotone in the coalition size and antitone
    # in the adversary size, so unions over adversaries and intersections
    # over coalitions are exact at size zero.  The opposite directions are
    # limits of monotone chains over a finite state space; they are
    # evaluated up to a bound well past every guard constant, with the
    # tail checked for stabilisation.
    mc = fig2_checker
    bound = 16
    objectives = [
        lambda: Next(Prop("p")),
        lambda: Globally(Prop("p")),
        lambda: Until(Prop("p"), Prop("q")),
    ]

    full = fig2.all_states()
    checked = 0
    for objective in objectives:
        grid = 5
        by_c_n = {(c, n): mc.global_mc(Coop(Nat(c), Nat(n), objective()), {})
                  for c in range(grid + 1) for n in range(grid + 1)}

        for t in (0, 1, 3):
            # 1: universal first counter collapses to zero agents
            lhs = full
            for c in range(grid + 1):
                lhs &= by_c_n[(c, t)]
            assert lhs == by_c_n[(0, t)], ("pattern 1", t)
            # 2: existential adversary collapses to none
            lhs = 0
            for n in range(grid + 1):
                lhs |= by_c_n[(t, n)]
            assert lhs == by_c_n[(t, 0)], ("pattern 2", t)
            # 3 and 4: mixed pairs collapse to <<0,0>>
            lhs = full
            for c in range(grid + 1):
                inner = 0
                for n in range(grid + 1):
                    inner |= by_c_n[(c, n)]
                lhs &= inner
            assert lhs == by_c_n[(0, 0)], ("pattern 3", t)
            lhs = 0
            for n in range(grid + 1):
                inner = full
                for c in range(grid + 1):
                    inner &= by_c_n[(c, n)]
                lhs |= inner
            assert lhs == by_c_n[(0, 0)], ("pattern 4", t)
            checked += 4

        # 5 and 6: the double universal equals the adversary limit of the
        # empty-coalition row (intersecting over coalitions is exact at
        # zero by monotonicity, checked in pattern 1)
        row = [mc.global_mc(Coop(Nat(0), Nat(n), objective()), {})
               for n in range(bound + 1)]
        assert row[bound] == row[bound - 1] == row[bound - 2], \
            "adversary chain not stable"
        lhs = full
        for value in row:
            lhs &= value
        rhs = mc.global_mc(Quant(AY2, Coop(Nat(0), Y2, objective())), {})
        assert lhs == rhs, "patterns 5/6"
        # 7 and 8: the double existential equals the coalition limit of
        # the unopposed row
        row = [mc.global_mc(Coop(Nat(c), Nat(0), objective()), {})
               for c in range(bound + 1)]
        assert row[bound] == row[bound - 1] == row[bound - 2], \
            "coalition chain not stable"
        lhs = 0
        for value in row:
            lhs |= value
        rhs = mc.global_mc(Quant(EY1, Coop(Y1, Nat(0), objective())), {})
        assert lhs == rhs, "patterns 7/8"
        checked += 4
    ok(10, f"all 8 collapse patterns hold ({checked} checks, limits to {bound})")


# -- criterion 11: decision procedure soundness -------------------------------


def test_criterion_11_qe_vs_enumeration():
    rng = random.Random(2024)
    agreed = 0
    widened = 0
    for _ in range(220):
        k = rng.randint(1, 3)
        variables = ["x", "y", "z"][:k]
        matrix = random_matrix(rng, variables, max_coeff=5, max_const=20,
                               atoms=rng.randint(1, 3))
        block = rng.choice("EA")
        oracle, symbolic, used = checked_block_truth(block, variables, matrix)
        assert oracle == symbolic, (block, variables, matrix)
        agreed += 1
    assert agreed >= 200
    ok(11, f"{agreed} random one-block formulas, zero disagreements")
