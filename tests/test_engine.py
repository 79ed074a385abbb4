import dataclasses
import random

import pytest

import hdmas.engine
import hdmas.qe as qe
from helpers import (decide_formula, random_model_text, reference_g_fixpoint,
                     reference_pre_image, reference_u_fixpoint, ring_text,
                     sequential_prf, verbatim_prf)
from hdmas.engine import (ModelChecker, NotNormalForm, UnassignedParameter,
                          _resolve_term, build_prf, quantified_prf)
from hdmas.logic import (EXISTS, FORALL, Coop, Globally, Nat, Next, NotF,
                         Param, Prop, Quant, Top, Y1, Y2)
from hdmas.normalform import nf
from hdmas.parsing import guard_to_str, parse_formula, parse_model
from hdmas.presburger import Exists, Forall, FreeVariableError, Or
from hdmas.qe import decide

E, A = EXISTS, FORALL
p, q = Prop("p"), Prop("q")

EY1 = ((E, 1),)
AY2 = ((A, 2),)
EA = ((E, 1), (A, 2))
AE = ((A, 2), (E, 1))


def names(model, mask):
    return set(model.names_of(mask))


def test_build_prf_tautological_guard(fig2):
    phi = build_prf(fig2, "s6", 3, 4, fig2.mask_of(["s6"]))
    assert decide(phi) is True


def test_build_prf_empty_target(fig2):
    for s in fig2.states:
        phi = build_prf(fig2, s, 4, 2, 0)
        assert decide(phi) is False


def test_build_prf_excludes_s3(fig2):
    targets = fig2.mask_of(["s2", "s3", "s4", "s5", "s6"])
    game = build_prf(fig2, "s3", "y1", "y2", targets)
    assert decide(game.quantified(Forall, "y2").quantified(Exists, "y1")) is False


def test_build_prf_folds_a_guard_beside_its_negation(fig2):
    # s2's guards are g and !(g), so into all states their union is true
    # and no adversary share is left to quantify
    prf = build_prf(fig2, "s2", 3, 2, fig2.all_states())
    assert prf.adversaries == ()
    assert "l_" not in guard_to_str(prf.formula())


def test_build_prf_rejects_a_guard_over_an_unavailable_counter(fig2):
    # the reader rejects such a model; one built directly gets a typed
    # error naming the counter instead of a game with a free share
    avail = dict(fig2.avail, s1=fig2.avail["s1"] - {"a2"})
    model = dataclasses.replace(fig2, avail=avail)
    with pytest.raises(FreeVariableError, match="#a2"):
        build_prf(model, "s1", 3, 2, model.mask_of(["s2"]))


def _prefixed(phi, pfix):
    for q, y in reversed(pfix):
        phi = Exists(f"y{y}", phi) if q == E else Forall(f"y{y}", phi)
    return phi


def _assert_games_match_verbatim(model, step=1):
    # under each prefix form, the game and its formula against the paper's
    # encoding with the prefix's quantifiers around it, on a spread of
    # target sets
    terms = VERBATIM_TERMS + [(Nat(0), Nat(0), ()), (Nat(7), Nat(5), ())]
    for targets in range(0, model.all_states() + 1, step):
        for s in model.states:
            for t1, t2, pfix in terms:
                r1, r2 = _resolve_term(t1, {}, pfix), _resolve_term(t2, {}, pfix)
                game = quantified_prf(model, s, r1, r2, targets, pfix)
                want = decide_formula(_prefixed(
                    verbatim_prf(model, s, r1, r2, targets), pfix))
                assert decide(game) == decide_formula(game.formula()) == want, \
                    (s, t1, t2, pfix, model.names_of(targets))


def test_build_prf_verbatim_encoding_agrees(fig2, fortress):
    _assert_games_match_verbatim(fig2, 7)
    _assert_games_match_verbatim(fortress)


def test_build_prf_substitutes_every_counter_in_one_walk(fig2, fortress):
    # the game, shifted literal by literal from guards compiled once, and
    # its formula decide as the formula built by one substitution walk per
    # counter, on the fixtures and on generated models; open counts are
    # closed by both alternating prefixes
    rng = random.Random(29)
    models = [fig2, fortress] + [parse_model(random_model_text(rng)).model
                                 for _ in range(25)]
    built = 0
    for model in models:
        everything = model.all_states()
        masks = {everything, 0} | {rng.randrange(everything + 1)
                                   for _ in range(4)}
        for s in model.names_of(everything):
            for targets in masks:
                for t1, t2 in ((3, 2), ("y1", "y2"), (0, 5)):
                    game = build_prf(model, s, t1, t2, targets)
                    want = sequential_prf(model, s, t1, t2, targets)
                    for pfix in (EA, AE) if t1 == "y1" else ((),):
                        closed = game
                        for q, y in reversed(pfix):
                            closed = closed.quantified(
                                Exists if q == E else Forall, f"y{y}")
                        assert decide(closed) == \
                            decide_formula(closed.formula()) == \
                            decide_formula(_prefixed(want, pfix)), \
                            (s, targets, pfix)
                        built += 1
    assert built > 300


def test_pre_image_alternating_prefix(fig2):
    got = ModelChecker(fig2).pre_image(Y1, Y2, fig2.mask_of(["s2", "s3", "s4"]), {}, AE)
    assert names(fig2, got) == {"s2", "s4", "s5"}


def test_pre_image_universal_prefix(fig2):
    got = ModelChecker(fig2).pre_image(Nat(0), Y2, fig2.mask_of(["s5", "s6"]), {}, AY2)
    assert names(fig2, got) == {"s6"}


def test_pre_image_existential_prefix(fig2):
    got = ModelChecker(fig2).pre_image(Y1, Nat(10), fig2.mask_of(["s6"]), {}, EY1)
    assert names(fig2, got) == {"s4", "s6"}


def test_pre_image_resolves_parameters(fig2):
    got = ModelChecker(fig2).pre_image(Param(1), Param(2),
                                       fig2.mask_of(["s2", "s3", "s4"]),
                                       {"z1": 7, "z2": 5}, ())
    assert "s1" in names(fig2, got)
    with pytest.raises(UnassignedParameter):
        ModelChecker(fig2).pre_image(Param(1), Nat(2), fig2.all_states(), {}, ())


def test_pre_image_free_agent_variable_needs_value(fig2):
    with pytest.raises(UnassignedParameter):
        ModelChecker(fig2).pre_image(Y1, Nat(2), fig2.all_states(), {}, ())
    got = ModelChecker(fig2).pre_image(Y1, Nat(2), fig2.all_states(), {"y1": 3}, ())
    assert got == fig2.all_states()


def test_g_fixpoint_trace(fig2_checker):
    fig2 = fig2_checker.model
    trace = []
    got = fig2_checker.g_fixpoint(Y1, Y2, p, {}, AE, trace)
    assert names(fig2, got) == {"s2", "s4"}
    assert [set(fig2.names_of(t)) for t in trace] == \
        [{"s2", "s3", "s4"}, {"s2", "s4"}, {"s2", "s4"}]


def test_g_fixpoint_trivial(fig2_checker):
    got = fig2_checker.g_fixpoint(Nat(3), Nat(2), Top(), {}, ())
    assert got == fig2_checker.model.all_states()


def test_u_fixpoint_trace(fig2_checker):
    fig2 = fig2_checker.model
    psi1 = Quant(AE, Coop(Y1, Y2, Globally(p)))
    psi2 = Quant(AY2, Coop(Nat(0), Y2, Globally(q)))
    trace = []
    got = fig2_checker.u_fixpoint(Y1, Nat(10), psi1, psi2, {}, EY1, trace)
    assert names(fig2, got) == {"s2", "s4", "s6"}
    assert [set(fig2.names_of(t)) for t in trace] == \
        [{"s6"}, {"s4", "s6"}, {"s2", "s4", "s6"}, {"s2", "s4", "s6"}]


def test_u_fixpoint_empty_target(fig2_checker):
    got = fig2_checker.u_fixpoint(Nat(2), Nat(2), p, NotF(Top()), {}, ())
    assert got == 0


def test_u_fixpoint_true_target(fig2_checker):
    got = fig2_checker.u_fixpoint(Nat(2), Nat(2), q, Top(), {}, ())
    assert got == fig2_checker.model.all_states()


def test_fixpoints_terminate_within_state_count(fig2_checker):
    for psi in (p, q):
        trace = []
        fig2_checker.g_fixpoint(Y1, Y2, psi, {}, EA, trace)
        assert len(trace) <= len(fig2_checker.model.states) + 1
        trace = []
        fig2_checker.u_fixpoint(Nat(3), Nat(3), Top(), psi, {}, (), trace)
        assert len(trace) <= len(fig2_checker.model.states) + 1


def test_g_fixpoint_within_target(fig2_checker):
    fig2 = fig2_checker.model
    for psi in (p, q):
        got = fig2_checker.g_fixpoint(Nat(2), Nat(1), psi, {}, ())
        assert got & ~fig2_checker.global_mc(psi, {}) == 0


def test_u_fixpoint_contains_target(fig2_checker):
    got = fig2_checker.u_fixpoint(Nat(2), Nat(1), p, q, {}, ())
    assert got & fig2_checker.global_mc(q, {}) == fig2_checker.global_mc(q, {})


def test_global_mc_prf_example(fig2_checker):
    fig2 = fig2_checker.model
    phi = parse_formula("E y1 A y2 <<y1,y2>> X (p|q)")
    assert names(fig2, fig2_checker.global_mc(phi, {})) == {"s2", "s4", "s5", "s6"}


def test_global_mc_nested_example(fig2_checker):
    fig2 = fig2_checker.model
    phi = parse_formula("<<7,4>> X (A y2 E y1 <<y1,y2>> G p)")
    assert names(fig2, fig2_checker.global_mc(phi, {})) == {"s4", "s5"}


def test_global_mc_until_example(fig2_checker):
    fig2 = fig2_checker.model
    phi = parse_formula(
        "<<6,3>> X (E y1 <<y1,10>> ((A y2 E y1 <<y1,y2>> G p) U (A y2 <<0,y2>> G q)))")
    assert names(fig2, fig2_checker.global_mc(phi, {})) == {"s1", "s4", "s5", "s6"}


def test_global_mc_rejects_non_normal_form(fig2_checker):
    phi = Quant(((A, 1),), Coop(Y1, Nat(3), Next(p)))
    with pytest.raises(NotNormalForm):
        fig2_checker.global_mc(phi, {})


def test_global_mc_vacuous_quantifier_is_harmless(fig2_checker):
    fig2 = fig2_checker.model
    plain = fig2_checker.global_mc(p, {})
    wrapped = fig2_checker.global_mc(nf(Quant(EY1, p)), {})
    assert plain == wrapped == fig2.prop_mask("p")


def test_check_local_examples(fig2_checker):
    assert fig2_checker.check("s1", parse_formula("<<7,5>> X p"), {}) is True
    assert fig2_checker.check("s1", parse_formula("E y1 <<y1,11>> X p"), {}) is False
    assert fig2_checker.check(
        "s4", parse_formula("<<7,4>> X (A y2 E y1 <<y1,y2>> G p)"), {}) is True


def test_check_normalises_first(fig2_checker):
    # universally quantified first counter collapses to zero agents
    phi = Quant(((A, 1),), Coop(Y1, Nat(2), Next(OrF_pq())))
    want = fig2_checker.global_mc(Coop(Nat(0), Nat(2), Next(OrF_pq())), {})
    got = [s for s in fig2_checker.model.states if fig2_checker.check(s, phi, {})]
    assert set(got) == names(fig2_checker.model, want)


def OrF_pq():
    from hdmas.logic import OrF
    return OrF(p, q)


def test_module_level_helpers(fig2):
    phi = parse_formula("<<7,5>> X p")
    mask = ModelChecker(fig2).global_mc(phi, {})
    assert ModelChecker(fig2).check("s1", phi, {}) == bool(mask & 1)


def test_memoisation_reuses_extents(fig2, monkeypatch):
    mc = ModelChecker(fig2)
    phi = parse_formula("E y1 A y2 <<y1,y2>> X (p|q)")
    decided = []
    original = hdmas.engine.decide
    monkeypatch.setattr(hdmas.engine, "decide",
                        lambda *args, **kwargs: decided.append(args[0])
                        or original(*args, **kwargs))
    first = mc.global_mc(phi, {})
    assert decided
    decided.clear()
    second = mc.global_mc(phi, {})
    assert first == second
    assert decided == []


# -- the cached, semi-naive engine against the per-state reference ---------

# (t1, t2, prefix) for concrete counts, pairs sharing either count, and
# each quantifier prefix
PREFIXED_TERMS = [(Nat(7), Nat(5), ()), (Nat(7), Nat(11), ()),
                  (Nat(2), Nat(5), ()), (Nat(2), Nat(3), ()),
                  (Y1, Nat(4), EY1), (Nat(3), Y2, AY2),
                  (Y1, Y2, EA), (Y1, Y2, AE)]


def ring(n):
    return parse_model(ring_text(n)).model


# s2 has no outgoing guard
DEAD_END = """\
actions a b;  props p q;
state s0 { avail: a b; label: p; }   state s1 { avail: a b; label: q; }
state s2 { avail: a b; label: p; }
guard s0 -> s1 : #a > #b;
guard s0 -> s2 : else;
guard s1 -> s0 : #a >= #b;
guard s1 -> s1 : else;
"""

# models that are not well formed: the edge test must not rely on totality
# or determinism
ILL_FORMED = {"ring6-not-total": ring_text(6, {1: "#a < #b"}),
              "ring6-overlapping": ring_text(6, {3: "#a >= #b"}),
              "dead-end": DEAD_END}


def named_model(name, request):
    if name in ILL_FORMED:
        return parse_model(ILL_FORMED[name]).model
    return ring(7) if name == "ring7" else request.getfixturevalue(name)


def state_formulas(model):
    props = [Top(), NotF(Top())] + [Prop(name) for name in model.props]
    return props + [NotF(Prop(name)) for name in model.props]


@pytest.mark.parametrize("model_name",
                         ["fig2", "fortress", *sorted(ILL_FORMED)])
def test_pre_image_matches_per_state_loop(model_name, request):
    model = named_model(model_name, request)
    mc = ModelChecker(model)
    decisions = {}
    for t1, t2, pfix in PREFIXED_TERMS:
        for targets in range(model.all_states() + 1):
            want = reference_pre_image(model, t1, t2, targets, {}, pfix,
                                       decisions)
            assert mc.pre_image(t1, t2, targets, {}, pfix) == want, \
                (t1, t2, pfix, model.names_of(targets))


# one term pair per prefix; the engine drops the counts a prefix leaves
# unbounded, the reference quantifies them over the paper's formula
VERBATIM_TERMS = [(Nat(3), Nat(4), ()), (Y1, Nat(3), EY1), (Nat(3), Y2, AY2),
                  (Y1, Y2, EA), (Y1, Y2, AE)]


def _assert_pre_images_match_verbatim(model, terms):
    mc = ModelChecker(model)
    decisions = {}
    for t1, t2, pfix in terms:
        for targets in range(model.all_states() + 1):
            want = reference_pre_image(model, t1, t2, targets, {}, pfix,
                                       decisions, build=verbatim_prf)
            assert mc.pre_image(t1, t2, targets, {}, pfix) == want, \
                (t1, t2, pfix, model.names_of(targets))


def test_pre_image_matches_per_state_loop_verbatim_encoding(fig2, fortress):
    for model in (fig2, fortress):
        _assert_pre_images_match_verbatim(model, VERBATIM_TERMS)


def test_a_count_on_both_sides_keeps_its_bounds(fig2):
    # E y1 <<y1,y1>> reaches the engine through global_mc (only the parser
    # rejects it); dropping E y1 with the coalition's bound would be wrong
    # while y1 still bounds the adversary
    _assert_pre_images_match_verbatim(fig2, [(Y1, Y1, EY1), (Y2, Y2, AY2)])


# draws whose bounded formulas the reference decides in under a second
# under every prefix; the cloned seed 6 is left out, as the reference takes
# over 10 s there under E y1 A y2
PLAIN_SEEDS = range(12)
CLONE_SEEDS = (0, 1, 2, 3, 4, 5, 7, 8, 9, 10, 11, 13)


@pytest.mark.parametrize("clone, seed",
                         [(False, s) for s in PLAIN_SEEDS]
                         + [(True, s) for s in CLONE_SEEDS])
def test_generated_pre_images_match_the_verbatim_encoding(clone, seed):
    model = parse_model(random_model_text(random.Random(seed),
                                          clone=clone)).model
    _assert_pre_images_match_verbatim(model, VERBATIM_TERMS)


@pytest.mark.parametrize("clone, seed",
                         [(False, s) for s in PLAIN_SEEDS]
                         + [(True, s) for s in CLONE_SEEDS])
def test_generated_games_match_the_verbatim_encoding(clone, seed):
    model = parse_model(random_model_text(random.Random(seed),
                                          clone=clone)).model
    _assert_games_match_verbatim(model)


@pytest.mark.parametrize("model_name", ["fig2", "ring7", *sorted(ILL_FORMED)])
def test_fixpoints_match_kleene_rounds(model_name, request):
    model = named_model(model_name, request)
    props = state_formulas(model)
    terms = PREFIXED_TERMS + [(Nat(1), Nat(1), ()), (Nat(3), Nat(1), ())]
    mc = ModelChecker(model)
    decisions = {}
    for t1, t2, pfix in terms:
        for psi in props:
            targets = mc.global_mc(psi, {})
            trace = []
            got = mc.g_fixpoint(t1, t2, psi, {}, pfix, trace)
            want, want_trace = reference_g_fixpoint(model, t1, t2, targets,
                                                    {}, pfix, decisions)
            assert (got, trace) == (want, want_trace), ("G", t1, t2, pfix, psi)
            for psi2 in props:
                q2 = mc.global_mc(psi2, {})
                trace = []
                got = mc.u_fixpoint(t1, t2, psi, psi2, {}, pfix, trace)
                want, want_trace = reference_u_fixpoint(
                    model, t1, t2, targets, q2, {}, pfix, decisions)
                assert (got, trace) == (want, want_trace), \
                    ("U", t1, t2, pfix, psi, psi2)


def test_formula_builds_do_not_grow_with_ring_size(monkeypatch):
    calls = []
    original = hdmas.engine.build_prf

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(hdmas.engine, "build_prf", counting)
    phi = nf(parse_formula("<<3,1>> F goal"))
    builds = []
    for n in (10, 40):
        model = ring(n)
        calls.clear()
        assert ModelChecker(model).global_mc(phi, {}) == model.all_states()
        builds.append(len(calls))
    assert builds[0] == builds[1] > 0


@pytest.mark.parametrize("model_name", ["fig2", "fortress", "ring7"])
def test_only_candidates_with_an_edge_into_the_change_are_examined(
        model_name, request, monkeypatch):
    model = named_model(model_name, request)
    builds = []
    original = hdmas.engine.quantified_prf

    def recording(*args, **kwargs):
        builds.append((model.index(args[1]), args[4]))
        return original(*args, **kwargs)

    def edge(i, mask):
        return any(mask >> d & 1 for d, _ in model.adjacency.out[i])

    monkeypatch.setattr(hdmas.engine, "quantified_prf", recording)
    mc = ModelChecker(model)
    props = state_formulas(model)
    for t1, t2, pfix in PREFIXED_TERMS:
        for psi in props:
            # with no cached verdict, every examined state is built for
            mc._verdicts.clear()
            builds.clear()
            mc.pre_image(t1, t2, mc.global_mc(psi, {}), {}, pfix)
            assert all(edge(i, targets) for i, targets in builds)

            mc._verdicts.clear()
            builds.clear()
            trace = []
            mc.g_fixpoint(t1, t2, psi, {}, pfix, trace)
            for i, targets in builds:
                j = trace.index(targets)
                assert targets >> i & 1, ("G", psi, i)
                assert edge(i, targets), ("G", psi, i)
                if j:
                    assert edge(i, trace[j - 1] & ~targets), ("G", psi, i)

            q1 = mc.global_mc(psi, {})
            for psi2 in props:
                mc._verdicts.clear()
                builds.clear()
                trace = []
                mc.u_fixpoint(t1, t2, psi, psi2, {}, pfix, trace)
                for i, targets in builds:
                    j = trace.index(targets)
                    joined = targets & ~(trace[j - 1] if j else 0)
                    assert (q1 & ~targets) >> i & 1, ("U", psi, psi2, i)
                    assert edge(i, targets) and edge(i, joined), \
                        ("U", psi, psi2, i)


@pytest.mark.parametrize("name", ["ring", "fortress"])
def test_each_block_is_expanded_once(monkeypatch, fortress, name):
    # one controller walk per block: the one walk given the block's
    # learned clauses (the adversary's walks take none)
    model = fortress if name == "fortress" else parse_model(ring_text(12)).model
    calls = {"_block": 0, "controller": 0}
    block, leaves = qe._block, qe._leaves

    def counted_block(*args):
        calls["_block"] += 1
        return block(*args)

    def counted_leaves(root, conjuncts, learned=()):
        calls["controller"] += isinstance(learned, list)
        return leaves(root, conjuncts, learned)
    monkeypatch.setattr(qe, "_block", counted_block)
    monkeypatch.setattr(qe, "_leaves", counted_leaves)
    checker = ModelChecker(model)
    prop = "captured" if name == "fortress" else "goal"
    for formula in (f"<<3,1>> G !{prop}", f"E y1 A y2 <<y1,y2>> X !{prop}",
                    f"A y2 <<6,y2>> F {prop}"):
        checker.global_mc(nf(parse_formula(formula)), {})
    assert calls["_block"] == calls["controller"] > 0


def test_build_prf_reads_the_guard_variables_once(monkeypatch, fortress):
    # a guard's variables are read once, when it is compiled, once per
    # model: not per counter, nor per build
    model = dataclasses.replace(fortress)
    calls = []
    original = hdmas.engine.free_vars
    monkeypatch.setattr(hdmas.engine, "free_vars",
                        lambda phi: calls.append(phi) or original(phi))
    targets = model.all_states() & ~model.prop_mask("captured")
    build_prf(model, "s1", 3, 1, targets)
    assert len(calls) == len(model.compiled_guards) == 1
    calls.clear()
    build_prf(model, "s1", 7, 4, targets)
    assert calls == []


@pytest.mark.parametrize("model_name", ["fig2", "fortress", "ring7"])
def test_each_guard_is_compiled_at_most_once_per_model(model_name, request,
                                                       monkeypatch):
    # across G fixpoints under every prefix, with no cached verdict, each
    # disjunct of a guard is compiled once, however many games it is in
    model = dataclasses.replace(named_model(model_name, request))
    compiled = []
    original = hdmas.engine.simplify
    monkeypatch.setattr(hdmas.engine, "simplify",
                        lambda phi: compiled.append(phi) or original(phi))
    mc = ModelChecker(model)
    games = 0
    for t1, t2, pfix in PREFIXED_TERMS:
        for psi in state_formulas(model):
            mc._verdicts.clear()
            mc.g_fixpoint(t1, t2, psi, {}, pfix)
            games += len(mc._verdicts)
    assert len(compiled) == len(set(compiled)) < games
    disjuncts = {d for g in model.adjacency.guard_by_id
                 for d in (g.args if isinstance(g, Or) else (g,))}
    assert set(compiled) <= disjuncts
