import itertools
import math
import pathlib
import random

import pytest

from helpers import random_matrix, reference_check_wellformed, ring_text
from hdmas import model as model_module
from hdmas.model import (ActionDistribution, ActionTable, DomainMismatch,
                         HdmasModel, IDLE, MalformedModel, check_wellformed,
                         distribution_count, distributions, guard_union,
                         least_point, oplus, successor)
from hdmas.parsing import parse_model
from hdmas.presburger import (FALSE, TRUE, atom_gt, atom_le, conj, disj,
                              evaluate, var)


def dist(**counts):
    return ActionDistribution.make(counts)


def test_action_table_counters():
    table = ActionTable(("a1", "a2"))
    assert table.counters() == ("#a1", "#a2")
    assert table.counter("a1") == "#a1"
    assert table.counter(IDLE) == "#"
    with pytest.raises(KeyError):
        table.counter("nope")


def test_action_table_rejects_duplicates():
    with pytest.raises(ValueError):
        ActionTable(("a", "a"))


def test_distributions_of_two_counters(fig2):
    got = [d.as_dict() for d in distributions(fig2, "s6", 2)]
    assert got == [{"#a1": 2, "#": 0}, {"#a1": 1, "#": 1}, {"#a1": 0, "#": 2}]


def test_distributions_zero_total(fig2):
    got = list(distributions(fig2, "s1", 0))
    assert len(got) == 1
    assert got[0].total() == 0


def test_distributions_stars_and_bars(fig2):
    got = list(distributions(fig2, "s1", 4))
    assert len(got) == math.comb(7, 3) == 35
    assert distribution_count(fig2, "s1", 4) == 35
    assert len(set(got)) == 35
    assert all(d.total() == 4 for d in got)


def test_oplus():
    assert oplus(dist(x1=1, xe=0), dist(x1=0, xe=2)) == dist(x1=1, xe=2)


def test_oplus_identity():
    eta = dist(x1=3, x2=1)
    assert oplus(eta, dist(x1=0, x2=0)) == eta


def test_oplus_domain_mismatch():
    with pytest.raises(DomainMismatch):
        oplus(dist(x1=1), dist(x2=1))


def test_oplus_total_additive():
    rng = random.Random(1)
    for _ in range(100):
        a = dist(**{f"x{i}": rng.randrange(6) for i in range(4)})
        b = dist(**{f"x{i}": rng.randrange(6) for i in range(4)})
        assert oplus(a, b).total() == a.total() + b.total()


def test_successor_enforcing_transition(fig2):
    eta = ActionDistribution.make({"#a1": 0, "#a2": 0, "#a3": 4, "#": 3})
    assert successor(fig2, "s1", eta) == "s3"


def test_successor_self_loop_tautology(fig2):
    for eta in distributions(fig2, "s6", 5):
        assert successor(fig2, "s6", eta) == "s6"


def test_successor_forced_loop(fig2):
    eta = ActionDistribution.make({"#a1": 0, "#a2": 0, "#a3": 11, "#": 0})
    assert successor(fig2, "s1", eta) == "s1"


def test_successor_ignores_idle_count(fig2):
    rng = random.Random(9)
    for _ in range(60):
        counts = {"#a1": rng.randrange(8), "#a2": rng.randrange(8),
                  "#a3": rng.randrange(8)}
        one = successor(fig2, "s1", ActionDistribution.make({**counts, "#": 0}))
        two = successor(fig2, "s1", ActionDistribution.make({**counts, "#": 13}))
        assert one == two


def test_successor_checks_domain(fig2):
    with pytest.raises(DomainMismatch):
        successor(fig2, "s6", dist(x1=1))


def test_guard_union(fig2):
    got = guard_union(fig2, "s1", fig2.mask_of(["s2", "s3"]))
    assert got == disj((fig2.guard("s1", "s2"), fig2.guard("s1", "s3")))
    assert guard_union(fig2, "s1", 0) == FALSE
    assert guard_union(fig2, "s6", fig2.mask_of(["s6"])) == fig2.guard("s6", "s6")


def test_guard_union_monotone(fig2):
    rng = random.Random(4)
    small = fig2.mask_of(["s2", "s3"])
    large = fig2.mask_of(["s2", "s3", "s1"])
    g_small = guard_union(fig2, "s1", small)
    g_large = guard_union(fig2, "s1", large)
    for _ in range(200):
        val = {c: rng.randrange(12) for c in ("#a1", "#a2", "#a3")}
        if evaluate(g_small, val):
            assert evaluate(g_large, val)


def test_fig2_is_wellformed(fig2):
    report = check_wellformed(fig2)
    assert report.ok
    assert set(report.idle) == set(fig2.states)
    assert set(report.totality) == set(fig2.states)
    # exactly the ordered pairs of distinct declared edges per source state
    sizes = []
    for s in fig2.states:
        dsts = [d for d, _ in fig2.edges_from(s)]
        pairs = {(d1, d2) for (src, d1, d2) in report.determinism if src == s}
        assert pairs == {(d1, d2) for d1 in dsts for d2 in dsts if d1 != d2}
        sizes.append(len(pairs))
    assert sizes == [6, 2, 2, 2, 2, 0]


def test_fortress_is_wellformed(fortress):
    assert check_wellformed(fortress).ok


FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "src" / "hdmas" / "fixtures"

FIG2_OVERLAP = ("#a1 + #a2 + #a3 <= 10 && #a3 > 3",
                "#a1 + #a2 + #a3 <= 10 && #a3 >= 0")

# both states have the guards #a > 0 and #a > 1, in the same destination
# order, but s2 lacks action b: a check decided for s1 and reused for s2
# would give s2 a witness that names #b
SAME_GUARDS_OTHER_COUNTERS = """
    actions a b;
    props ;
    state s1 { avail: a b; label: ; }
    state s2 { avail: a; label: ; }
    guard s1 -> s1 : #a > 0;
    guard s1 -> s2 : #a > 1;
    guard s2 -> s1 : #a > 0;
    guard s2 -> s2 : #a > 1;
"""


def _bad_scoping_and_overlap():
    table = ActionTable(("a1", "a2"))
    return HdmasModel(states=("s1", "s2"), table=table,
                      avail={"s1": frozenset({"a1", IDLE}),
                             "s2": frozenset({"a1", "a2", IDLE})},
                      guards={("s1", "s1"): atom_gt(var("#a2"), 0),
                              ("s1", "s2"): TRUE,
                              ("s2", "s1"): atom_gt(var("#a1"), 0),
                              ("s2", "s2"): atom_gt(var("#a2"), 0)},
                      props=(), labels={"s1": frozenset(), "s2": frozenset()})


def _seeded_ring(kind, seed):
    rng = random.Random(seed)
    n = rng.randint(3, 12)
    guard = "#a < #b" if kind == "not-total" else f"#a <= #b + {rng.randint(1, 3)}"
    return parse_model(ring_text(n, {rng.randrange(n): guard})).model


def _wellformed_cases():
    fig2_text = (FIXTURES / "fig2.hdmas").read_text()
    yield pytest.param(parse_model(fig2_text).model, id="fig2")
    yield pytest.param(parse_model((FIXTURES / "fortress.hdmas").read_text()).model,
                       id="fortress")
    yield pytest.param(parse_model(fig2_text.replace(*FIG2_OVERLAP)).model,
                       id="fig2-overlap")
    for seed in range(3):
        yield pytest.param(_seeded_ring("not-total", seed), id=f"not-total-ring-{seed}")
        yield pytest.param(_seeded_ring("overlapping", seed),
                           id=f"overlapping-ring-{seed}")
    yield pytest.param(parse_model(SAME_GUARDS_OTHER_COUNTERS).model,
                       id="same-guards-other-counters")
    yield pytest.param(_bad_scoping_and_overlap(), id="bad-scoping")


@pytest.mark.parametrize("model", _wellformed_cases())
def test_wellformed_matches_all_pairs_reference(model):
    got, ref = check_wellformed(model), reference_check_wellformed(model)
    assert got.ok == ref.ok
    for table in ("idle", "scoping", "totality"):
        assert list(getattr(got, table).items()) == list(getattr(ref, table).items())
    declared = [(key, v) for key, v in ref.determinism.items()
                if (key[0], key[1]) in model.guards
                and (key[0], key[2]) in model.guards]
    assert list(got.determinism.items()) == declared
    failing = {key for key, v in ref.determinism.items() if not v.ok}
    assert failing <= {key for key, v in got.determinism.items() if not v.ok}
    assert got.lines() == ref.lines()


def test_a_state_that_fails_scoping_prints_why_its_totality_was_skipped():
    # it has no witness to print, only the reason it has none
    lines = check_wellformed(_bad_scoping_and_overlap()).lines()
    assert "totality          s1: FAIL skipped: bad scoping" in lines
    assert not any("witness None" in line for line in lines), lines


def test_wellformed_decides_each_distinct_check_once(monkeypatch):
    calls = []
    real = model_module.is_valid

    def counting(phi, variables, *rest):
        calls.append(phi)
        return real(phi, variables, *rest)

    monkeypatch.setattr(model_module, "is_valid", counting)
    counts = []
    for n in (10, 40):
        calls.clear()
        assert check_wellformed(parse_model(ring_text(n)).model).ok
        counts.append(len(calls))
    # one totality check and the two orders of (move, stay) among the
    # ring's destinations, whatever the ring's size
    assert counts == [3, 3]


# guards over s1's counters; s1 -> s1 is the first, s1 -> s2 the second
ONE_ACTION = """
    actions a1;
    props p;
    state s1 { avail: a1; label: ; }
    state s2 { avail: a1; label: p; }
    guard s1 -> s1 : STAY;
    guard s1 -> s2 : MOVE;
    guard s2 -> s2 : else;
"""

# the five-action model of ROADMAP item 6: a box reaching its constant 39
# in every counter has 40^5 points, too many to search
FIVE_ACTIONS = """
    actions a b c d e;  props p;
    state s1 { avail: a b c d e; label: p; }   state s2 { avail: a; label: ; }
    guard s1 -> s1 : #a + #b + #c + #d + #e STAY;
    guard s1 -> s2 : #a + #b + #c + #d + #e MOVE;
    guard s2 -> s2 : else;
"""

HUGE = 10 ** 29 - 1


def _guarded(text, stay, move="0 = 1"):
    return parse_model(text.replace("STAY", stay).replace("MOVE", move)).model


def _fortress(stay):
    text = (FIXTURES / "fortress.hdmas").read_text()
    return parse_model(text.replace("guard s1 -> s1 : else;",
                                    f"guard s1 -> s1 : {stay};")).model


def _zeros(names, **values):
    return {f"#{n}": values.get(n, 0) for n in names.split()}


@pytest.mark.parametrize("model, witness", [
    pytest.param(_guarded(ONE_ACTION, "#a1 > 0", "#a1 > 1"), {"#a1": 2},
                 id="one-action"),
    pytest.param(_guarded(FIVE_ACTIONS, ">= 39", "<= 39"),
                 _zeros("a b c d e", e=39), id="five-actions"),
    pytest.param(_guarded(ONE_ACTION, f"#a1 < {HUGE}", f"#a1 >= {HUGE - 9}"),
                 {"#a1": HUGE - 9}, id="huge-constant"),
    pytest.param(_fortress("#d1 + #d2 + #d3 >= 12"),
                 _zeros("d1 d2 d3 r1 r2 r3", d1=4, d2=4, d3=4, r1=5, r2=5, r3=5),
                 id="fortress-3"),
])
def test_determinism_failure_with_witness(model, witness):
    report = check_wellformed(model)
    assert not report.ok
    bad = report.determinism[("s1", "s1", "s2")]
    assert not bad.ok
    assert bad.witness == witness
    assert list(bad.witness) == list(witness)


@pytest.mark.parametrize("model, witness", [
    pytest.param(_guarded(ONE_ACTION, "#a1 > 0"), {"#a1": 0}, id="one-action"),
    pytest.param(_guarded(FIVE_ACTIONS, "> 39", "< 39"),
                 _zeros("a b c d e", e=39), id="five-actions"),
    pytest.param(_guarded(ONE_ACTION, f"#a1 < {HUGE}"), {"#a1": HUGE},
                 id="huge-constant"),
    pytest.param(_fortress("#d1 + #d2 + #d3 > 12"),
                 _zeros("d1 d2 d3 r1 r2 r3", d3=2), id="fortress-3"),
])
def test_totality_failure_with_witness(model, witness):
    report = check_wellformed(model)
    assert not report.ok
    miss = report.totality["s1"]
    assert not miss.ok
    assert miss.witness == witness
    assert list(miss.witness) == list(witness)


def test_least_point_matches_lexicographic_enumeration():
    rng = random.Random(19)
    for _ in range(80):
        names = ("x", "y", "z")[:rng.randint(2, 3)]
        phi = conj([random_matrix(rng, list(names), atoms=rng.randint(1, 3))]
                   + [atom_le(var(n), 12) for n in names])
        brute = next((dict(zip(names, p))
                      for p in itertools.product(range(13), repeat=len(names))
                      if evaluate(phi, dict(zip(names, p)))), None)
        assert least_point(phi, names) == brute, phi


def test_missing_idle_is_reported():
    table = ActionTable(("a1",))
    model = HdmasModel(states=("s1",), table=table,
                       avail={"s1": frozenset({"a1"})},
                       guards={("s1", "s1"): TRUE},
                       props=(), labels={"s1": frozenset()})
    report = check_wellformed(model)
    assert not report.idle["s1"].ok


def test_scoping_failure_is_reported():
    table = ActionTable(("a1", "a2"))
    model = HdmasModel(states=("s1",), table=table,
                       avail={"s1": frozenset({"a1", IDLE})},
                       guards={("s1", "s1"): atom_gt(var("#a2"), 0)},
                       props=(), labels={"s1": frozenset()})
    report = check_wellformed(model)
    assert not report.scoping["s1"].ok


def test_malformed_model_successor():
    table = ActionTable(("a1",))
    model = HdmasModel(states=("s1", "s2"), table=table,
                       avail={"s1": frozenset({"a1", IDLE}),
                              "s2": frozenset({IDLE})},
                       guards={("s1", "s1"): atom_gt(var("#a1"), 0),
                               ("s1", "s2"): atom_gt(var("#a1"), 1)},
                       props=(), labels={"s1": frozenset(), "s2": frozenset()})
    with pytest.raises(MalformedModel):
        successor(model, "s1", ActionDistribution.make({"#a1": 2, "#": 0}))
    with pytest.raises(MalformedModel):
        successor(model, "s1", ActionDistribution.make({"#a1": 0, "#": 1}))


def test_json_export(fig2):
    payload = fig2.to_json()
    assert payload["states"] == list(fig2.states)
    assert payload["actions"] == ["a1", "a2", "a3"]
    assert payload["labels"]["s2"] == ["p"]
    assert payload["avail"]["s6"] == ["a1"]
    assert len(payload["guards"]) == 12


def test_state_mask_roundtrip(fig2):
    mask = fig2.mask_of(["s2", "s5"])
    assert fig2.names_of(mask) == ("s2", "s5")
    assert fig2.all_states() == (1 << 6) - 1
    assert fig2.prop_mask("q") == fig2.mask_of(["s5", "s6"])
