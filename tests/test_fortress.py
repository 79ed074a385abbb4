"""fortress-k against its closed form, along the action axis.

The adversary block of these queries is refuted under the controller
block one cell at a time (``qe._block``), so it is never eliminated on
its own; that brings the quantified counts to k = 8 and the universal
prefix to k = 10 within milliseconds.  A fortress whose third entry
needs one more defender must match the enumeration oracle.  The model
generator and the closed form are the benchmark's, whose self-test checks
the generator against the fixture at k = 3.
"""

import pytest
from perfbench.models import fortress_text
from perfbench.workloads import fortress_holds

from hdmas.engine import ModelChecker
from hdmas.normalform import nf
from hdmas.oracle import Oracle
from hdmas.parsing import parse_formula, parse_model
from hdmas.presburger import Cell
from hdmas.qe import QeStats


def _grid(k):
    """(t1, t2) pairs on both sides of the closed form's boundary."""
    if k <= 4:
        pairs = []
        for t1 in range(7):
            edge = t1 + min(k, t1 // 2)
            pairs += [(t1, edge - 1), (t1, edge)]
        return sorted({(t1, t2) for t1, t2 in pairs if t2 >= 0})
    # k >= 5 takes 0.1-0.8 s a query: a few pairs across the boundary
    return [(3, 3), (3, 4), (5, 9)] if k == 5 else [(4, 5), (4, 6)]


def _verify(model, formula):
    stats = QeStats()
    checker = ModelChecker(model, stats=stats)
    mask = checker.global_mc(nf(parse_formula(formula + " G !captured")), {})
    return set(model.names_of(mask)), stats


@pytest.mark.parametrize("k", range(1, 8))
def test_fortress_concrete_counts_match_closed_form(k):
    model = parse_model(fortress_text(k)).model
    for t1, t2 in _grid(k):
        got, _ = _verify(model, f"<<{t1},{t2}>>")
        want = {"s1"} if fortress_holds(k, t1, t2) else set()
        assert got == want, (k, t1, t2)


@pytest.mark.parametrize("k", range(1, 9))
@pytest.mark.parametrize("formula", ["A y2 <<{five_k},y2>>",
                                     "E y1 A y2 <<y1,y2>>"])
def test_fortress_quantified_counts_hold(k, formula):
    # five defenders on one entry hold it against any adversary, so the
    # coalition of 5k wins for every y2 and some coalition beats them all
    model = parse_model(fortress_text(k)).model
    got, stats = _verify(model, formula.format(five_k=5 * k))
    assert got == {"s1"}
    assert stats.early_exits > 0


@pytest.mark.parametrize("k", range(7, 11))
def test_fortress_large_k_holds_for_every_adversary(k):
    model = parse_model(fortress_text(k)).model
    got, _ = _verify(model, f"A y2 <<{5 * k},y2>>")
    assert got == {"s1"}


def test_the_adversary_block_is_refuted_not_eliminated():
    # the k block refutes the l block under it cell by cell
    model = parse_model(fortress_text(6)).model
    got, stats = _verify(model, "<<5,2>>")
    assert got == ({"s1"} if fortress_holds(6, 5, 2) else set())
    assert stats.refutations > 0


def test_near_symmetric_fortress_matches_the_oracle():
    text = fortress_text(3).replace("#d3 < 2", "#d3 < 3")
    assert text != fortress_text(3)
    model = parse_model(text).model
    checker, oracle = ModelChecker(model), Oracle(model)
    for t1 in range(6):
        for t2 in range(6):
            for objective in ("X !captured", "G !captured"):
                phi = nf(parse_formula(f"<<{t1},{t2}>> {objective}"))
                assert checker.global_mc(phi, {}) == oracle.global_mc(phi, {}), \
                    (t1, t2, objective)


@pytest.mark.parametrize("model_text, formula, most", [
    (fortress_text(4), "<<3,9>> G !captured", None),
    (None, "A y2 E y1 <<y1,y2>> X (p|q)", 16),
])
def test_one_sided_variables_need_no_projection(fig2, monkeypatch,
                                                model_text, formula, most):
    # every adversary share is bounded above by its total, so most block
    # variables leave in the one-sided pass, not through Cell.project: on
    # fortress-4, at most a quarter of the projections made without the
    # pass (4 against 40; fig2 makes 8 against 20 under A y2 E y1, the one
    # prefix that keeps a total Σl ≤ y2 and a quantified count)
    model = fig2 if model_text is None else parse_model(model_text).model
    project, calls = Cell.project, []
    monkeypatch.setattr(Cell, "project",
                        lambda cell, v: calls.append(v) or project(cell, v))
    stats = QeStats()
    ModelChecker(model, stats=stats).global_mc(nf(parse_formula(formula)), {})
    assert stats.one_sided > 0
    with_pass, calls[:] = len(calls), []
    monkeypatch.setattr(Cell, "drop_one_sided", lambda cell, names: cell)
    ModelChecker(model).global_mc(nf(parse_formula(formula)), {})
    assert 0 < with_pass <= (len(calls) // 4 if most is None else most)
