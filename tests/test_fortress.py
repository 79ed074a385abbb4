"""fortress-k against its closed form, along the action axis.

The universal blocks of these queries return clauses that the enclosing
existential block expands depth-first; before that, fortress-6 did not
decide.  Every query must stay inside the cell pipeline.  The model
generator and the closed form are the benchmark's, whose self-test checks
the generator against the fixture at k = 3.
"""

import pytest
from perfbench.models import fortress_text
from perfbench.workloads import fortress_holds

from hdmas.engine import ModelChecker
from hdmas.normalform import nf
from hdmas.parsing import parse_formula, parse_model
from hdmas.qe import QeStats


def _grid(k):
    """(t1, t2) pairs on both sides of the closed form's boundary."""
    if k <= 4:
        pairs = []
        for t1 in range(7):
            edge = t1 + min(k, t1 // 2)
            pairs += [(t1, edge - 1), (t1, edge)]
        return sorted({(t1, t2) for t1, t2 in pairs if t2 >= 0})
    # k >= 5 takes 0.3-1.5 s a query: a few pairs across the boundary
    return [(3, 3), (3, 4), (5, 9)] if k == 5 else [(4, 5), (4, 6)]


def _verify(model, formula):
    stats = QeStats()
    checker = ModelChecker(model, stats=stats)
    mask = checker.global_mc(nf(parse_formula(formula + " G !captured")), {})
    return set(model.names_of(mask)), stats


@pytest.mark.parametrize("k", range(1, 7))
def test_fortress_concrete_counts_match_closed_form(k):
    model = parse_model(fortress_text(k)).model
    for t1, t2 in _grid(k):
        got, stats = _verify(model, f"<<{t1},{t2}>>")
        want = {"s1"} if fortress_holds(k, t1, t2) else set()
        assert got == want, (k, t1, t2)
        assert stats.cap_fallbacks == 0, (k, t1, t2)


@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("formula", ["A y2 <<{five_k},y2>>",
                                     "E y1 A y2 <<y1,y2>>"])
def test_fortress_quantified_counts_hold(k, formula):
    # five defenders on one entry hold it against any adversary, so the
    # coalition of 5k wins for every y2 and some coalition beats them all
    model = parse_model(fortress_text(k)).model
    got, stats = _verify(model, formula.format(five_k=5 * k))
    assert got == {"s1"}
    assert stats.cap_fallbacks == 0
    assert stats.early_exits > 0
