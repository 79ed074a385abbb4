import itertools
import math
import os
import pathlib
import random
import subprocess
import sys
import time

import numpy as np
import pytest
from helpers import (atom_dvd, canonical, cell_of, checked_block_truth,
                     coeff, cooper_bound, drop, enum_truth, np_eval,
                     random_matrix)
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hdmas.engine import ModelChecker, build_prf
from hdmas.normalform import nf
from hdmas.parsing import parse_formula
from hdmas.presburger import (EQ, FALSE, LT, TRUE, And, Atom, AtomF, Cell,
                              Exists, Forall, FreeVariableError, LinTerm, Not,
                              Or, _fold_atom,
                              atom_eq, atom_ge, atom_gt, atom_le,
                              atom_lt, atom_ne, complement, conj, disj,
                              evaluate, free_vars, implies,
                              is_quantifier_free, neg, num,
                              simplify, substitute, var)
import hdmas.qe as qe
from hdmas.qe import QeStats, decide, eliminate_quantifiers, is_valid

X, Y, Z = var("x"), var("y"), var("z")
X1, X2, X3 = var("x1"), var("x2"), var("x3")

G1 = conj((atom_ge(X1, X2.scale(2)), atom_le(X3, 3)))
G2 = conj((atom_le(X1.add(X2).add(X3), 10), atom_gt(X3, 3)))


def test_eliminate_even_witness():
    assert decide(Exists("x", atom_eq(X.add(X), num(6)))) is True
    res = eliminate_quantifiers(Exists("x", atom_eq(X.add(X), num(6))))
    assert is_quantifier_free(res)
    assert simplify(res) == TRUE


def test_eliminate_odd_no_witness():
    assert eliminate_quantifiers(Exists("x", atom_eq(X.add(X), num(5)))) == FALSE


def test_eliminate_between_bounds():
    # y < x < y + 2 always has the witness x = y + 1
    phi = conj((atom_lt(Y, X), atom_lt(X, Y.shift(2))))
    res = eliminate_quantifiers(Exists("x", phi))
    assert free_vars(res) <= {"y"}
    for v in range(51):
        brute = any(evaluate(phi, {"x": w, "y": v}) for w in range(v + 3))
        assert evaluate(res, {"y": v}) == brute == True  # noqa: E712


def test_eliminate_keeps_other_variables():
    phi = conj((atom_lt(X, Y), atom_lt(Z, X)))
    res = eliminate_quantifiers(Exists("x", phi))
    assert free_vars(res) <= {"y", "z"}
    for yv in range(10):
        for zv in range(10):
            brute = any(evaluate(phi, {"x": w, "y": yv, "z": zv})
                        for w in range(max(yv, zv) + 2))
            assert evaluate(res, {"y": yv, "z": zv}) == brute
    # some natural differs from every z, so no literal on z is left
    assert eliminate_quantifiers(Exists("x", atom_ne(X, Z))) == TRUE


def test_free_variables_range_over_the_naturals():
    # no natural y is negative, so the cell that needs one empties
    phi = Exists("x", conj((atom_lt(X, num(3)), atom_lt(Y, num(0)))))
    assert eliminate_quantifiers(phi) == FALSE


def _brute(phi, env, bound=8):
    """Truth of ``phi`` with every quantifier enumerated over 0..bound."""
    if isinstance(phi, Exists):
        return any(_brute(phi.body, {**env, phi.var: v}, bound)
                   for v in range(bound + 1))
    if isinstance(phi, Forall):
        return all(_brute(phi.body, {**env, phi.var: v}, bound)
                   for v in range(bound + 1))
    if isinstance(phi, Not):
        return not _brute(phi.arg, env, bound)
    if isinstance(phi, And):
        return all(_brute(a, env, bound) for a in phi.args)
    if isinstance(phi, Or):
        return any(_brute(a, env, bound) for a in phi.args)
    return evaluate(phi, env)


@pytest.mark.parametrize("phi", [
    Exists("x", conj((atom_eq(X, 1), Exists("x", atom_eq(X, 2))))),
    Exists("x", conj((Forall("x", atom_ge(X, 0)), atom_eq(X, 3)))),
    Forall("x", Exists("x", atom_eq(X, 5))),
    Exists("x", Exists("y", Exists("x", conj((atom_eq(X, Y),
                                              atom_lt(Y, 3)))))),
])
def test_shadowed_and_repeated_bound_names(phi):
    # of a repeated name only the innermost quantifier binds
    assert decide(phi) == _brute(phi, {})


def test_bound_name_that_is_also_free_stays_free():
    phi = conj((atom_eq(X, 1), Exists("x", atom_eq(X.scale(2), 4))))
    assert eliminate_quantifiers(phi) == atom_eq(X, 1)


def test_decide_successor_exists():
    assert decide(Forall("x", Exists("y", atom_eq(Y, X.shift(1))))) is True


def test_decide_strict_upper_bound_fails():
    assert decide(Forall("x", atom_lt(X, num(5)))) is False


def test_decide_requires_closed():
    with pytest.raises(FreeVariableError):
        decide(atom_lt(X, num(5)))


def test_is_valid_guard_disjointness():
    assert is_valid(neg(conj((G1, G2))), {"x1", "x2", "x3"}) is True


def test_is_valid_examples():
    assert is_valid(atom_eq(X1, X1), {"x1"}) is True
    assert is_valid(atom_lt(X1, num(5)), {"x1"}) is False


def test_divisibility_reasoning():
    # multiples of 6 are exactly the common multiples of 2 and 3
    six = Exists("x", atom_eq(Y, X.scale(6)))
    two = Exists("x", atom_eq(Y, X.scale(2)))
    three = Exists("x", atom_eq(Y, X.scale(3)))
    claim = Forall("y", disj((neg(six), conj((two, three)))))
    assert decide(claim) is True
    backwards = Forall("y", disj((neg(conj((two, three))), six)))
    assert decide(backwards) is True


def test_alternation_three_blocks():
    # for every x there is some y with x <= 3y < x + 3
    phi = Forall("x", Exists("y", conj((atom_le(X, Y.scale(3)),
                                        atom_lt(Y.scale(3), X.shift(3))))))
    assert decide(phi) is True


def test_decide_negation_duality():
    rng = random.Random(23)
    names = ["x", "y"]
    for _ in range(60):
        matrix = random_matrix(rng, names, max_coeff=3, max_const=8, atoms=2)
        closed = Exists("x", Forall("y", matrix))
        assert decide(neg(closed)) == (not decide(closed))


def test_decide_agrees_with_enumeration_one_block():
    rng = random.Random(2024)
    for _ in range(220):
        k = rng.randint(1, 3)
        names = ["x", "y", "z"][:k]
        matrix = random_matrix(rng, names, atoms=rng.randint(1, 3))
        block = rng.choice("EA")
        oracle, symbolic, _ = checked_block_truth(block, names, matrix)
        assert oracle == symbolic, f"disagreement on {block} {matrix}"


def test_eliminate_exists_free_var_shrinks():
    rng = random.Random(5)
    for _ in range(80):
        matrix = random_matrix(rng, ["x", "y"], max_coeff=4, max_const=9, atoms=2)
        res = eliminate_quantifiers(Exists("x", matrix))
        assert is_quantifier_free(res)
        assert free_vars(res) <= free_vars(matrix) - {"x"}
        for yv in range(12):
            inst = substitute(matrix, "y", yv)
            b = cooper_bound(inst, ["x"])
            brute = any(evaluate(inst, {"x": w}) for w in range(b + 1))
            assert evaluate(res, {"y": yv}) == brute


def _forall_y(row):
    """Truth of ``forall y. row`` for a row over y alone: past the Cooper
    bound its atoms are constant or periodic, so the enumeration is exact."""
    return enum_truth("A", ["y"], row, cooper_bound(row, ["y"]))


def test_universal_and_alternating_blocks_with_a_free_variable():
    # a universal block returned as clauses, and one under an existential
    # block refuted by the two-player loop, checked on the free variable z
    rng = random.Random(7)
    for _ in range(60):
        matrix = random_matrix(rng, ["x", "y", "z"], max_coeff=3,
                               max_const=9, atoms=3)
        forall_y = eliminate_quantifiers(Forall("y", matrix))
        exists_x = eliminate_quantifiers(Exists("x", Forall("y", matrix)))
        assert is_quantifier_free(forall_y) and is_quantifier_free(exists_x)
        assert free_vars(forall_y) <= {"x", "z"}
        assert free_vars(exists_x) <= {"z"}
        for zv in range(12):
            inst = substitute(matrix, "z", zv)
            for xv in range(12):
                assert evaluate(forall_y, {"x": xv, "z": zv}) == \
                    _forall_y(substitute(inst, "x", xv)), (matrix, zv, xv)
            # x is enumerated up to a bound, widened on a mismatch as
            # checked_block_truth does
            want = evaluate(exists_x, {"z": zv})
            bound = cooper_bound(inst, ["x", "y"])
            for used in (bound, bound * 4, bound * 16):
                brute = any(_forall_y(substitute(inst, "x", xv))
                            for xv in range(used + 1))
                if brute == want:
                    break
            assert brute == want, (matrix, zv, used)


# one draw of an open-block sweep: E x A y over random_matrix seed 62, whose
# divisibility literals were unfolded in the order of a set of strings
SEED_62 = """
import json, random
from helpers import random_matrix
from hdmas.parsing import guard_to_str
from hdmas.presburger import Exists, Forall
from hdmas.qe import QeStats, eliminate_quantifiers
matrix = random_matrix(random.Random(62), ["x1", "x2", "y1", "y2", "z"],
                       max_coeff=3, max_const=9, atoms=4)
stats = QeStats()
result = eliminate_quantifiers(
    Exists("x1", Exists("x2", Forall("y1", Forall("y2", matrix)))), stats)
counters = stats.to_json()
del counters["elapsed_seconds"]
print(json.dumps(counters, sort_keys=True))
print(guard_to_str(result))
"""


def test_an_elimination_does_not_depend_on_the_hash_seed():
    # the counters and the result text are the same under every string
    # hash; unfolding in set order gave peak_atom_count 960 or 440
    root = pathlib.Path(__file__).resolve().parent
    path = os.pathsep.join([str(root.parent / "src"), str(root)])
    runs = [subprocess.Popen([sys.executable, "-c", SEED_62], cwd=root,
                             stdout=subprocess.PIPE, text=True,
                             env={**os.environ, "PYTHONHASHSEED": str(seed),
                                  "PYTHONPATH": path})
            for seed in range(5)]
    outputs = [run.communicate(timeout=300)[0] for run in runs]
    assert [run.returncode for run in runs] == [0] * 5
    assert outputs[0] and outputs.count(outputs[0]) == 5, outputs


Y1, Y2 = var("y1"), var("y2")
GAME = ["x1", "x2", "y1", "y2", "z"]


def _game(seed):
    """A matrix over ``GAME`` and the two sums' bounds, from one seed."""
    rng = random.Random(seed)
    a, b = rng.randint(0, 4), rng.randint(0, 4)
    return random_matrix(rng, GAME, max_coeff=3, max_const=8), a, b


# a draw whose universal block alone takes minutes when a block learns
# its wins without an adversary
SLOW_ALONE = neg(conj((
    disj((atom_eq(X1.scale(2).add(Y2.scale(3)).add(Z),
                  X2.scale(3).add(Y1.scale(3)).shift(5)),
          atom_lt(X2.scale(3).add(Y2.scale(2)).add(Z.scale(3)).shift(5),
                  X1.add(Y1)))),
    atom_lt(Z.shift(5), X2.scale(3).add(Y1.scale(2)).add(Y2.scale(3))))))


@given(st.integers(0, 299).map(_game))
@example((SLOW_ALONE, 2, 1))
@example(_game(207))        # wrong when a projection is skipped unlearned
@settings(max_examples=100, deadline=None)
def test_a_universal_conjunct_is_refuted_exactly(game):
    # exists x1 x2 (x1 + x2 <= a & forall y1 y2 (y1 + y2 <= b -> M)): the
    # sums make both blocks finite, so enumeration decides every z
    matrix, a, b = game
    phi = Exists("x1", Exists("x2", conj((
        atom_le(X1.add(X2), a),
        Forall("y1", Forall("y2", implies(atom_le(Y1.add(Y2), b), matrix)))))))
    result = eliminate_quantifiers(phi)
    assert free_vars(result) <= {"z"}
    for zv in range(7):
        brute = any(all(evaluate(matrix, {"x1": x1, "x2": x2, "y1": y1,
                                          "y2": y2, "z": zv})
                        for y1 in range(b + 1) for y2 in range(b + 1 - y1))
                    for x1 in range(a + 1) for x2 in range(a + 1 - x1))
        assert evaluate(result, {"z": zv}) == brute, (matrix, a, b, zv)


def test_an_open_universal_block_learns_no_clause(monkeypatch):
    # forall y1 y2 (y1 + y2 <= 1 -> SLOW_ALONE), x1 x2 z free: a block
    # without an adversary learns none of its wins; learning them takes
    # this block from milliseconds to minutes, so the first one fails fast
    learned = []

    def no_clause(cell):
        learned.append(cell)
        raise AssertionError("a block without an adversary learned a win")
    monkeypatch.setattr(qe, "_clause", no_clause)
    matrix = implies(atom_le(Y1.add(Y2), 1), SLOW_ALONE)
    result = eliminate_quantifiers(Forall("y1", Forall("y2", matrix)))
    assert learned == []
    assert free_vars(result) <= {"x1", "x2", "z"}
    for x1, x2, zv in itertools.product(range(6), repeat=3):
        point = {"x1": x1, "x2": x2, "z": zv}
        brute = all(evaluate(matrix, {**point, "y1": y1, "y2": y2})
                    for y1 in range(2) for y2 in range(2 - y1))
        assert evaluate(result, point) == brute, point


@pytest.mark.parametrize("seed", [20, 121, 127])
def test_an_alternation_of_two_variable_blocks_agrees_with_enumeration(seed):
    # forall x1 x2 exists y1 y2 M with z free, on the three draws whose
    # peak atom count grew most when blocks stopped uniting cells: the
    # inner block is checked against enumeration on (x1, x2, z) in 0..6,
    # the whole formula for z in 0..6, with x1 x2 enumerated over the
    # checked inner result, the bound widened on a mismatch as
    # checked_block_truth does
    matrix = random_matrix(random.Random(seed), GAME, max_coeff=3,
                           max_const=9, atoms=4)
    inner = eliminate_quantifiers(Exists("y1", Exists("y2", matrix)))
    assert free_vars(inner) <= {"x1", "x2", "z"}
    for x1, x2, zv in itertools.product(range(7), repeat=3):
        inst = substitute(substitute(substitute(matrix, "x1", x1), "x2", x2),
                          "z", zv)
        oracle, _, _ = checked_block_truth("E", ["y1", "y2"], inst)
        assert evaluate(inner, {"x1": x1, "x2": x2, "z": zv}) == oracle, \
            (seed, x1, x2, zv)
    outer = eliminate_quantifiers(
        Forall("x1", Forall("x2", Exists("y1", Exists("y2", matrix)))))
    assert free_vars(outer) <= {"z"}
    for zv in range(7):
        want = evaluate(outer, {"z": zv})
        inst = substitute(inner, "z", zv)
        bound = cooper_bound(inst, ["x1", "x2"])
        for used in (bound, bound * 4, bound * 16):
            grid = np.meshgrid(*[np.arange(used + 1, dtype=np.int64)] * 2,
                               indexing="ij")
            brute = bool(np_eval(inst, {"x1": grid[0], "x2": grid[1]}).all())
            if brute == want:
                break
        assert brute == want, (seed, zv, used)


def test_a_decision_that_raises_still_adds_its_time(monkeypatch):
    # the time a decision ran is added to elapsed however it ends, also
    # when it is cut short by an exception, as a deadline cuts it
    def slow_failure(phi, stats):
        time.sleep(0.05)
        raise RuntimeError("cut short")

    monkeypatch.setattr(qe, "_close", slow_failure)
    stats = QeStats()
    with pytest.raises(RuntimeError):
        decide(Exists("x", atom_lt(X, num(3))), stats)
    assert stats.elapsed >= 0.05


def test_cells_over_block_variables_only_close_the_block_when_satisfiable():
    # 2 | x & 2 | x + 1 mentions no free variable and has no solution: the
    # block must go on to the cell that does depend on z
    unsat = conj((atom_dvd(2, X), atom_dvd(2, X.shift(1))))
    stats = QeStats()
    res = eliminate_quantifiers(
        Exists("x", disj((unsat, conj((atom_eq(X, Z), atom_lt(Z, num(3))))))),
        stats)
    assert [evaluate(res, {"z": v}) for v in range(6)] == [True] * 3 + [False] * 3
    assert stats.early_exits == 0
    # x > 2 holds for some x whatever z is
    stats = QeStats()
    res = eliminate_quantifiers(
        Exists("x", disj((atom_gt(X, num(2)), atom_eq(X.scale(2), Z)))), stats)
    assert res == TRUE
    assert stats.early_exits == 1


def test_two_variable_blocks_agree_with_enumeration():
    # blocks whose leaves mention block variables only, where projecting
    # the first variable leaves splinters with divisibility literals on
    # the second, and random two-variable blocks
    cases = [
        ("E", conj((atom_lt(Y.scale(4), X.scale(5).shift(10)),
                    atom_lt(X.scale(2).shift(19), Y.scale(3))))),
        ("E", conj((atom_lt(Y.scale(4), X.shift(16)),
                    atom_lt(X.scale(5), Y.scale(4).shift(19))))),
        ("A", neg(conj((atom_lt(Y.scale(3), X.shift(9)),
                        atom_lt(X.scale(4), Y.scale(3).shift(15)),
                        atom_lt(num(4), X.scale(2).add(Y)))))),
    ]
    for block, matrix in cases:
        oracle, symbolic, _ = checked_block_truth(block, ["x", "y"], matrix)
        assert oracle == symbolic, (block, matrix)
    rng = random.Random(11)
    for _ in range(300):
        matrix = random_matrix(rng, ["x", "y"], atoms=rng.randint(1, 3))
        block = rng.choice("EA")
        oracle, symbolic, _ = checked_block_truth(block, ["x", "y"], matrix)
        assert oracle == symbolic, (block, matrix)


def test_stats_are_recorded():
    stats = QeStats()
    decide(Forall("x", Exists("y", atom_eq(Y.scale(2), X.add(X)))), stats)
    assert stats.eliminated == 2
    assert stats.elapsed > 0
    payload = stats.to_json()
    assert payload["eliminated_quantifiers"] == 2


def test_decide_deterministic():
    phi = Exists("x", Forall("y", disj((atom_lt(Y, X), atom_lt(Y, num(4))))))
    assert decide(phi) == decide(phi)


def test_cooper_bound_accounts_for_coefficients():
    phi = conj((atom_lt(X.scale(4), Y.shift(9)), atom_eq(X.scale(6), Z)))
    assert cooper_bound(phi, ["x"]) == math.lcm(4, 6) + 9


# -- each block simplifies its input once; the result is simplified once ----


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=80, deadline=None)
def test_eliminated_formulas_are_fixed_points_of_simplify(seed):
    # blocks hand their results on unsimplified; what eliminate_quantifiers
    # returns must still be simplified, whichever blocks produced it
    rng = random.Random(seed)
    matrix = random_matrix(rng, ["x", "y", "z"], max_coeff=3, max_const=9,
                           atoms=rng.randint(1, 3))
    for phi in (Exists("x", matrix), Forall("x", matrix),
                Exists("x", Exists("y", matrix)),
                Forall("x", Forall("y", matrix)),
                Exists("x", Forall("y", matrix)),
                Forall("y", Exists("x", matrix)),
                neg(Exists("x", matrix)),
                conj((Forall("y", matrix), Exists("x", matrix)))):
        res = eliminate_quantifiers(phi)
        assert is_quantifier_free(res)
        assert simplify(res) == res, phi


def _assert_window_atoms_folded(cell):
    for lit in cell.literals():
        if isinstance(lit, AtomF):
            assert _fold_atom(lit.atom) == lit, (cell.key, lit)


def test_window_atoms_are_folded_on_the_fixtures(monkeypatch, fig2, fortress):
    # cell literals are built without folding, which is exact only while
    # every window part is primitive with a positive leading coefficient;
    # checked on every cell made, by extension, projection or renaming
    made = []
    original = Cell.__init__

    def recording(self, *args, **kwargs):
        original(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(Cell, "__init__", recording)
    for model, prop in ((fig2, "p"), (fortress, "captured")):
        checker = ModelChecker(model)
        for text in (f"<<3,1>> G !{prop}", f"E y1 A y2 <<y1,y2>> X !{prop}",
                     f"A y2 E y1 <<y1,y2>> X {prop}", f"A y2 <<6,y2>> F {prop}",
                     f"E y1 <<y1,2>> G !{prop}",
                     f"A y2 E y1 <<y1,y2>> G !{prop}"):
            checker.global_mc(nf(parse_formula(text)), {})
    assert len(made) > 1000
    for cell in made:
        _assert_window_atoms_folded(cell)


def test_cell_extend_canonicalises_every_bound():
    # bounds given unfolded (constants, common factors, either sign) land
    # in primitive windows, and the cell states their conjunction
    rng = random.Random(41)
    points = [{"x": a, "y": b} for a in range(10) for b in range(10)]
    for _ in range(400):
        atoms = []
        for _ in range(rng.randint(1, 4)):
            names = rng.sample(["x", "y"], rng.randint(0, 2))
            term = LinTerm.make([(v, rng.choice([-4, -2, -1, 1, 2, 3, 6]))
                                 for v in names], rng.randint(-12, 12))
            atoms.append(AtomF(Atom(rng.choice([LT, EQ]), term)))
        cell = cell_of(atoms)
        want = [all(evaluate(a, p) for a in atoms) for p in points]
        if cell is None:
            assert not any(want), atoms
            continue
        _assert_window_atoms_folded(cell)
        literals = cell.literals()
        assert [all(evaluate(l, p) for l in literals) for p in points] == want, atoms


def test_extend_returns_the_cell_itself_when_nothing_is_added():
    # the expansion's entailment test is identity
    cell = cell_of([atom_lt(X, num(4)), atom_dvd(2, X.add(Y))])
    assert cell_of([atom_lt(X, num(9)), atom_dvd(2, X.add(Y)), TRUE], cell) is cell
    assert cell_of([atom_lt(X, num(3))], cell) not in (cell, None)
    assert cell_of([atom_gt(X, num(3))], cell) is None
    assert cell_of([neg(atom_dvd(2, X.add(Y)))], cell) is None


def test_fortress_3_decision_simplifies_only_its_result(monkeypatch, fortress):
    # blocks take their bodies as built and the cells in between are never
    # turned back into formulas to be simplified: a game's result is a
    # constant already, and the one simplify of its formula's decision is
    # that of the result
    calls = []
    original = qe.simplify

    def counting(phi):
        calls.append(phi)
        return original(phi)

    monkeypatch.setattr(qe, "simplify", counting)
    targets = fortress.all_states() & ~fortress.prop_mask("captured")
    game = build_prf(fortress, "s1", 3, 1, targets)
    assert decide(game) is True
    assert calls == []
    assert decide(game.formula()) is True
    assert len(calls) == 1, len(calls)


# -- projection on cells and incremental interval refutation -----------------

BLOCK = ["x1", "x2", "x3"]


@st.composite
def bound_literals(draw, names):
    """A bound atom over one to three of ``names``, unit and non-unit
    coefficients, strict or an equality."""
    chosen = draw(st.lists(st.sampled_from(names), min_size=1, max_size=3,
                           unique=True))
    term = LinTerm.make([(v, draw(st.sampled_from([-3, -2, -1, 1, 1, 2, 3])))
                         for v in chosen], draw(st.integers(-9, 9)))
    return AtomF(Atom(draw(st.sampled_from([LT, LT, EQ])), term))


@st.composite
def block_cells(draw):
    """A satisfiable-looking cell over one to three block variables and the
    free variable z; about one in four has a divisibility literal on a
    block variable, which the projection unfolds."""
    block = BLOCK[:draw(st.integers(1, 3))]
    names = block + ["z"]
    literals = draw(st.lists(bound_literals(names), min_size=1, max_size=4))
    if draw(st.integers(0, 3)) == 0:
        term = LinTerm.make([(draw(st.sampled_from(block)),
                              draw(st.integers(1, 3))),
                             ("z", draw(st.integers(-2, 2)))],
                            draw(st.integers(-3, 3)))
        dvd = atom_dvd(draw(st.integers(2, 4)), term)
        literals.append(neg(dvd) if draw(st.booleans()) else dvd)
    cell = cell_of(literals)
    assume(cell is not None)
    return block, cell


def _eliminate_block(block, cell):
    """Cells of ``exists block`` over one cell."""
    return qe._exists_block(block, cell, QeStats())


def _cells_hold(cells, point):
    return any(all(evaluate(l, point) for l in cell.literals())
               for cell in cells)


def _lower_bound_only(literals, block):
    """The literals without those of block variables that only strict
    lower bounds mention, repeatedly: such a variable can always be made
    large enough, whatever the others are, so it and its literals drop
    out of the search however long their chain."""
    literals = list(literals)
    while True:
        for v in block:
            mine = [l for l in literals if v in free_vars(l)]
            if mine and all(isinstance(l, AtomF) and l.atom.kind == LT
                            and coeff(l.atom.term, v) < 0 for l in mine):
                literals = [l for l in literals if l not in mine]
                break
        else:
            return literals


def _some_witness(block, cell, z, bound):
    """Whether the cell holds at z for some natural block values.  Block
    variables that only lower bounds mention drop out first.  An equality
    over a block variable that no earlier solved equality mentions is
    solved for that variable, which takes whatever value it must; the
    others are enumerated in 0..bound."""
    literals = _lower_bound_only(cell.literals(), block)
    block = [v for v in block if any(v in free_vars(l) for l in literals)]
    solved, used = [], set()
    for lit in literals:
        if isinstance(lit, AtomF) and lit.atom.kind == EQ:
            names = [v for v, _ in lit.atom.term.coeffs if v in block]
            free = [v for v in names if v not in used]
            if free:
                solved.append((free[0], lit.atom.term))
                used.update(names)
    grid = [v for v in block if v not in {v for v, _ in solved}]
    axis = np.arange(bound + 1, dtype=np.int64)
    arrays = dict(zip(grid, np.meshgrid(*[axis] * len(grid), indexing="ij")),
                  z=np.int64(z))
    valid = np.bool_(True)
    for v, term in solved:
        c = coeff(term, v)
        rest = drop(term, v)
        value = -np.int64(rest.const)
        for u, d in rest.coeffs:
            value = value - np.int64(d) * arrays[u]
        valid = valid & (value % c == 0) & (value // c >= 0)
        arrays[v] = value // c
    return bool((valid & np_eval(conj(tuple(literals)), arrays)).any())


# z <= 3*x1 <= z + 1: the dark shadow is empty, the splinters 3*x1 = z and
# 3*x1 = z + 1 hold the solutions
SPLINTERED = (["x1"], cell_of([
    atom_le(Z, X1.scale(3)), atom_le(X1.scale(3), Z.shift(1))]))
# at z = 7 the least witness is x1 = 48, x2 = 9, x3 = 0: past a grid of 45,
# but x1 is solved from the equality
SOLVED = (BLOCK, cell_of([
    atom_gt(X1, num(0)), atom_eq(X1.sub(X2.scale(3)).sub(Z.scale(3)), num(0)),
    atom_gt(X2.sub(X3).sub(Z), num(1))]))
# at z = 0 the least witness is x2 = 1, x3 = 13, x1 = 46: past a grid of 45,
# but each variable is only bounded from below once the one above is gone
CHAINED = (BLOCK, cell_of([
    atom_gt(X1, num(0)), atom_gt(X2, num(0)),
    atom_gt(X1, X3.scale(3).sub(Z.scale(3)).shift(6)),
    atom_gt(X3, X2.scale(3).sub(Z.scale(3)).shift(9))]))

# x1 and x2 bounded above only, x3 from both sides through a part it
# shares with x1: x1 = x2 = 0, then z - 4 < x3 < 4
ABOVE_ONLY = (BLOCK, cell_of([
    atom_lt(X1.add(X2.scale(2)), Z.shift(-1)),
    atom_gt(X3.sub(X1), Z.shift(-4)), atom_lt(X3, num(4))]))
# x2 bounded below only through the part x1 - x2 - z, which also bounds x1
# from above; x1 keeps its other bounds
BELOW_ONLY = (["x1", "x2"], cell_of([
    atom_lt(X1.sub(X2), Z.shift(-1)), atom_gt(X1, num(2)),
    atom_lt(X1.scale(2), Z.shift(5))]))
# x1 looks bounded above only and x2 below only, but x1 sits in a
# divisibility literal and x2 in an equality, so both are projected: the
# cell holds for 1 <= z <= 2 (zeroing x1 would admit z = 0, dropping the
# windows of x2 every z >= 3)
LOOKS_ONE_SIDED = (["x1", "x2"], cell_of([
    atom_lt(X1, Z.shift(1)), atom_dvd(3, X1.add(Z).shift(1)),
    atom_gt(X2, Z), atom_eq(X2.add(Z), num(6))]))


@given(block_cells())
@example(SPLINTERED)
@example(SOLVED)
@example(CHAINED)
@example(ABOVE_ONLY)
@example(BELOW_ONLY)
@example(LOOKS_ONE_SIDED)
@settings(max_examples=150, deadline=None)
def test_projecting_a_cell_agrees_with_enumeration(drawn):
    # exists block >= 0 of one cell, projected on its windows, against
    # enumeration of the block variables; the enumeration drops variables
    # bounded only from below, solves equalities and widens before a
    # symbolic "true" counts as wrong
    block, cell = drawn
    projected = _eliminate_block(block, cell)
    for new in projected:
        assert new.vars <= {"z"}
    for z in range(8):
        symbolic = _cells_hold(projected, {"z": z})
        brute = _some_witness(block, cell, z, 20)
        if symbolic and not brute:
            brute = _some_witness(block, cell, z, 80 if len(block) < 3 else 45)
        assert symbolic == brute, (cell, z)


# an equality, both bounds on one part and two divisibility literals, one
# of them negated
DIVIDED = (["x1", "x2"], cell_of([
    atom_eq(X1.scale(2).sub(Z), num(3)), atom_lt(X2.sub(Z), num(4)),
    atom_gt(X2.sub(Z), num(-3)), atom_dvd(3, X1.add(Z)),
    neg(atom_dvd(2, X2.add(Z)))]))


@given(block_cells())
@example(SOLVED)
@example(DIVIDED)
@settings(max_examples=200, deadline=None)
def test_a_clause_is_the_disjunction_of_the_complemented_literals(drawn):
    # the clause is the complements of the canonical literals, with no
    # round trip through formulas; it must be that round trip's negated
    # literals, literal for literal and in the same order
    _, cell = drawn
    assert cell.clause() == tuple(lit for l in cell.literals()
                                  for (lit,) in qe._to_dnf(l, True))


@given(block_cells(), block_cells())
@example(SOLVED, DIVIDED)
@example(DIVIDED, DIVIDED)
@example(LOOKS_ONE_SIDED, SPLINTERED)
@settings(max_examples=200, deadline=None)
def test_cells_with_a_common_point_meet(first, second):
    # meets may be True for cells that share no point, never False for
    # cells that share one: checked on a grid of the block variables and
    # z, divisibility literals included
    (_, a), (_, b) = first, second
    axis = np.arange(7, dtype=np.int64)
    grid = dict(zip(BLOCK + ["z"], np.meshgrid(*[axis] * 4, indexing="ij")))
    holds = [np_eval(conj(tuple(c.literals())), grid) for c in (a, b)]
    for c, inside in zip((a, b), holds):
        assert c.meets(c) or not inside.any(), c.key
    if (holds[0] & holds[1]).any():
        assert a.meets(b) and b.meets(a), (a.key, b.key)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_a_block_gives_the_same_result_on_a_simplified_body(seed):
    # blocks take their bodies unsimplified: simplifying the body first may
    # reorder the result or drop a literal redundant over N, but never
    # changes what it says
    rng = random.Random(seed)
    names = ["x", "y", "z"]
    matrix = random_matrix(rng, names, max_coeff=3, max_const=9,
                           atoms=rng.randint(1, 4))
    bound = rng.sample(names, rng.randint(1, 2))
    quantifier = rng.choice([Exists, Forall])
    results = []
    for body in (matrix, simplify(matrix)):
        for v in bound:
            body = quantifier(v, body)
        results.append(eliminate_quantifiers(body))
    free = [v for v in names if v not in bound]
    for point in itertools.product(range(12), repeat=len(free)):
        valuation = dict(zip(free, point))
        assert evaluate(results[0], valuation) == evaluate(results[1], valuation), \
            (matrix, bound, quantifier, valuation)


def _projected(names, literals):
    """``exists names`` of the literals at z = 0..11, by ``Cell.project`` of
    one variable after the other and by enumerating them in 0..14."""
    cells = [cell_of(literals)]
    for v in names:
        cells = [out for cell in cells for out in cell.project(v)]
    for cell in cells:
        assert cell.vars <= {"z"}, cell.key
    symbolic = [_cells_hold(cells, {"z": z}) for z in range(12)]
    brute = [any(all(evaluate(l, dict(zip(names, p), z=z)) for l in literals)
                 for p in itertools.product(range(15), repeat=len(names)))
             for z in range(12)]
    return symbolic, brute


def test_a_divisibility_literal_on_the_variable_is_unfolded_by_the_projection():
    # some multiple of 3 lies in [0, z) exactly when z > 0
    symbolic, brute = _projected(["x"], [atom_lt(X, Z), atom_dvd(3, X)])
    assert symbolic[:4] == [False, True, True, True]
    assert symbolic == brute
    for names, literals in (
            (["x"], [atom_lt(X, Z), neg(atom_dvd(3, X))]),
            (["x"], [atom_lt(X, Z), atom_dvd(2, X), neg(atom_dvd(3, X.add(Z)))]),
            # x + y = 2*q puts q >= 2 in the box, and q is projected before
            # 2 | y is unfolded: the second fresh variable must not take
            # q's name and with it that stale interval
            (["x", "y"], [atom_eq(X, num(4)), atom_dvd(2, X.add(Y)),
                          atom_lt(Y, Z), atom_lt(Y, num(3))])):
        symbolic, brute = _projected(names, literals)
        assert symbolic == brute, literals


@given(st.lists(bound_literals(BLOCK + ["z"]), min_size=1, max_size=8))
@settings(max_examples=300, deadline=None)
def test_incremental_refutation_matches_from_scratch(literals):
    # a child cell propagates its parent's box from the windows that
    # changed; it must be refuted exactly when propagating from nothing
    # refutes it, and every box holds every point of its cell
    cell = Cell()
    points = [dict(zip(BLOCK + ["z"], p)) for p in
              np.ndindex(6, 6, 6, 6)]
    for lit in literals:
        ext = cell_of([lit], cell)
        if ext is None:
            return
        incremental = ext.box
        scratch = Cell(ext.windows, ext.divs).box
        assert (incremental is None) == (scratch is None), ext.key
        inside = [p for p in points
                  if all(evaluate(l, p) for l in ext.literals())]
        if incremental is None:
            assert not inside, ext.key
            return
        for found in (incremental, scratch):
            for p in inside:
                for v, (lo, hi) in found.items():
                    assert (lo is None or lo <= p[v]) and \
                        (hi is None or p[v] <= hi), (ext.key, found, p)
        cell = ext


def test_propagation_follows_a_chain_of_windows():
    # x3 > 5 lifts x2 through x2 - x3 > 3 and then x1 through x1 - x2 > 3,
    # so x1 < 12 empties the cell: only a propagation that requeues the
    # parts of a narrowed variable sees it
    cell = Cell()
    for lit in (atom_gt(X1.sub(X2), num(3)), atom_gt(X2.sub(X3), num(3)),
                atom_gt(X3, num(5))):
        cell = cell_of([lit], cell)
        assert cell.box is not None
    assert cell.box["x1"] == (14, None)
    ext = cell_of([atom_lt(X1, num(12))], cell)
    assert ext.box is None
    assert Cell(ext.windows, ext.divs).box is None


def test_projection_never_turns_cells_into_literals(monkeypatch, fig2,
                                                     fortress):
    # cells become literals only for a block's result; eliminating a
    # variable works on the windows, divisibility literals included
    callers = {}
    original = Cell.literals

    def counting(self):
        # the nearest named function of qe on the stack
        frame = sys._getframe(1)
        while (frame.f_code.co_filename != qe.__file__
               or frame.f_code.co_name.startswith("<")):
            frame = frame.f_back
        name = frame.f_code.co_name
        callers[name] = callers.get(name, 0) + 1
        return original(self)

    projected = []
    original_project = Cell.project
    monkeypatch.setattr(Cell, "literals", counting)
    monkeypatch.setattr(Cell, "project", lambda self, *args: projected.append(
        args[0]) or original_project(self, *args))
    for model, prop in ((fig2, "p"), (fortress, "captured")):
        checker = ModelChecker(model)
        for text in (f"<<3,1>> G !{prop}", f"E y1 A y2 <<y1,y2>> X !{prop}",
                     f"A y2 E y1 <<y1,y2>> X {prop}"):
            checker.global_mc(nf(parse_formula(text)), {})
    assert projected
    assert set(callers) <= {"_cells_formula", "_cells_clauses"}, callers
    # so does a divisibility literal on the variable
    count = len(projected)
    decide(Exists("x", Forall("y", disj((atom_dvd(2, X.add(Y)),
                                         atom_lt(X, Y))))))
    assert len(projected) > count
    assert set(callers) <= {"_cells_formula", "_cells_clauses"}, callers
