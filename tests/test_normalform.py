import contextlib
import io
import json
import pathlib
import random
from unittest import mock

from helpers import canonical_shape, size
from hypothesis import given, settings
from hypothesis import strategies as st

from hdmas import cli
from hdmas.engine import ModelChecker
from hdmas.logic import (EXISTS, FORALL, AndF, Coop, Globally, Nat, Next,
                         NotF, OrF, Param, Prop, Quant, Top, Until, Y1, Y2,
                         check_syntax, eventually, is_normal_form,
                         merge_quantifiers, simplify_vacuous)
from hdmas.normalform import nf, pqe, push
from hdmas.parsing import formula_to_str

E, A = EXISTS, FORALL
p, q = Prop("p"), Prop("q")
p1, p2, p3 = Prop("p1"), Prop("p2"), Prop("p3")


def example_body():
    return OrF(
        Coop(Y1, Nat(5), Until(
            Quant(((A, 2),), Coop(Y1, Y2, Next(p1))),
            Quant(((E, 2),), Coop(Y1, Y2, eventually(p2))))),
        Quant(((E, 1),), AndF(
            Quant(((A, 2),), Coop(Y1, Y2, eventually(p3))),
            NotF(Quant(((A, 2),), Coop(Nat(3), Y2, Next(p1)))))))


def example_formula():
    return Quant(((A, 1),), example_body())


def test_pqe_universal_first_counter():
    phi = Quant(((A, 1),), Coop(Y1, Nat(5), Next(p)))
    assert pqe(phi) == Coop(Nat(0), Nat(5), Next(p))


def test_pqe_existential_second_counter():
    phi = Quant(((E, 2),), Coop(Nat(3), Y2, Globally(p)))
    assert pqe(phi) == Coop(Nat(3), Nat(0), Globally(p))


def test_pqe_no_pattern_is_identity():
    phi = AndF(p, Coop(Nat(2), Nat(2), Next(p)))
    assert pqe(phi) == phi


def test_pqe_double_universal():
    phi = Quant(((A, 1), (A, 2)), Coop(Y1, Y2, Next(p)))
    assert pqe(phi) == Quant(((A, 2),), Coop(Nat(0), Y2, Next(p)))
    flipped = Quant(((A, 2), (A, 1)), Coop(Y1, Y2, Next(p)))
    assert pqe(flipped) == pqe(phi)


def test_pqe_double_existential():
    phi = Quant(((E, 1), (E, 2)), Coop(Y1, Y2, Next(p)))
    assert pqe(phi) == Quant(((E, 1),), Coop(Y1, Nat(0), Next(p)))


def test_pqe_collapsing_mixed_pairs():
    for prefix in (((A, 1), (E, 2)), ((E, 2), (A, 1))):
        phi = Quant(prefix, Coop(Y1, Y2, Next(p)))
        assert pqe(phi) == Coop(Nat(0), Nat(0), Next(p))


def test_pqe_substitutes_free_occurrences_in_objective():
    phi = Quant(((A, 1),), Coop(Y1, Nat(5), Next(Coop(Y1, Nat(1), Next(p)))))
    assert pqe(phi) == Coop(Nat(0), Nat(5),
                            Next(Coop(Nat(0), Nat(1), Next(p))))


def test_push_distributes_through_the_worked_example():
    got = push(((A, 1),), example_body())
    expected = OrF(
        Quant(((A, 1),), Coop(Y1, Nat(5), Until(
            Quant(((A, 1), (A, 2)), Coop(Y1, Y2, Next(p1))),
            Quant(((A, 1), (E, 2)), Coop(Y1, Y2, eventually(p2)))))),
        AndF(
            Quant(((E, 1), (A, 2)), Coop(Y1, Y2, eventually(p3))),
            NotF(Quant(((A, 2),), Coop(Nat(3), Y2, Next(p1))))))
    assert canonical_shape(got) == canonical_shape(expected)


def test_push_base_case():
    assert push(((E, 1),), p) == p


def test_push_identity_on_normal_form_without_free_prefix_vars():
    # a normal-form formula whose prefix variables are not free stays fixed
    fixtures = [
        Quant(((E, 1),), Coop(Y1, Nat(4), Globally(p))),
        Quant(((A, 2),), Coop(Nat(2), Y2, Next(OrF(p, q)))),
        Coop(Nat(1), Nat(1), Until(p, q)),
    ]
    for phi in fixtures:
        for prefix in (((E, 1),), ((A, 1),), ((A, 2), (E, 1))):
            assert canonical_shape(push(prefix, phi)) == canonical_shape(phi)


def test_push_dualizes_under_negation():
    phi = NotF(Quant(((A, 2),), Coop(Nat(1), Y2, Next(p))))
    got = push(((E, 1),), phi)
    assert got == NotF(Quant(((A, 2),), Coop(Nat(1), Y2, Next(p))))


def test_nf_reproduces_worked_example():
    got = nf(example_formula())
    # the mixed-pair elimination collapses the until's right argument
    # to a fully concrete operator
    expected = OrF(
        Coop(Nat(0), Nat(5), Until(
            Quant(((A, 2),), Coop(Nat(0), Y2, Next(p1))),
            Coop(Nat(0), Nat(0), eventually(p2)))),
        AndF(
            Quant(((E, 1), (A, 2)), Coop(Y1, Y2, eventually(p3))),
            NotF(Quant(((A, 2),), Coop(Nat(3), Y2, Next(p1))))))
    assert canonical_shape(got) == canonical_shape(expected)
    assert is_normal_form(got)


def test_nf_identity_on_normal_forms():
    fixtures = [
        Quant(((E, 1),), Coop(Y1, Param(1), Globally(NotF(Prop("captured"))))),
        Coop(Nat(4), Nat(1), Next(Coop(Nat(4), Nat(2), Next(NotF(Prop("captured")))))),
        OrF(p, NotF(q)),
    ]
    for phi in fixtures:
        assert nf(phi) == phi


def test_nf_trivial_boolean():
    phi = OrF(p, NotF(q))
    assert nf(phi) == phi


# -- properties over generated formulas --------------------------------------


def _random_formula(rng, depth, quantifiable=True):
    roll = rng.random()
    if depth == 0 or roll < 0.2:
        return rng.choice([p, q, Top()])
    if roll < 0.35:
        return NotF(_random_formula(rng, depth - 1, False))
    if roll < 0.5:
        return AndF(_random_formula(rng, depth - 1, quantifiable),
                    _random_formula(rng, depth - 1, quantifiable))
    if roll < 0.6:
        return OrF(_random_formula(rng, depth - 1, quantifiable),
                   _random_formula(rng, depth - 1, quantifiable))
    bind1 = quantifiable and rng.random() < 0.5
    bind2 = quantifiable and rng.random() < 0.5
    t1 = Y1 if bind1 else rng.choice([Nat(rng.randrange(5)), Param(1)])
    t2 = Y2 if bind2 else rng.choice([Nat(rng.randrange(5)), Param(2)])
    body = _random_formula(rng, depth - 1)
    kind = rng.random()
    if kind < 0.4:
        objective = Next(body)
    elif kind < 0.7:
        objective = Globally(body)
    else:
        objective = Until(body, _random_formula(rng, depth - 1))
    coop = Coop(t1, t2, objective)
    prefix = []
    if bind1:
        prefix.append((rng.choice((E, A)), 1))
    if bind2:
        prefix.append((rng.choice((E, A)), 2))
    rng.shuffle(prefix)
    return Quant(tuple(prefix), coop) if prefix else coop


def test_nf_closure_and_idempotence_and_size():
    rng = random.Random(17)
    for _ in range(300):
        phi = _random_formula(rng, 4)
        assert check_syntax(phi) == []
        normalised = nf(phi)
        assert is_normal_form(normalised), (phi, normalised)
        assert nf(normalised) == normalised
        assert size(normalised) <= size(phi)


FIG2 = str(pathlib.Path(cli.__file__).parent / "fixtures" / "fig2.hdmas")


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_the_cli_prints_the_normal_form_that_the_checker_evaluates(seed):
    phi = _random_formula(random.Random(seed), 3)
    evaluated = []
    extent = ModelChecker._extent

    def recording(self, f, theta):
        evaluated.append(f)
        return extent(self, f, theta)

    out = io.StringIO()
    with mock.patch.object(ModelChecker, "_extent", recording), \
            contextlib.redirect_stdout(out):
        code = cli.main(["verify", FIG2, "-f", formula_to_str(phi), "--json",
                         "--assign", "z1=2", "--assign", "z2=1"])
    assert code == 0
    normal = evaluated[0]
    assert json.loads(out.getvalue())["normal_form"] == formula_to_str(normal)
    assert merge_quantifiers(simplify_vacuous(nf(normal))) == normal


def test_nf_preserves_extensions_where_enumeration_applies(fig2):
    # prefixes that collapse leave a concrete formula, so the enumeration
    # semantics can arbitrate the whole transformation
    from hdmas.engine import ModelChecker
    from hdmas.oracle import Oracle

    fixtures = [
        Quant(((A, 1),), Coop(Y1, Nat(5), Next(p))),
        Quant(((E, 2),), Coop(Nat(3), Y2, Globally(p))),
        Quant(((A, 1), (E, 2)), Coop(Y1, Y2, Until(p, q))),
        Quant(((E, 2), (E, 1)), Coop(Y1, Y2, Next(OrF(p, q)))),
        Quant(((A, 2), (A, 1)), Coop(Y1, Y2, Globally(OrF(p, NotF(q))))),
        Quant(((A, 1),), Coop(Y1, Nat(2), Next(
            Quant(((E, 2),), Coop(Nat(1), Y2, Globally(p)))))),
    ]
    mc = ModelChecker(fig2)
    oracle = Oracle(fig2)
    for phi in fixtures:
        normalised = nf(phi)
        symbolic = mc.global_mc(normalised, {})
        ground = canonical_shape(normalised)
        # the double-universal cases keep an adversary quantifier the
        # enumeration cannot range over; skip those, the rest are closed
        if any(isinstance(f, Quant) for f in _walk(ground)):
            continue
        assert oracle.global_mc(ground, {}) == symbolic, phi


def _walk(phi):
    yield phi
    from hdmas.logic import children
    for c in children(phi):
        yield from _walk(c)


def test_push_result_satisfies_adjacency():
    rng = random.Random(29)
    for _ in range(150):
        phi = _random_formula(rng, 3)
        pushed = push(((A, 1),), nf(phi))
        # after a further partial elimination the result is in normal form
        assert is_normal_form(pqe(pushed))
