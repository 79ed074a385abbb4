import pathlib
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (model_to_text, parse_guard, random_concrete_formula,
                     random_model_text, reference_tokenize, ring_text)
from hdmas.logic import (EXISTS, FORALL, AndF, Coop, Globally, Nat, Next,
                         NotF, OrF, Param, Prop, Quant, Top, Until, Y1, Y2)
from hdmas.model import Adjacency
from hdmas.parsing import (MAX_DEPTH, ParseError, SemanticError, formula_to_str,
                           guard_to_str, parse_formula, parse_model, tokenize)
from hdmas.presburger import (atom_eq, atom_ge, atom_gt, atom_le, atom_lt,
                              atom_ne, conj, disj, evaluate, implies, neg,
                              var)

E, A = EXISTS, FORALL


# -- guards -------------------------------------------------------------------


def test_parse_guard_g1():
    got = parse_guard("#a1 >= 2*#a2 && #a3 <= 3")
    want = conj((atom_ge(var("#a1"), var("#a2").scale(2)),
                 atom_le(var("#a3"), 3)))
    assert got == want


def test_parse_guard_connectives():
    got = parse_guard("#a1 = 0 || #a2 != 1 -> #a1 < 2")
    want = implies(disj((atom_eq(var("#a1"), 0), atom_ne(var("#a2"), 1))),
                   atom_lt(var("#a1"), 2))
    assert got == want
    # implication is sugar
    assert (parse_guard("#a > 1 -> #b = 0")
            == parse_guard("!(#a > 1) || #b = 0"))


def test_parse_guard_negation_and_parens():
    got = parse_guard("!(#a1 > 5 && #a3 > #a1)")
    want = neg(conj((atom_gt(var("#a1"), 5), atom_gt(var("#a3"), var("#a1")))))
    assert got == want


def test_parse_guard_rejects_bad_product():
    with pytest.raises(ParseError):
        parse_guard("#a1 * 2 = 4")
    with pytest.raises(ParseError):
        parse_guard("#a1 + = 3")


def test_parse_guard_reports_position():
    with pytest.raises(ParseError) as err:
        parse_guard("#a1 <\n< 3")
    assert err.value.line == 2


def test_guard_roundtrip_is_structural():
    rng = random.Random(6)
    counters = [var("#a1"), var("#a2"), var("#a3")]
    ops = [atom_lt, atom_le, atom_eq, atom_ne, atom_ge, atom_gt]

    def rand_term():
        t = counters[rng.randrange(3)].scale(rng.randint(1, 3))
        if rng.random() < 0.5:
            t = t.add(counters[rng.randrange(3)])
        return t.shift(rng.randrange(5))

    for _ in range(120):
        parts = [rng.choice(ops)(rand_term(), rand_term()) for _ in range(3)]
        for phi in (disj((conj(parts[:2]), parts[2])),
                    implies(conj(parts[:2]), parts[2])):
            assert parse_guard(guard_to_str(phi)) == phi


# -- formulas -----------------------------------------------------------------


def test_parse_formula_quantified():
    got = parse_formula("E y1 A y2 <<y1,y2>> G !captured")
    want = Quant(((E, 1), (A, 2)),
                 Coop(Y1, Y2, Globally(NotF(Prop("captured")))))
    assert got == want


def test_parse_formula_concrete_next():
    assert parse_formula("<<7,5>> X p") == Coop(Nat(7), Nat(5), Next(Prop("p")))


def test_parse_formula_position_diagnostic():
    with pytest.raises(SemanticError):
        parse_formula("<<y2,1>> X p")


def test_parse_formula_polarity_diagnostic():
    # the inner occurrence is free in the binder's scope and negated once
    with pytest.raises(SemanticError):
        parse_formula("E y1 <<y1,5>> X !<<y1,3>> X p")
    with pytest.raises(SemanticError):
        parse_formula("A y2 <<1,y2>> X !<<2,y2>> G p")


def test_rebinding_under_negation_is_accepted():
    # the inner occurrence is bound by its own quantifier, so each binder
    # sees only positive free occurrences in its own scope
    phi = parse_formula("E y1 <<y1,10>> X !(E y1 A y2 <<y1,y2>> X p)")
    assert isinstance(phi, Quant)


def test_parse_formula_sugar():
    assert parse_formula("p -> q") == OrF(NotF(Prop("p")), Prop("q"))
    f = parse_formula("<<1,2>> F p")
    assert f == Coop(Nat(1), Nat(2), Until(Top(), Prop("p")))


def test_parse_formula_until_parenthesised():
    got = parse_formula("<<3,z1>> (p U q)")
    assert got == Coop(Nat(3), Param(1), Until(Prop("p"), Prop("q")))
    with pytest.raises(ParseError):
        parse_formula("<<3,1>> p U q")


def test_parse_formula_terms():
    got = parse_formula("<<z2,z2>> X p")
    assert got == Coop(Param(2), Param(2), Next(Prop("p")))
    with pytest.raises(ParseError):
        parse_formula("<<z0,1>> X p")


def test_parse_formula_precedence():
    got = parse_formula("!p & q | p")
    assert got == OrF(AndF(NotF(Prop("p")), Prop("q")), Prop("p"))


def test_chains_parse_as_balanced_trees():
    p, q = Prop("p"), Prop("q")
    assert parse_formula("p & q & p") == AndF(AndF(p, q), p)
    assert parse_formula("p | q | p | q") == OrF(OrF(p, q), OrF(p, q))
    # trees of other shapes print with their groups and parse back as such
    for phi in (AndF(AndF(AndF(p, q), p), q), AndF(p, AndF(q, AndF(p, q))),
                OrF(OrF(OrF(p, q), p), q), OrF(AndF(p, q), OrF(q, AndF(p, q)))):
        assert parse_formula(formula_to_str(phi)) == phi, formula_to_str(phi)


def test_formula_roundtrip_fixtures():
    texts = [
        "E y1 A y2 <<y1,y2>> X (p|q)",
        "<<7,5>> X p",
        "A y2 <<0,y2>> G q",
        "<<6,3>> X (E y1 <<y1,10>> ((A y2 E y1 <<y1,y2>> G p) U (A y2 <<0,y2>> G q)))",
        "!p & (q | true)",
        "<<z1,z1>> F !p",
    ]
    for text in texts:
        phi = parse_formula(text)
        assert parse_formula(formula_to_str(phi)) == phi


def test_formula_roundtrip_generated():
    rng = random.Random(10)

    def gen(depth, quantifiable=True):
        roll = rng.random()
        if depth == 0 or roll < 0.25:
            return rng.choice([Prop("p"), Prop("q"), Top()])
        if roll < 0.4:
            return NotF(gen(depth - 1, False))
        if roll < 0.55:
            return AndF(gen(depth - 1, quantifiable), gen(depth - 1, quantifiable))
        if roll < 0.65:
            return OrF(gen(depth - 1, quantifiable), gen(depth - 1, quantifiable))
        use = quantifiable and rng.random() < 0.5
        t1 = Y1 if use else Nat(rng.randrange(9))
        t2 = Y2 if use else Param(rng.randint(1, 3))
        body = gen(depth - 1)
        kind = rng.random()
        if kind < 0.35:
            objective = Next(body)
        elif kind < 0.6:
            objective = Globally(body)
        elif kind < 0.8:
            objective = Until(body, gen(depth - 1))
        else:
            objective = Until(Top(), body)
        coop = Coop(t1, t2, objective)
        if use:
            return Quant(rng.choice((((E, 1), (A, 2)), ((A, 2), (E, 1)))), coop)
        return coop

    for _ in range(200):
        phi = gen(4)
        assert parse_formula(formula_to_str(phi)) == phi


@pytest.mark.parametrize("text", [
    "p <-> q",
    "p <-> q <-> p <-> q",
    "((p <-> q) <-> q) <-> p",
    "p -> q <-> !p",
    "<<1,1>> X p <-> (<<2,0>> G !q) <-> q | p & q",
    "E y1 <<y1,2>> G (p <-> q) <-> !(q <-> p)",
])
def test_iff_chain_roundtrip(text):
    phi = parse_formula(text)
    printed = formula_to_str(phi)
    assert parse_formula(printed) == phi
    assert printed.count("<->") == text.count("<->")


def test_iff_chain_prints_each_side_once():
    # two parses of the chain share no nodes, so == between them would
    # expand both; the printed text is compared instead
    printed = formula_to_str(parse_formula(" <-> ".join(["p"] * 34)))
    assert printed.count("p") == 34
    assert formula_to_str(parse_formula(printed)) == printed


# -- model DSL ----------------------------------------------------------------


def test_parse_fig2_fixture(fig2):
    assert fig2.states == ("s1", "s2", "s3", "s4", "s5", "s6")
    assert fig2.table.actions == ("a1", "a2", "a3")
    assert len(fig2.guards) == 12
    assert fig2.avail["s2"] == frozenset({"a1", "a3", ""})
    assert fig2.labels["s5"] == frozenset({"q"})
    # the else edge expands to the negated siblings
    rng = random.Random(2)
    g_else = fig2.guard("s1", "s1")
    g1, g2 = fig2.guard("s1", "s2"), fig2.guard("s1", "s3")
    for _ in range(300):
        val = {c: rng.randrange(14) for c in ("#a1", "#a2", "#a3")}
        assert evaluate(g_else, val) == (not evaluate(g1, val)
                                         and not evaluate(g2, val))


def test_parse_fortress_fixture(fortress):
    assert fortress.states == ("s1", "s2")
    assert len(fortress.table.actions) == 6
    assert fortress.labels["s2"] == frozenset({"captured"})
    assert fortress.avail["s2"] == frozenset({""})


def test_unavailable_counter_is_rejected():
    with pytest.raises(SemanticError) as err:
        parse_model("""
            actions a1 a2;
            props p;
            state s1 { avail: a1; label: ; }
            guard s1 -> s1 : #a2 >= 0;
        """)
    assert "#a2" in str(err.value)


def test_a_shared_guard_is_checked_at_each_state():
    # the two guards parse once, but only s1 has a2 available
    with pytest.raises(SemanticError) as err:
        parse_model("""
            actions a1 a2;
            props ;
            state s1 { avail: a1 a2; label: ; }
            state s2 { avail: a1; label: ; }
            guard s1 -> s1 : #a2 >= 0;
            guard s2 -> s2 : #a2 >= 0;
        """)
    assert str(err.value).startswith("7:19: guard s2 -> s2 uses counters")


def test_a_guard_with_a_name_for_a_counter_stays_an_error():
    # same token texts as the guard before, one a name and not a counter
    text = ("actions a; props ; state s { avail: a; label: ; } "
            "state t { avail: a; label: ; } "
            "guard s -> s : #a > 1; guard t -> t : a > 1;")
    with pytest.raises(ParseError) as err:
        parse_model(text)
    assert (err.value.line, err.value.col) == (1, text.rindex("a > 1") + 1)


_GUARD_DECL = re.compile(r"guard (\w+) -> (\w+) : (.*?);", re.DOTALL)


def test_shared_guards_equal_their_own_parses():
    # parse_model parses each distinct guard once and shares the formula
    from perfbench.models import fortress_text
    rng = random.Random(12)
    texts = [ring_text(80), fortress_text(4)]
    texts += [random_model_text(rng, clone=rng.random() < 0.5)
              for _ in range(30)]
    for text in texts:
        model = parse_model(text).model
        declared, else_edges = {}, []
        for src, dst, body in _GUARD_DECL.findall(text):
            if body.strip() == "else":
                else_edges.append((src, dst))
            else:
                declared[(src, dst)] = parse_guard(body)
        want = dict(declared)
        for src, dst in else_edges:
            want[(src, dst)] = conj(tuple(neg(g) for (s, _), g in declared.items()
                                          if s == src))
        assert list(model.guards.items()) == list(want.items())
        assert model.adjacency == Adjacency.build(model.states, want)


def test_duplicate_and_unknown_declarations():
    with pytest.raises(SemanticError):
        parse_model("actions a a; props ; state s { avail: a; label: ; } "
                    "guard s -> s : 0 = 0;")
    with pytest.raises(SemanticError):
        parse_model("actions a; props ; state s { avail: b; label: ; } "
                    "guard s -> s : 0 = 0;")
    with pytest.raises(SemanticError):
        parse_model("actions a; props ; state s { avail: a; label: ; } "
                    "guard s -> t : 0 = 0;")
    with pytest.raises(SemanticError):
        parse_model("actions a; props ; state s { avail: a; label: ; } "
                    "guard s -> s : 0 = 0; guard s -> s : 0 = 0;")


def test_single_else_per_source():
    with pytest.raises(SemanticError):
        parse_model("""
            actions a;
            props ;
            state s { avail: a; label: ; }
            state t { avail: a; label: ; }
            guard s -> s : else;
            guard s -> t : else;
        """)


def test_else_negates_the_guards_of_its_own_source():
    # else edges declared first, between interleaved sources
    model = parse_model("""
        actions a b;
        props ;
        state s { avail: a b; label: ; }
        state t { avail: a b; label: ; }
        state s2 { avail: a b; label: ; }
        guard s -> s : else;
        guard t -> s : #a > 1;
        guard s -> t : #b > 2;
        guard t -> t : else;
        guard s -> s2 : #a = 0 && #b = 0;
    """).model
    a_, b_ = var("#a"), var("#b")
    assert model.guard("s", "s") == conj((
        neg(atom_gt(b_, 2)), neg(conj((atom_eq(a_, 0), atom_eq(b_, 0))))))
    assert model.guard("t", "t") == neg(atom_gt(a_, 1))


def test_reserved_names_rejected():
    with pytest.raises(SemanticError):
        parse_model("actions guard; props ; state s { avail: ; label: ; } "
                    "guard s -> s : else;")
    with pytest.raises(SemanticError):
        parse_model("actions a; props y1; state s { avail: ; label: ; } "
                    "guard s -> s : else;")


def test_comments_and_counters_coexist():
    doc = parse_model("""
        # leading comment
        actions a1;    # trailing comment
        props p;
        state s1 { avail: a1; label: p; }
        guard s1 -> s1 : #a1 >= 0;   # counter then comment
    """)
    assert doc.model.states == ("s1",)


def test_spans_recorded():
    doc = parse_model("actions a;\nprops p;\nstate s { avail: a; label: ; }\n"
                      "guard s -> s : else;\n")
    assert doc.spans[("state", "s")][0] == 3
    assert doc.spans[("guard", "s", "s")][0] == 4


def test_model_roundtrip(fig2, fortress):
    implication = parse_model("actions a b; state s { avail: a b; label: ; } "
                              "guard s -> s : #a > 1 -> #b = 0;").model
    for model in (fig2, fortress, implication):
        again = parse_model(model_to_text(model)).model
        assert again.states == model.states
        assert again.table == model.table
        assert again.avail == model.avail
        assert again.labels == model.labels
        assert again.guards == model.guards


# -- nesting depth ------------------------------------------------------------

DEEP = 1500


@pytest.mark.parametrize("text,col", [
    ("!" * DEEP + "p", MAX_DEPTH + 1),
    ("(" * DEEP + "p" + ")" * DEEP, MAX_DEPTH + 1),
    ("<<1,1>> X " * DEEP + "p", 10 * MAX_DEPTH + 9),
    ("p -> " * DEEP + "p", 5 * MAX_DEPTH + 3),
    # a chain opens no sub-expression, but its nodes sit above its
    # operands: the error is at the operator whose node is too deep
    ("!" * MAX_DEPTH + "p & p", MAX_DEPTH + 3),
    ("p | p | " + "!" * MAX_DEPTH + "p", 7),
], ids=["not", "parentheses", "next", "implication", "and-over-deep-operand",
        "or-over-deep-operand"])
def test_deep_formula_is_a_parse_error(text, col):
    with pytest.raises(ParseError) as err:
        parse_formula(text)
    assert (err.value.line, err.value.col) == (1, col)
    assert f"nested deeper than {MAX_DEPTH} levels" in str(err.value)


@pytest.mark.parametrize("text", [
    "(" * DEEP + "#a > 0" + ")" * DEEP,
    "!" * DEEP + "#a > 0",
    "#a > 0 -> " * DEEP + "#a > 0",
    "!(#a > 0 && " * DEEP + "#a > 1" + ")" * DEEP,
], ids=["parentheses", "not", "implication", "mixed"])
def test_deep_guard_is_a_parse_error(text):
    with pytest.raises(ParseError, match="nested deeper"):
        parse_guard(text)
    with pytest.raises(ParseError) as err:
        parse_model("actions a;\nprops ;\nstate s { avail: a; label: ; }\n"
                    f"guard s -> s : {text};\n")
    assert err.value.line == 4


def test_depth_limit_admits_its_own_depth():
    limit = MAX_DEPTH
    assert parse_formula("!" * limit + "p") is not None
    assert parse_formula("(" * limit + "p" + ")" * limit) == Prop("p")
    for op in ("&", "|"):
        # a chain is a balanced tree: width does not count as depth
        text = f" {op} ".join(["p"] * DEEP)
        assert formula_to_str(parse_formula(text)) == text
    assert parse_formula("<<1,1>> X " * (limit // 2) + "p") is not None
    assert parse_guard("(" * limit + "#a > 0" + ")" * limit) == atom_gt(var("#a"), 0)
    assert parse_guard("!" * limit + "#a > 0") == atom_gt(var("#a"), 0)


# -- lexer ----------------------------------------------------------------------


def _tokens(text):
    """``tokenize`` in the shape of ``reference_tokenize``."""
    try:
        return [(t.kind, t.text, t.line, t.col) for t in tokenize(text)]
    except ParseError as err:
        return [("error", str(err).split(": ", 1)[1], err.line, err.col)]


FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "src" / "hdmas" / "fixtures"

LEXER_INPUTS = [
    "", "\n", "p", "#", "#a", "#1", "# comment", "p # trailing comment",
    "p\n# last line is a comment", "p\n#", "12abc", "a<->b<<c>>d->e",
    "<-", "a <- b", "x\t\r\ny", "#a+2*#b>=3&&!(#c!=#a)||#b<=0",
    "p $ q", "\n\n  @", "p\n  #x # y\n  ~", "<<1,2>> X (p U q)",
    "\u00e9", "state s { avail: a; }",
    # blank runs before an error, a comment and the end of the text
    "p \t\r $", "p \t# c", "p   ",
]


@pytest.mark.parametrize("text", LEXER_INPUTS)
def test_tokens_and_error_positions_are_pinned(text):
    assert _tokens(text) == reference_tokenize(text)


def test_tokens_of_fixtures_and_generated_models_are_pinned():
    from perfbench.models import fortress_text
    texts = [path.read_text() for path in sorted(FIXTURES.glob("*.hdmas"))]
    texts += [ring_text(n) for n in (3, 10, 80)]
    texts += [fortress_text(k) for k in (1, 4)]
    rng = random.Random(7)
    texts += [random_model_text(rng, clone=rng.random() < 0.5)
              for _ in range(30)]
    texts += [formula_to_str(random_concrete_formula(rng, depth=3))
              for _ in range(30)]
    for text in texts:
        assert _tokens(text) == reference_tokenize(text), text
        # the same text without its final newline, and cut mid-token
        assert _tokens(text.rstrip("\n")) == reference_tokenize(text.rstrip("\n"))
        assert _tokens(text[:len(text) // 2]) == reference_tokenize(text[:len(text) // 2])


@given(st.text(alphabet="ab1 #\t\r\n<>-=&|!{}();:,*+_$", max_size=40))
@settings(max_examples=300, deadline=None)
def test_tokens_match_the_reference_on_random_text(text):
    assert _tokens(text) == reference_tokenize(text)
