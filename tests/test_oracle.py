import pytest

from hdmas.logic import Coop, Nat, Next, NotF, Prop, Quant, Top, Y1
from hdmas.oracle import EnumerationCapExceeded, Oracle, QuantifiedFormula
from hdmas.parsing import parse_formula

p, q = Prop("p"), Prop("q")


def names(model, mask):
    return set(model.names_of(mask))


def test_pre_image_strategy_exists(fig2_oracle):
    fig2 = fig2_oracle.model
    got = fig2_oracle.concrete_pre_image(7, 5, fig2.mask_of(["s2", "s3", "s4"]))
    assert "s1" in names(fig2, got)


def test_pre_image_adversary_forces_loop(fig2_oracle):
    fig2 = fig2_oracle.model
    got = fig2_oracle.concrete_pre_image(0, 11, fig2.mask_of(["s2", "s3", "s4"]))
    assert "s1" not in names(fig2, got)


def test_pre_image_totality(fig2_oracle):
    fig2 = fig2_oracle.model
    for c in (0, 3, 5):
        assert fig2_oracle.concrete_pre_image(c, 0, fig2.all_states()) == \
            fig2.all_states()


def test_enumeration_cap():
    import conftest
    model = conftest.load_fixture("fig2.hdmas")
    oracle = Oracle(model, cap=10)
    with pytest.raises(EnumerationCapExceeded):
        oracle.concrete_pre_image(5, 5, model.all_states())


def test_cap_env_override(monkeypatch, fig2):
    monkeypatch.setenv("HDMAS_ENUM_CAP", "7")
    with pytest.raises(EnumerationCapExceeded):
        Oracle(fig2).concrete_pre_image(5, 5, fig2.all_states())


def test_global_mc_atoms(fig2_oracle):
    fig2 = fig2_oracle.model
    assert names(fig2, fig2_oracle.global_mc(p, {})) == {"s2", "s3", "s4"}
    assert fig2_oracle.global_mc(Top(), {}) == fig2.all_states()


def test_global_mc_next(fig2_oracle):
    fig2 = fig2_oracle.model
    got = fig2_oracle.global_mc(parse_formula("<<7,5>> X p"), {})
    assert "s1" in names(fig2, got)


def test_global_mc_rejects_quantifiers(fig2_oracle):
    phi = Quant((("E", 1),), Coop(Y1, Nat(2), Next(p)))
    with pytest.raises(QuantifiedFormula):
        fig2_oracle.global_mc(phi, {})


def test_global_mc_needs_closed_terms(fig2_oracle):
    phi = Coop(Y1, Nat(2), Next(p))
    with pytest.raises(QuantifiedFormula):
        fig2_oracle.global_mc(phi, {})
    fig2_oracle.global_mc(phi, {"y1": 4})


def test_global_mc_boolean_and_temporal(fig2_oracle):
    fig2 = fig2_oracle.model
    phi = parse_formula("<<3,1>> (p U q)")
    got = fig2_oracle.global_mc(phi, {})
    assert got & fig2.prop_mask("q") == fig2.prop_mask("q")
    inverted = fig2_oracle.global_mc(NotF(phi), {})
    assert inverted == fig2.all_states() & ~got


def test_oracle_monotonicity(fig2_oracle):
    fig2 = fig2_oracle.model
    targets = fig2.mask_of(["s2", "s3", "s4"])
    for c in range(4):
        for n in range(4):
            base = fig2_oracle.concrete_pre_image(c, n, targets)
            more = fig2_oracle.concrete_pre_image(c + 1, n, targets)
            fewer = fig2_oracle.concrete_pre_image(c, max(n - 1, 0), targets)
            assert base & ~more == 0
            assert base & ~fewer == 0


def test_module_level_wrappers(fig2):
    got = Oracle(fig2).global_mc(parse_formula("<<2,1>> G q"), {})
    assert set(fig2.names_of(got)) <= {"s5", "s6"}
