"""The symbolic engine against the enumeration oracle on generated models."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_concrete_formula, random_model_text
from hdmas.engine import ModelChecker
from hdmas.model import check_wellformed
from hdmas.oracle import Oracle
from hdmas.parsing import formula_to_str, parse_model


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
