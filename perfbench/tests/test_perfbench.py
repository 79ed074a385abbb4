"""Self-test of the benchmark: references, models, gate and smoke runs.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from hdmas.model import check_wellformed
from hdmas.oracle import Oracle
from hdmas.parsing import parse_formula, parse_model
from perfbench import workloads
from perfbench.gate import check
from perfbench.models import (FIG2, REPO, fortress_text, not_total,
                              overlapping, ring_text)
from perfbench.run import E2E, PER_LAYER, WORK
from perfbench.runner import Outcome
from perfbench.workloads import (RING_OBJECTIVES, Query, Ref, fortress_holds,
                                 ring_answer, ring_holds)

RUN = [sys.executable, str(REPO / "perfbench" / "run.py")]
COUNTS = [name for name, unit in PER_LAYER.items() if unit == "count"]


def _model(text):
    return parse_model(text).model


def _extension(model, oracle, formula):
    return set(model.names_of(oracle.global_mc(parse_formula(formula), {})))


def test_ring_closed_forms_match_oracle():
    model = _model(ring_text(10))
    oracle = Oracle(model)
    for objective in RING_OBJECTIVES:
        for t1 in range(6):
            for t2 in range(6):
                got = _extension(model, oracle, f"<<{t1},{t2}>> {objective}")
                want = ring_answer(10, objective, ring_holds(objective, t1, t2))
                assert got == want, (objective, t1, t2)


@pytest.mark.parametrize("k", [1, 2])
def test_fortress_closed_form_matches_oracle(k):
    model = _model(fortress_text(k))
    oracle = Oracle(model)
    for t1 in range(9):
        for t2 in range(11):
            got = _extension(model, oracle, f"<<{t1},{t2}>> G !captured")
            want = {"s1"} if fortress_holds(k, t1, t2) else set()
            assert got == want, (k, t1, t2)


def test_fortress_3_is_the_fixture():
    fixture = _model((FIG2.parent / "fortress.hdmas").read_text())
    generated = _model(fortress_text(3))
    assert generated.guards == fixture.guards
    assert generated.avail == fixture.avail
    assert generated.labels == fixture.labels


def test_generated_models_are_wellformed():
    for n in (10, 20, 40, 80):
        assert check_wellformed(_model(ring_text(n))).ok, n
    for k in range(1, 7):
        assert check_wellformed(_model(fortress_text(k))).ok, k


@pytest.mark.parametrize("bad", [not_total(7, 3), overlapping(9, 0, 2)])
def test_ill_formed_models_fail_with_a_breaking_witness(bad):
    report = check_wellformed(_model(bad.text()))
    assert not report.ok
    table = report.totality if bad.kind == "totality" else report.determinism
    failed = [(key, v) for key, v in table.items() if not v.ok]
    assert failed
    for key, outcome in failed:
        assert (key if isinstance(key, str) else key[0]) == f"s{bad.state}"
        assert bad.witness_breaks(outcome.witness)
    assert not bad.witness_breaks({"#a": 0, "#b": 5})


def _shape(workload):
    """A workload's queries up to the counts the seed draws."""
    return sorted((q.instance, q.command, q.once,
                   q.formula.split(">>")[-1]) for q in workload.queries)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seeds_draw_counts_not_the_mix(name):
    first = workloads.build(name, 1)
    assert ([q.argv(q.instance) for q in workloads.build(name, 1).queries]
            == [q.argv(q.instance) for q in first.queries])
    assert _shape(workloads.build(name, 2)) == _shape(first)
    heavy = {q.instance for q in first.queries if q.once}
    expected = {"fig2-prefixes": set(), "ring-states": {"ring-80"},
                "fortress-actions": {"fortress-5", "fortress-6"},
                "wellformed": {"ring-70", "ring-80", "not-total-ring-80",
                               "overlapping-ring-80"}}
    assert heavy == expected[name]
    assert first.rounds(30, False) >= 3


def _verify_outcome(extension, code=0):
    payload = {"extension": sorted(extension),
               "per_state": {s: s in extension for s in workloads.FIG2_STATES}}
    return Outcome(0.01, 1, False, code, json.dumps(payload))


def test_gate_rejects_wrong_extension_and_exit_code():
    query = Query("fig2", "verify", "<<1,1>> X p",
                  ref=Ref("states", frozenset({"s2"})))
    assert check(query, ["s2"], _verify_outcome({"s2"})) is None
    assert check(query, ["s2"], _verify_outcome({"s2", "s3"})) is not None
    assert check(query, ["s2"], _verify_outcome({"s2"}, code=1)) is not None
    member = Query("fig2", "verify", "E y1 <<y1,11>> X p", "s1",
                   Ref("member", member=False))
    assert check(member, None, _verify_outcome(set(), code=3)) is None
    assert check(member, None, _verify_outcome({"s1"}, code=0)) is not None
    crashed = Outcome(0.01, 1, False, crash="Traceback\nKeyError: 'q'")
    assert check(query, ["s2"], crashed) is not None
    assert check(query, ["s2"], Outcome(2.0, 1, True)) is None


def _run(workload, trace, seed=3):
    done = subprocess.run(RUN + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", "1", "--trace", str(trace),
                                 "--smoke"],
                          cwd=REPO, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_passes_the_gate(workload, trace):
    result = _run(workload, trace)
    assert result["correct"] is True
    assert set(result["metrics"]) == set(PER_LAYER if trace else E2E)
    assert result["attempted"] >= 1
    if workload == "fortress-actions":
        # fortress-6 is kept as a timeout and counted as failed
        assert result["failed"] >= 1
        if not trace:
            assert result["metrics"]["decided_ratio"]["value"] < 1
    else:
        assert result["failed"] == 0


def test_count_metrics_repeat_exactly():
    first, second = _run("fig2-prefixes", 1), _run("fig2-prefixes", 1)
    for name in COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_fails_without_the_program():
    bare = WORK / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(REPO / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", bare)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "ring-states", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare, env=env,
                          capture_output=True, text=True, timeout=170)
    shutil.rmtree(bare)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_benchmark_json_names_the_metrics():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
