import json
import os
import pathlib
import subprocess
import sys

import pytest

import hdmas.engine
from helpers import ring_text
from hdmas import cli
from hdmas.cli import main
from hdmas.engine import ModelChecker
from hdmas.logic import EXISTS, Nat, Y1
from hdmas.parsing import MAX_DEPTH, guard_to_str, parse_model

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "src" / "hdmas" / "fixtures"
FIG2 = str(FIXTURES / "fig2.hdmas")
FORTRESS = str(FIXTURES / "fortress.hdmas")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_model_passes(capsys):
    code, out, _ = run_cli(capsys, "check-model", FIG2)
    assert code == 0
    assert "well-formed" in out
    assert "FAIL" not in out


def test_check_model_json(capsys):
    code, out, _ = run_cli(capsys, "check-model", FIG2, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["wellformed"] is True
    assert payload["model"]["states"] == ["s1", "s2", "s3", "s4", "s5", "s6"]


def test_check_model_reports_failure(tmp_path, capsys):
    bad = tmp_path / "bad.hdmas"
    bad.write_text("""
        actions a1;
        props ;
        state s1 { avail: a1; label: ; }
        state s2 { avail: a1; label: ; }
        guard s1 -> s1 : #a1 > 0;
        guard s1 -> s2 : #a1 > 1;
        guard s2 -> s2 : else;
    """)
    code, out, _ = run_cli(capsys, "check-model", str(bad))
    assert code == 2
    assert "NOT well-formed" in out
    assert "witness" in out


def _passing_lines(states):
    return ([f"idle-availability {s}: ok" for s in states]
            + [f"guard-scoping     {s}: ok" for s in states]
            + [f"totality          {s}: ok" for s in states])


# both orders of the one overlapping pair, in the order the report lists them
OVERLAP_REPORTS = {
    "fig2-overlap": _passing_lines([f"s{i}" for i in range(1, 7)]) + [
        "determinism       s1: edges to s2 and s3 overlap,"
        " witness {'#a1': 0, '#a2': 0, '#a3': 0}",
        "determinism       s1: edges to s3 and s2 overlap,"
        " witness {'#a1': 0, '#a2': 0, '#a3': 0}"],
    "overlapping-ring-6": _passing_lines([f"s{i}" for i in range(6)]) + [
        "determinism       s2: edges to s2 and s3 overlap,"
        " witness {'#a': 1, '#b': 0}",
        "determinism       s2: edges to s3 and s2 overlap,"
        " witness {'#a': 1, '#b': 0}"],
}


@pytest.mark.parametrize("name", sorted(OVERLAP_REPORTS))
def test_check_model_overlap_report_is_pinned(tmp_path, capsys, name):
    if name == "fig2-overlap":
        text = (FIXTURES / "fig2.hdmas").read_text().replace(
            "#a1 + #a2 + #a3 <= 10 && #a3 > 3",
            "#a1 + #a2 + #a3 <= 10 && #a3 >= 0")
    else:
        text = ring_text(6, {2: "#a <= #b + 1"})
    path = tmp_path / f"{name}.hdmas"
    path.write_text(text)
    expected = OVERLAP_REPORTS[name]
    code, out, _ = run_cli(capsys, "check-model", str(path))
    assert code == 2
    assert out.splitlines() == expected + ["NOT well-formed"]
    code, out, _ = run_cli(capsys, "check-model", str(path), "--json")
    assert code == 2
    payload = json.loads(out)
    assert payload["wellformed"] is False
    assert payload["report"] == expected


def test_verify_extension(capsys):
    code, out, _ = run_cli(capsys, "verify", FIG2,
                           "-f", "E y1 A y2 <<y1,y2>> X (p|q)")
    assert code == 0
    assert "s2 s4 s5 s6" in out


def test_verify_state_membership(capsys):
    code, out, _ = run_cli(capsys, "verify", FIG2, "-f", "<<7,5>> X p",
                           "--state", "s1")
    assert code == 0
    assert "s1: satisfied" in out


def test_verify_state_not_member_exit_code(capsys):
    code, out, _ = run_cli(capsys, "verify", FIG2, "-f", "E y1 <<y1,11>> X p",
                           "--state", "s1")
    assert code == 3
    assert "not satisfied" in out


def test_verify_parse_error(capsys):
    code, _, err = run_cli(capsys, "verify", FIG2, "-f", "<<1,>> X p")
    assert code == 1
    assert "parse error" in err


def test_verify_semantic_error_unbound(capsys):
    code, _, err = run_cli(capsys, "verify", FIG2, "-f", "<<z1,2>> X p")
    assert code == 2
    assert "z1" in err


@pytest.mark.parametrize("formula, message", [
    ("E y1 E y1 <<y1,2>> X p",
     "the quantifier prefix 'E y1 E y1' is not admissible;"
     " it must bind y1, y2 or both, each once"),
    ("E y1 <<y1,2>> X !<<y1,1>> X p",
     "y1 occurs both positively and negatively under its quantifier;"
     " it must occur only positively"),
    ("E y1 <<1,2>> X !<<y1,1>> X p",
     "y1 occurs only negatively under its quantifier;"
     " it must occur only positively"),
], ids=["prefix", "mixed-polarity", "negative-polarity"])
def test_verify_syntax_errors_read_as_sentences(capsys, formula, message):
    code, out, err = run_cli(capsys, "verify", FIG2, "-f", formula)
    assert code == 2
    assert err == f"error: {message}\n"
    assert out == ""


def test_verify_assignment(capsys):
    code, out, _ = run_cli(capsys, "verify", FIG2, "-f", "<<z1,z2>> X p",
                           "--assign", "z1=7", "--assign", "z2=5",
                           "--state", "s1")
    assert code == 0


def test_verify_bad_assignment(capsys):
    code, _, err = run_cli(capsys, "verify", FIG2, "-f", "p",
                           "--assign", "w=3")
    assert code == 2


@pytest.mark.parametrize("pair", ["z1=\u00b2", "z1=\u0663", "z\u00b2=3"],
                         ids=["superscript-value", "arabic-indic-value",
                              "superscript-key"])
def test_assignment_takes_ascii_digits_only(capsys, pair):
    # str.isdigit accepts these; int() rejects a superscript and reads the
    # Arabic-Indic three as 3.  The formula needs no parameter, so only the
    # assignment itself can fail
    code, out, err = run_cli(capsys, "verify", FIG2, "-f", "<<1,1>> X p",
                             "--assign", pair)
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert out == ""


def test_assigning_a_symbol_twice_is_an_error(capsys):
    # the last value used to win silently
    code, out, err = run_cli(capsys, "verify", FIG2, "-f", "<<z1,2>> X p",
                             "--assign", "z1=3", "--assign", "z1=0")
    assert code == 2
    assert err.startswith("error: ") and "z1" in err
    assert out == ""


def test_parameter_key_with_a_leading_zero_is_an_error(capsys):
    # z01 used to be stored under its own key and then reported as the
    # unbound symbol z1
    code, out, err = run_cli(capsys, "verify", FIG2, "-f", "<<z1,2>> X p",
                             "--assign", "z01=3")
    assert code == 2
    assert err.startswith("error: ") and "'z01'" in err
    assert "unbound" not in err and out == ""


def test_parameter_key_z0_is_an_error(capsys):
    # z0 names no parameter (a formula that names it is a parse error), yet
    # its assignment used to be accepted and ignored
    code, out, err = run_cli(capsys, "verify", FIG2, "-f", "<<1,2>> X p",
                             "--assign", "z0=5")
    assert (code, out) == (2, "")
    assert err == "error: assignment key 'z0' is not y1, y2 or z<n> with n >= 1\n"
    code, out, err = run_cli(capsys, "verify", FIG2, "-f", "<<z0,2>> X p")
    assert (code, out) == (1, "")
    assert "parameter indices start at 1" in err


def test_parameter_with_a_leading_zero_is_a_parse_error(capsys):
    # z01 in the formula used to run as z1
    code, out, err = run_cli(capsys, "verify", FIG2, "-f", "<<z01,2>> X p",
                             "--assign", "z1=3")
    assert (code, out) == (1, "")
    assert err == "parse error: 1:3: parameter 'z01' has a leading zero\n"
    code, out, _ = run_cli(capsys, "verify", FIG2, "-f", "<<z10,2>> X p",
                           "--assign", "z10=3")
    assert (code, out) == (0, "extension: s2 s4 s5\n")


def test_a_bad_assignment_is_reported_before_the_model_is_read(capsys):
    code, out, err = run_cli(capsys, "verify", "/nonexistent", "-f",
                             "<<1,1>> X p", "--assign", "z1=x")
    assert (code, out) == (2, "")
    assert err == "error: assignment 'z1=x' needs a natural number\n"


def test_an_unreadable_formula_file_is_reported_before_the_assignment(capsys):
    code, out, err = run_cli(capsys, "verify", FIG2, "--formula-file", "/nope",
                             "--assign", "z1=x")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "/nope" in err


@pytest.mark.parametrize("dump", [("--dump-nf",), ("--dump-prf", "s=s1")],
                         ids=["nf", "prf"])
def test_json_with_a_dump_is_an_error(capsys, dump):
    # a dump prints plain text; --json used to be ignored silently
    with pytest.raises(SystemExit) as stop:
        main(["verify", FIG2, "-f", "<<7,5>> X p", "--json", *dump])
    assert stop.value.code == 2
    captured = capsys.readouterr()
    usage, error = captured.err.splitlines()
    assert usage.startswith("usage: hdmas-verify verify")
    assert ": error: " in error and "--json" in error
    assert captured.out == ""


def test_verify_json_schema(capsys):
    code, out, _ = run_cli(capsys, "verify", FIG2, "-f", "<<7,5>> X p", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["formula"] == "<<7,5>> X p"
    assert payload["per_state"]["s1"] is True
    assert set(payload["extension"]) <= set("s1 s2 s3 s4 s5 s6".split())
    # a counter added or dropped must be added to or dropped from the README
    assert set(payload["qe_stats"]) == {
        "eliminated_quantifiers", "one_sided_eliminated", "peak_divisor_lcm",
        "peak_atom_count", "elapsed_seconds", "early_exits"}


def test_verify_oracle_path(capsys):
    code, out, _ = run_cli(capsys, "verify", FIG2, "-f", "<<7,5>> X p",
                           "--oracle", "--json")
    assert code == 0
    first = json.loads(out)
    code, out, _ = run_cli(capsys, "verify", FIG2, "-f", "<<7,5>> X p", "--json")
    second = json.loads(out)
    assert first["extension"] == second["extension"]


def test_verify_oracle_rejects_quantifiers(capsys):
    code, _, err = run_cli(capsys, "verify", FIG2,
                           "-f", "E y1 <<y1,2>> X p", "--oracle")
    assert code == 2


def test_verify_oracle_cap(capsys, monkeypatch):
    monkeypatch.setenv("HDMAS_ENUM_CAP", "5")
    code, _, err = run_cli(capsys, "verify", FIG2, "-f", "<<5,5>> X p",
                           "--oracle")
    assert code == 4
    assert "cap" in err


@pytest.mark.parametrize("extra", [(), ("--oracle",), ("--dump-prf", "s=s1")])
def test_verify_unknown_proposition(capsys, extra):
    code, out, err = run_cli(capsys, "verify", FIG2, "-f", "<<1,1>> X (qq | p | aa)",
                             *extra)
    assert code == 2
    assert "unknown propositions in the formula: aa, qq" in err
    assert out == ""


@pytest.mark.parametrize("raw", ["abc", "-3"])
def test_verify_oracle_bad_cap(capsys, monkeypatch, raw):
    monkeypatch.setenv("HDMAS_ENUM_CAP", raw)
    code, out, err = run_cli(capsys, "verify", FIG2, "-f", "<<5,5>> X p",
                             "--oracle")
    assert code == 2
    assert err.count("\n") == 1 and "HDMAS_ENUM_CAP" in err


def test_dump_nf(capsys):
    code, out, _ = run_cli(capsys, "verify", FIG2,
                           "-f", "A y1 <<y1,5>> X p", "--dump-nf")
    assert code == 0
    assert out.strip() == "<<0,5>> X p"


def test_dump_prf(capsys):
    code, out, _ = run_cli(capsys, "verify", FIG2, "-f", "<<7,5>> X p",
                           "--dump-prf", "s=s1")
    assert code == 0
    assert "k_a" in out and "l_a" in out and "E " in out and "A " in out


def test_dump_prf_keeps_the_quantifier_prefix(capsys, monkeypatch):
    # the dump is the closed formula that the engine decides for the state
    code, out, _ = run_cli(capsys, "verify", FIG2, "-f", "E y1 <<y1,2>> X p",
                           "--dump-prf", "s=s1")
    assert code == 0
    assert out.startswith("E y1. (")
    model = parse_model(pathlib.Path(FIG2).read_text()).model
    checker = ModelChecker(model)
    decided = []
    monkeypatch.setattr(hdmas.engine, "decide",
                        lambda phi, stats: decided.append(phi) or True)
    checker._pre_states(Y1, Nat(2), model.prop_mask("p"), {}, ((EXISTS, 1),),
                        0, 1 << model.index("s1"))
    assert out == guard_to_str(decided[0]) + "\n"


def test_main_reads_sys_argv_when_given_no_arguments(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["hdmas-verify", "check-model", FIG2])
    assert main() == 0
    assert capsys.readouterr().out.splitlines()[-1] == "well-formed"


def _extension(out):
    return json.loads(out)["extension"]


@pytest.mark.parametrize("spelling", [
    ["-f", "<<7,5>> X p"], ["-f<<7,5>> X p"], ["-f=<<7,5>> X p"],
    ["--formula", "<<7,5>> X p"], ["--formula=<<7,5>> X p"],
    ["--formula", "<<7,5>> X p", "--stat=s1"],
], ids=["short", "short-attached", "short-equals", "long", "long-equals", "prefix"])
def test_every_spelling_of_an_option_gives_the_same_result(capsys, spelling):
    code, out, _ = run_cli(capsys, "verify", FIG2, "-f", "<<7,5>> X p", "--json")
    expected = _extension(out)
    code, out, err = run_cli(capsys, "verify", FIG2, *spelling, "--js")
    assert (code, err) == (0, "")
    assert _extension(out) == expected


def test_options_and_the_model_come_in_any_order(capsys):
    code, out, _ = run_cli(capsys, "verify", "--json", "-f", "<<7,5>> X p", FIG2)
    first = _extension(out)
    code, out, _ = run_cli(capsys, "verify", FIG2, "-f", "<<7,5>> X p", "--json")
    assert code == 0 and _extension(out) == first
    code, out, _ = run_cli(capsys, "verify", "-f", "<<1,1>> X q", "--", FIG2)
    assert code == 0 and out.startswith("extension:")


def test_repeated_assign_binds_each_symbol(capsys):
    code, out, _ = run_cli(capsys, "verify", FIG2, "-f", "<<7,5>> X p", "--json")
    expected = _extension(out)
    code, out, err = run_cli(capsys, "verify", FIG2, "-f", "<<z1,z2>> X p",
                             "--assign", "z1=7", "--assign=z2=5", "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["assignment"] == {"z1": 7, "z2": 5}
    assert _extension(out) == expected


@pytest.mark.parametrize("argv,named", [
    (["verify", FIG2, "-f", "p", "--json", "--plain"], "--plain"),
    (["verify", FIG2, "-f", "p", "--formula-file", FIG2], "--formula-file"),
    (["verify", FIG2, "-f", "p", "--dump-nf", "--dump-prf", "s=s1"], "--dump-prf"),
    (["verify", FIG2, "-f", "p", "--bogus"], "--bogus"),
    (["verify", FIG2, "-f", "p", "-x"], "-x"),
    (["verify", FIG2, "-f", "p", "--form", "q"], "--form"),
    (["verify", FIG2, "-f"], "-f/--formula"),
    (["verify", FIG2, "--state"], "--state"),
    (["verify", FIG2, "-f", "p", "--json=yes"], "--json"),
    (["verify", "-f", "p"], "model"),
    (["verify", FIG2, FIG2, "-f", "p"], FIG2),
    (["check-model", FIG2, "-f", "p"], "-f"),
    (["bogus", FIG2], "bogus"),
    (["--json", "check-model", FIG2], "--json"),
    ([], "command"),
], ids=["json-and-plain", "two-formulas", "two-dumps", "unknown-long",
        "unknown-short", "ambiguous-prefix", "missing-formula-value", "missing-value",
        "value-for-a-switch", "no-model", "two-models", "option-of-another-command",
        "unknown-command", "option-before-the-command", "nothing"])
def test_a_bad_command_line_prints_usage_and_exits_2(capsys, argv, named):
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, error = captured.err.splitlines()
    assert usage.startswith("usage: hdmas-verify")
    assert error.startswith("hdmas-verify") and ": error: " in error
    assert named in error


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["--he"], ["verify", "-h"],
                                  ["verify", FIG2, "--help"], ["check-model", "-h"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 0
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out.startswith("usage: hdmas-verify")
    if argv[0] == "verify":
        for option in ("-f, --formula FORMULA", "--formula-file FILE",
                       "--assign SYM=N", "--state NAME", "--oracle", "--dump-nf",
                       "--dump-prf s=NAME", "--json", "--plain"):
            assert option in captured.out
    elif argv[0] != "check-model":
        assert "check-model" in captured.out and "verify" in captured.out


def test_the_shared_parser_keeps_no_state_between_calls(capsys):
    for _ in range(2):
        code, _, _ = run_cli(capsys, "verify", FIG2, "-f", "<<z1,5>> X p",
                             "--assign", "z1=7")
        assert code == 0
        code, out, err = run_cli(capsys, "verify", FIG2, "-f", "<<z1,5>> X p")
        assert (code, out) == (2, "")
        assert "unbound symbols in the formula: z1" in err
        code, out, _ = run_cli(capsys, "verify", FIG2, "-f", "<<7,5>> X p",
                               "--json")
        assert code == 0 and json.loads(out)["schema"] == 1
        code, out, _ = run_cli(capsys, "check-model", FIG2)
        assert code == 0 and out.splitlines()[-1] == "well-formed"
    for _ in range(3):
        with pytest.raises(SystemExit) as stop:
            main(["verify", FIG2])
        assert stop.value.code == 2
        assert "-f/--formula" in capsys.readouterr().err


def test_dump_prf_needs_next_shape(capsys):
    code, _, err = run_cli(capsys, "verify", FIG2, "-f", "<<7,5>> G p",
                           "--dump-prf", "s=s1")
    assert code == 2


def test_missing_model_file(capsys):
    code, _, err = run_cli(capsys, "verify", "/nonexistent.hdmas", "-f", "p")
    assert code == 1


def _unreadable(tmp_path, kind):
    """A directory, or a file that is not valid UTF-8."""
    if kind == "directory":
        return str(tmp_path)
    path = tmp_path / "latin1.txt"
    path.write_bytes("<<7,5>> X p # caf\xe9\n".encode("latin-1"))
    return str(path)


@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_unreadable_model_is_an_error(tmp_path, capsys, kind):
    path = _unreadable(tmp_path, kind)
    for argv in (["check-model", path], ["verify", path, "-f", "p"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and path in err
        assert "Traceback" not in err


@pytest.mark.parametrize("argv", [["check-model", "--json"],
                                  ["verify", "-f", "<<1,1>> F goal"]])
def test_a_closed_stdout_exits_1_without_a_traceback(tmp_path, argv):
    # as in ``hdmas-verify check-model ring-80.hdmas --json | head -1``,
    # with the reader gone before the first write
    model = tmp_path / "ring-80.hdmas"
    model.write_text(ring_text(80))
    src = pathlib.Path(cli.__file__).resolve().parent.parent
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.Popen(
            [sys.executable, "-m", "hdmas.cli", argv[0], str(model), *argv[1:]],
            stdout=w, stderr=subprocess.PIPE, cwd=src)
    finally:
        os.close(w)
    _, err = proc.communicate(timeout=60)
    assert b"Traceback" not in err, err
    assert (proc.returncode, err) == (1, b"")


@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_unreadable_formula_file_is_an_error(tmp_path, capsys, kind):
    path = _unreadable(tmp_path, kind)
    code, out, err = run_cli(capsys, "verify", FIG2, "--formula-file", path)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and path in err


def test_formula_file(tmp_path, capsys):
    source = tmp_path / "formula.txt"
    source.write_text("<<7,5>> X p\n")
    code, out, _ = run_cli(capsys, "verify", FIG2,
                           "--formula-file", str(source), "--state", "s1")
    assert code == 0


@pytest.mark.parametrize("argv", [["check-model"], ["check-model", "--json"],
                                  ["verify", "-f", "<<7,5>> X p", "--state", "s1"]])
def test_a_model_with_a_byte_order_mark_reads_as_without(tmp_path, capsys, argv):
    # editors on Windows save UTF-8 with a leading U+FEFF
    path = tmp_path / "fig2.hdmas"
    path.write_bytes(b"\xef\xbb\xbf" + pathlib.Path(FIG2).read_bytes())
    want = run_cli(capsys, argv[0], FIG2, *argv[1:])
    assert want[0] == 0
    assert run_cli(capsys, argv[0], str(path), *argv[1:]) == want


def test_a_formula_file_with_a_byte_order_mark_is_read(tmp_path, capsys):
    source = tmp_path / "formula.txt"
    source.write_bytes("\ufeff<<7,5>> X p\n".encode("utf-8"))
    got = run_cli(capsys, "verify", FIG2, "--formula-file", str(source))
    assert got == run_cli(capsys, "verify", FIG2, "-f", "<<7,5>> X p")
    assert got[0] == 0


def test_importing_the_cli_generates_no_code_and_leaves_the_oracle_out():
    # a fresh interpreter, as for every run of hdmas-verify: dataclasses
    # compile their methods at import, and --oracle alone needs the oracle
    probe = """
import dataclasses, inspect, sys
import hdmas.cli
modules = [m for name, m in list(sys.modules.items())
           if name == "hdmas" or name.startswith("hdmas.")]
print(sorted(f"{m.__name__}.{name}" for m in modules
             for name, obj in vars(m).items()
             if inspect.isclass(obj) and obj.__module__ == m.__name__
             and dataclasses.is_dataclass(obj)))
print("hdmas.oracle" in sys.modules)
"""
    src = pathlib.Path(cli.__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, cwd=src, timeout=60, check=True)
    assert done.stdout.splitlines() == ["['hdmas.model.HdmasModel']", "False"]


def test_fortress_formula(capsys):
    code, out, _ = run_cli(capsys, "verify", FORTRESS,
                           "-f", "E y1 A y2 <<y1,y2>> G !captured",
                           "--state", "s1")
    assert code == 0
    assert "s1: satisfied" in out


@pytest.mark.parametrize("text", ["!" * 1500 + "p",
                                  "(" * 1500 + "p" + ")" * 1500],
                         ids=["not", "parentheses"])
def test_deep_formula_file_is_a_parse_error(tmp_path, capsys, text):
    source = tmp_path / "formula.txt"
    source.write_text(text)
    code, _, err = run_cli(capsys, "verify", FIG2, "--formula-file", str(source))
    assert code == 1
    assert err == f"parse error: 1:{MAX_DEPTH + 1}: nested deeper than {MAX_DEPTH} levels\n"


@pytest.mark.parametrize("op", ["&", "|"])
def test_flat_chain_of_1000_operands_verifies(capsys, op):
    # width is not nesting: a chain of p is p
    chain = f" {op} ".join(["p"] * 1000)
    code, out, err = run_cli(capsys, "verify", FIG2, "-f", f"<<1,1>> X ({chain})")
    assert (code, err) == (0, "")
    assert out == run_cli(capsys, "verify", FIG2, "-f", "<<1,1>> X p")[1]


def test_101_nested_parentheses_are_a_parse_error(capsys):
    text = "(" * (MAX_DEPTH + 1) + "p" + ")" * (MAX_DEPTH + 1)
    code, _, err = run_cli(capsys, "verify", FIG2, "-f", text)
    assert code == 1
    assert err == f"parse error: 1:{MAX_DEPTH + 1}: nested deeper than {MAX_DEPTH} levels\n"


@pytest.mark.parametrize("mode", [[], ["--json"], ["--dump-nf"], ["--oracle"]])
def test_formula_at_the_depth_limit_is_checked(capsys, mode):
    # as deep as the parser admits, both by nesting and by a chain
    half = MAX_DEPTH // 2
    text = "!" * half + "(" + " & ".join(["p"] * (MAX_DEPTH - half + 1)) + ")"
    code, out, err = run_cli(capsys, "verify", FIG2, "-f", text, *mode)
    assert (code, err) == (0, "")


def _iff_chain(leaves, n):
    return " <-> ".join(leaves[i % len(leaves)] for i in range(n + 1))


IFF_LEAVES = {"props": ["p"],
              "strategic": ["(<<1,1>> X p)", "q", "(<<2,0>> G !q)",
                            "(<<1,2>> F p)"]}


@pytest.mark.parametrize("leaves, n", [("props", 33), ("strategic", 31)])
def test_iff_chain_at_the_depth_limit_matches_the_oracle(capsys, leaves, n):
    text = _iff_chain(IFF_LEAVES[leaves], n)
    code, out, err = run_cli(capsys, "verify", FIG2, "-f", text)
    assert (code, err) == (0, "")
    assert run_cli(capsys, "verify", FIG2, "-f", text, "--oracle") == \
        (0, out, "")


@pytest.mark.parametrize("leaves, n", [("props", 33), ("strategic", 31)])
def test_iff_chain_json_output_is_small(capsys, leaves, n):
    # printing <-> as such keeps each shared side to one copy
    code, out, err = run_cli(capsys, "verify", FIG2, "-f",
                             _iff_chain(IFF_LEAVES[leaves], n), "--json")
    assert (code, err) == (0, "")
    assert len(out) < 10_000
    assert json.loads(out)["formula"].count("<->") == n


def _python_calls(capsys, text):
    """Python function calls made by one ``verify`` run."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        code, _, err = run_cli(capsys, "verify", FIG2, "-f", text)
    finally:
        sys.setprofile(None)
    assert (code, err) == (0, "")
    return calls


@pytest.mark.parametrize("leaves", sorted(IFF_LEAVES))
def test_iff_chain_work_is_polynomial(capsys, leaves):
    # the parser shares both sides of each <->: the tree doubles with every
    # operator, so a walker that expands it does 16 times the work for four
    # more operators; over distinct nodes the work grows by well under 4
    small = _python_calls(capsys, _iff_chain(IFF_LEAVES[leaves], 8))
    large = _python_calls(capsys, _iff_chain(IFF_LEAVES[leaves], 12))
    assert large < 4 * small, (small, large)
