"""Command-line verification workflow.

Two subcommands: ``check-model`` runs the well-formedness checks and
``verify`` computes the extension of a formula, optionally against the
enumeration oracle or as artifact dumps (normal form, per-state
controllability formula).

Exit codes: 0 success, 1 parse error, unreadable input file or closed
standard output, 2 semantic error, 3 the state named with --state is not
in the extension, 4 enumeration cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from typing import Optional

from .engine import (EngineError, ModelChecker, UnassignedParameter,
                     quantified_prf, _resolve_term)
from .logic import (Coop, Quant, StateFormula, free_agent_vars,
                    merge_quantifiers, params_of, props_of, simplify_vacuous,
                    Next)
from .model import check_wellformed
from .normalform import nf
from .oracle import (BadEnumCap, EnumerationCapExceeded, Oracle,
                     QuantifiedFormula)
from .parsing import (ParseError, SemanticError, formula_to_str, guard_to_str,
                      parse_formula, parse_model)
from .qe import QeStats

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_SEMANTIC = 2
EXIT_STATE = 3
EXIT_CAP = 4


@dataclass
class RunConfig:
    """One CLI invocation; exactly one mode is active."""

    model_path: str
    mode: str = "verify"           # check-model | verify | dump-nf | dump-prf
    formula_text: Optional[str] = None
    assignment: dict = field(default_factory=dict)
    state: Optional[str] = None
    oracle: bool = False
    dump_prf_state: Optional[str] = None
    output: str = "plain"          # plain | json


class UnreadableInput(Exception):
    """An input file could not be opened or is not UTF-8 text."""


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as err:
        raise UnreadableInput(f"{path}: not UTF-8 text ({err.reason} at "
                              f"byte {err.start})") from None
    except OSError as err:
        raise UnreadableInput(str(err)) from None


def _load_model(config: RunConfig):
    return parse_model(_read_text(config.model_path))


def _is_numeral(text: str) -> bool:
    """ASCII digits only: ``str.isdigit`` also accepts superscripts and
    other scripts' digits, which ``int`` rejects or reads silently."""
    return text.isascii() and text.isdigit()


def _parse_assignment(pairs: list[str]) -> dict:
    theta = {}
    for pair in pairs:
        key, _, raw = pair.partition("=")
        key = key.strip()
        if not _is_numeral(raw.strip()):
            raise SemanticError(f"assignment {pair!r} needs a natural number")
        # z<n> as the formula names it: no leading zero, so z01 is not z1
        if not (key in ("y1", "y2") or (key.startswith("z")
                                        and _is_numeral(key[1:])
                                        and key[1:] == str(int(key[1:])))):
            raise SemanticError(f"assignment key {key!r} is not y1, y2 or z<n>")
        if key in theta:
            raise SemanticError(f"{key} is assigned more than once")
        theta[key] = int(raw)
    return theta


def _check_model(config: RunConfig) -> int:
    doc = _load_model(config)
    report = check_wellformed(doc.model)
    if config.output == "json":
        payload = {
            "schema": 1,
            "wellformed": report.ok,
            "report": report.lines(),
            "model": doc.model.to_json(),
        }
        print(json.dumps(payload, indent=2))
    else:
        for line in report.lines():
            print(line)
        print("well-formed" if report.ok else "NOT well-formed")
    return EXIT_OK if report.ok else EXIT_SEMANTIC


def _unassigned(phi: StateFormula, theta: dict) -> list[str]:
    needed = [f"z{i}" for i in sorted(params_of(phi))]
    needed += [f"y{i}" for i in sorted(free_agent_vars(phi))]
    return [sym for sym in needed if sym not in theta]


def _verify(config: RunConfig) -> int:
    doc = _load_model(config)
    model = doc.model
    phi = parse_formula(config.formula_text or "")
    theta = config.assignment

    if config.state is not None and config.state not in model.states:
        raise SemanticError(f"unknown state {config.state!r}")
    unknown = props_of(phi) - set(model.props)
    if unknown:
        raise SemanticError("unknown propositions in the formula: "
                            + ", ".join(sorted(unknown)))

    normal = merge_quantifiers(simplify_vacuous(nf(phi)))

    if config.mode == "dump-nf":
        print(formula_to_str(normal))
        return EXIT_OK

    missing = _unassigned(phi, theta)
    if missing:
        raise SemanticError("unbound symbols in the formula: "
                            + ", ".join(missing) + " (use --assign)")

    if config.mode == "dump-prf":
        target_state = config.dump_prf_state
        if target_state not in model.states:
            raise SemanticError(f"unknown state {target_state!r}")
        body = normal
        pfix = ()
        if isinstance(body, Quant):
            pfix = body.prefix
            body = body.body
        if not (isinstance(body, Coop) and isinstance(body.objective, Next)):
            raise SemanticError(
                "--dump-prf needs a formula whose outermost operator is a "
                "strategic next")
        checker = ModelChecker(model)
        targets = checker.global_mc(body.objective.arg, theta)
        t1 = _resolve_term(body.t1, theta, pfix)
        t2 = _resolve_term(body.t2, theta, pfix)
        prf = quantified_prf(model, target_state, t1, t2, targets, pfix)
        print(guard_to_str(prf))
        return EXIT_OK

    stats = QeStats()
    if config.oracle:
        oracle = Oracle(model)
        extension = oracle.global_mc(normal, theta)
    else:
        checker = ModelChecker(model, stats=stats)
        extension = checker.global_mc(normal, theta)

    members = model.names_of(extension)
    if config.output == "json":
        payload = {
            "schema": 1,
            "formula": formula_to_str(phi),
            "normal_form": formula_to_str(normal),
            "assignment": theta,
            "extension": list(members),
            "per_state": {s: bool(extension >> i & 1)
                          for i, s in enumerate(model.states)},
        }
        if not config.oracle:
            payload["qe_stats"] = stats.to_json()
        print(json.dumps(payload, indent=2))
    else:
        print("extension:", " ".join(members) if members else "(empty)")
        if config.state is not None:
            verdict = config.state in members
            print(f"{config.state}: {'satisfied' if verdict else 'not satisfied'}")
    if config.state is not None and config.state not in members:
        return EXIT_STATE
    return EXIT_OK


def run(config: RunConfig) -> int:
    """Execute one configured invocation and return the exit code."""
    try:
        if config.mode == "check-model":
            return _check_model(config)
        return _verify(config)
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except (SemanticError, UnassignedParameter, QuantifiedFormula,
            EngineError, BadEnumCap) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_SEMANTIC
    except EnumerationCapExceeded as err:
        print(f"enumeration cap exceeded: {err}", file=sys.stderr)
        return EXIT_CAP
    except UnreadableInput as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdmas-verify",
        description="Model checker for strategic properties of homogeneous "
                    "dynamic multi-agent systems")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check-model", help="run the well-formedness checks")
    check.add_argument("model")
    check.add_argument("--json", action="store_true")

    verify = sub.add_parser("verify", help="compute the extension of a formula")
    verify.add_argument("model")
    group = verify.add_mutually_exclusive_group(required=True)
    group.add_argument("-f", "--formula", help="formula text")
    group.add_argument("--formula-file", help="read the formula from a file")
    verify.add_argument("--assign", action="append", default=[],
                        metavar="SYM=N",
                        help="bind a parameter or free agent counter")
    verify.add_argument("--state", help="also decide membership of one state")
    verify.add_argument("--oracle", action="store_true",
                        help="use explicit enumeration instead of the "
                             "symbolic engine")
    verify.add_argument("--dump-nf", action="store_true",
                        help="print the normal form and exit")
    verify.add_argument("--dump-prf", metavar="s=NAME",
                        help="print the controllability formula for a state")
    fmt = verify.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--plain", action="store_true")
    return parser


# Built once per process: building costs about as much as parsing a small
# model, and ``parse_args`` leaves the parser unchanged.
_PARSER = build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    try:
        code = _main(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: send the rest to devnull so that the
        # flush at exit stays quiet, as the Python ``signal`` docs advise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _main(argv: Optional[list[str]]) -> int:
    args = _PARSER.parse_args(argv)
    if args.command == "check-model":
        config = RunConfig(model_path=args.model, mode="check-model",
                           output="json" if args.json else "plain")
        return run(config)

    if args.dump_nf and args.dump_prf:
        print("error: choose one of --dump-nf and --dump-prf", file=sys.stderr)
        return EXIT_SEMANTIC
    if args.json and (args.dump_nf or args.dump_prf):
        print("error: --dump-nf and --dump-prf print plain text only; "
              "drop --json", file=sys.stderr)
        return EXIT_SEMANTIC
    mode = "verify"
    dump_state = None
    if args.dump_nf:
        mode = "dump-nf"
    elif args.dump_prf:
        mode = "dump-prf"
        value = args.dump_prf
        dump_state = value[2:] if value.startswith("s=") else value
    formula_text = args.formula
    if args.formula_file:
        try:
            formula_text = _read_text(args.formula_file)
        except UnreadableInput as err:
            print(f"error: {err}", file=sys.stderr)
            return EXIT_PARSE
    try:
        assignment = _parse_assignment(args.assign)
    except SemanticError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_SEMANTIC
    config = RunConfig(model_path=args.model, mode=mode,
                       formula_text=formula_text, assignment=assignment,
                       state=args.state, oracle=args.oracle,
                       dump_prf_state=dump_state,
                       output="json" if args.json else "plain")
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
