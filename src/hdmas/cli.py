"""Command-line verification workflow.

Two subcommands: ``check-model`` runs the well-formedness checks and
``verify`` computes the extension of a formula, optionally against the
enumeration oracle or as artifact dumps (normal form, per-state
controllability formula).

    hdmas-verify check-model [--json] MODEL
    hdmas-verify verify (-f FORMULA | --formula-file FILE) [--assign SYM=N]...
                        [--state NAME] [--oracle]
                        [--dump-nf | --dump-prf s=NAME] [--json | --plain] MODEL

``--assign`` binds ``y1``, ``y2`` or ``z<n>`` to a natural number and may
be repeated; ``--state`` also decides one state's membership; ``--oracle``
uses explicit enumeration; ``--dump-nf`` and ``--dump-prf`` print the
normal form or a state's controllability formula instead.  ``-h``/``--help``
works before and after the subcommand.  The command line is read by a
small table-driven parser (``parse_argv``): options and the model may come
in any order, ``--opt=VALUE`` and ``-fVALUE`` work, a long option may be
shortened to a unique prefix, and ``--`` ends the options.

Exit codes: 0 success (or help), 1 parse error, unreadable input file or
closed standard output, 2 semantic error or bad command line (a usage line
and the error go to stderr), 3 the state named with --state is not in the
extension, 4 enumeration cap exceeded.
"""

from __future__ import annotations

import os
import sys
from typing import NoReturn, Optional, Sequence

from .engine import EngineError, ModelChecker, quantified_prf, _resolve_term
from .logic import (Coop, Quant, StateFormula, assignment_symbols,
                    merge_quantifiers, props_of, simplify_vacuous, Next)
from .model import HdmasModel, StateSet, check_wellformed
from .normalform import nf
from .parsing import (ParseError, SemanticError, formula_to_str, guard_to_str,
                      parse_formula, parse_model)
from .qe import QeStats

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_SEMANTIC = 2
EXIT_STATE = 3
EXIT_CAP = 4


class RunConfig:
    """One CLI invocation; exactly one mode is active."""

    def __init__(self, model_path: str,
                 mode: str = "verify",   # check-model | verify | dump-nf | dump-prf
                 formula_text: Optional[str] = None,
                 formula_file: Optional[str] = None,
                 assign: Sequence[str] = (),   # the --assign pairs as given
                 state: Optional[str] = None, oracle: bool = False,
                 dump_prf_state: Optional[str] = None,
                 output: str = "plain"):  # plain | json
        self.model_path = model_path
        self.mode = mode
        self.formula_text = formula_text
        self.formula_file = formula_file
        self.assign = assign
        self.state = state
        self.oracle = oracle
        self.dump_prf_state = dump_prf_state
        self.output = output


class UnreadableInput(Exception):
    """An input file could not be opened or is not UTF-8 text."""


class CapExceeded(Exception):
    """The enumeration oracle met its cap."""


def _read_text(path: str) -> str:
    """The file's text, without a leading byte-order mark."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read().removeprefix("\ufeff")
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


def _parse_assignment(pairs: Sequence[str]) -> dict:
    theta = {}
    for pair in pairs:
        key, _, raw = pair.partition("=")
        key = key.strip()
        if not _is_numeral(raw.strip()):
            raise SemanticError(f"assignment {pair!r} needs a natural number")
        # z<n> as the formula names it: n >= 1 with no leading zero, so z01
        # is not z1 and z0 names no parameter
        if not (key in ("y1", "y2") or (key.startswith("z")
                                        and _is_numeral(key[1:])
                                        and key[1:] == str(int(key[1:]))
                                        and key != "z0")):
            raise SemanticError(
                f"assignment key {key!r} is not y1, y2 or z<n> with n >= 1")
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
        _print_json(payload)
    else:
        for line in report.lines():
            print(line)
        print("well-formed" if report.ok else "NOT well-formed")
    return EXIT_OK if report.ok else EXIT_SEMANTIC


def _print_json(payload: dict) -> None:
    import json  # only --json needs it

    print(json.dumps(payload, indent=2))


def _enumerate(model: HdmasModel, phi: StateFormula, theta: dict) -> StateSet:
    """The extension by explicit enumeration.  The oracle is imported only
    here, so that a run without --oracle does not load it."""
    from .oracle import (BadEnumCap, EnumerationCapExceeded, Oracle,
                         QuantifiedFormula)

    try:
        return Oracle(model).global_mc(phi, theta)
    except (QuantifiedFormula, BadEnumCap) as err:
        raise SemanticError(str(err)) from None
    except EnumerationCapExceeded as err:
        raise CapExceeded(str(err)) from None


def _verify(config: RunConfig) -> int:
    # the formula file and the assignment are read before the model
    formula_text = config.formula_text
    if config.formula_file is not None:
        formula_text = _read_text(config.formula_file)
    theta = _parse_assignment(config.assign)
    doc = _load_model(config)
    model = doc.model
    phi = parse_formula(formula_text or "")

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

    missing = [sym for sym in assignment_symbols(phi) if sym not in theta]
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
        extension = _enumerate(model, normal, theta)
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
        _print_json(payload)
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
    except (SemanticError, EngineError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_SEMANTIC
    except CapExceeded as err:
        print(f"enumeration cap exceeded: {err}", file=sys.stderr)
        return EXIT_CAP
    except UnreadableInput as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE


PROG = "hdmas-verify"
# the options of each subcommand: long name -> metavar, or None for a switch
_OPTIONS = {
    "check-model": {"--help": None, "--json": None},
    "verify": {"--help": None, "--formula": "FORMULA", "--formula-file": "FILE",
               "--assign": "SYM=N", "--state": "NAME", "--oracle": None,
               "--dump-nf": None, "--dump-prf": "s=NAME", "--json": None,
               "--plain": None},
}
_SHORT = {"-h": "--help", "-f": "--formula"}
# the dumps print plain text
_EXCLUSIVE = (("--formula", "--formula-file"), ("--json", "--plain"),
              ("--dump-nf", "--dump-prf"), ("--dump-nf", "--json"),
              ("--dump-prf", "--json"))
_USAGE = {
    None: f"usage: {PROG} [-h] {{check-model,verify}} ...",
    "check-model": f"usage: {PROG} check-model [-h] [--json] MODEL",
    "verify": f"usage: {PROG} verify [-h] (-f FORMULA | --formula-file FILE) "
              "[--assign SYM=N] [--state NAME] [--oracle] "
              "[--dump-nf | --dump-prf s=NAME] [--json | --plain] MODEL",
}
_HELP = {
    None: """
Model checker for strategic properties of homogeneous dynamic multi-agent systems

commands:
  check-model  run the well-formedness checks
  verify       compute the extension of a formula

Run 'hdmas-verify COMMAND -h' for the options of a command.""",
    "check-model": """
run the well-formedness checks

options:
  -h, --help              show this help and exit
  --json                  print the report as JSON""",
    "verify": """
compute the extension of a formula

options:
  -h, --help              show this help and exit
  -f, --formula FORMULA   formula text
  --formula-file FILE     read the formula from a file
  --assign SYM=N          bind a parameter or free agent counter; repeatable
  --state NAME            also decide membership of one state
  --oracle                use explicit enumeration instead of the symbolic engine
  --dump-nf               print the normal form and exit
  --dump-prf s=NAME       print the controllability formula for a state
  --json                  print the result as JSON
  --plain                 print the result as text (the default)""",
}


def _shown(name: str) -> str:
    """An option as usage names it: ``-f/--formula``, ``--json``."""
    return next((f"{s}/{name}" for s, long in _SHORT.items() if long == name), name)


def _fail(command: Optional[str], message: str) -> NoReturn:
    """Report a bad command line as argparse does: usage, error, exit 2."""
    prog = f"{PROG} {command}" if command else PROG
    print(f"{_USAGE[command]}\n{prog}: error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_SEMANTIC)


def _long_option(command: Optional[str], flag: str) -> str:
    """The long option that ``flag`` names in full or as a unique prefix."""
    options = _OPTIONS[command] if command else ("--help",)
    if flag in options:
        return flag
    matches = [name for name in options if name.startswith(flag)]
    if len(matches) == 1:
        return matches[0]
    if matches:
        _fail(command, f"ambiguous option: {flag} could match {', '.join(matches)}")
    _fail(command, f"unrecognized option {flag}")


def parse_argv(argv: list[str]) -> tuple[str, str, dict]:
    """``(command, model path, options)`` from a command line.

    ``options`` maps the long name of each option given to ``True`` for a
    switch, to the last value given, or for ``--assign`` to the list of its
    values.  A bad command line exits with status 2, ``-h`` with 0."""
    if not argv:
        _fail(None, "a command is required: check-model or verify")
    command = argv[0]
    if command not in _OPTIONS:
        # the only option before a command is --help, or a prefix of it
        if command == "-h" or command.startswith("--") and _long_option(None, command):
            print(_USAGE[None] + "\n" + _HELP[None])
            raise SystemExit(EXIT_OK)
        _fail(None, f"invalid command {command!r} (choose from check-model, verify)")
    options = _OPTIONS[command]
    values: dict = {}
    positional: list[str] = []
    args = iter(argv[1:])
    for arg in args:
        if arg == "--":
            positional.extend(args)
            break
        if arg.startswith("--"):
            flag, eq, value = arg.partition("=")
            name = _long_option(command, flag)
            value = value if eq else None
        elif arg.startswith("-") and len(arg) > 1:
            name = _SHORT.get(arg[:2])
            if name not in options:
                _fail(command, f"unrecognized option {arg[:2]}")
            value = arg[2:].removeprefix("=") or None
        else:
            positional.append(arg)
            continue
        if name == "--help":
            print(_USAGE[command] + "\n" + _HELP[command])
            raise SystemExit(EXIT_OK)
        if options[name] is None:
            if value is not None:
                _fail(command, f"option {_shown(name)} takes no value")
            values[name] = True
            continue
        if value is None:
            value = next(args, None)
            if value is None or (value.startswith("-") and len(value) > 1):
                _fail(command, f"option {_shown(name)} needs a value {options[name]}")
        if name == "--assign":
            values.setdefault(name, []).append(value)
        else:
            values[name] = value
    if len(positional) != 1:
        _fail(command, f"unexpected argument {positional[1]!r}" if positional
              else "the model file is required")
    for first, second in _EXCLUSIVE:
        if first in values and second in values:
            _fail(command, f"option {_shown(second)} is not allowed with {_shown(first)}")
    if command == "verify" and "--formula" not in values \
            and "--formula-file" not in values:
        _fail(command, "one of the options -f/--formula --formula-file is required")
    return command, positional[0], values


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
    command, model_path, opts = parse_argv(sys.argv[1:] if argv is None else argv)
    output = "json" if opts.get("--json") else "plain"
    if command == "check-model":
        return run(RunConfig(model_path=model_path, mode="check-model",
                             output=output))

    dump_nf, dump_prf = opts.get("--dump-nf"), opts.get("--dump-prf")
    mode = "verify"
    dump_state = None
    if dump_nf:
        mode = "dump-nf"
    elif dump_prf:
        mode = "dump-prf"
        dump_state = dump_prf[2:] if dump_prf.startswith("s=") else dump_prf
    config = RunConfig(model_path=model_path, mode=mode,
                       formula_text=opts.get("--formula"),
                       formula_file=opts.get("--formula-file"),
                       assign=opts.get("--assign", ()),
                       state=opts.get("--state"), oracle=bool(opts.get("--oracle")),
                       dump_prf_state=dump_state, output=output)
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
