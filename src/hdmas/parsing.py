"""Concrete syntax: model DSL, guard expressions and formulas.

Guards use counter references ``#action``, the comparisons ``= < <= > >=
!=`` and the connectives ``! && || ->``; multiplication is restricted to
constant times counter.  A ``#`` not immediately followed by a name
starts a line comment.  Formulas follow

    state ::= "true" | IDENT | "!" state | state "&" state
            | state "|" state | "(" state ")"
            | quants "<<" term "," term ">>" path
    quants ::= (("E"|"A") ("y1"|"y2")){0,2}
    path  ::= "X" state | "G" state | "F" state | "(" state "U" state ")"
    term  ::= NAT | "y1" | "y2" | "z" NAT
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from operator import itemgetter
from types import MappingProxyType
from typing import NamedTuple, Optional

from . import logic
from .logic import (EXISTS, FORALL, AndF, Coop, Globally, Nat, Next, NotF,
                    OrF, Param, Prop, Quant, StateFormula, Term, Top, Until,
                    Y1, Y2, check_syntax, eventually)
from .model import (IDLE, ActionTable, HdmasModel, counter_name)
from .presburger import (DVD, EQ, And, AtomF, Exists, FalseF, Forall,
                         LinTerm, Not, Or, PresFormula, TrueF,
                         atom_eq, atom_ge, atom_gt, atom_le, atom_lt, atom_ne,
                         conj, disj, implies, neg, free_vars,
                         is_quantifier_free, var)


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class SemanticError(Exception):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        where = f"{line}:{col}: " if line else ""
        super().__init__(where + message)
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# lexer

# One match per token: the blanks before a token are part of its match,
# ``eof`` matches the end of the text and ``bad`` any character that starts
# no token.  Symbols are tried longest first.  A "#" followed by a name is
# a counter, any other "#" starts a comment that runs to the end of the line.
_TOKEN = re.compile(r"""
    (?P<blank>[\ \t\r]*)
    (?:
      (?P<newline>\n)
    | \#(?P<counter>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<comment>\#[^\n]*)
    | (?P<nat>[0-9]+)
    | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<sym><->|<<|>>|->|&&|\|\||<=|>=|!=|[{}();:,=<>!&|*+])
    | (?P<eof>\Z)
    | (?P<bad>.)
    )
""", re.VERBOSE | re.DOTALL)
_TEXT_KINDS = frozenset({"name", "nat", "sym", "counter"})

RESERVED = frozenset({"true", "else", "E", "A", "X", "G", "F", "U",
                      "actions", "props", "state", "guard", "avail", "label"})


class Token(NamedTuple):
    kind: str  # name | nat | counter | sym | eof
    text: str
    line: int
    col: int


# builds a Token from a tuple without the Python-level ``Token.__new__``
_new_token = tuple.__new__


def tokenize(text: str) -> list[Token]:
    """Tokens with 1-based positions, ending in one ``eof`` token.  The
    ``eof`` of a text ending in a comment sits where the comment starts."""
    out: list[Token] = []
    append = out.append
    line, line_start = 1, 0
    comment_col = None          # where a comment on the current line starts
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        # the blank group ends where the token starts, at the "#" of a counter
        if kind in _TEXT_KINDS:
            append(_new_token(Token, (kind, m.group(kind), line,
                                      m.end(1) - line_start + 1)))
        elif kind == "newline":
            line, line_start, comment_col = line + 1, m.end(), None
        elif kind == "comment":
            comment_col = m.end(1) - line_start + 1
        elif kind == "eof":
            break
        else:
            raise ParseError(f"unexpected character {m.group(kind)!r}",
                             line, m.end(1) - line_start + 1)
    append(_new_token(Token, ("eof", "", line,
                              comment_col or len(text) - line_start + 1)))
    return out


# Deeper guards and formulas are parse errors: the parsers and the tree
# walkers after them recurse once or more per level.
MAX_DEPTH = 100


def _within_depth(depth: int, tok: Token) -> int:
    if depth > MAX_DEPTH:
        raise ParseError(f"nested deeper than {MAX_DEPTH} levels",
                         tok.line, tok.col)
    return depth


class _Stream:
    def __init__(self, tokens: list[Token]):
        # a second eof, so that looking one token past the end needs no
        # bounds check: ``next`` never moves past the first
        self.tokens = tokens + tokens[-1:]
        self.pos = 0
        self.depth = 0      # sub-expressions open around the current token

    def peek(self, ahead: int = 0) -> Token:
        """The token ``ahead`` (0 or 1) places on; past the end, ``eof``."""
        return self.tokens[self.pos + ahead]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self.tokens[self.pos]
        if tok[0] != kind or (text is not None and tok[1] != text):
            want = text if text is not None else kind
            raise ParseError(f"expected {want!r}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.col)
        if kind != "eof":
            self.pos += 1
        return tok

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        tok = self.tokens[self.pos]
        if tok[0] == kind and (text is None or tok[1] == text):
            if kind != "eof":
                self.pos += 1
            return tok
        return None

    def descend(self, tok: Token) -> None:
        """Open a sub-expression at ``tok``; close it with ``ascend``."""
        self.depth = _within_depth(self.depth + 1, tok)

    def ascend(self) -> None:
        self.depth -= 1


# ---------------------------------------------------------------------------
# guard expressions


def _parse_guard_sum(ts: _Stream) -> LinTerm:
    total = _parse_guard_prod(ts)
    while ts.accept("sym", "+"):
        total = total.add(_parse_guard_prod(ts))
    return total


def _parse_guard_prod(ts: _Stream) -> LinTerm:
    tok = ts.peek()
    if tok.kind == "nat":
        ts.next()
        value = int(tok.text)
        if ts.accept("sym", "*"):
            ctr = ts.expect("counter")
            return var("#" + ctr.text).scale(value)
        return LinTerm((), value)
    if tok.kind == "counter":
        ts.next()
        return var("#" + tok.text)
    raise ParseError(f"expected a number or counter, found {tok.text!r}",
                     tok.line, tok.col)


_CMP = MappingProxyType({"=": atom_eq, "<": atom_lt, "<=": atom_le,
                         ">": atom_gt, ">=": atom_ge, "!=": atom_ne})


def _parse_guard_atom(ts: _Stream) -> PresFormula:
    tok = ts.peek()
    if ts.accept("sym", "!"):
        ts.descend(tok)
        out = neg(_parse_guard_atom(ts))
        ts.ascend()
        return out
    if ts.accept("sym", "("):
        ts.descend(tok)
        inner = _parse_guard_expr(ts)
        ts.expect("sym", ")")
        ts.ascend()
        return inner
    lhs = _parse_guard_sum(ts)
    tok = ts.peek()
    if tok.kind == "sym" and tok.text in _CMP:
        ts.next()
        rhs = _parse_guard_sum(ts)
        return _CMP[tok.text](lhs, rhs)
    raise ParseError(f"expected a comparison, found {tok.text!r}", tok.line, tok.col)


def _parse_guard_expr(ts: _Stream) -> PresFormula:
    lhs = _parse_guard_or(ts)
    tok = ts.peek()
    if ts.accept("sym", "->"):
        ts.descend(tok)
        out = implies(lhs, _parse_guard_expr(ts))
        ts.ascend()
        return out
    return lhs


def _parse_guard_or(ts: _Stream) -> PresFormula:
    out = _parse_guard_and(ts)
    while ts.accept("sym", "||"):
        out = disj((out, _parse_guard_and(ts)))
    return out


def _parse_guard_and(ts: _Stream) -> PresFormula:
    out = _parse_guard_atom(ts)
    while ts.accept("sym", "&&"):
        out = conj((out, _parse_guard_atom(ts)))
    return out


def parse_guard(text: str) -> PresFormula:
    ts = _Stream(tokenize(text))
    out = _parse_guard_expr(ts)
    ts.expect("eof")
    return out


# ---------------------------------------------------------------------------
# guard and formula printing


def _term_sides(t: LinTerm) -> tuple[str, str]:
    def monomial(v: str, c: int) -> str:
        return v if c == 1 else f"{c}*{v}"

    left = [monomial(v, c) for v, c in t.coeffs if c > 0]
    right = [monomial(v, -c) for v, c in t.coeffs if c < 0]
    if t.const > 0:
        left.append(str(t.const))
    elif t.const < 0:
        right.append(str(-t.const))
    return (" + ".join(left) or "0", " + ".join(right) or "0")


def _signed_term(t: LinTerm) -> str:
    parts = []
    for v, c in t.coeffs:
        name = v
        parts.append(name if c == 1 else f"{c}*{name}")
    if t.const or not parts:
        parts.append(str(t.const))
    return " + ".join(parts)


def guard_to_str(phi: PresFormula) -> str:
    """Render arithmetic formulas in the guard concrete syntax.

    Quantifiers and divisibility atoms (which only arise internally) use a
    display-only extension of the syntax.
    """
    if isinstance(phi, TrueF):
        return "0 = 0"
    if isinstance(phi, FalseF):
        return "0 < 0"
    if isinstance(phi, AtomF):
        a = phi.atom
        if a.kind == DVD:
            return f"({a.divisor} | {_signed_term(a.term)})"
        lhs, rhs = _term_sides(a.term)
        op = "=" if a.kind == EQ else "<"
        return f"{lhs} {op} {rhs}"
    if isinstance(phi, Not):
        return f"!({guard_to_str(phi.arg)})"
    if isinstance(phi, And):
        return " && ".join(f"({guard_to_str(a)})" if isinstance(a, Or)
                           else guard_to_str(a) for a in phi.args)
    if isinstance(phi, Or):
        return " || ".join(guard_to_str(a) for a in phi.args)
    if isinstance(phi, Exists):
        return f"E {phi.var}. ({guard_to_str(phi.body)})"
    if isinstance(phi, Forall):
        return f"A {phi.var}. ({guard_to_str(phi.body)})"
    raise TypeError(phi)


def term_to_str(t: Term) -> str:
    if isinstance(t, Nat):
        return str(t.value)
    if isinstance(t, Param):
        return f"z{t.index}"
    return f"y{t.index}"


def formula_to_str(phi) -> str:
    """Printer inverse to parse_formula on grammar-conforming shapes."""
    return _fmt_state(phi, 0)


def _fmt_state(phi: StateFormula, level: int) -> str:
    # level: 0 top, 1 inside |, 2 inside &, 3 unary operand
    if isinstance(phi, Top):
        return "true"
    if isinstance(phi, Prop):
        return phi.name
    if isinstance(phi, NotF):
        return "!" + _fmt_state(phi.arg, 3)
    if isinstance(phi, OrF):
        text = _fmt_chain(phi, OrF, " | ", 1, 2)
        return f"({text})" if level >= 2 else text
    if isinstance(phi, AndF):
        if _is_iff(phi):
            # the parser's shape of a <-> b; printed so, each side once
            lhs = phi.lhs
            return (f"({_fmt_state(lhs.lhs.arg, 1)} <-> "
                    f"{_fmt_state(lhs.rhs, 1)})")
        text = _fmt_chain(phi, AndF, " & ", 2, 3)
        return f"({text})" if level >= 3 else text
    if isinstance(phi, (Coop, Quant)):
        prefix = ""
        inner = phi
        if isinstance(phi, Quant):
            prefix = " ".join(f"{q} y{i}" for q, i in phi.prefix) + " "
            inner = phi.body
        if not isinstance(inner, Coop):
            return f"({prefix.strip()} ({_fmt_state(inner, 0)}))"
        text = (f"{prefix}<<{term_to_str(inner.t1)},{term_to_str(inner.t2)}>> "
                f"{_fmt_path(inner.objective)}")
        return f"({text})" if level >= 1 else text
    raise TypeError(phi)


def _is_iff(phi: StateFormula) -> bool:
    """Whether a node has the parser's shape of ``a <-> b``."""
    return (isinstance(phi, AndF) and isinstance(phi.lhs, OrF)
            and isinstance(phi.lhs.lhs, NotF)
            and phi.rhs == OrF(NotF(phi.lhs.rhs), phi.lhs.lhs.arg))


def _links(phi: StateFormula, kind: type) -> bool:
    return isinstance(phi, kind) and not _is_iff(phi)


def _balanced(phi: StateFormula, width: int, kind: type) -> bool:
    """Whether ``phi`` is the tree the parser builds for a chain of
    ``width`` operands joined by ``kind``."""
    if width == 1:
        return not _links(phi, kind)
    half = (width + 1) // 2
    return (_links(phi, kind) and _balanced(phi.lhs, half, kind)
            and _balanced(phi.rhs, width - half, kind))


def _fmt_chain(phi: StateFormula, kind: type, op: str, operand_level: int,
               group_level: int) -> str:
    # a tree of the parser's shape prints as a flat chain; any other keeps
    # its two sides, each parenthesised when it is of the same kind
    operands: list[StateFormula] = []

    def collect(f: StateFormula) -> None:
        if _links(f, kind):
            collect(f.lhs)
            collect(f.rhs)
        else:
            operands.append(f)

    collect(phi)
    if _balanced(phi, len(operands), kind):
        return op.join(_fmt_state(x, operand_level) for x in operands)
    return (f"{_fmt_state(phi.lhs, group_level)}{op}"
            f"{_fmt_state(phi.rhs, group_level)}")


def _fmt_path(chi) -> str:
    if isinstance(chi, Next):
        return "X " + _fmt_state(chi.arg, 3)
    if isinstance(chi, Globally):
        return "G " + _fmt_state(chi.arg, 3)
    if isinstance(chi, Until):
        if chi.lhs == Top():
            return "F " + _fmt_state(chi.rhs, 3)
        return f"({_fmt_state(chi.lhs, 0)} U {_fmt_state(chi.rhs, 0)})"
    raise TypeError(chi)


# ---------------------------------------------------------------------------
# formulas


_Z_PATTERN = re.compile(r"z([0-9]+)$")


def _parse_term(ts: _Stream) -> Term:
    tok = ts.peek()
    if tok.kind == "nat":
        ts.next()
        return Nat(int(tok.text))
    if tok.kind == "name":
        if tok.text == "y1":
            ts.next()
            return Y1
        if tok.text == "y2":
            ts.next()
            return Y2
        m = _Z_PATTERN.match(tok.text)
        if m:
            ts.next()
            index = int(m.group(1))
            if index < 1:
                raise ParseError("parameter indices start at 1", tok.line, tok.col)
            return Param(index)
    raise ParseError(f"expected a term, found {tok.text!r}", tok.line, tok.col)


def _parse_quants(ts: _Stream) -> tuple:
    prefix = []
    while len(prefix) < 2:
        tok = ts.peek()
        follow = ts.peek(1)
        if tok.kind == "name" and tok.text in ("E", "A") \
                and follow.kind == "name" and follow.text in ("y1", "y2"):
            ts.next()
            ts.next()
            prefix.append((EXISTS if tok.text == "E" else FORALL,
                           1 if follow.text == "y1" else 2))
        else:
            break
    return tuple(prefix)


# The formula parsers return the parsed formula with its height, so that
# the & and | chains, which open no sub-expression, stay within the depth
# limit too.  A chain is joined as a balanced tree, so its height grows
# with the logarithm of its width and the limit measures nesting.


def _parse_path(ts: _Stream) -> tuple[logic.PathFormula, int]:
    tok = ts.peek()
    if tok.kind == "name" and tok.text in ("X", "G", "F"):
        ts.next()
        ts.descend(tok)
        arg, height = _parse_formula_expr(ts)
        ts.ascend()
        if tok.text == "X":
            return Next(arg), height + 1
        if tok.text == "G":
            return Globally(arg), height + 1
        return eventually(arg), height + 1
    if tok.kind == "sym" and tok.text == "(":
        ts.next()
        ts.descend(tok)
        lhs, left = _parse_formula_expr(ts)
        ts.expect("name", "U")
        rhs, right = _parse_formula_expr(ts)
        ts.expect("sym", ")")
        ts.ascend()
        return Until(lhs, rhs), max(left, right) + 1
    raise ParseError(f"expected a temporal operator, found {tok.text!r}",
                     tok.line, tok.col)


def _parse_formula_unary(ts: _Stream) -> tuple[StateFormula, int]:
    tok = ts.peek()
    if ts.accept("sym", "!"):
        ts.descend(tok)
        arg, height = _parse_formula_unary(ts)
        ts.ascend()
        return NotF(arg), _within_depth(height + 1, tok)
    quants = _parse_quants(ts)
    if quants or (tok.kind == "sym" and tok.text == "<<"):
        ts.expect("sym", "<<")
        t1 = _parse_term(ts)
        ts.expect("sym", ",")
        t2 = _parse_term(ts)
        ts.expect("sym", ">>")
        path, height = _parse_path(ts)
        coop = Coop(t1, t2, path)
        if t1 == Y2:
            raise SemanticError("y2 cannot stand in the first position",
                                tok.line, tok.col)
        if t2 == Y1:
            raise SemanticError("y1 cannot stand in the second position",
                                tok.line, tok.col)
        if quants:
            return Quant(quants, coop), _within_depth(height + 2, tok)
        return coop, _within_depth(height + 1, tok)
    if ts.accept("sym", "("):
        ts.descend(tok)
        inner, height = _parse_formula_expr(ts)
        ts.expect("sym", ")")
        ts.ascend()
        return inner, height
    if tok.kind == "name" and tok.text == "true":
        ts.next()
        return Top(), 0
    if tok.kind == "name" and tok.text not in RESERVED \
            and tok.text not in ("y1", "y2") and not _Z_PATTERN.match(tok.text):
        ts.next()
        return Prop(tok.text), 0
    raise ParseError(f"expected a formula, found {tok.text or 'end of input'!r}",
                     tok.line, tok.col)


def _balance(operands: list[tuple[StateFormula, int]], joints: list[Token],
             node: type) -> tuple[StateFormula, int]:
    """Balanced tree of ``node`` over the operands with their heights;
    ``joints[i]`` is the operator token between operands i and i + 1."""
    if len(operands) == 1:
        return operands[0]
    half = (len(operands) + 1) // 2
    lhs, left = _balance(operands[:half], joints[:half - 1], node)
    rhs, right = _balance(operands[half:], joints[half:], node)
    return node(lhs, rhs), _within_depth(max(left, right) + 1, joints[half - 1])


def _parse_formula_chain(ts: _Stream, symbol: str, node: type,
                         operand) -> tuple[StateFormula, int]:
    operands = [operand(ts)]
    joints = []
    while tok := ts.accept("sym", symbol):
        joints.append(tok)
        operands.append(operand(ts))
    return _balance(operands, joints, node)


def _parse_formula_and(ts: _Stream) -> tuple[StateFormula, int]:
    return _parse_formula_chain(ts, "&", AndF, _parse_formula_unary)


def _parse_formula_or(ts: _Stream) -> tuple[StateFormula, int]:
    return _parse_formula_chain(ts, "|", OrF, _parse_formula_and)


def _parse_formula_expr(ts: _Stream) -> tuple[StateFormula, int]:
    lhs, left = _parse_formula_or(ts)
    tok = ts.peek()
    if ts.accept("sym", "->"):
        ts.descend(tok)
        rhs, right = _parse_formula_expr(ts)
        ts.ascend()
        return OrF(NotF(lhs), rhs), _within_depth(max(left + 2, right + 1), tok)
    if ts.accept("sym", "<->"):
        ts.descend(tok)
        rhs, right = _parse_formula_expr(ts)
        ts.ascend()
        return (AndF(OrF(NotF(lhs), rhs), OrF(NotF(rhs), lhs)),
                _within_depth(max(left, right) + 3, tok))
    return lhs, left


def parse_formula(text: str) -> StateFormula:
    """Parse a state formula; the result passes the syntactic checks."""
    ts = _Stream(tokenize(text))
    out, _ = _parse_formula_expr(ts)
    ts.expect("eof")
    issues = check_syntax(out)
    if issues:
        raise SemanticError("; ".join(str(i) for i in issues))
    return out


# ---------------------------------------------------------------------------
# model DSL


@dataclass
class ModelDocument:
    """Parsed model plus the source and per-declaration source positions."""

    source: str
    model: HdmasModel
    spans: dict = field(default_factory=dict)


_NAME_OK = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")


def _check_name(tok: Token, what: str) -> str:
    if tok.text in RESERVED or tok.text in ("y1", "y2") or _Z_PATTERN.match(tok.text):
        raise SemanticError(f"{tok.text!r} is reserved and cannot name a {what}",
                            tok.line, tok.col)
    return tok.text


# a guard runs to the next ";" or to the end of the input, whose token is
# the only one with empty text
_GUARD_ENDS = frozenset({";", ""})
_kind_and_text = itemgetter(0, 1)


def _parse_shared_guard(ts: _Stream,
                        parsed: dict[tuple, PresFormula]) -> PresFormula:
    """The guard at ``ts``.  ``parsed`` maps the kinds and texts of a
    guard's tokens to its formula, so that each distinct guard of a model is
    parsed once; formulas are immutable, so equal guards share one."""
    tokens = ts.tokens
    start = end = ts.pos
    while tokens[end][1] not in _GUARD_ENDS:
        end += 1
    key = tuple(map(_kind_and_text, tokens[start:end]))
    guard = parsed.get(key)
    if guard is None:
        guard = _parse_guard_expr(ts)
        if ts.pos == end:       # else the caller's expect(";") fails
            parsed[key] = guard
    else:
        ts.pos = end
    return guard


def parse_model(text: str) -> ModelDocument:
    """Parse the model DSL; idle is implicitly available everywhere."""
    ts = _Stream(tokenize(text))
    tokens = ts.tokens
    actions: list[str] = []
    props: list[str] = []
    states: dict[str, None] = {}          # declaration order, O(1) lookup
    avail: dict[str, frozenset[str]] = {}
    labels: dict[str, frozenset[str]] = {}
    guard_texts: dict[tuple[str, str], PresFormula] = {}
    parsed_guards: dict[tuple, PresFormula] = {}
    else_edges: dict[str, str] = {}
    spans: dict = {}

    def names_until(stop: str) -> list[Token]:
        start = end = ts.pos
        while tokens[end][0] == "name":
            end += 1
        ts.pos = end
        ts.expect("sym", stop)
        return tokens[start:end]

    while tokens[ts.pos][0] != "eof":
        tok = ts.expect("name")
        if tok.text == "actions":
            if actions:
                raise SemanticError("duplicate actions declaration", tok.line, tok.col)
            for t in names_until(";"):
                name = _check_name(t, "action")
                if name in actions:
                    raise SemanticError(f"duplicate action {name!r}", t.line, t.col)
                actions.append(name)
                spans[("action", name)] = (t.line, t.col)
            if not actions:
                raise SemanticError("at least one action is required",
                                    tok.line, tok.col)
        elif tok.text == "props":
            for t in names_until(";"):
                name = _check_name(t, "proposition")
                if name in props:
                    raise SemanticError(f"duplicate proposition {name!r}",
                                        t.line, t.col)
                props.append(name)
                spans[("prop", name)] = (t.line, t.col)
        elif tok.text == "state":
            t = ts.expect("name")
            name = _check_name(t, "state")
            if name in states:
                raise SemanticError(f"duplicate state {name!r}", t.line, t.col)
            states[name] = None
            spans[("state", name)] = (t.line, t.col)
            ts.expect("sym", "{")
            ts.expect("name", "avail")
            ts.expect("sym", ":")
            listed = names_until(";")
            ts.expect("name", "label")
            ts.expect("sym", ":")
            labelled = names_until(";")
            ts.expect("sym", "}")
            for a in listed:
                if a.text not in actions:
                    raise SemanticError(f"unknown action {a.text!r}", a.line, a.col)
            for p in labelled:
                if p.text not in props:
                    raise SemanticError(f"unknown proposition {p.text!r}",
                                        p.line, p.col)
            avail[name] = frozenset(a.text for a in listed) | {IDLE}
            labels[name] = frozenset(p.text for p in labelled)
        elif tok.text == "guard":
            src = ts.expect("name")
            ts.expect("sym", "->")
            dst = ts.expect("name")
            ts.expect("sym", ":")
            spans[("guard", src.text, dst.text)] = (src.line, src.col)
            if src.text not in states:
                raise SemanticError(f"unknown state {src.text!r}", src.line, src.col)
            if dst.text not in states:
                raise SemanticError(f"unknown state {dst.text!r}", dst.line, dst.col)
            if (src.text, dst.text) in guard_texts or \
                    else_edges.get(src.text) == dst.text:
                raise SemanticError(f"duplicate guard {src.text} -> {dst.text}",
                                    src.line, src.col)
            if tokens[ts.pos][:2] == ("name", "else"):
                ts.pos += 1
                if src.text in else_edges:
                    raise SemanticError(f"state {src.text!r} already has an "
                                        "else edge", src.line, src.col)
                else_edges[src.text] = dst.text
            else:
                guard_texts[(src.text, dst.text)] = _parse_shared_guard(
                    ts, parsed_guards)
            ts.expect("sym", ";")
        else:
            raise ParseError(f"unexpected declaration {tok.text!r}",
                             tok.line, tok.col)

    if not states:
        raise SemanticError("a model needs at least one state")

    # Expand else edges into the conjunction of the negated sibling guards.
    # Equal guards are one shared object, so the memos below key on object
    # ids, which stay valid while ``guard_texts`` holds every guard, and
    # hash no formula tree.
    siblings: dict[str, list[PresFormula]] = {}
    for (src, _), g in guard_texts.items():
        siblings.setdefault(src, []).append(g)
    negated: dict[tuple[int, ...], PresFormula] = {}
    for src, dst in else_edges.items():
        sibs = siblings.get(src, ())
        key = tuple(map(id, sibs))
        if key not in negated:
            negated[key] = conj(tuple(neg(g) for g in sibs))
        guard_texts[(src, dst)] = negated[key]

    table = ActionTable(tuple(actions))
    model = HdmasModel(states=tuple(states), table=table, avail=avail,
                       guards=guard_texts, props=tuple(props), labels=labels)

    # each guard is checked once per set of available actions
    checked: set[tuple[int, frozenset[str]]] = set()
    for (src, dst), g in guard_texts.items():
        key = (id(g), avail[src])
        if key in checked:
            continue
        line, col = spans.get(("guard", src, dst), (0, 0))
        if not is_quantifier_free(g):
            raise SemanticError("guards must be quantifier-free", line, col)
        legal = {counter_name(a) for a in avail[src]} - {counter_name(IDLE)}
        stray = free_vars(g) - legal
        if stray:
            raise SemanticError(
                f"guard {src} -> {dst} uses counters unavailable at {src}: "
                + ", ".join(sorted(stray)), line, col)
        checked.add(key)

    return ModelDocument(source=text, model=model, spans=spans)


def model_to_text(model: HdmasModel) -> str:
    """Render a model back into the DSL; inverse of parse_model."""
    lines = ["actions " + " ".join(model.table.actions) + ";"]
    if model.props:
        lines.append("props " + " ".join(model.props) + ";")
    for s in model.states:
        listed = " ".join(a for a in model.table.actions if a in model.avail[s])
        labelled = " ".join(p for p in model.props if p in model.labels[s])
        avail_part = f"avail: {listed};" if listed else "avail: ;"
        label_part = f"label: {labelled};" if labelled else "label: ;"
        lines.append(f"state {s} {{ {avail_part} {label_part} }}")
    for (src, dst), g in model.guards.items():
        lines.append(f"guard {src} -> {dst} : {guard_to_str(g)};")
    return "\n".join(lines) + "\n"
