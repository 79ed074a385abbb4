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
import sys
from bisect import bisect_left, bisect_right
from types import MappingProxyType
from typing import NamedTuple, NoReturn, Optional

from . import logic
from .logic import (EXISTS, FORALL, AndF, Coop, Globally, Nat, Next, NotF,
                    OrF, Param, Prop, Quant, StateFormula, Term, Top, Until,
                    Y1, Y2, check_syntax, eventually)
from .model import (IDLE, ActionTable, HdmasModel, counter_name)
from .presburger import (DVD, EQ, And, AtomF, Exists, FalseF, Forall,
                         LinTerm, Not, Or, PresFormula, TrueF,
                         atom_eq, atom_ge, atom_gt, atom_le, atom_lt, atom_ne,
                         conj, disj, implies, neg, free_vars, var)


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


def _numeral(text: str, tok: Token) -> int:
    """The value of the digits ``text`` of a token; a parse error at the
    token when there are more than ``int`` reads."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"a numeral of {len(text)} digits is longer than "
                         f"{sys.get_int_max_str_digits()} digits",
                         tok.line, tok.col) from None


def _parse_guard_prod(ts: _Stream) -> LinTerm:
    tok = ts.peek()
    if tok.kind == "nat":
        ts.next()
        value = _numeral(tok.text, tok)
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


# ---------------------------------------------------------------------------
# guard and formula printing


def _digits(n: int) -> str:
    """``str(n)`` for a printed constant; an error naming the limit when
    it has more digits than ``str`` writes, as a computed one may."""
    try:
        return str(n)
    except ValueError:
        raise SemanticError(f"a constant to print has more than "
                            f"{sys.get_int_max_str_digits()} digits") from None


def _term_sides(t: LinTerm) -> tuple[str, str]:
    def monomial(v: str, c: int) -> str:
        return v if c == 1 else f"{_digits(c)}*{v}"

    left = [monomial(v, c) for v, c in t.coeffs if c > 0]
    right = [monomial(v, -c) for v, c in t.coeffs if c < 0]
    if t.const > 0:
        left.append(_digits(t.const))
    elif t.const < 0:
        right.append(_digits(-t.const))
    return (" + ".join(left) or "0", " + ".join(right) or "0")


def _signed_term(t: LinTerm) -> str:
    parts = [v if c == 1 else f"{_digits(c)}*{v}" for v, c in t.coeffs]
    if t.const or not parts:
        parts.append(_digits(t.const))
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
            return f"({_digits(a.divisor)} | {_signed_term(a.term)})"
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
        return Nat(_numeral(tok.text, tok))
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
            index = _numeral(m.group(1), tok)
            if m.group(1) != str(index) and index:
                raise ParseError(f"parameter {tok.text!r} has a leading zero",
                                 tok.line, tok.col)
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
    if tok.kind == "name" and not _is_reserved(tok.text):
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
#
# A model is read declaration by declaration, not token by token.  Its
# comments are first replaced by blanks of the same length, so that an
# offset into that copy is an offset into the text; then each declaration
# is one anchored match.  Line and column are computed from an offset only
# for a span or an error.  Guard texts go through the token-level guard
# parser, each distinct text once.  A declaration that does not match, or
# whose guard does not parse, is read again token by token, so that its
# error names the token that does not fit, at that token's position.


class ModelDocument:
    """Parsed model plus the source and per-declaration source positions."""

    def __init__(self, source: str, model: HdmasModel, spans: dict):
        self.source = source
        self.model = model
        self.spans = spans


_COMMENT = re.compile(r"#(?![A-Za-z_])[^\n]*")
_NEWLINE = re.compile(r"\n")
_B = r"[ \t\r\n]*"                                  # blanks
_W = r"(?![A-Za-z0-9_])"                            # the end of a word
_N = r"[A-Za-z_][A-Za-z0-9_]*" + _W                # a name
_NAME = re.compile(_N)


def _names(group: str) -> str:
    return f"(?P<{group}>(?:{_B}{_N})*)"


# A whole declaration, or the end of the text, in one match.  ``lastgroup``
# tells which: ``actions``, ``props``, ``label`` (a state), ``else`` or
# ``guard`` (a guard with its text through the ";"), or ``end``.
_DECLARATION = re.compile("|".join([
    f"{_B}actions{_W}{_names('actions')}{_B};",
    f"{_B}props{_W}{_names('props')}{_B};",
    f"{_B}state{_W}{_B}(?P<state>{_N}){_B}\\{{{_B}avail{_W}{_B}:{_names('avail')}"
    f"{_B};{_B}label{_W}{_B}:{_names('label')}{_B};{_B}}}",
    f"{_B}guard{_W}{_B}(?P<src>{_N}){_B}->{_B}(?P<dst>{_N}){_B}:"
    f"(?:{_B}else{_W}{_B}(?P<else>;)|(?!{_B}else{_W})(?P<guard>[^;]*;))",
    f"{_B}(?P<end>\\Z)"]))


def _is_reserved(name: str) -> bool:
    return name in RESERVED or name in ("y1", "y2") or bool(_Z_PATTERN.match(name))


class _ModelReader:
    """The declarations of one model text, read in order.  The checks take
    offsets into the text and compute line and column only to report."""

    def __init__(self, text: str):
        self.text = text
        self.blank = _COMMENT.sub(lambda m: " " * len(m.group()), text)
        self.line_starts = [0] + [m.end() for m in _NEWLINE.finditer(text)]
        self.actions: dict[str, None] = {}
        self.props: dict[str, None] = {}
        self.states: dict[str, None] = {}
        self.avail: dict[str, frozenset[str]] = {}
        self.labels: dict[str, frozenset[str]] = {}
        self.guards: dict[tuple[str, str], PresFormula] = {}
        self.else_edges: dict[str, str] = {}
        self.spans: dict = {}
        # guard text -> formula; equal texts share one immutable formula
        self.parsed: dict[str, PresFormula] = {}
        # (group, text) of a run of names -> its checked set; states of a
        # model tend to repeat their lists
        self.name_sets: dict[tuple[str, str], frozenset[str]] = {}

    def where(self, offset: int) -> tuple[int, int]:
        """1-based line and column of an offset."""
        line = bisect_right(self.line_starts, offset)
        return line, offset - self.line_starts[line - 1] + 1

    def read(self) -> None:
        blank = self.blank
        offset = 0
        while True:
            m = _DECLARATION.match(blank, offset)
            if m is None:
                self._fail(offset)
            kind = m.lastgroup
            if kind == "guard" or kind == "else":
                src, dst = m.group("src", "dst")
                self._edge(src, dst, m.start("src"), m.start("dst"))
                if kind == "else":
                    self._else(src, dst)
                else:
                    self.guards[(src, dst)] = self._guard(m, offset)
            elif kind == "label":
                name = m.group("state")
                self._state(name, m.start("state"))
                self.avail[name] = self._known(m, "avail")
                self.labels[name] = self._known(m, "label")
            elif kind == "end":
                return
            else:
                # the keyword ends where its run of names starts
                at = m.start(kind) - len(kind)
                self._list_keyword(kind, at)
                self._list(kind, m, at)
            offset = m.end()

    def _fail(self, offset: int) -> NoReturn:
        """Raise the first error of the declaration at ``offset``, reading
        it again token by token with the checks in the same order."""
        tokens = tokenize(self.text)
        ts = _Stream(tokens)
        ts.pos = bisect_left(tokens, self.where(offset), key=lambda t: t[2:])
        word = ts.expect("name")
        if word.text in ("actions", "props"):
            self._list_keyword(word.text, self._offset(word))
            while ts.accept("name"):
                pass
            ts.expect("sym", ";")
        elif word.text == "state":
            name = ts.expect("name")
            self._state(name.text, self._offset(name))
            for want in ("{", "avail", ":", None, ";", "label", ":", None, ";", "}"):
                if want is None:            # a run of names
                    while ts.accept("name"):
                        pass
                else:
                    ts.expect("name" if want.isalpha() else "sym", want)
        elif word.text == "guard":
            src = ts.expect("name")
            ts.expect("sym", "->")
            dst = ts.expect("name")
            ts.expect("sym", ":")
            self._edge(src.text, dst.text, self._offset(src), self._offset(dst))
            if ts.accept("name", "else"):
                self._else(src.text, dst.text)
            else:
                _parse_guard_expr(ts)
            ts.expect("sym", ";")
        else:
            raise ParseError(f"unexpected declaration {word.text!r}",
                             word.line, word.col)
        raise AssertionError(f"no error in the declaration at {offset}")

    def _offset(self, tok: Token) -> int:
        return self.line_starts[tok.line - 1] + tok.col - 1

    def _named(self, name: str, offset: int, what: str) -> str:
        if _is_reserved(name):
            raise SemanticError(f"{name!r} is reserved and cannot name a {what}",
                                *self.where(offset))
        return name

    def _list_keyword(self, word: str, offset: int) -> None:
        if word == "actions" and self.actions:
            raise SemanticError("duplicate actions declaration", *self.where(offset))

    def _list(self, word: str, m: re.Match, keyword_at: int) -> None:
        """The names of an ``actions`` or ``props`` declaration, in group
        ``word`` of ``m``."""
        into, what, kind = ((self.actions, "action", "action") if word == "actions"
                            else (self.props, "proposition", "prop"))
        for n in _NAME.finditer(self.blank, m.start(word), m.end(word)):
            name, offset = n.group(), n.start()
            if self._named(name, offset, what) in into:
                raise SemanticError(f"duplicate {what} {name!r}", *self.where(offset))
            into[name] = None
            self.spans[(kind, name)] = self.where(offset)
        if not into and word == "actions":
            raise SemanticError("at least one action is required",
                                *self.where(keyword_at))

    def _state(self, name: str, offset: int) -> None:
        self._named(name, offset, "state")
        if name in self.states:
            raise SemanticError(f"duplicate state {name!r}", *self.where(offset))
        self.states[name] = None
        self.spans[("state", name)] = self.where(offset)

    def _known(self, m: re.Match, group: str) -> frozenset[str]:
        """The actions (with idle) of group ``avail`` or the propositions of
        group ``label`` of a state declaration, each of them declared."""
        key = (group, m.group(group))
        names = self.name_sets.get(key)
        if names is None:
            known, what, extra = ((self.actions, "action", {IDLE}) if group == "avail"
                                  else (self.props, "proposition", set()))
            for n in _NAME.finditer(self.blank, m.start(group), m.end(group)):
                if n.group() not in known:
                    raise SemanticError(f"unknown {what} {n.group()!r}",
                                        *self.where(n.start()))
            names = self.name_sets[key] = frozenset(key[1].split()) | extra
        return names

    def _edge(self, src: str, dst: str, src_at: int, dst_at: int) -> None:
        self.spans[("guard", src, dst)] = self.where(src_at)
        if src not in self.states:
            raise SemanticError(f"unknown state {src!r}", *self.where(src_at))
        if dst not in self.states:
            raise SemanticError(f"unknown state {dst!r}", *self.where(dst_at))
        if (src, dst) in self.guards or self.else_edges.get(src) == dst:
            raise SemanticError(f"duplicate guard {src} -> {dst}", *self.where(src_at))

    def _else(self, src: str, dst: str) -> None:
        if src in self.else_edges:
            raise SemanticError(f"state {src!r} already has an else edge",
                                *self.spans[("guard", src, dst)])
        self.else_edges[src] = dst

    def _guard(self, m: re.Match, offset: int) -> PresFormula:
        """The formula of the guard text in group ``guard`` of the
        declaration ``m`` at ``offset``."""
        key = m.group("guard")
        guard = self.parsed.get(key)
        if guard is None:
            try:
                ts = _Stream(tokenize(self.text[m.start("guard"):m.end()]))
                guard = _parse_guard_expr(ts)
                ts.expect("sym", ";")
            except ParseError:
                self._fail(offset)      # the same error, placed in the text
            self.parsed[key] = guard
        return guard


def parse_model(text: str) -> ModelDocument:
    """Parse the model DSL; idle is implicitly available everywhere."""
    reader = _ModelReader(text)
    try:
        reader.read()
    except (ParseError, SemanticError):
        tokenize(text)      # a character that starts no token comes first
        raise
    if not reader.states:
        raise SemanticError("a model needs at least one state")
    guards, avail = reader.guards, reader.avail

    # Expand else edges into the conjunction of the negated sibling guards.
    # Guards of the same text are one shared object, so the memos below key
    # on object ids, which stay valid while ``guards`` holds every guard,
    # and hash no formula tree.
    siblings: dict[str, list[PresFormula]] = {}
    for (src, _), g in guards.items():
        siblings.setdefault(src, []).append(g)
    negated: dict[tuple[int, ...], PresFormula] = {}
    for src, dst in reader.else_edges.items():
        sibs = siblings.get(src, ())
        key = tuple(map(id, sibs))
        if key not in negated:
            negated[key] = conj(tuple(neg(g) for g in sibs))
        guards[(src, dst)] = negated[key]

    table = ActionTable(tuple(reader.actions))
    model = HdmasModel(states=tuple(reader.states), table=table, avail=avail,
                       guards=guards, props=tuple(reader.props),
                       labels=reader.labels)

    # each guard is checked once per set of available actions; the guard
    # grammar has no quantifiers, so only the counters need checking
    checked: set[tuple[int, frozenset[str]]] = set()
    for (src, dst), g in guards.items():
        key = (id(g), avail[src])
        if key in checked:
            continue
        legal = {counter_name(a) for a in avail[src]} - {counter_name(IDLE)}
        stray = free_vars(g) - legal
        if stray:
            raise SemanticError(
                f"guard {src} -> {dst} uses counters unavailable at {src}: "
                + ", ".join(sorted(stray)), *reader.spans[("guard", src, dst)])
        checked.add(key)

    return ModelDocument(source=text, model=model, spans=reader.spans)
