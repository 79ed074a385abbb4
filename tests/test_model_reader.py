"""Pins of the model reader: what ``parse_model`` returns or raises.

Each error text pins the exception type, message, line and column.  Each
model text pins the model and the whole ``spans`` dict through a digest of
a canonical rendering; on a mismatch, render the text with ``_canonical``
here and at an earlier commit and compare the two.
"""

import hashlib
import json
import pathlib
import random

import pytest

from helpers import random_model_text, ring_text
from hdmas.parsing import parse_model

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "src" / "hdmas" / "fixtures"

# a header that declares the actions a and b, the proposition p and a state s
H = "actions a b;\nprops p;\nstate s { avail: a; label: p; }\n"

ERRORS = [
    ("duplicate-actions", "actions a;\nactions b;\nstate s { avail: a; label: ; }\n",
     "SemanticError", "2:1: duplicate actions declaration", 2, 1),
    ("duplicate-action", "actions a b a;\n",
     "SemanticError", "1:13: duplicate action 'a'", 1, 13),
    ("no-action", "actions ;\nstate s { avail: ; label: ; }\n",
     "SemanticError", "1:1: at least one action is required", 1, 1),
    ("duplicate-prop", "actions a;\nprops p q;\nprops p;\n",
     "SemanticError", "3:7: duplicate proposition 'p'", 3, 7),
    ("duplicate-state", H + "state s { avail: ; label: ; }\n",
     "SemanticError", "4:7: duplicate state 's'", 4, 7),
    ("duplicate-state-before-its-block", H + "state s avail",
     "SemanticError", "4:7: duplicate state 's'", 4, 7),
    ("unknown-action", H + "state t { avail: a c; label: ; }\n",
     "SemanticError", "4:20: unknown action 'c'", 4, 20),
    ("keyword-as-action", H + "state t { avail: label; label: ; }\n",
     "SemanticError", "4:18: unknown action 'label'", 4, 18),
    ("unknown-prop", H + "state t { avail: ; label: p q; }\n",
     "SemanticError", "4:29: unknown proposition 'q'", 4, 29),
    ("label-before-its-prop", H + "state t { avail: ; label: q; }\nprops q;\n",
     "SemanticError", "4:27: unknown proposition 'q'", 4, 27),
    ("repeated-list-with-unknown", H + "state t { avail: a; label: p; }\n"
     "state u { avail: a b c; label: p; }\n",
     "SemanticError", "5:22: unknown action 'c'", 5, 22),
    ("block-before-unknown-action", H + "state t { avail: c; label ; }\n",
     "ParseError", "4:27: expected ':', found ';'", 4, 27),
    ("unknown-source", H + "guard t -> s : else;\n",
     "SemanticError", "4:7: unknown state 't'", 4, 7),
    ("unknown-target", H + "guard s -> t : #a > 0;\n",
     "SemanticError", "4:12: unknown state 't'", 4, 12),
    ("duplicate-guard", H + "guard s -> s : #a > 0;\nguard s -> s : #a = 0;\n",
     "SemanticError", "5:7: duplicate guard s -> s", 5, 7),
    ("guard-after-else", H + "guard s -> s : else;\nguard s -> s : #a = 0;\n",
     "SemanticError", "5:7: duplicate guard s -> s", 5, 7),
    ("two-else", H + "state t { avail: ; label: ; }\nguard s -> s : else;\n"
     "guard s -> t : else;\n",
     "SemanticError", "6:7: state 's' already has an else edge", 6, 7),
    ("reserved-action", "actions a guard;\n",
     "SemanticError", "1:11: 'guard' is reserved and cannot name a action", 1, 11),
    ("reserved-prop", "actions a;\nprops y1;\n",
     "SemanticError", "2:7: 'y1' is reserved and cannot name a proposition", 2, 7),
    ("reserved-state", "actions a;\nstate z3 { avail: ; label: ; }\n",
     "SemanticError", "2:7: 'z3' is reserved and cannot name a state", 2, 7),
    ("else-state", "actions a;\nstate else { avail: ; label: ; }\n",
     "SemanticError", "2:7: 'else' is reserved and cannot name a state", 2, 7),
    ("unavailable-counter", H + "guard s -> s : #a > #b;\n",
     "SemanticError", "4:7: guard s -> s uses counters unavailable at s: #b", 4, 7),
    ("counter-for-state", "actions a;\nstate #s { avail: ; label: ; }\n",
     "ParseError", "2:7: expected 'name', found 's'", 2, 7),
    ("counter-for-action", "actions #a;\n",
     "ParseError", "1:9: expected ';', found 'a'", 1, 9),
    ("counter-in-avail", "actions a;\nstate s { avail: #a; label: ; }\n",
     "ParseError", "2:18: expected ';', found 'a'", 2, 18),
    ("name-for-counter", H + "guard s -> s : a > 0;\n",
     "ParseError", "4:16: expected a number or counter, found 'a'", 4, 16),
    ("missing-semicolon-actions", "actions a b\nprops p;\n",
     "SemanticError", "2:1: 'props' is reserved and cannot name a action", 2, 1),
    ("missing-semicolon-avail", "actions a;\nstate s { avail: a label: ; }\n",
     "ParseError", "2:25: expected ';', found ':'", 2, 25),
    ("missing-semicolon-guard", H + "guard s -> s : #a > 0\nguard s -> s : else;\n",
     "ParseError", "5:1: expected ';', found 'guard'", 5, 1),
    ("missing-brace", "actions a;\nstate s avail: a; label: ; }\n",
     "ParseError", "2:9: expected '{', found 'avail'", 2, 9),
    ("label-before-avail", "actions a;\nstate s { label: ; avail: ; }\n",
     "ParseError", "2:11: expected 'avail', found 'label'", 2, 11),
    ("missing-close", "actions a;\nstate s { avail: ; label: ;\nstate t { avail: ; label: ; }\n",
     "ParseError", "3:1: expected '}', found 'state'", 3, 1),
    ("bad-arrow", H + "guard s <-> s : else;\n",
     "ParseError", "4:9: expected '->', found '<->'", 4, 9),
    ("else-then-junk", H + "guard s -> s : else && #a > 0;\n",
     "ParseError", "4:21: expected ';', found '&&'", 4, 21),
    ("unexpected-declaration", "actions a;\naction b;\n",
     "ParseError", "2:1: unexpected declaration 'action'", 2, 1),
    ("number-declaration", "actions a;\n12 b;\n",
     "ParseError", "2:1: expected 'name', found '12'", 2, 1),
    ("symbol-declaration", "actions a;\n;\n",
     "ParseError", "2:1: expected 'name', found ';'", 2, 1),
    ("bad-character", H + "guard s -> s : #a > 0 $;\n",
     "ParseError", "4:23: unexpected character '$'", 4, 23),
    ("bad-character-after-an-error", "actions a a;\n\n  @\n",
     "ParseError", "3:3: unexpected character '@'", 3, 3),
    ("non-ascii-name", "actions \u00e9;\n",
     "ParseError", "1:9: unexpected character '\u00e9'", 1, 9),
    ("no-state", "actions a;\nprops p;\n",
     "SemanticError", "a model needs at least one state", 0, 0),
    ("crlf-and-tabs", "actions a;\r\nprops p;\r\n\tstate\ts\t{ avail: b; label: ; }\r\n",
     "SemanticError", "3:19: unknown action 'b'", 3, 19),
    ("crlf-guard", "actions a;\r\nstate s { avail: a; label: ; }\r\nguard s -> s :\r\n"
     "\t#a >\r\n\t;\r\n",
     "ParseError", "5:2: expected a number or counter, found ';'", 5, 2),
    ("multiline-guard", H + "guard s -> s : #a > 0 &&\n   # a comment\n   #a < ;\n",
     "ParseError", "6:9: expected a number or counter, found ';'", 6, 9),
    ("comment-for-guard", H + "guard s -> s : # > 0;\n",
     "ParseError", "5:1: expected a number or counter, found ''", 5, 1),
    ("deep-guard", H + "guard s -> s : " + "(" * 101 + "#a > 0" + ")" * 101 + ";\n",
     "ParseError", "4:116: nested deeper than 100 levels", 4, 116),
    ("cut-in-state", "actions a;\nstate s { avail: a;",
     "ParseError", "2:20: expected 'label', found 'end of input'", 2, 20),
    ("cut-before-a-comment", "actions a;\nstate s { avail: a; # cut here",
     "ParseError", "2:21: expected 'label', found 'end of input'", 2, 21),
    ("cut-in-guard-head", H + "guard s ->",
     "ParseError", "4:11: expected 'name', found 'end of input'", 4, 11),
    ("cut-after-else", H + "guard s -> s : else",
     "ParseError", "4:20: expected ';', found 'end of input'", 4, 20),
    ("cut-in-guard", H + "guard s -> s : #a >",
     "ParseError", "4:20: expected a number or counter, found ''", 4, 20),
    ("cut-after-guard", H + "guard s -> s : #a > 0 # no semicolon",
     "ParseError", "4:23: expected ';', found 'end of input'", 4, 23),
    ("cut-in-actions", "actions a b",
     "ParseError", "1:12: expected ';', found 'end of input'", 1, 12),
]


@pytest.mark.parametrize("text,kind,message,line,col",
                         [case[1:] for case in ERRORS],
                         ids=[case[0] for case in ERRORS])
def test_model_errors_are_pinned(text, kind, message, line, col):
    with pytest.raises(Exception) as caught:
        parse_model(text)
    err = caught.value
    assert (type(err).__name__, str(err), err.line, err.col) == \
        (kind, message, line, col)


def _canonical(text):
    doc = parse_model(text)
    model = doc.model
    assert doc.source == text
    return json.dumps({
        "states": model.states,
        "actions": model.table.actions,
        "props": model.props,
        "avail": [sorted(model.avail[s]) for s in model.states],
        "labels": [sorted(model.labels[s]) for s in model.states],
        "guards": [[s, d, repr(g)] for (s, d), g in model.guards.items()],
        "spans": [[list(k), list(v)] for k, v in doc.spans.items()],
    })


def _model_texts():
    from perfbench.models import fortress_text
    texts = {path.name: path.read_text()
             for path in sorted(FIXTURES.glob("*.hdmas"))}
    fig2 = texts["fig2.hdmas"]
    texts["fig2-crlf"] = fig2.replace("\n", "\r\n")
    texts["fig2-tabs"] = fig2.replace(" ", "\t")
    texts["fig2-no-final-newline"] = fig2.rstrip("\n")
    texts["split-declarations"] = (
        "actions a\n  b; # two actions\nprops ; props p;\n"
        "state\ns\n{\navail\n:\n;\nlabel:p;}\n"
        "state t { avail: a b a; label: ; }\n"
        "guard s -> t : else ;\nguard t->s:#a>#b # a comment\n"
        "  || #b = 2*#a;\nguard t -> t : else;")
    texts["props-before-actions"] = (
        "props p;\nactions a;\nstate s { avail: a; label: p; }\nguard s -> s : else;\n")
    texts["repeated-lists"] = (
        "actions a b;\nprops p;\nstate s { avail: a b; label: p; }\n"
        "state t { avail: a b; label: p; }\nstate u { avail: b  a; label: ; }\n"
        "guard s -> t : #a > #b;\nguard s -> s : else;\nguard t -> u : #a>#b;\n"
        "guard t -> t : else;\nguard u -> u : #a > #b # the same guard\n;\n"
        "guard u -> s : else;\n")
    for n in (3, 10, 80):
        texts[f"ring-{n}"] = ring_text(n)
    texts["broken-ring-6"] = ring_text(6, {2: "#a = #b", 4: "#a < #b"})
    for k in (1, 4):
        texts[f"fortress-{k}"] = fortress_text(k)
    rng = random.Random(11)
    for i in range(30):
        texts[f"random-{i}"] = random_model_text(rng, clone=rng.random() < 0.5)
    return texts


MODEL_TEXTS = _model_texts()

DIGESTS = {
    'fig2.hdmas': 'e7fb5bff8f9a4115',
    'fortress.hdmas': '8ea924c137bdda49',
    'fig2-crlf': 'e7fb5bff8f9a4115',
    'fig2-tabs': 'e7fb5bff8f9a4115',
    'fig2-no-final-newline': 'e7fb5bff8f9a4115',
    'split-declarations': '85090d1d850df800',
    'props-before-actions': '70ce499a33ee60e7',
    'repeated-lists': '176928ccd52b9073',
    'ring-3': 'f794c7059246d4ef',
    'ring-10': 'cdf7cb60dd0fa935',
    'ring-80': '11642819008f468b',
    'broken-ring-6': '1b3be5827aecdf98',
    'fortress-1': 'b47149ed1d9a1eb5',
    'fortress-4': '3d98c532ed1e7aba',
    'random-0': 'e0a9231ce64821f0',
    'random-1': 'b3f123878d3b263a',
    'random-2': '46c57681bd469d58',
    'random-3': '9edc8d331328d18e',
    'random-4': 'eb90eb929878c657',
    'random-5': '60045f07bf4a03b5',
    'random-6': '6b1c06ecc124b584',
    'random-7': '112022905c552840',
    'random-8': 'eea3c9f5c3886b62',
    'random-9': 'e4a260cb13ab44bb',
    'random-10': '8f5baebafd75215e',
    'random-11': '7494bf71ed05519c',
    'random-12': '39dd4286c5efc3fd',
    'random-13': 'bc8dad2bc1d10bb6',
    'random-14': '4fa62c4cf9a3cb7a',
    'random-15': '8b74b71446387ceb',
    'random-16': '1995794a23958e15',
    'random-17': '6bd7b4e66890b3b4',
    'random-18': '5fdb9f157c8a3f55',
    'random-19': 'fa0d184bcaf86874',
    'random-20': '26db26d97a45f5d4',
    'random-21': '70128244736411a1',
    'random-22': '01b315ee2418a9e9',
    'random-23': '321e15c593d2dd05',
    'random-24': '4b2279088dfbe075',
    'random-25': 'fbc3e4c29bd5cb59',
    'random-26': '792ae1039d93fb51',
    'random-27': '09f584a12d2fbf42',
    'random-28': 'eb0758c28440bce2',
    'random-29': 'c0842931384c9abd',
}


@pytest.mark.parametrize("name", list(MODEL_TEXTS))
def test_models_and_spans_are_pinned(name):
    digest = hashlib.sha256(_canonical(MODEL_TEXTS[name]).encode()).hexdigest()
    assert digest[:16] == DIGESTS[name]
