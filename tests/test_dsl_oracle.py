"""The one-pass tokenizer and the precedence-climbing term parser against
the earlier lexer and recursive-descent chain kept in ``dsl_oracle``:
tokens of equal kinds, texts and spans, equal terms in the same order, or
the same error text."""

import inspect
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from catdb import dsl
from catdb.cli import DOMAIN_ERRORS
from catdb.dsl import (
    DslError, Parser, SourceSpan, TermEnv, render_workspace, tokenize,
)
from catdb.kernel import Context, Sort
from catdb.typeside import INT
from tests import dsl_oracle
from tests.conftest import FIXTURES

TEXTS = {name: (FIXTURES / name).read_text(encoding="utf-8")
         for name in ("group.cdb", "paper.cdb")}


class _Recording:
    """Records every term parsed at the top precedence level, including
    parenthesised subterms and arguments, in the order they complete."""

    def parse_term(self, env, prec: int = 0):
        t = super().parse_term(env, prec)
        if prec == 0:
            self.terms.append(t)
        return t


def kind(tok: str) -> str:
    """A token's kind, read from its first character."""
    if not tok:
        return "eof"
    if re.match(r"[A-Za-z_*]", tok):
        return "ident"
    return "int" if tok[0].isdigit() else "string" if tok[0] == '"' else "op"


class NewParser(_Recording, Parser):
    def spanned(self, stride: int = 1):
        """Each token's kind, text and span.  The spans come from one pass
        of the tokenizer's regular expression with a running count of
        lines; `Parser.span`, which scans the text again for each, must
        agree at every `stride`-th token and at the last."""
        spans, line, start, prev = [], 1, 0, 0  # start: offset of the line
        for m, _ in zip(dsl._TOKEN_RE.finditer(self.text), self.toks):
            at = m.start(1)
            if nl := self.text.count("\n", prev, at):
                line += nl
                start = self.text.rfind("\n", prev, at) + 1
            spans.append(SourceSpan(self.file, line, at - start + 1))
            prev = at
        for i in [*range(0, len(spans), stride), len(spans) - 1]:
            assert self.span(i) == spans[i]
        return [(kind(t), t, sp) for t, sp in zip(self.toks, spans)]


class OldParser(_Recording, dsl_oracle.OracleParser):
    def spanned(self, stride: int = 1):
        return [(t.kind, t.text, t.span) for t in self.tokens]


def outcome(parser, text: str, stride: int = 1):
    """Token kinds, texts and spans, recorded terms, and the rendered
    workspace or the error."""
    try:
        p = parser(text, "m.cdb")
    except DslError as exc:
        return "tokenize", str(exc)
    p.terms = []
    tokens = p.spanned(stride)
    try:
        ws = p.parse_workspace()
    except DOMAIN_ERRORS + (RecursionError,) as exc:
        return tokens, p.terms, type(exc).__name__, str(exc)
    return tokens, p.terms, render_workspace(ws), ws.order


def assert_same(text: str, stride: int = 1):
    """Every span is compared; the mutated fixtures check `Parser.span`
    itself at every 50th token, as each call scans the text up to its
    token."""
    assert (outcome(NewParser, text, stride)
            == outcome(OldParser, text, stride))


@pytest.mark.parametrize("name", sorted(TEXTS))
@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"],
                         ids=["lf", "crlf", "cr"])
def test_fixtures_alike(name, newline):
    assert_same(TEXTS[name].replace("\n", newline))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.sampled_from(sorted(TEXTS)), st.data())
def test_token_mutated_fixtures_alike(name, data):
    """The mutation scheme of ``test_dsl.TestMutatedFixtures``: delete,
    duplicate or swap one token."""
    words = [t.text for t in dsl_oracle.tokenize(TEXTS[name])[:-1]]
    i = data.draw(st.integers(0, len(words) - 2))
    edit = data.draw(st.sampled_from(("delete", "duplicate", "swap")))
    if edit == "delete":
        del words[i]
    elif edit == "duplicate":
        words.insert(i, words[i])
    else:
        words[i], words[i + 1] = words[i + 1], words[i]
    assert_same(" ".join(words), 50)


CHARS = ["É", '"', "\\", "\r", "\t", "\n", "\r\n", "/", "//", "*", "-",
         "<", "=", "?", "'", " ", "٣", " ", " ", "x"]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.sampled_from(sorted(TEXTS)), st.data())
def test_character_mutated_fixtures_alike(name, data):
    """Insert or delete a few characters anywhere, inside strings and
    comments too, so that errors, spans and line counts are exercised."""
    text = TEXTS[name]
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(text)))
        if data.draw(st.booleans()):
            text = text[:i] + data.draw(st.sampled_from(CHARS)) + text[i:]
        else:
            text = text[:i] + text[i + 1:]
    assert_same(text, 50)


def _envs(ws, grp_ws):
    S = ws.schemas["S"]
    emp, dept = (Sort("Emp"), Sort("Dept"))
    ctx = Context((("e", emp), ("d", dept), ("n", INT)))
    return {
        "collage": TermEnv(S.collage_sig, ctx),  # `*` is Int multiplication
        "entities": TermEnv(S.entity_sig, ctx),  # no `*` at all
        "group": TermEnv(grp_ws.theories["Grp"].signature, Context(())),
    }


PIECES = ["e", "n", "3", "e.sal", "e.mgr.sal", "d.sec.sal", "true", "a", "b",
          "1", "inv(a)", "(", ")", ",", "+", "-", "*", "<=", ".", "e.mgr"]


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.sampled_from(("collage", "entities", "group")),
       st.lists(st.sampled_from(PIECES), min_size=1, max_size=12))
def test_random_terms_alike(ws, grp_ws, env_name, pieces):
    """Operator strings, well formed or not: the same term and the same
    next token, or the same error."""
    env = _envs(ws, grp_ws)[env_name]
    text = " ".join(pieces)

    def run(parser):
        p = parser(text, "<arg>")
        p.terms = []
        try:
            return p.parse_term(env), p.pos, p.terms
        except DOMAIN_ERRORS + (RecursionError,) as exc:
            return type(exc).__name__, str(exc), p.terms
    assert run(NewParser) == run(OldParser)


OPERANDS = {
    "collage": ["n", "3", "e.sal", "e.mgr.sal", "d.sec.sal", "(n + 3)", "true"],
    "entities": ["e", "e.mgr", "d.sec", "(e.wrk)"],
    "group": ["a", "b", "1", "inv(a)", "(a * b)", "inv(b * 1)"],
}


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.sampled_from(sorted(OPERANDS)), st.data())
def test_operator_chains_alike(ws, grp_ws, env_name, data):
    """Chains `[-]x op [-]y op ...` over each operator: precedence,
    associativity and unary minus, on input that parses."""
    parts = data.draw(st.lists(st.tuples(
        st.sampled_from(["", "-", "- -"]),
        st.sampled_from(OPERANDS[env_name]),
        st.sampled_from(["+", "-", "*", "<="])), min_size=1, max_size=5))
    text = " ".join(f"{neg} {x} {op}" for neg, x, op in parts)[:-2]
    env = _envs(ws, grp_ws)[env_name]

    def run(parser):
        p = parser(text, "<arg>")
        p.terms = []
        return p.parse_term(env), p.pos, p.terms
    assert run(NewParser) == run(OldParser)


# Each with the span the earlier tokenizer gives.
EDGE_CASES = [
    ("crlf", "schema S {\r\n  entities A;\r\n  ?\r\n}\r\n",
     "e.cdb:3:3: unexpected character '?'"),
    ("cr only", "schema S {\r entities A;\r ?\r}",
     "e.cdb:1:26: unexpected character '?'"),
    ("tab", "schema S {\n\tentities A;\n\t\t\tÉ }",
     "e.cdb:3:4: unexpected character 'É'"),
    ("unterminated string",
     'schema S {\n  entities A;\n  attributes a : A -> Str;\n}\n'
     'instance I on S { generators x : A; equations x.a = "Admin; }\n',
     "e.cdb:5:53: unexpected character '\"'"),
    ("non-ascii identifier", "schema S {\n  entities Émp;\n}\n",
     "e.cdb:2:12: unexpected character 'É'"),
]


@pytest.mark.parametrize("text,message", [c[1:] for c in EDGE_CASES],
                         ids=[c[0] for c in EDGE_CASES])
def test_edge_case_spans(text, message):
    for tok in (tokenize, dsl_oracle.tokenize):
        with pytest.raises(DslError) as err:
            tok(text, "e.cdb")
        assert str(err.value) == message


@pytest.mark.parametrize("text,eof", [
    ("schema S { entities A; } // the end", (1, 36)),
    ("schema S { entities A; }\n// the end", (2, 11)),
    ("schema S {\r\n  entities A;\r\n}\r\n", (4, 1)),
    ('schema S { entities A; }\n"two\nlines" x', (3, 9)),
    ("", (1, 1)),
    ("\n\n  ", (3, 3)),
])
def test_end_of_file_spans(text, eof):
    toks = NewParser(text, "e.cdb").spanned()
    assert toks == OldParser(text, "e.cdb").spanned()
    last, _, end = toks[-1]
    assert (last, end.line, end.column) == ("eof", *eof)



def test_parentheses_nest_three_frames_deep(grp_ws):
    """Each level of parentheses costs `_primary`, `parse_term` and
    `_postfix`: 200 levels fit in 700 frames, which the recursive-descent
    chain, at 7 frames a level, overruns."""
    env = TermEnv(grp_ws.theories["Grp"].signature, Context(()))
    text = "(" * 200 + "a" + ")" * 200
    here = len(inspect.stack(0))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(here + 700)
    try:
        assert Parser(text).parse_term(env) == Parser("a").parse_term(env)
        with pytest.raises(RecursionError):
            dsl_oracle.OracleParser(text).parse_term(env)
    finally:
        sys.setrecursionlimit(limit)
