"""Test oracle: the earlier lexer and term grammar of ``catdb.dsl``.

``tokenize`` matches one token (or one run of blanks or a comment) per
regular-expression call and counts the newlines of every match.
``OracleParser`` reads those tokens, with their spans for its errors,
and parses terms with one method per precedence level (``_cmp`` over
``_add`` over ``_mul`` over ``_unary``), probing the next token with
``at``/``accept``.  Both are slow but plain,
so the tests compare the one-pass tokenizer and the precedence-climbing
``Parser.parse_term`` against them.  Nothing under ``src/`` imports this.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from catdb.dsl import DslError, Parser, SourceSpan
from catdb.kernel import App, Term, app
from catdb.typeside import LE, NEG, PLUS

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+|//[^\n]*)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_']*'*|\*(?![/)]))
  | (?P<op><=|->|:=|[{}();:,.=+\-\[\]|])
""", re.VERBOSE)


class Token(NamedTuple):
    kind: str  # ident | int | string | op | eof
    text: str
    file: str
    line: int
    column: int

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.file, self.line, self.column)


def tokenize(text: str, filename: str = "<input>") -> list[Token]:
    out = []
    line, start, i = 1, 0, 0  # start: offset of the current line
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if not m:
            raise DslError(f"unexpected character {text[i]!r}",
                           SourceSpan(filename, line, i - start + 1))
        end = m.end()
        if m.lastgroup != "ws":
            out.append(Token(m.lastgroup, m.group(), filename, line,
                             i - start + 1))
        if nl := text.count("\n", i, end):
            line += nl
            start = text.rfind("\n", i, end) + 1
        i = end
    out.append(Token("eof", "", filename, line, i - start + 1))
    return out


class OracleParser(Parser):
    """``Parser`` over the oracle's tokens, with the recursive-descent
    chain for terms."""

    def __init__(self, text: str, filename: str = "<input>"):
        super().__init__("", filename)
        self.tokens = tokenize(text, filename)
        self.toks = [t.text for t in self.tokens]

    def span(self, at: int) -> SourceSpan:
        return self.tokens[at].span

    def parse_term(self, env, prec: int = 0) -> Term:
        return self._cmp(env)

    def _cmp(self, env) -> Term:
        t = self._add(env)
        if self.accept("<="):
            u = self._add(env)
            return app(LE, t, u)
        return t

    def _add(self, env) -> Term:
        t = self._mul(env)
        while True:
            if self.accept("+"):
                t = app(PLUS, t, self._mul(env))
            elif self.accept("-"):
                t = app(PLUS, t, app(NEG, self._mul(env)))
            else:
                return t

    def _mul(self, env) -> Term:
        t = self._unary(env)
        while self.at("*") and (times := env.times()) is not None:
            self.next()
            t = App(times, (t, self._unary(env)))
        return t

    def _unary(self, env) -> Term:
        if self.accept("-"):
            return app(NEG, self._unary(env))
        return self._postfix(env)
