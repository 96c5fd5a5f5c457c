"""Concrete syntax for `.pml` files.

ML-flavored grammar with two staging forms: brackets `.< e >.` and
escapes `.~e`, plus the CSP marker `%e`.  Application binds tighter than
`::`, which binds tighter than `+`; `,` builds pairs inside parentheses
only.  Comments are `(* ... *)` and nest.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import syntax as S
from .diagnostics import Diagnostic, Kind, Location, parse_error

KEYWORDS = {"let", "in", "fun", "ref", "rset"}

_PUNCT = ["::", "->", ".<", ">.", ".~", "(", ")", "[", "]", "+", ",", "=", "!", "%"]


@dataclass(frozen=True)
class Token:
    kind: str  # "int" | "string" | "ident" | "punct" | "eof"
    text: str
    value: object
    loc: Location


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    pos, line, col = 0, 1, 1

    def here() -> Location:
        return Location(pos, line, col)

    def advance(n: int = 1) -> None:
        nonlocal pos, line, col
        for _ in range(n):
            if pos < len(text) and text[pos] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            pos += 1

    while pos < len(text):
        c = text[pos]
        if c.isspace():
            advance()
            continue
        if text.startswith("(*", pos):
            start = here()
            depth = 0
            while pos < len(text):
                if text.startswith("(*", pos):
                    depth += 1
                    advance(2)
                elif text.startswith("*)", pos):
                    depth -= 1
                    advance(2)
                    if depth == 0:
                        break
                else:
                    advance()
            else:
                raise parse_error("unterminated comment", start)
            if depth != 0:
                raise parse_error("unterminated comment", start)
            continue
        if c.isdigit():
            loc = here()
            start = pos
            while pos < len(text) and text[pos].isdigit():
                advance()
            tokens.append(Token("int", text[start:pos], int(text[start:pos]), loc))
            continue
        if c == '"':
            loc = here()
            end = pos + 1
            while end < len(text) and text[end] != '"':
                end += 2 if text[end] == "\\" else 1
            if end >= len(text):
                raise parse_error("unterminated string literal", loc)
            body = S.unescape(text[pos + 1 : end])
            advance(end + 1 - pos)  # through the closing quote
            tokens.append(Token("string", '"' + body + '"', body, loc))
            continue
        if c.isalpha() or c == "_":
            loc = here()
            start = pos
            while pos < len(text) and (text[pos].isalnum() or text[pos] in "_'"):
                advance()
            tokens.append(Token("ident", text[start:pos], text[start:pos], loc))
            continue
        for p in _PUNCT:
            if text.startswith(p, pos):
                loc = here()
                advance(len(p))
                tokens.append(Token("punct", p, p, loc))
                break
        else:
            raise parse_error(f"unexpected character {c!r}", here())
    tokens.append(Token("eof", "", None, Location(pos, line, max(col, 1))))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token], allow_staging: bool):
        self.tokens = tokens
        self.idx = 0
        self.level = 0
        self.allow_staging = allow_staging

    def peek(self) -> Token:
        return self.tokens[self.idx]

    def next(self) -> Token:
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def at_punct(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.text == text

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and tok.text == word

    def expect_punct(self, text: str) -> Token:
        if not self.at_punct(text):
            tok = self.peek()
            raise parse_error(f"expected {text!r}, found {tok.text or 'end of input'!r}", tok.loc)
        return self.next()

    def fail(self, message: str) -> Diagnostic:
        return parse_error(message, self.peek().loc)

    # --- grammar ---

    def expr(self) -> S.Expr:
        if self.at_keyword("let"):
            self.next()
            name = self.binder()
            self.expect_punct("=")
            rhs = self.expr()
            if not self.at_keyword("in"):
                raise self.fail("expected 'in'")
            self.next()
            body = self.expr()
            return S.Let(name, rhs, body)
        if self.at_keyword("fun"):
            self.next()
            name = self.binder()
            self.expect_punct("->")
            body = self.expr()
            return S.Fun(name, body)
        return self.add_expr()

    def binder(self) -> str:
        tok = self.peek()
        if tok.kind == "ident":
            if tok.text in KEYWORDS:
                raise self.fail(f"keyword {tok.text!r} cannot be a binder")
            self.next()
            return tok.text
        if self.at_punct("("):
            self.next()
            self.expect_punct(")")
            return S.UNIT_BINDER
        raise self.fail("expected a binder")

    def add_expr(self) -> S.Expr:
        e = self.cons_expr()
        while self.at_punct("+"):
            self.next()
            e = S.Add(e, self.cons_expr())
        return e

    def cons_expr(self) -> S.Expr:
        e = self.app_expr()
        if self.at_punct("::"):
            self.next()
            return S.Cons(e, self.cons_expr())
        return e

    def app_expr(self) -> S.Expr:
        if self.at_keyword("ref"):
            self.next()
            return S.RefNew(self.prefix())
        if self.at_keyword("rset"):
            self.next()
            ref = self.prefix()
            value = self.prefix()
            return S.Rset(ref, value)
        e = self.prefix()
        while self.starts_atom():
            e = S.App(e, self.prefix())
        return e

    def prefix(self) -> S.Expr:
        if self.at_punct("!"):
            self.next()
            return S.RefGet(self.prefix())
        if self.at_punct("%"):
            loc = self.next().loc
            if not self.allow_staging:
                raise Diagnostic(Kind.PARSE_ERROR, "CSP marker in plain input", loc)
            saved, self.level = self.level, 0
            body = self.prefix()
            self.level = saved
            return S.Csp(body)
        if self.at_punct(".~"):
            loc = self.next().loc
            if not self.allow_staging:
                raise Diagnostic(Kind.PARSE_ERROR, "escape in plain input", loc)
            if self.level == 0:
                raise Diagnostic(Kind.PARSE_ERROR, "escape at level 0", loc)
            saved, self.level = self.level, 0
            body = self.prefix()
            self.level = saved
            return S.Escape(body)
        return self.atom()

    def starts_atom(self) -> bool:
        tok = self.peek()
        if tok.kind in ("int", "string"):
            return True
        if tok.kind == "ident":
            return tok.text not in KEYWORDS
        if tok.kind == "punct":
            return tok.text in ("(", "[", ".<", "!", "%", ".~")
        return False

    def atom(self) -> S.Expr:
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            return S.IntLit(tok.value)  # type: ignore[arg-type]
        if tok.kind == "string":
            self.next()
            return S.StrLit(tok.value)  # type: ignore[arg-type]
        if tok.kind == "ident":
            if tok.text in KEYWORDS:
                raise self.fail(f"unexpected keyword {tok.text!r}")
            self.next()
            return S.Var(tok.text)
        if self.at_punct("["):
            self.next()
            self.expect_punct("]")
            return S.Nil()
        if self.at_punct("("):
            self.next()
            if self.at_punct(")"):
                self.next()
                return S.Unit()
            first = self.expr()
            if self.at_punct(","):
                self.next()
                second = self.expr()
                self.expect_punct(")")
                return S.Pair(first, second)
            self.expect_punct(")")
            return first
        if self.at_punct(".<"):
            loc = self.next().loc
            if not self.allow_staging:
                raise Diagnostic(Kind.PARSE_ERROR, "bracket in plain input", loc)
            if self.level > 0:
                raise Diagnostic(Kind.PARSE_ERROR, "nested bracket", loc)
            self.level = 1
            body = self.expr()
            self.level = 0
            self.expect_punct(">.")
            return S.Bracket(body)
        raise self.fail(f"unexpected token {tok.text or 'end of input'!r}")


def _parse(text: str, allow_staging: bool) -> S.Expr:
    parser = _Parser(tokenize(text), allow_staging)
    e = parser.expr()
    tok = parser.peek()
    if tok.kind != "eof":
        raise parse_error(f"trailing input starting at {tok.text!r}", tok.loc)
    S.check_staging(e)
    return e


def parse_source(text: str) -> S.Expr:
    """Parse a possibly-staged program; raises Diagnostic on bad input."""
    return _parse(text, allow_staging=True)


def parse_plain(text: str) -> S.Expr:
    """Parse staging-free text, e.g. code emitted by the string backend."""
    return _parse(text, allow_staging=False)
