"""Concrete syntax for `.pml` files.

ML-flavored grammar with two staging forms: brackets `.< e >.` and
escapes `.~e`, plus the CSP marker `%e`.  Application binds tighter than
`::`, which binds tighter than `+`; `,` builds pairs inside parentheses
only.  Comments are `(* ... *)` and nest.

A token is a tuple `(kind, text, value, offset)`.  Punctuation and
keywords are recognised by their text alone: no other token has the same
text, since a string token's text keeps its quotes.  Line and column are
computed from the offset only when a diagnostic is raised.  Chains of
`let ... in`, `fun ... ->` and `::` are read in loops, so their length
costs no recursion depth.

The parser alone enforces the two-level staging discipline, with located
diagnostics: a bracket may not occur inside a bracket except within an
escape or a CSP marker, whose operand is read at level 0; an escape
occurs only inside a bracket; and plain input has no staging forms.
`parse_term` reads plain input with combinator names, such as a printed
translation.
"""

from __future__ import annotations

import re
import sys

from . import syntax as S
from .diagnostics import Diagnostic, location, parse_error, recursion_limit

KEYWORDS = frozenset({"let", "in", "fun", "ref", "rset"})

# Texts of the tokens that cannot start an application's argument; `""`
# is the end of input.
_STOP = KEYWORDS | {"", ")", "]", ",", "+", "::", "->", "=", ">."}

# One token after any whitespace, in a group named after its kind; no
# group matches at the end of the text.  `\s` is `str.isspace`, `\d` is
# `str.isdecimal` and `\w` is `str.isalnum` or `_`.  A `word` is a
# non-ASCII identifier, which must start with a letter: `[^\W\d]` also
# admits numerals such as `²`.
_TOKEN = re.compile(
    r"""\s*(?:
      (?P<punct>::|->|\.<|>\.|\.~|[)\[\]+,=!%]|\((?!\*))
    | (?P<ident>[A-Za-z_][\w']*)
    | (?P<int>\d+)
    | (?P<string>"[^"\\]*(?:\\.[^"\\]*)*")
    | (?P<comment>\(\*)
    | (?P<word>[^\W\d][\w']*)
    | (?P<bad>\S)
    )?""",
    re.VERBOSE | re.DOTALL,
)
_COMMENT = re.compile(r"\(\*|\*\)")


def tokenize(text: str) -> list[tuple]:
    """The tokens of `text`, the last of kind `eof`; a bad character, an
    unterminated string or an unterminated comment raises a ParseError."""
    tokens: list[tuple] = []
    append = tokens.append
    match = _TOKEN.match
    pos = 0
    while True:
        m = match(text, pos)
        kind = m.lastgroup
        pos = m.end()
        if kind == "punct" or kind == "ident":
            t = m[kind]
            append((kind, t, t, pos - len(t)))
        elif kind == "int":
            t = m[kind]
            try:
                value = int(t)
            except ValueError:  # Python's integer-string limit, left in force
                limit = sys.get_int_max_str_digits()
                message = f"integer literal has more than {limit} digits"
                raise parse_error(message, location(text, pos - len(t))) from None
            append((kind, t, value, pos - len(t)))
        elif kind == "string":
            t = m[kind]
            body = S.unescape(t[1:-1])
            append((kind, '"' + body + '"', body, pos - len(t)))
        elif kind == "comment":
            depth = 1
            while depth:
                delim = _COMMENT.search(text, pos)
                if delim is None:
                    raise parse_error("unterminated comment", location(text, m.start(kind)))
                pos = delim.end()
                depth += 1 if delim[0] == "(*" else -1
        elif kind is None:
            append(("eof", "", None, pos))
            return tokens
        elif kind == "word" and m[kind][0].isalpha():
            t = m[kind]
            append(("ident", t, t, pos - len(t)))
        else:  # a stray character, an unclosed string's quote, or `²`
            c = m[kind][0]
            message = "unterminated string literal" if c == '"' else f"unexpected character {c!r}"
            raise parse_error(message, location(text, m.start(kind)))


class _Parser:
    """Recursive descent over the token list; `tok` is the next token."""

    def __init__(self, text: str, allow_staging: bool):
        self.text = text
        self.next = iter(tokenize(text)).__next__
        self.tok = self.next()
        self.level = 0
        self.allow_staging = allow_staging

    def fail(self, message: str) -> Diagnostic:
        return parse_error(message, location(self.text, self.tok[3]))

    def expect(self, text: str) -> None:
        found = self.tok[1]
        if found != text:
            raise self.fail(f"expected {text!r}, found {found or 'end of input'!r}")
        self.tok = self.next()

    def expr(self) -> S.Expr:
        """Any `let x = e in` and `fun x ->` heads, then a sum: `+` folds
        to the left over `::` chains, which fold to the right."""
        heads: list[tuple[str, S.Expr | None]] = []
        while True:
            word = self.tok[1]
            if word == "let":
                self.tok = self.next()
                name = self.binder()
                self.expect("=")
                rhs = self.expr()
                if self.tok[1] != "in":
                    raise self.fail("expected 'in'")
                self.tok = self.next()
                heads.append((name, rhs))
            elif word == "fun":
                self.tok = self.next()
                name = self.binder()
                self.expect("->")
                heads.append((name, None))
            else:
                break
        e = None
        while True:
            operand = self.app()
            if self.tok[1] == "::":
                operand = self.cons(operand)
            e = operand if e is None else S.Add(e, operand)
            if self.tok[1] != "+":
                break
            self.tok = self.next()
        for name, rhs in reversed(heads):
            e = S.Fun(name, e) if rhs is None else S.Let(name, rhs, e)
        return e

    def binder(self) -> str:
        kind, text = self.tok[:2]
        if kind == "ident":
            if text in KEYWORDS:
                raise self.fail(f"keyword {text!r} cannot be a binder")
            self.tok = self.next()
            return text
        if text == "(":
            self.tok = self.next()
            self.expect(")")
            return S.UNIT_BINDER
        raise self.fail("expected a binder")

    def cons(self, head: S.Expr) -> S.Expr:
        """The rest of a `::` chain that starts with `head`."""
        items = [head]
        while self.tok[1] == "::":
            self.tok = self.next()
            items.append(self.app())
        e = items.pop()
        for head in reversed(items):
            e = S.Cons(head, e)
        return e

    def app(self) -> S.Expr:
        word = self.tok[1]
        if word == "ref":
            self.tok = self.next()
            return S.RefNew(self.prefix())
        if word == "rset":
            self.tok = self.next()
            ref = self.prefix()
            return S.Rset(ref, self.prefix())
        e = self.prefix()
        while self.tok[1] not in _STOP:
            e = S.App(e, self.prefix())
        return e

    def prefix(self) -> S.Expr:
        """An atom, or a prefix operator (`!`, `%`, `.~`) before one."""
        tok = self.tok
        kind, text = tok[0], tok[1]
        if kind == "int":
            self.tok = self.next()
            return S.IntLit(tok[2])
        if kind == "ident":
            if text in KEYWORDS:
                raise self.fail(f"unexpected keyword {text!r}")
            self.tok = self.next()
            return S.Var(text)
        if kind == "string":
            self.tok = self.next()
            return S.StrLit(tok[2])
        if text == "(":
            self.tok = self.next()
            if self.tok[1] == ")":
                self.tok = self.next()
                return S.Unit()
            first = self.expr()
            if self.tok[1] == ",":
                self.tok = self.next()
                second = self.expr()
                self.expect(")")
                return S.Pair(first, second)
            self.expect(")")
            return first
        if text == "[":
            self.tok = self.next()
            self.expect("]")
            return S.Nil()
        if text == ".<":
            if not self.allow_staging:
                raise self.fail("bracket in plain input")
            if self.level > 0:
                raise self.fail("nested bracket")
            self.tok = self.next()
            self.level = 1
            body = self.expr()
            self.level = 0
            self.expect(">.")
            return S.Bracket(body)
        if text == "!":
            self.tok = self.next()
            return S.RefGet(self.prefix())
        if text == "%" or text == ".~":  # each reads its operand at level 0
            if not self.allow_staging:
                raise self.fail("CSP marker in plain input" if text == "%" else "escape in plain input")
            if text == ".~" and self.level == 0:
                raise self.fail("escape at level 0")
            self.tok = self.next()
            saved, self.level = self.level, 0
            body = self.prefix()
            self.level = saved
            return S.Csp(body) if text == "%" else S.Escape(body)
        raise self.fail(f"unexpected token {text or 'end of input'!r}")


class _TermParser(_Parser):
    """A combinator name applied to at least its number of arguments makes
    a `Comb` over that many, which any further arguments apply to; with
    fewer, the name is a plain variable."""

    def app(self) -> S.Expr:
        name = self.tok[1]
        arity = S.COMB_ARITY.get(name)
        if not arity:  # not a combinator, or a constant, which `prefix` reads
            return super().app()
        self.tok = self.next()
        args = []
        while self.tok[1] not in _STOP:
            args.append(self.prefix())
        e = S.Var(name)
        if len(args) >= arity:
            e, args = S.Comb(name, tuple(args[:arity])), args[arity:]
        for arg in args:
            e = S.App(e, arg)
        return e

    def prefix(self) -> S.Expr:
        name = self.tok[1]
        if S.COMB_ARITY.get(name) != 0:
            return super().prefix()
        self.tok = self.next()
        return S.Comb(name, ())


def _parse(parser: _Parser) -> S.Expr:
    try:
        e = parser.expr()
    except RecursionError:
        raise recursion_limit() from None
    if parser.tok[0] != "eof":
        raise parser.fail(f"trailing input starting at {parser.tok[1]!r}")
    return e


def parse_source(text: str) -> S.Expr:
    """Parse a possibly-staged program; raises Diagnostic on bad input."""
    return _parse(_Parser(text, allow_staging=True))


def parse_plain(text: str) -> S.Expr:
    """Parse staging-free text, e.g. code emitted by the string backend."""
    return _parse(_Parser(text, allow_staging=False))


def parse_term(text: str) -> S.Expr:
    """Parse a combinator term, such as `polylet translate` prints.  The 16
    names of `syntax.COMB_ARITY` are reserved: a term that binds one does
    not read back as itself (`let int = fun x -> x in int 5` applies the
    combinator), so a printed term reads back when it binds none, as the
    translations of the corpus and of generated programs (`v<n>`) do."""
    return _parse(_TermParser(text, allow_staging=False))
