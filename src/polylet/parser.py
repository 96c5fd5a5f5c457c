"""Concrete syntax for `.pml` files.

ML-flavored grammar with two staging forms: brackets `.< e >.` and
escapes `.~e`, plus the CSP marker `%e`.  Application binds tighter than
`::`, which binds tighter than `+`; `,` builds pairs inside parentheses
only.  Comments are `(* ... *)` and nest.

The parser reads the token texts that one `findall` returns and learns a
token's kind from its first character where it needs the kind; it
matches punctuation and keywords by their text.  `expr` reads an
integer, a name or a `(` at an operand's head itself, at no `app` or
`prefix` call, so a level of parenthesised nesting takes one frame,
`expr`; a prefix form or a parenthesised argument takes two, `prefix`
and `expr`.
Comments nest, which a regex cannot match, so a text that may hold one
is read token by token.  Only when a parse fails does `tokenize` read
the text again, to raise any lexical error first and to give the failing
token's offset.  Chains of `let ... in`, `fun ... ->` and `::` are
read in loops, so their length costs no recursion depth.

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
_PUNCT = frozenset({"::", "->", ".<", ">.", ".~", "(", ")", "[", "]", "+", ",", "=", "!", "%"})

# One token after any whitespace: punctuation, the `(*` that opens a
# comment, a string, an integer, an identifier, or any other character,
# which is a lexical error.  `\s` is `str.isspace`, `\d` is `str.isdecimal`
# and `\w` is `str.isalnum` or `_`.  `[^\W\d]` also admits numerals such
# as `²`, but `_kind` makes only a letter or `_` start an identifier.
_TOKEN = re.compile(r"""\s*(::|->|\.<|>\.|\.~|\(\*?|[)\[\]+,=!%]|"[^"\\]*(?:\\.[^"\\]*)*"|\d+|[^\W\d][\w']*|\S)""")
_COMMENT = re.compile(r"\(\*|\*\)")


def _kind(text: str) -> str:
    """The kind of a token from its first character: `int`, `ident`,
    `string` or `punct`, which is any other text, a bad one too."""
    c = text[:1]
    if c.isdecimal():
        return "int"
    if c.isalpha() or c == "_":
        return "ident"
    return "string" if c == '"' and len(text) > 1 else "punct"


def _int_limit() -> str:
    return f"integer literal has more than {sys.get_int_max_str_digits()} digits"


def _scan(text: str):
    """The text and offset of each token of `text`, past comments; an
    unterminated comment ends the text as the token `(*`."""
    pos = 0
    while m := _TOKEN.match(text, pos):
        pos = m.end()
        if m[1] != "(*":
            yield m[1], m.start(1)
            continue
        depth = 1
        while depth:
            delim = _COMMENT.search(text, pos)
            if delim is None:
                yield m[1], m.start(1)
                return
            pos = delim.end()
            depth += 1 if delim[0] == "(*" else -1


def tokenize(text: str) -> list[tuple]:
    """The tokens of `text` as `(kind, text, value, offset)`, the last of
    kind `eof`; a string's text is its value between quotes.  A bad
    character, an unterminated string or comment, or an integer past
    Python's integer-string limit raises a ParseError."""
    tokens: list[tuple] = []
    for t, offset in _scan(text):
        kind = _kind(t)
        value = t
        if kind == "int":
            try:
                value = int(t)
            except ValueError:  # Python's integer-string limit, left in force
                raise parse_error(_int_limit(), location(text, offset)) from None
        elif kind == "string":
            value = S.unescape(t[1:-1])
            t = '"' + value + '"'
        elif kind == "punct" and t not in _PUNCT:  # an unclosed comment's `(*`, an unclosed string's quote, or `²`
            message = {"(*": "unterminated comment", '"': "unterminated string literal"}.get(t)
            raise parse_error(message or f"unexpected character {t[0]!r}", location(text, offset))
        tokens.append((kind, t, value, offset))
    tokens.append(("eof", "", None, len(text)))
    return tokens


class _Parser:
    """Recursive descent over the token texts, the last `""`; `tok` is the next."""

    reserved = KEYWORDS  # the names that `expr` does not read as a variable

    def __init__(self, text: str, allow_staging: bool):
        self.text = text
        self.tokens = [t for t, _ in _scan(text)] if "(*" in text else _TOKEN.findall(text)
        self.tokens.append("")
        self.next = iter(self.tokens).__next__
        self.tok = self.next()
        self.level = 0
        self.allow_staging = allow_staging

    def token(self) -> tuple:
        """`tok` as `tokenize` reads it, raising the text's first lexical error;
        the iterator's length hint counts the tokens after `tok`."""
        return tokenize(self.text)[len(self.tokens) - self.next.__self__.__length_hint__() - 1]

    def fail(self, message: str) -> Diagnostic:
        return parse_error(message, location(self.text, self.token()[3]))

    def expect(self, text: str) -> None:
        if self.tok != text:
            found = self.token()[1]  # a string shows its value, between quotes
            raise self.fail(f"expected {text!r}, found {found or 'end of input'!r}")
        self.tok = self.next()

    def expr(self) -> S.Expr:
        """Any `let x = e in` and `fun x ->` heads, then a sum: `+` folds
        to the left over `::` chains, which fold to the right.  An
        operand's head that is an integer, a name outside `reserved` or a
        `(` is read in place, so a level of nesting takes this one frame."""
        word = self.tok
        next = self.next  # an instance attribute, looked up once a call
        heads: list | tuple = [] if word == "let" or word == "fun" else ()  # a list only if used
        while word == "let" or word == "fun":
            self.tok = name = next()
            c = name[:1]
            if (c.isalpha() or c == "_") and name not in KEYWORDS:
                self.tok = next()
            else:
                name = self.binder()
            if word == "let":
                self.expect("=")
                rhs = self.expr()
                if self.tok != "in":
                    raise self.fail("expected 'in'")
                self.tok = next()
            else:
                self.expect("->")
                rhs = None
            heads.append((name, rhs))
            word = self.tok
        e = None
        items = []  # the operands of a `::` chain before `operand`
        while True:
            text = self.tok
            c = text[:1]
            if text == "(":  # `()`, a pair or a parenthesised expression
                self.tok = next()
                if self.tok == ")":
                    operand = S.Unit()
                else:
                    operand = self.expr()
                    if self.tok == ",":
                        self.tok = next()
                        operand = S.Pair(operand, self.expr())
                    if self.tok != ")":
                        self.expect(")")  # raises
                self.tok = next()
            elif c.isdecimal():
                try:
                    operand = S.IntLit(int(text))
                except ValueError:  # Python's integer-string limit, left in force
                    raise self.fail(_int_limit()) from None
                self.tok = next()
            elif (c.isalpha() or c == "_") and text not in self.reserved:
                self.tok = next()
                operand = S.Var(text)
            else:
                operand = None
            if operand is None:
                operand = self.app()
            else:
                while self.tok not in _STOP:
                    operand = S.App(operand, self.prefix())
            if self.tok == "::":
                self.tok = next()
                items.append(operand)
                continue
            while items:
                operand = S.Cons(items.pop(), operand)
            e = operand if e is None else S.Add(e, operand)
            if self.tok != "+":
                break
            self.tok = next()
        for name, rhs in reversed(heads):
            e = S.Fun(name, e) if rhs is None else S.Let(name, rhs, e)
        return e

    def binder(self) -> str:
        """A binder that is not a name: `()`, or an error."""
        text = self.tok
        if text in KEYWORDS:
            raise self.fail(f"keyword {text!r} cannot be a binder")
        if text == "(":
            self.tok = self.next()
            self.expect(")")
            return S.UNIT_BINDER
        raise self.fail("expected a binder")

    def app(self) -> S.Expr:
        """An application chain whose head `expr` does not read in place:
        `ref`, `rset`, or a `prefix` form."""
        text = self.tok
        if text == "ref":
            self.tok = self.next()
            return S.RefNew(self.prefix())
        if text == "rset":
            self.tok = self.next()
            ref = self.prefix()
            return S.Rset(ref, self.prefix())
        e = self.prefix()
        while self.tok not in _STOP:
            e = S.App(e, self.prefix())
        return e

    def prefix(self) -> S.Expr:
        """An atom, or a prefix operator (`!`, `%`, `.~`) before one."""
        text = self.tok
        if text == "(":  # as `expr` reads it
            self.tok = self.next()
            if self.tok == ")":
                e = S.Unit()
            else:
                e = self.expr()
                if self.tok == ",":
                    self.tok = self.next()
                    e = S.Pair(e, self.expr())
                if self.tok != ")":
                    self.expect(")")  # raises
            self.tok = self.next()
            return e
        c = text[:1]  # the token's kind, as `_kind` reads it
        if c.isdecimal():
            try:
                value = int(text)
            except ValueError:  # Python's integer-string limit, left in force
                raise self.fail(_int_limit()) from None
            self.tok = self.next()
            return S.IntLit(value)
        if c.isalpha() or c == "_":
            if text in KEYWORDS:
                raise self.fail(f"unexpected keyword {text!r}")
            self.tok = self.next()
            return S.Var(text)
        if c == '"' and len(text) > 1:
            self.tok = self.next()
            return S.StrLit(S.unescape(text[1:-1]))
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

    reserved = KEYWORDS.union(S.COMB_ARITY)

    def app(self) -> S.Expr:
        name = self.tok
        arity = S.COMB_ARITY.get(name)
        if arity is None:
            return super().app()
        self.tok = self.next()
        args = []
        while self.tok not in _STOP:
            args.append(self.prefix())
        e = S.Var(name)
        if len(args) >= arity:
            e, args = S.Comb(name, tuple(args[:arity])), args[arity:]
        for arg in args:
            e = S.App(e, arg)
        return e

    def prefix(self) -> S.Expr:
        name = self.tok
        if S.COMB_ARITY.get(name) != 0:
            return super().prefix()
        self.tok = self.next()
        return S.Comb(name, ())


def _parse(parser: _Parser) -> S.Expr:
    try:
        e = parser.expr()
    except RecursionError:
        raise recursion_limit(location(parser.text, parser.token()[3])) from None
    if parser.tok:
        raise parser.fail(f"trailing input starting at {parser.tok!r}")
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
