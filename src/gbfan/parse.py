"""Text to polynomial.

Grammar (a superset of the canonical printed form):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := ('+' | '-') factor | atom ('^' INT)?
    atom   := INT | VAR | '(' expr ')'

INT takes `_` digit groups as field literals do (``1_000``).
Division is only allowed by a constant.  Monomials require an explicit
'*' between factors (``x*y^2``); multi-character variable names make the
implicit form ambiguous, so ``xy^2`` is rejected as an unknown variable.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .field import DIGITS

# A variable name; `PolyRing` accepts exactly the names the tokenizer reads.
VAR_NAME = re.compile(r"[^\W\d]\w*")

_TOKEN = re.compile(
    rf"\s*(?:(?P<int>{DIGITS})|(?P<name>{VAR_NAME.pattern})|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r} at {pos} in {text!r}")
        pos = m.end()
        if m.lastgroup == "int":
            tokens.append(("int", m.group("int")))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
    tokens.append(("end", ""))
    return tokens


class _Parser:
    def __init__(self, ring, text: str):
        self.ring = ring
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, val = self.advance()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r} in {self.text!r}")

    def parse(self):
        poly = self.expr()
        if self.peek()[0] != "end":
            raise ParseError(f"trailing input in {self.text!r}")
        return poly

    def expr(self):
        acc = self.term()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                rhs = self.term()
                acc = acc + rhs if val == "+" else acc - rhs
            else:
                return acc

    def term(self):
        acc = self.factor()
        while True:
            kind, val = self.peek()
            if kind == "op" and val == "*":
                self.advance()
                acc = acc * self.factor()
            elif kind == "op" and val == "/":
                self.advance()
                divisor = self.factor()
                if divisor.total_degree() > 0:
                    raise ParseError(
                        f"division only by constants in {self.text!r}"
                    )
                if divisor.is_zero():
                    raise ParseError(f"division by zero in {self.text!r}")
                const = next(iter(divisor.coeffs.values()))
                acc = acc.scale(const ** (-1))
            else:
                return acc

    def factor(self):
        kind, val = self.peek()
        if kind == "op" and val in "+-":
            self.advance()
            inner = self.factor()
            return -inner if val == "-" else inner
        base = self.atom()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            kind, val = self.advance()
            if kind != "int":
                raise ParseError(f"exponent must be a natural number in {self.text!r}")
            return base ** int(val)
        return base

    def atom(self):
        kind, val = self.advance()
        if kind == "int":
            return self.ring.const(self.ring.field.from_int(int(val)))
        if kind == "name":
            return self.ring.var(self.ring.var_index(val))
        if kind == "op" and val == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ParseError(f"unexpected token {val!r} in {self.text!r}")


def parse_polynomial(ring, text: str):
    if not text.strip():
        raise ParseError("empty polynomial")
    return _Parser(ring, text).parse()
