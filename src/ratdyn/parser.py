"""Expression parser for rational maps in the variable z.

Grammar (precedence low to high):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*  with implicit '*' before '(' / names
    factor  := ('+' | '-') factor | atom ('^' nonneg-integer)?
    atom    := 'z' | number | 'i' | parameter name | '(' expr ')'

Numbers are decimal literals with an optional exponent (``1e-3``,
``2.5E+1``), optionally followed by 'i' for a pure imaginary part (so
``1+2i`` parses as a sum); the exponent after '^' is digits only.
Parameter values are bound at parse time from a name -> complex mapping.
Syntax errors carry the 0-based character position.
"""

from __future__ import annotations

import re

from .kernel import Polynomial


class ParseError(ValueError):
    """Syntax or binding error, with the character position in the source."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN_RE = re.compile(
    r"""
    (?P<num>(\d+\.\d*|\.\d+|\d+)([eE][-+]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^()])
  | (?P<ws>\s+)
  | (?P<bad>.)
    """,
    re.VERBOSE,
)


def tokenize(text):
    """List of (kind, value, position); kinds: num, name, op."""
    out = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        out.append((kind, m.group(), m.start()))
    return out


class _FractionField:
    """Fraction arithmetic on (num, den) Polynomial pairs."""

    @staticmethod
    def const(c):
        return (Polynomial([c]), Polynomial([1.0]))

    @staticmethod
    def var():
        return (Polynomial([0.0, 1.0]), Polynomial([1.0]))

    @staticmethod
    def add(a, b):
        return (a[0] * b[1] + b[0] * a[1], a[1] * b[1])

    @staticmethod
    def sub(a, b):
        return (a[0] * b[1] - b[0] * a[1], a[1] * b[1])

    @staticmethod
    def mul(a, b):
        return (a[0] * b[0], a[1] * b[1])

    @staticmethod
    def div(a, b):
        return (a[0] * b[1], a[1] * b[0])

    @staticmethod
    def pow(a, k):
        num, den = Polynomial([1.0]), Polynomial([1.0])
        for _ in range(k):
            num, den = num * a[0], den * a[1]
        return (num, den)

    @staticmethod
    def neg(a):
        return (-a[0], a[1])


class ExprParser:
    """Recursive-descent evaluator producing complex-coefficient fractions.

    Values are pairs (num, den) of Polynomials, unreduced.
    """

    def __init__(self, text, params):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0
        self.params = dict(params or {})

    def _peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return ("eof", "", len(self.text))

    def _next(self):
        tok = self._peek()
        self.pos += 1
        return tok

    def parse(self):
        val = self.expr()
        kind, text, at = self._peek()
        if kind != "eof":
            raise ParseError(f"unexpected {text!r}", at)
        return val

    def expr(self):
        val = self.term()
        while True:
            kind, text, _ = self._peek()
            if kind == "op" and text in "+-":
                self._next()
                rhs = self.term()
                val = _FractionField.add(val, rhs) if text == "+" else _FractionField.sub(val, rhs)
            else:
                return val

    def term(self):
        val = self.factor()
        while True:
            kind, text, at = self._peek()
            if kind == "op" and text in "*/":
                self._next()
                rhs = self.factor()
                if text == "/" and rhs[0].is_zero:
                    raise ParseError("division by the zero expression", at)
                val = _FractionField.mul(val, rhs) if text == "*" else _FractionField.div(val, rhs)
            elif kind == "name" or (kind == "op" and text == "("):
                # implicit multiplication: 2z, 3(z+1), z(z-1)
                rhs = self.factor()
                val = _FractionField.mul(val, rhs)
            else:
                return val

    def factor(self):
        kind, text, at = self._peek()
        if kind == "op" and text in "+-":
            self._next()
            val = self.factor()
            return val if text == "+" else _FractionField.neg(val)
        val = self.atom()
        kind, text, at = self._peek()
        if kind == "op" and text == "^":
            self._next()
            k2, t2, a2 = self._next()
            if k2 != "num" or not t2.isdigit():
                raise ParseError("exponent must be a nonnegative integer", a2)
            val = _FractionField.pow(val, int(t2))
        return val

    def atom(self):
        kind, text, at = self._next()
        if kind == "num":
            nxt = self._peek()
            if nxt[0] == "name" and nxt[1] == "i":
                self._next()
                return _FractionField.const(complex(0, float(text)))
            return _FractionField.const(complex(float(text)))
        if kind == "name":
            if text == "z":
                return _FractionField.var()
            if text == "i":
                return _FractionField.const(1j)
            if text in self.params:
                return _FractionField.const(complex(self.params[text]))
            raise ParseError(f"unbound parameter {text!r}", at)
        if kind == "op" and text == "(":
            val = self.expr()
            k2, t2, a2 = self._next()
            if not (k2 == "op" and t2 == ")"):
                raise ParseError("expected ')'", a2)
            return val
        raise ParseError(f"unexpected {text or 'end of input'!r}", at)
