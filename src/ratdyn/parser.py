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
        num, den = self.term()
        while True:
            kind, text, _ = self._peek()
            if not (kind == "op" and text in "+-"):
                return num, den
            self._next()
            rnum, rden = self.term()
            num = num * rden + rnum * den if text == "+" else num * rden - rnum * den
            den = den * rden

    def term(self):
        num, den = self.factor()
        while True:
            kind, text, at = self._peek()
            if kind == "op" and text in "*/":
                self._next()
            elif not (kind == "name" or (kind == "op" and text == "(")):
                return num, den
            # a name or '(' with no operator is an implicit product: 2z, 3(z+1), z(z-1)
            rnum, rden = self.factor()
            if text != "/":
                num, den = num * rnum, den * rden
            elif rnum.is_zero:
                raise ParseError("division by the zero expression", at)
            else:
                num, den = num * rden, den * rnum

    def factor(self):
        kind, text, _ = self._peek()
        if kind == "op" and text in "+-":
            self._next()
            num, den = self.factor()
            return (num, den) if text == "+" else (-num, den)
        num, den = self.atom()
        if self._peek()[:2] == ("op", "^"):
            self._next()
            k2, t2, a2 = self._next()
            if k2 != "num" or not t2.isdigit():
                raise ParseError("exponent must be a nonnegative integer", a2)
            # the repeated product, not Polynomial.__pow__: binary powering rounds differently
            pnum, pden = Polynomial([1.0]), Polynomial([1.0])
            for _ in range(int(t2)):
                pnum, pden = pnum * num, pden * den
            num, den = pnum, pden
        return num, den

    def atom(self):
        kind, text, at = self._next()
        if kind == "op" and text == "(":
            val = self.expr()
            k2, t2, a2 = self._next()
            if not (k2 == "op" and t2 == ")"):
                raise ParseError("expected ')'", a2)
            return val
        if kind == "num":
            imaginary = self._peek()[:2] == ("name", "i")
            if imaginary:
                self._next()
            c = complex(0, float(text)) if imaginary else complex(float(text))
        elif kind == "name" and text == "z":
            return Polynomial([0.0, 1.0]), Polynomial([1.0])
        elif kind == "name" and text == "i":
            c = 1j
        elif kind == "name" and text in self.params:
            c = complex(self.params[text])
        elif kind == "name":
            raise ParseError(f"unbound parameter {text!r}", at)
        else:
            raise ParseError(f"unexpected {text or 'end of input'!r}", at)
        return Polynomial([c]), Polynomial([1.0])
