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
Syntax errors carry the 0-based character position.  Values are exact: a
polynomial is its ascending coefficient list without trailing zeros, each
a Gaussian rational, a pair (re, im) of ``fractions.Fraction``.
"""

from __future__ import annotations

import cmath
import re
from decimal import Decimal
from fractions import Fraction
from functools import reduce


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


_ZERO, _ONE, _MINUS = Fraction(0), [(Fraction(1), Fraction(0))], [(Fraction(-1), Fraction(0))]


def _trim(p):
    while p and not any(p[-1]):
        p.pop()
    return p


def _add(p, q):
    p, q = sorted((p, q), key=len)
    return _trim([(a + c, b + d) for (a, b), (c, d) in zip(p, q)] + q[len(p):])


def _mul(p, q):
    out = [(_ZERO, _ZERO)] * (len(p) + len(q) - 1) if p and q else []
    for i, (a, b) in enumerate(p):
        for j, (c, d) in enumerate(q if a or b else ()):
            x, y = out[i + j]
            out[i + j] = (x + a * c - b * d, y + a * d + b * c) if b or d else (x + a * c, y)
    return out


def _divmod(p, q):
    """(quotient, remainder) of the exact polynomials p and q, q nonzero."""
    a, b = q[-1]
    minus_inv, quo = [(-a / (a * a + b * b), b / (a * a + b * b))], []
    while len(p) >= len(q):  # t: the next quotient term, negated
        t = [(_ZERO, _ZERO)] * (len(p) - len(q)) + _mul(p[-1:], minus_inv)
        quo, p = _add(quo, t), _add(p, _mul(t, q))
    return _mul(_MINUS, quo), p


def cancel(num, den):
    """num/den (den nonzero) divided by the monic greatest common divisor of
    num and den (Euclid over Q(i), Knuth TAOCP vol. 2, 4.6.1); as it is when
    that divisor is 1, and without Euclid when a side is a nonzero constant."""
    if len(num) == 1 or len(den) == 1:
        return num, den
    g, r = num, den
    while r:
        g, r = r, _divmod(g, r)[1]
    g = _divmod(g, g[-1:])[0]
    return (num, den) if len(g) == 1 else (_divmod(num, g)[0], _divmod(den, g)[0])


def exact(coeffs):
    """The exact polynomial of coefficients that are Gaussian-rational pairs
    or numbers (a number as the exact dyadic value of its double)."""
    if not all(isinstance(c, tuple) or cmath.isfinite(c) for c in coeffs):
        raise ValueError("non-finite polynomial coefficient")
    return _trim([c if isinstance(c, tuple) else (Fraction(c.real), Fraction(c.imag))
                  for c in coeffs])


def rounded(coeffs):
    """The coefficients as complex doubles: a Gaussian-rational pair rounded
    once, a number as it is (its bits kept, signed zeros too)."""
    try:
        return [complex(float(c[0]), float(c[1])) if isinstance(c, tuple) else c for c in coeffs]
    except OverflowError:
        raise ValueError("non-finite polynomial coefficient") from None


class ExprParser:
    """Recursive-descent evaluator producing exact fractions.

    Values are pairs (num, den) of exact polynomials, unreduced.
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
            if text == "-":
                rnum = _mul(_MINUS, rnum)
            num, den = _add(_mul(num, rden), _mul(rnum, den)), _mul(den, rden)

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
                num, den = _mul(num, rnum), _mul(den, rden)
            elif not rnum:
                raise ParseError("division by the zero expression", at)
            else:
                num, den = _mul(num, rden), _mul(den, rnum)

    def factor(self):
        kind, text, _ = self._peek()
        if kind == "op" and text in "+-":
            self._next()
            num, den = self.factor()
            return (num, den) if text == "+" else (_mul(_MINUS, num), den)
        num, den = self.atom()
        if self._peek()[:2] == ("op", "^"):
            self._next()
            k2, t2, a2 = self._next()
            if k2 != "num" or not t2.isdigit():
                raise ParseError("exponent must be a nonnegative integer", a2)
            num, den = (reduce(_mul, [p] * int(t2), _ONE) for p in (num, den))
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
            # float first (the exact value builds 10^exponent); Decimal reads > 4300 digits
            x = float(text)
            if not cmath.isfinite(x):
                raise ParseError(f"literal {text} overflows a double", at)
            c = (Fraction(Decimal(text)) if x else _ZERO, _ZERO)
            if self._peek()[:2] == ("name", "i"):
                self._next()
                c = c[::-1]
        elif kind == "name" and text == "z":
            return [(_ZERO, _ZERO)] + _ONE, _ONE
        elif kind == "name" and text == "i":
            c = (_ZERO, Fraction(1))
        elif kind == "name" and text in self.params:
            return exact([complex(self.params[text])]), _ONE
        elif kind == "name":
            raise ParseError(f"unbound parameter {text!r}", at)
        else:
            raise ParseError(f"unexpected {text or 'end of input'!r}", at)
        return _trim([c]), _ONE
