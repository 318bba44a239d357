"""Rational self-maps of the Riemann sphere.

Points are tagged finite/infinity.  Maps are stored as a reduced fraction
of dense polynomials with a monic denominator.  This module is the one home
of sphere-point arithmetic.  Raw arithmetic (orbit steps, the snap grid,
the chart-aware distance) runs in whichever affine chart keeps coordinates
small (w = 1/z beyond radius 2); local analysis at a point z0 runs at 0 in
u = z - z0, or u = 1/z when z0 is infinity (``local_coord``,
``RationalMap.local_fraction``).  Both rules act on raw values (a Python
``complex``, or ``None`` for infinity), so orbit loops run on raw values
and a ``SpherePoint`` carries one in ``value``.  Their array forms
(``snap_keys``, ``distances``, ``local_coords``, ``moduli``) take the
(z, w) arrays of ``raw_array``, whose reciprocal w is computed once per
array, and round exactly as the scalar rules do, so a block of iterates is
judged as the iterates one by one.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .kernel import Polynomial, poly_roots
from .parser import ExprParser

SNAP_TOL = 1e-7
CHART_RADIUS = 2.0
_NAN = complex("nan")
_KEY_OFFSET = 1 << 30  # |coordinate| / SNAP_TOL <= 2e7 in either chart


class MapError(ValueError):
    pass


def chart_coords(z):
    """(chart, coordinate) of a raw value: 'z' for |z| <= 2, else 'w' with w = 1/z."""
    if z is None:
        return "w", 0j
    if abs(z) <= CHART_RADIUS:
        return "z", z
    return "w", 1.0 / z


def raw_array(values):
    """Raw values (complex, or None for ∞) in both charts: a (2, n) complex
    array of z (∞ as NaN) and w = 1/z (0 at ∞, NaN at 0)."""
    z = np.array([_NAN if v is None else v for v in values], dtype=complex)
    w = _reciprocal(z)
    w[np.isnan(z.real)] = 0
    return np.array([z, w])


def _reciprocal(z):
    """1/z over a complex array, rounded as Python's scalar ``1.0 / z``
    (Smith's algorithm dividing by the denominator, where numpy multiplies
    by its reciprocal); NaN at 0 and ∞."""
    re, im = z.real, z.imag
    big = np.abs(re) >= np.abs(im)
    with np.errstate(all="ignore"):
        ratio = np.where(big, im / re, re / im)
        den = np.where(big, re + im * ratio, re * ratio + im)
        out = np.empty(z.shape, dtype=complex)
        out.real = np.where(big, 1.0 + 0.0 * ratio, ratio) / den
        out.imag = np.where(big, 0.0 - ratio, 0.0 * ratio - 1.0) / den
    return out


def snap_keys(zs):
    """int64 snap-grid keys of a ``raw_array``: the chart bit of
    ``chart_coords`` and both coordinates rounded to the SNAP_TOL grid.
    Equal points (within ~SNAP_TOL) share or neighbor keys."""
    z, w = zs
    w_chart = np.isnan(z.real) | (moduli(z) > CHART_RADIUS)
    c = np.where(w_chart, w, z)
    re = np.rint(c.real / SNAP_TOL).astype(np.int64)
    im = np.rint(c.imag / SNAP_TOL).astype(np.int64)
    return (w_chart.astype(np.int64) << 62) | ((re + _KEY_OFFSET) << 31) | (im + _KEY_OFFSET)


def distance(a, b):
    """Chart-aware distance of raw values: min of |z1-z2| and |w1-w2| where defined."""
    d = math.inf
    if a is not None and b is not None:
        d = abs(a - b)
    if a != 0 and b != 0:
        w1 = 0j if a is None else 1.0 / a
        w2 = 0j if b is None else 1.0 / b
        d = min(d, abs(w1 - w2))
    return d


def distances(zs, b):
    """``distance`` from each entry of a ``raw_array`` to the raw value b."""
    z, w = zs
    inf = np.isnan(z.real)
    d = np.full(z.shape, np.inf) if b is None else np.where(inf, np.inf, moduli(z - b))
    if b != 0:
        dw = moduli(w - (0j if b is None else 1.0 / b))
        d = np.where((z != 0) & (dw < d), dw, d)
    return d


def moduli(u):
    """|u| over a complex array, rounded as Python's scalar ``abs`` (a hypot;
    ``np.abs`` differs in the last bit)."""
    return np.hypot(u.real, u.imag)


def local_coord(z, z0):
    """Local coordinate of raw z about raw z0: z - z0, or 1/z when z0 is ∞
    (None where undefined)."""
    if z0 is not None:
        return None if z is None else z - z0
    if z is None:
        return 0j
    return 1.0 / z if z != 0 else None


def local_coords(zs, z0):
    """``local_coord`` over a ``raw_array``; NaN where undefined."""
    z, w = zs
    return w if z0 is None else z - z0


class SpherePoint:
    """A point of the sphere: a finite complex value or the point at infinity.

    ``value`` is the raw value (None for infinity); points compare equal
    when their chart-aware ``distance`` is within SNAP_TOL."""

    __slots__ = ("value",)

    def __init__(self, value=None):
        # value None encodes infinity
        self.value = None if value is None else complex(value)

    @classmethod
    def infinity(cls):
        return cls(None)

    @property
    def is_infinity(self):
        return self.value is None

    def __repr__(self):
        if self.is_infinity:
            return "SpherePoint(∞)"
        return f"SpherePoint({self.value:.9g})"

    def __eq__(self, other):
        if not isinstance(other, SpherePoint):
            return NotImplemented
        return distance(self.value, other.value) <= SNAP_TOL

    # __eq__ is closeness, which is not transitive: no hash can agree with it
    __hash__ = None

    def to_json(self):
        if self.is_infinity:
            return "inf"
        return [self.value.real, self.value.imag]

    @classmethod
    def from_json(cls, obj):
        if obj == "inf":
            return cls.infinity()
        return cls(complex(obj[0], obj[1]))


def _horner(p):
    """Coefficients of p as Python complex, highest degree first."""
    return tuple(complex(c) for c in p.coeffs[::-1])


def _rev_pad(p, d):
    """Coefficients of z^d * p(1/z): reverse after zero-padding to degree d."""
    c = np.zeros(d + 1, dtype=complex)
    c[: len(p.coeffs)] = p.coeffs
    return Polynomial(c[::-1])


def _deflate(p, root):
    """Divide p by (z - root) (synthetic division, remainder dropped)."""
    c = p.coeffs
    out = np.zeros(len(c) - 1, dtype=complex)
    acc = c[-1]
    for i in range(len(c) - 2, -1, -1):
        out[i] = acc
        acc = c[i] + root * acc
    return Polynomial(out)


class RationalMap:
    """A rational map f = num/den of degree max(deg num, deg den) >= 1.

    The stored fraction is reduced (no common roots within clustering
    tolerance) and the denominator is monic (or exactly 1 when constant).
    """

    def __init__(self, num, den):
        num = num if isinstance(num, Polynomial) else Polynomial(num)
        den = den if isinstance(den, Polynomial) else Polynomial(den)
        if den.is_zero:
            raise MapError("denominator is identically zero")
        num, den = _reduce_fraction(num, den)
        # normalize: monic denominator, or den == 1 when constant
        if den.degree == 0:
            num = Polynomial(num.coeffs / den.coeffs[0])
            den = Polynomial([1.0])
        else:
            lead = den.coeffs[-1]
            num = Polynomial(num.coeffs / lead)
            den = Polynomial(den.coeffs / lead)
        self.num = num
        self.den = den
        self.degree = max(num.degree, den.degree)
        if self.degree < 1:
            raise MapError("map is constant (degree 0) after reduction")
        # cached w-chart data: z^d num(1/z), z^d den(1/z)
        self._rnum = _rev_pad(num, self.degree)
        self._rden = _rev_pad(den, self.degree)
        # Horner coefficients (highest degree first) of (A, B) in each chart
        self._horner = {
            "z": (_horner(num), _horner(den)),
            "w": (_horner(self._rnum), _horner(self._rden)),
        }
        # Wronskian A'B - AB' of (A, B) in each chart: f' is W/B^2 there
        self._wron = {}
        for chart in ("z", "w"):
            a, b = self._chart_pair(chart)
            self._wron[chart] = a.derivative() * b - a * b.derivative()

    def __repr__(self):
        return f"RationalMap(num={self.num!r}, den={self.den!r})"

    # -- evaluation ------------------------------------------------------
    def _chart_pair(self, chart):
        """(A, B) with f expressed as A(t)/B(t) in the input chart t."""
        if chart == "z":
            return self.num, self.den
        return self._rnum, self._rden

    def local_fraction(self, zi, zo):
        """(A, B): A(u)/B(u) is the local coordinate of f(z) about zo as a
        function of the local coordinate u of z about zi (see ``local_coord``)."""
        zi, zo = _as_point(zi), _as_point(zo)
        a, b = ((self._rnum, self._rden) if zi.is_infinity
                else (self.num.shifted(zi.value), self.den.shifted(zi.value)))
        return (b, a) if zo.is_infinity else (a - zo.value * b, b)

    def step(self, z):
        """f on a raw value (complex, or None for ∞), computed in the stable chart.

        The input chart follows ``chart_coords``; a zero denominator or a
        non-finite quotient gives ∞, and 0/0 raises ``MapError``.
        """
        chart, t = chart_coords(z)
        a, b = self._horner[chart]
        n = 0j
        for c in a:
            n = n * t + c
        d = 0j
        for c in b:
            d = d * t + c
        if d == 0:
            if n == 0:
                raise MapError("0/0 at evaluation: fraction not reduced")
            return None
        val = n / d
        return val if cmath.isfinite(val) else None

    def evaluate(self, z):
        """f(z) as a SpherePoint, computed in the stable chart (see ``step``)."""
        return SpherePoint(self.step(_as_point(z).value))

    def __call__(self, z):
        return self.evaluate(z)

    def derivative_multiplier_chart(self, z):
        """Chart-correct derivative of f at z.

        Input and output coordinates are each taken in the chart a point's
        own position selects (w = 1/z beyond radius 2), so the product of
        these values along a cycle is the cycle multiplier.
        """
        z = _as_point(z)
        chart, t = chart_coords(z.value)
        a, b = self._chart_pair(chart)
        w = self._wron[chart]
        out_chart, _ = chart_coords(self.step(z.value))
        # derivative of A/B is W/B^2; of the flipped chart B/A it is -W/A^2
        if out_chart == "z":
            val = w(t) / b(t) ** 2
        else:
            val = -w(t) / a(t) ** 2
        if not np.isfinite(val):
            raise MapError(f"degenerate derivative at {z!r}")
        return complex(val)

    def orbit(self, z0, n):
        """[z0, f(z0), ..., f^n(z0)]."""
        pts = [_as_point(z0)]
        for _ in range(n):
            pts.append(self.evaluate(pts[-1]))
        return pts

    # -- structure -------------------------------------------------------
    def compose_self_homogeneous(self, p):
        """Homogeneous coefficients (A, B) of f^p: f^p(z) = A(z)/B(z), unreduced.

        Built by Horner-style substitution of (num, den) into itself, which
        keeps everything polynomial (no root finding).
        """
        a, b = self.num, self.den
        for _ in range(p - 1):
            a2 = _substitute_fraction(self.num, a, b)
            b2 = _substitute_fraction(self.den, a, b)
            # common degree padding: both must be multiplied by b^(d - deg)
            d = self.degree
            if self.num.degree < d:
                a2 = a2 * (b ** (d - self.num.degree))
            if self.den.degree < d:
                b2 = b2 * (b ** (d - self.den.degree))
            a, b = a2, b2
        return a, b

    def critical_divisor(self):
        """Ramification divisor: critical points with multiplicity; degree 2d-2."""
        entries = []
        d = self.degree
        w = self._wron["z"]
        if w.is_zero:
            raise MapError("degenerate map: vanishing Wronskian")
        if w.degree >= 1 or w.coeffs[0] == 0:
            for root, mult in poly_roots(w):
                entries.append((SpherePoint(root), mult))
        inf_mult = 2 * d - 2 - w.degree
        if inf_mult > 0:
            entries.append((SpherePoint.infinity(), inf_mult))
        return RamificationDivisor(entries, label="Ram_f")

    def ram_n(self, n):
        """Forward-orbit divisor recursion starting from the thickened critical divisor.

        Level 0 adds 1 to every multiplicity of the critical divisor; each
        further level pushes the support forward by f, with newly reached
        points entering at multiplicity 1.
        """
        ram_f = self.critical_divisor()
        base = RamificationDivisor(
            [(pt, m + 1) for pt, m in ram_f.entries], label="Ram^0"
        )
        cur = base
        for k in range(n):
            nxt = RamificationDivisor(list(base.entries), label=f"Ram^{k + 1}")
            for pt, _ in cur.entries:
                img = self.evaluate(pt)
                if nxt.multiplicity_at(img) == 0:
                    nxt = nxt.with_entry(img, 1)
            cur = nxt
        return cur

    # -- serialization ---------------------------------------------------
    def to_json(self):
        return {
            "num": [[c.real, c.imag] for c in self.num.coeffs],
            "den": [[c.real, c.imag] for c in self.den.coeffs],
        }

    @classmethod
    def from_json(cls, obj):
        try:
            num = [complex(re, im) for re, im in obj["num"]]
            den = [complex(re, im) for re, im in obj["den"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise MapError(f"bad map JSON: {exc}") from exc
        return cls(num, den)


def _as_point(z):
    if isinstance(z, SpherePoint):
        return z
    return SpherePoint(z)


def _substitute_fraction(p, a, b):
    """p(a/b) * b^deg(p): Horner with denominator clearing at each step."""
    out = Polynomial([0])
    deg = p.degree
    bpow = Polynomial([1.0])
    for k in range(deg, -1, -1):
        out = out * a + Polynomial([p.coeffs[k]]) * bpow
        if k > 0:
            bpow = bpow * b
    return out


def _reduce_fraction(num, den):
    """Remove common roots of num and den (numerically) and re-trim."""
    if num.is_zero:
        return num, Polynomial([1.0])
    num = num.trimmed(1e-12)
    den = den.trimmed(1e-12)
    if den.degree >= 1 and num.degree >= 1:
        scale_n = num.scale()
        for root, mult in poly_roots(den):
            for _ in range(mult):
                if num.degree == 0:
                    break
                if abs(num(root)) <= 1e-8 * scale_n * max(1.0, abs(root)) ** num.degree:
                    num = _deflate(num, root)
                    den = _deflate(den, root)
                else:
                    break
    return num, den


class RamificationDivisor:
    """Weighted point set on the sphere; points distinct under snap tolerance."""

    def __init__(self, entries, label=""):
        merged = []
        for pt, m in entries:
            if m < 1:
                raise ValueError("divisor multiplicities must be >= 1")
            for i, (q, mq) in enumerate(merged):
                if q == pt:
                    merged[i] = (q, mq + m)
                    break
            else:
                merged.append((pt, int(m)))
        self.entries = merged
        self.label = label

    @property
    def total(self):
        return sum(m for _, m in self.entries)

    def multiplicity_at(self, pt):
        for q, m in self.entries:
            if q == pt:
                return m
        return 0

    def with_entry(self, pt, mult):
        return RamificationDivisor(self.entries + [(pt, mult)], label=self.label)

    def __len__(self):
        return len(self.entries)

    def __repr__(self):
        body = ", ".join(f"{pt!r}:{m}" for pt, m in self.entries)
        return f"RamificationDivisor({self.label}; {body})"

    def to_json(self):
        return {
            "label": self.label,
            "entries": [
                {"point": pt.to_json(), "multiplicity": m} for pt, m in self.entries
            ],
        }


def parse_map(text, params=None):
    """Parse an expression in z (with optional parameter bindings) to a RationalMap."""
    num, den = ExprParser(text, params).parse()
    if num.is_zero:
        raise MapError("expression is identically zero (not a self-map)")
    return RationalMap(num, den)
