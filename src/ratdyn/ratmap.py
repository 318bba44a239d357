"""Rational self-maps of the Riemann sphere.

Points are tagged finite/infinity.  Maps are stored as a reduced fraction
of dense polynomials with a monic denominator.  This module is the one home
of sphere-point arithmetic.  Raw arithmetic (orbit steps, the snap grid,
the chart-aware distance) runs in whichever affine chart keeps coordinates
small (w = 1/z beyond radius 2); local analysis at a point z0 runs at 0 in
u = z - z0, or u = 1/z when z0 is infinity (``local_coord``, ``local_pair``,
``RationalMap.local_jets``).  Both rules act on raw values (a Python
``complex``, or ``None`` for infinity), so orbit loops run on raw values
and a ``SpherePoint`` carries one in ``value``.  Their array forms
(``snap_keys``, ``distance_matrix``, ``local_coords``, ``moduli``) take
the (z, w) arrays of ``raw_array``, whose reciprocal w is computed once per
array, and round exactly as the scalar rules do, so a block of iterates is
judged as the iterates one by one.

A finite value whose modulus overflows a double lies beyond radius 2:
``chart_coords`` and the orbit kernel put it in the w chart, ``distance``
measures it as ``distance_matrix`` does (inf where a modulus overflows), and
no rule raises on it.

Orbits run through one orbit kernel per map (``RationalMap.iterate``): a
function, generated for the coefficient pattern of the map's Horner tuples
(a code per coefficient saying which of the exact rules R1-R4 of
``_orbit_kernel`` apply), that steps n iterates in one Python frame.  Maps
with the same pattern, such as z^2 + c for each parsed c != 0, share one
compiled kernel.  ``RationalMap.step`` is one iterate of it.

Taylor expansions of the iterates f^n have one home as well:
``RationalMap.iterate_jets`` steps a pair of Taylor jets (x : y) through
the homogenized map, so an orbit through infinity needs no chart switch.
``RationalMap.local_jets`` seeds it with the jets of a point in its local
coordinate (runs (count, start) of step counts let one call serve several
iterates), and ``cycles``, ``parabolic``, ``extjet``,
``compose_self_homogeneous`` and the multipliers (``RationalMap.multiplier``,
the first-order jet of f^n: a cycle's (f^p)' needs no chart) read f^n from
it.  ``RationalMap.wronskian`` is num' den - num den', whose zeros are the
finite critical points.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .kernel import Polynomial, poly_roots
from .parser import ExprParser, cancel, exact, rounded

SNAP_TOL = 1e-7
CHART_RADIUS = 2.0
_KEY_OFFSET = 1 << 30  # |coordinate| / SNAP_TOL <= 2e7 in either chart


class MapError(ValueError):
    pass


def chart_coords(z):
    """(chart, coordinate) of a raw value: 'z' for |z| <= 2, else 'w' with w = 1/z."""
    if z is None:
        return "w", 0j
    try:
        if abs(z) <= CHART_RADIUS:
            return "z", z
    except OverflowError:  # a finite z whose modulus overflows is near ∞
        pass
    return "w", 1.0 / z


def raw_array(values):
    """Raw values (complex, or None for ∞) in both charts: a (2, n) complex
    array of z (∞ as NaN) and w = 1/z (0 at ∞, NaN at 0)."""
    z = np.array(values, dtype=complex)  # numpy maps None to NaN
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
        d = _modulus(a - b)
    if a != 0 and b != 0:
        w1 = 0j if a is None else 1.0 / a
        w2 = 0j if b is None else 1.0 / b
        d = min(d, _modulus(w1 - w2))
    return d


def _modulus(u):
    """abs(u), or inf where the modulus of a finite u overflows (as ``moduli``)."""
    try:
        return abs(u)
    except OverflowError:
        return math.inf


@np.errstate(over="ignore")
def distance_matrix(zs, bs):
    """``distance`` from each entry of the ``raw_array`` zs (rows) to each
    entry of the ``raw_array`` bs (columns), rounded as the scalar rule, at
    ∞ and 0 too."""
    (z, w), (bz, bw) = zs[:, :, None], bs[:, None, :]
    d = _hypot(z - bz)
    d[np.isnan(z.real) | np.isnan(bz.real)] = np.inf
    return np.fmin(d, _hypot(w - bw))  # NaN, so d, where either is 0


@np.errstate(over="ignore")
def moduli(u):
    """|u| over a complex array, rounded as Python's scalar ``abs`` (a hypot;
    ``np.abs`` differs in the last bit); inf where it overflows."""
    return _hypot(u)


def _hypot(u):
    """``moduli`` in the caller's error state: ``distance_matrix`` sets the
    state once for its two moduli (a setting costs about 1.5 µs)."""
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


_KERNELS = {}  # coefficient pattern -> compiled kernel maker, one per pattern
_FINITE_BOUND = 1e300  # R4: a Horner sum this small cannot overflow


def _codes(cs):
    """The pattern of one Horner tuple: a code per coefficient, 'c' where R1
    makes the first step the coefficient, 'm' where R2 drops the addition of
    a -0-0j coefficient, 'a' for the full step (see ``_orbit_kernel``)."""
    codes = ""
    for k, c in enumerate(cs):
        neg = [x == 0 and math.copysign(1.0, x) < 0 for x in (c.real, c.imag)]
        codes += "m" if all(neg) else "c" if k == 0 and not any(neg) else "a"
    return codes


def _finite_quotient(num, b):
    """R4: whether num(t) / b is finite for every |t| <= 2 and every
    intermediate of its Horner loop (num highest degree first, b a constant)."""
    size = sum((abs(c.real) + abs(c.imag)) * 2.0 ** k for k, c in enumerate(num[::-1]))
    return size <= _FINITE_BOUND * max(abs(b.real), abs(b.imag))


def _orbit_kernel(num, den, rnum, rden):
    """The orbit kernel of f = num/den, whose w-chart fraction is rnum/rden
    (neither denominator the zero polynomial): a function (z, n, out)
    appending the n iterates f(z), ..., f^n(z) of the raw value z to the
    list out.

    It runs ``chart_coords``'s chart rule and the Horner loops of both
    charts, unrolled, in one Python frame, with the operations of one
    iterate in their loop order, so each iterate is bit for bit the loop
    that starts each Horner sum from 0j * t + c.  A finite z whose modulus
    overflows steps in the w chart, as ``chart_coords`` puts it there.  The
    chart coordinate t is always finite (|t| <= 2, |t| < 1/2, or 0j at ∞),
    and the source leaves out the work that provably changes no bit:

    - R1: the first step 0j * t + c0 is c0 when neither part of c0 is -0.0
      (0j * t has ±0 parts, and ±0 + x = x for every x but -0.0);
    - R2: a step e * t + c is e * t when both parts of c are -0.0
      (x + -0.0 = x for every x);
    - R3: a denominator that is a constant under R1 (a polynomial's z chart)
      drops the den == 0 and 0/0 tests, but keeps the division
      (num / (1+0j) can turn a -0.0 part into +0.0);
    - R4: such a z chart drops the finiteness test of the quotient when
      sum (|Re a_k| + |Im a_k|) 2^k <= 1e300 max(|Re b|, |Im b|)
      (``_finite_quotient``): with |t| <= 2 each Horner intermediate is at
      most the sum, and each part of the quotient (Smith's division, as
      Python divides) at most twice the sum over max(|Re b|, |Im b|).

    Elsewhere den == 0 is tested as ``not den``, which is the same test.
    The source depends on the coefficient pattern only (``_codes`` of the
    four tuples and R4's verdict) and is compiled once per pattern; the
    coefficients are the maker's arguments (never ``repr``-ed into the
    source, which would lose -0.0, inf and nan) and become locals once per
    call.
    """
    horner = tuple(_horner(p) for p in (num, den, rnum, rden))
    key = tuple(map(_codes, horner))
    key += (key[1] == "c" and _finite_quotient(horner[0], horner[1][0]),)
    make = _KERNELS.get(key)
    if make is None:
        make = _KERNELS[key] = _compile_kernel(key)
    return make(*horner)


def _compile_kernel(key):
    """The kernel maker for one coefficient pattern, compiled from source."""
    *codes, finite = key
    names = [[f"{h}{i}" for i in range(len(c))] for h, c in zip("abcd", codes)]
    steps = {"c": "{c}", "m": "({e} * {t})", "a": "({e} * {t} + {c})"}

    def horner(k, t):
        expr = "0j"
        for c, code in zip(names[k], codes[k]):
            expr = steps[code].format(e=expr, t=t, c=c)
        return expr

    def quotient(k, t, finite, depth):
        """Lines setting z to the quotient of Horner tuples k and k + 1 at t,
        indented by depth."""
        num, den = horner(k, t), horner(k + 1, t)
        if codes[k + 1] == "c":  # R3
            lines, indent = [f"z = {num} / {den}"], ""
        else:
            lines, indent = [f"num = {num}", f"den = {den}",
                             "if den:",
                             "    z = num / den"], "    "
        if not finite:  # R4 does not apply
            lines += [indent + "if not isfinite(z):", indent + "    z = None"]
        if indent:
            lines += ["elif num:", "    z = None", "else:",
                      "    raise MapError('0/0 at evaluation: fraction not reduced')"]
        return "\n".join(" " * depth + line for line in lines)

    src = f"""
def make(za, zb, wa, wb):
    def kernel(z, n, out):
        {", ".join(names[0])}, = za
        {", ".join(names[1])}, = zb
        {", ".join(names[2])}, = wa
        {", ".join(names[3])}, = wb
        append, radius, isfinite = out.append, CHART_RADIUS, cmath.isfinite
        for _ in range(n):
            try:
                if z is not None and abs(z) <= radius:
{quotient(0, "z", finite, 20)}
                else:
                    t = 0j if z is None else 1.0 / z
{quotient(2, "t", False, 20)}
            except OverflowError:  # |z| beyond the largest double
                t = 1.0 / z
{quotient(2, "t", False, 16)}
            append(z)
    return kernel
"""
    scope = {"CHART_RADIUS": CHART_RADIUS, "MapError": MapError, "cmath": cmath}
    exec(compile(src, f"<ratmap orbit kernel {key}>", "exec"), scope)
    return scope["make"]


def _jet_mul(a, b):
    """Product of truncated Taylor jets (orders along axis 0)."""
    out = a[0] * b
    for i in range(1, len(a)):
        out[i:] += a[i] * b[:-i]
    return out


def _homogeneous_pair(num, den, x, y):
    """(N(x, y), D(x, y)) of the homogenized num/den on jets x, y.

    One Horner pass for both, sharing the powers of y.
    """
    acc = [num[-1], den[-1]]
    ypow = None
    for k in range(len(num) - 2, -1, -1):
        ypow = y if ypow is None else _jet_mul(ypow, y)
        for i, c in enumerate((num[k], den[k])):
            a = acc[i]
            if isinstance(a, np.ndarray):
                a = _jet_mul(a, x)
            elif a != 0:
                a = a * x
            if c != 0:
                term = ypow if c == 1 else c * ypow
                a = term if isinstance(a, complex) else a + term
            acc[i] = a
    return [a if isinstance(a, np.ndarray) else np.full(x.shape, a, dtype=complex) for a in acc]


def _jet_step(num, den, x, y):
    """One step of ``RationalMap.iterate_jets``: the homogenized num/den on
    the jets, divided by max(|x_0|, |y_0|)."""
    x, y = _homogeneous_pair(num, den, x, y)
    s = np.maximum(np.abs(x[0]), np.abs(y[0]))
    return x / s, y / s  # not in place: the pair may alias the input jets


def local_pair(num, den, z0):
    """(A, B): the fraction num/den pulled back to the local coordinate u
    about the raw value z0 (``local_coord``), A(u)/B(u) = num(z)/den(z):
    both shifted to z0, or z^d num(1/z), z^d den(1/z) with d the larger
    degree when z0 is ∞."""
    if z0 is None:
        d = max(num.degree, den.degree)
        return tuple(Polynomial(np.pad(p.coeffs, (0, d - p.degree))[::-1]) for p in (num, den))
    return num.shifted(z0), den.shifted(z0)


class RationalMap:
    """A rational map f = num/den of degree max(deg num, deg den) >= 1.

    num and den are Polynomials or ascending coefficients, doubles or
    ``parser.ExprParser``'s exact pairs.  The fraction is divided by their
    exact GCD (``parser.cancel``; a double is a dyadic rational) and rounded
    once where a factor cancels or the input is exact; else the doubles keep
    their bits, signed zeros too.  The denominator is then made monic in
    floats (or exactly 1 when constant).
    """

    def __init__(self, num, den):
        pair = [p.coeffs if isinstance(p, Polynomial) else p for p in (num, den)]
        xnum, xden = map(exact, pair)
        if not xden:
            raise MapError("denominator is identically zero")
        cut = cancel(xnum, xden)
        num, den = (Polynomial(rounded(p)) for p in (cut if len(cut[1]) < len(xden) else pair))
        # normalize: monic denominator, or den == 1 when constant
        lead = den.coeffs[-1]
        num = Polynomial(num.coeffs / lead)
        den = Polynomial(den.coeffs / lead if den.degree else [1.0])
        self.num = num
        self.den = den
        self.degree = max(num.degree, den.degree)
        if self.degree < 1:
            raise MapError("map is constant (degree 0) after reduction")
        # cached w-chart data: z^d num(1/z), z^d den(1/z)
        self._rnum, self._rden = local_pair(num, den, None)
        # ascending num and den zero-padded to the degree: the homogenized pair
        self.padded = tuple(np.pad(p.coeffs, (0, self.degree - p.degree)) for p in (num, den))
        self._kernel = None  # the orbit kernel, built on first use
        # Wronskian num' den - num den': f' is W/den^2.  An overflow makes
        # Polynomial raise, so numpy's warning would be noise.
        with np.errstate(over="ignore", invalid="ignore"):
            self.wronskian = num.derivative() * den - num * den.derivative()

    def __repr__(self):
        return f"RationalMap(num={self.num!r}, den={self.den!r})"

    # -- evaluation ------------------------------------------------------
    def local_fraction(self, zi, zo):
        """(A, B): A(u)/B(u) is the local coordinate of f(z) about zo as a
        function of the local coordinate u of z about zi (see ``local_coord``)."""
        zi, zo = _as_point(zi), _as_point(zo)
        a, b = local_pair(self.num, self.den, zi.value)
        return (b, a) if zo.is_infinity else (a - zo.value * b, b)

    def iterate(self, z, n, out):
        """Append the iterates f(z), ..., f^n(z) of the raw value z to the list out.

        One call of the orbit kernel (``_orbit_kernel``) runs them all; a
        ``MapError`` at an iterate leaves the earlier ones in out.
        """
        if self._kernel is None:
            self._kernel = _orbit_kernel(self.num, self.den, self._rnum, self._rden)
        self._kernel(z, n, out)

    def step(self, z):
        """f on a raw value (complex, or None for ∞), computed in the stable chart.

        One iterate of the orbit kernel: the input chart follows
        ``chart_coords``; a zero denominator or a non-finite quotient gives
        ∞, and 0/0 raises ``MapError``.
        """
        out = []
        self.iterate(z, 1, out)
        return out[0]

    def evaluate(self, z):
        """f(z) as a SpherePoint, computed in the stable chart (see ``step``)."""
        return SpherePoint(self.step(_as_point(z).value))

    def iterate_jets(self, x, y, n):
        """The n-th homogeneous iterate of the Taylor jets (x : y) (orders
        on axis 0, never written to), divided by max(|x_0|, |y_0|) after
        every step: a factor common to the coefficients of a point, so
        ratios keep their values and nothing overflows.

        n is a step count, or runs (count, start) with non-decreasing
        counts: the points x[..., start:] take the steps up to count, so a
        point gets the bits of a call with its own run's count alone (each
        step is elementwise per point)."""
        num, den = self.padded
        x, y = x.copy(), y.copy()
        done = 0
        for count, start in n if isinstance(n, list) else [(n, 0)]:
            if count < done:
                raise ValueError("step counts must be non-negative and non-decreasing")
            for _ in range(done, count):
                x[..., start:], y[..., start:] = _jet_step(num, den, x[..., start:], y[..., start:])
            done = count
        return x, y

    def local_jets(self, z0, k, n):
        """The n-th homogeneous iterate (x : y) (``iterate_jets``; n a step
        count or runs) of the jets, orders 0..k-1 on axis 0, of a point in
        its local coordinate u about the raw value z0: (z0 + u : 1) for
        finite z0 (an array of them on the further axes), (1 : u) when z0
        is None (∞, one point per run).  The pair comes swapped at ∞, so
        x/y is the image in the chart of z0: its z for finite z0, its 1/z
        at ∞."""
        if z0 is None:
            x, y = np.eye(2, k, dtype=complex)
            if isinstance(n, list):
                x, y = (np.repeat(e[:, None], len(n), axis=1) for e in (x, y))
            x, y = self.iterate_jets(x, y, n)
            return y, x
        z0 = np.asarray(z0, dtype=complex)
        x = np.zeros((k,) + z0.shape, dtype=complex)
        y = np.zeros_like(x)
        x[0], x[1:2], y[0] = z0, 1.0, 1.0
        return self.iterate_jets(x, y, n)

    def multiplier(self, z0, n):
        """(f^n)' at z0 in its local coordinate (``local_jets``; z0 as
        there): the multiplier of f^n where z0 is a fixed point of it."""
        x, y = self.local_jets(z0, 2, n)
        return (x[1] * y[0] - x[0] * y[1]) / y[0] ** 2

    # -- structure -------------------------------------------------------
    def compose_self_homogeneous(self, p):
        """Homogeneous coefficients (A, B) of f^p, unreduced and up to a
        common factor: f^p(z) = A(z)/B(z).  They are the order-d^p jets at 0
        of the homogeneous iterate of (z : 1) (``local_jets``), exact."""
        return tuple(map(Polynomial, self.local_jets(0j, self.degree**p + 1, p)))

    def critical_divisor(self):
        """Ramification divisor: critical points with multiplicity; degree 2d-2."""
        entries = []
        d = self.degree
        w = self.wronskian
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
    if not num:
        raise MapError("expression is identically zero (not a self-map)")
    return RationalMap(num, den)
