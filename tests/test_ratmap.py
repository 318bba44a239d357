"""Sphere points, rational map evaluation, the orbit kernel, critical divisors,
forward thickening."""

import cmath
import math
import struct
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from ratdyn import ratmap
from ratdyn.cli import main
from ratdyn.kernel import Polynomial
from ratdyn.parser import ExprParser, ParseError, rounded
from ratdyn.ratmap import (
    CHART_RADIUS,
    SNAP_TOL,
    MapError,
    RationalMap,
    SpherePoint,
    chart_coords,
    distance,
    distance_matrix,
    local_coord,
    local_coords,
    local_pair,
    moduli,
    parse_map,
    raw_array,
    snap_keys,
    _orbit_kernel,
)

from conftest import coeff_or_zero, finite_complex


class TestSpherePoint:
    def test_chart_switch(self):
        assert chart_coords(SpherePoint(1.0).value) == ("z", 1.0)
        chart, w = chart_coords(SpherePoint(10.0).value)
        assert chart == "w" and abs(w - 0.1) < 1e-15
        assert chart_coords(SpherePoint.infinity().value) == ("w", 0j)

    def test_unhashable(self):
        # equality is closeness, which no hash can agree with
        with pytest.raises(TypeError):
            hash(SpherePoint(0))

    def test_distance_across_charts(self):
        a = SpherePoint(1e9)
        b = SpherePoint.infinity()
        assert distance(a.value, b.value) < 1e-8
        assert a == b

    def test_json_round_trip(self):
        for pt in (SpherePoint(1 - 2j), SpherePoint.infinity()):
            again = SpherePoint.from_json(pt.to_json())
            assert again == pt

    def test_local_coord_across_charts(self):
        assert local_coord(0j, None) is None  # 1/0 has no coordinate
        assert local_coord(None, 0.5) is None
        assert local_coord(None, None) == 0
        assert local_coord(4.0, None) == 0.25
        assert local_coord(3.0, 1.0) == 2.0
        assert local_coord(7.0, 5.0) == 2.0  # z - z0 beyond radius 2 too

    def test_array_rules_round_as_the_scalar_ones(self, rng):
        # the block tracker's detectors must decide exactly as the scalar rules
        z = np.concatenate([
            rng.standard_normal(3000) + 1j * rng.standard_normal(3000),
            10.0 ** rng.uniform(-9, 9, 3000) * np.exp(2j * np.pi * rng.random(3000)),
            [0, -0.0, 2, 2j, -2 + 1e-300j, 1e-320, 5e-8, -5e-8j, 1.5e-7, 2.5e-7,
             complex(-0.0, -0.0), 3 + 4j, 1e300 + 1e300j],
        ])
        raw = [complex(v) for v in z] + [None]  # raw values, as RationalMap.step gives
        zs = raw_array(raw)
        keys = snap_keys(zs)
        chart_bit, re, im = keys >> 62, keys >> 31 & (2**31 - 1), keys & (2**31 - 1)
        for k, v in enumerate(raw):
            chart, c = chart_coords(v)
            assert (chart_bit[k], re[k] - 2**30, im[k] - 2**30) == (
                int(chart == "w"), round(c.real / SNAP_TOL), round(c.imag / SNAP_TOL))
        for b in (0j, 0.3 - 1.1j, 40.0, None):
            d, u = distance_matrix(zs, raw_array([b]))[:, 0], local_coords(zs, b)
            m = moduli(u)
            for k, v in enumerate(raw):
                assert d[k] == distance(v, b)
                want = local_coord(v, b)
                assert np.isnan(m[k]) if want is None else m[k] == abs(want)

    def test_raw_array_layout(self):
        # numpy reads None as NaN: z is NaN and w is 0 at ∞, and w is NaN at 0
        raw = [None, 0j, complex(-0.0, -0.0), 3 + 4j, 1e300 + 1e300j]
        z, w = raw_array(raw)
        assert np.isnan(z[0]) and w[0] == 0
        assert z[1:].tolist() == raw[1:]
        assert np.isnan(w[1]) and np.isnan(w[2])
        assert w[3:].tolist() == [1.0 / v for v in raw[3:]]

    @pytest.mark.parametrize("zi,zo", [(3.0, 0.5), (0.5, None), (None, 5.0), (None, None)])
    def test_local_fraction_is_f_in_local_coordinates(self, zi, zo):
        f = parse_map("(z^3 + (0.3+0.2i)*z - 1)/(z^2 + 0.7i)")
        a, b = f.local_fraction(zi, zo)
        for u in (0.05, -0.02 + 0.03j):
            z = zi + u if zi is not None else 1.0 / u
            want = local_coord(f.step(z), zo)
            assert abs(a(u) / b(u) - want) <= 1e-12 * max(1.0, abs(want))


    @pytest.mark.parametrize("z0", [0.4 - 0.2j, None])
    def test_local_pair_pulls_back_a_fraction(self, z0):
        num, den = Polynomial([1, 0, 2j]), Polynomial([0.5, 1])
        a, b = local_pair(num, den, z0)
        for u in (0.05, -0.02 + 0.03j):
            z = z0 + u if z0 is not None else 1.0 / u
            want = num(z) / den(z)
            assert abs(a(u) / b(u) - want) <= 1e-12 * max(1.0, abs(want))

    def test_overflowing_wronskian_raises_without_warnings(self):
        # 2 * 1e308 overflows in the derivative; the check in Polynomial raises
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                RationalMap([0, 0, 1e308], [1])


# expression -> its exact (num, den), coefficients (re, im) ascending
EXACT_PARSES = {
    # (z + 1/10)^3 over (2z - 1)^2, each coefficient a binomial term
    "(z+0.1)^3/(2z-1)^2": ([(F(1, 1000), 0), (F(3, 100), 0), (F(3, 10), 0), (1, 0)],
                           [(1, 0), (-4, 0), (4, 0)]),
    "-(1+2i)z^2/(z-0.3i)": ([(0, 0), (0, 0), (-1, -2)], [(0, F(-3, 10)), (1, 0)]),
    "1/(1/z)": ([(0, 0), (1, 0)], [(1, 0)]),
    "3(z+1)^2 - z(z-1)": ([(3, 0), (7, 0), (2, 0)], [(1, 0)]),
    # a parameter is the exact value of its double, not of its decimal
    "c z": ([(0, 0), (F(0.1), 0)], [(1, 0)]),
}


class TestParseAndEvaluate:
    def test_parse_degree(self):
        assert parse_map("z^2 + 1/4").degree == 2
        assert parse_map("(z^2+1)^2 / (4*z^3 - 4*z)").degree == 4
        assert parse_map("z / (1 + z)").degree == 1

    def test_params(self):
        f = parse_map("z^2 + c", {"c": 0.25})
        assert abs(f.evaluate(0.5).value - 0.5) < 1e-15

    def test_constant_rejected(self):
        with pytest.raises(MapError):
            parse_map("3 + 0*z")

    def test_pole_goes_to_infinity(self):
        f = parse_map("1 / z")
        assert f.evaluate(0.0).is_infinity
        assert abs(f.evaluate(SpherePoint.infinity()).value) < 1e-15

    def test_evaluate_matches_formula(self):
        f = parse_map("(z^2 - 1)/(z^2 + 1)")
        for z in (0.3, 1.7 - 0.4j, 5.0j):
            direct = (z**2 - 1) / (z**2 + 1)
            assert abs(f.evaluate(z).value - direct) < 1e-12

    @pytest.mark.parametrize("text,num", [
        ("z^2 + 1e-3", [1e-3, 0, 1]), ("1e200", [1e200]), ("2.5E+1i", [25j])])
    def test_exponent_literals(self, text, num):
        got, den = ExprParser(text, None).parse()
        assert rounded(got) == num and rounded(den) == [1]

    @pytest.mark.parametrize("text,num", [
        ("2z", [0, 2]), ("3(z+1)", [3, 3]), ("z(z-1)", [0, -1, 1]),
        ("2z^2 + 1", [1, 0, 2]), ("c z", [0, 0.5 - 1j]), ("2i z", [0, 2j])])
    def test_implicit_multiplication(self, text, num):
        got, den = ExprParser(text, {"c": 0.5 - 1j}).parse()
        assert rounded(got) == num and rounded(den) == [1]

    def test_number_after_factor_is_not_a_product(self):
        # implicit '*' comes only before a name or '('
        with pytest.raises(ParseError, match="unexpected '2'"):
            ExprParser("z 2", None).parse()

    def test_power_exponent_is_digits_only(self):
        with pytest.raises(ParseError, match="nonnegative integer"):
            parse_map("z^1e2")

    @pytest.mark.parametrize("text", list(EXACT_PARSES))
    def test_parse_is_exact(self, text):
        num, den = EXACT_PARSES[text]
        got = ExprParser(text, {"c": 0.1}).parse()
        assert got == ([tuple(map(F, c)) for c in num], [tuple(map(F, c)) for c in den])

    def test_power_is_rounded_once(self):
        # (3z/10 - 17i/10)^7 by the binomial theorem: each coefficient is
        # the nearest double of its exact value (a product of doubles,
        # rounded at every step, misses some of them)
        num, _ = ExprParser("(0.3z - 1.7i)^7", None).parse()
        a, b = (F(3, 10), F(0)), (F(0), F(-17, 10))
        want = []
        for k in range(8):
            re, im = F(math.comb(7, k)), F(0)
            for x in [a] * k + [b] * (7 - k):
                re, im = re * x[0] - im * x[1], re * x[1] + im * x[0]
            want.append((re, im))
        assert num == want
        assert rounded(num) == [complex(float(re), float(im)) for re, im in want]
        floats = Polynomial([1.0])
        for _ in range(7):
            floats = floats * Polynomial([-1.7j, 0.3])
        assert floats.coeffs.tolist() != rounded(num)

    def test_underflowing_literal_is_its_double(self):
        # 1e-99999999 is 0.0 as a double; its power of ten is never built
        assert ExprParser("z + 1e-99999999", None).parse()[0] == [(0, 0), (1, 0)]

    def test_long_literal_is_exact(self):
        # more digits than int(str) converts: 1 + 10^-5000 rounds to 1
        (c,) = ExprParser("1." + "0" * 4999 + "1", None).parse()[0]
        assert c == (1 + F(1, 10**5000), 0) and rounded([c]) == [1.0]

    @given(z=finite_complex(6.0))
    def test_step_matches_polynomial_evaluation(self, z):
        # reference: the fraction in the chart of z (reversed beyond radius 2)
        # evaluated by Polynomial (numpy Horner), which rounds differently
        # from the Python complex Horner of step
        f = parse_map("(z^3 + (0.3+0.2i)*z - 1)/(z^2 + 0.7i)")
        chart, t = chart_coords(SpherePoint(z).value)
        a, b = (f.num, f.den) if chart == "z" else (f._rnum, f._rden)
        ref = a(t) / b(t)
        val = f.step(z)
        assert val is not None
        assert abs(val - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_step_raw_infinity_and_poles(self):
        f = parse_map("1/(z^2-1)")
        assert f.step(1.0 + 0j) is None
        assert f.step(None) == 0
        assert f.step(0j) == -1

    def test_reduction_of_common_factor(self):
        # (z^2 - 1)/(z - 1) reduces to z + 1 (degree 1)
        f = RationalMap(Polynomial([-1, 0, 1]), Polynomial([-1, 1]))
        assert f.degree == 1
        assert abs(f.evaluate(1.0).value - 2.0) < 1e-9


def oracle_step(horner, z):
    """One iterate as ``RationalMap.step`` computed it before the orbit
    kernel (a Horner loop per chart): the kernel's oracle."""
    if z is None:
        chart, t = "w", 0j
    elif abs(z) <= CHART_RADIUS:
        chart, t = "z", z
    else:
        chart, t = "w", 1.0 / z
    a, b = horner[chart]
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


def oracle_horner(num, den, rnum, rden):
    """The oracle's Horner tuples (highest degree first) of both charts."""
    h = [tuple(complex(c) for c in p.coeffs[::-1]) for p in (num, den, rnum, rden)]
    return {"z": (h[0], h[1]), "w": (h[2], h[3])}


def oracle_orbit(horner, z, n):
    """(the iterates before any MapError, the MapError or None)."""
    out = []
    try:
        for _ in range(n):
            z = oracle_step(horner, z)
            out.append(z)
    except MapError as exc:
        return out, exc
    return out, None


def bits(zs):
    """Raw values as bytes, so that signed zeros count."""
    return [z if z is None or isinstance(z, str) else struct.pack("<dd", z.real, z.imag)
            for z in zs]


GOLDEN_LAM = cmath.exp(2j * math.pi * (math.sqrt(5) - 1) / 2)
BLASCHKE_LAM = complex(-0.7493998964975742, -0.6621176595813051)
# name -> (map, its exact finite poles and the starts where its rules show)
KERNEL_MAPS = {
    "siegel": (parse_map("z^2 + c", {"c": GOLDEN_LAM / 2 - GOLDEN_LAM**2 / 4}), []),
    "lattes": (parse_map("(z^2+1)^2 / (4*z^3 - 4*z)"), [0j, 1 + 0j, -1 + 0j]),
    "blaschke-herman": (parse_map("lam * z^2 * (z - 4) / (1 - 4*z)", {"lam": BLASCHKE_LAM}),
                        [0.25 + 0j]),
    "poles": (parse_map("1/(z^2 - 1)"), [1 + 0j, -1 + 0j]),  # pole -> ∞ -> 0 -> -1 -> ∞
    "mobius": (parse_map("z/(1 + z)"), [-1 + 0j]),
    # z^5 + (0.5 - 0i) over z^2 + 0.3: the constant term's imaginary part is -0.0
    "signed-zero": (RationalMap([complex(0.5, -0.0), 0, 0, 0, 0, 1], [0.3, 0, 1]), []),
    # i z^2 with every zero part -0.0: f(-0 - 0i) is +0j only because Horner
    # starts from 0j * t + c, not from the leading coefficient c
    "signed-zero-lead": (RationalMap([complex(-0.0, -0.0), complex(-0.0, -0.0),
                                      complex(-0.0, 1.0)], [complex(1.0, -0.0)]), []),
    # the rule cases of the pattern kernel (their patterns: RULE_PATTERNS)
    # i z^2 divided by -1: Horner (-0 + 1i, -0 - 0i, -0 - 0i) over 1
    "lead-neg-zero-part": (RationalMap([0, 0, -1j], [-1]), []),
    # i z^2 as written: Horner (1i, 0j, 0j) over 1
    "trailing-pos-zero": (RationalMap([0, 0, 1j], [1]), []),
    # 5e307 z^2 overflows at |z| = 2, in a chart with a constant denominator
    "constant-den-overflow": (RationalMap([0, 0, 5e307], [1]), []),
    # 1e300 / (z - 0.1) overflows near its pole, in a rational chart
    "quotient-overflow": (RationalMap([1e300], [-0.1, 1]), [0.1 + 0j, 0.1 + 1e-10j]),
    # 1/z^2: the constant denominator is in the w chart
    "w-constant-den": (parse_map("1/z^2"), [0j]),
}
KERNEL_STARTS = [None, 0j, complex(-0.0, -0.0), 2 + 0j, 2j, math.sqrt(2) * (1 + 1j),
                 complex(-1.0, -0.0), complex(-0.0, 1.0), complex(-0.0, -1.5),
                 complex(0.5, -0.0), -1 + 0j,
                 complex("nan"), complex("inf")]  # not raw values, but each steps to ∞
# name -> the pattern its kernel compiles under: a code per Horner
# coefficient of (num, den, rnum, rden), and whether R4 applies
RULE_PATTERNS = {
    "siegel": ("caa", "c", "caa", "caa", True),  # R1, R3 and R4
    "blaschke-herman": ("camm", "aa", "ca", "aaaa", False),  # R2 twice
    "lead-neg-zero-part": ("amm", "c", "a", "caa", True),  # no R1 for a -0.0 part
    "trailing-pos-zero": ("caa", "c", "c", "caa", True),  # no R2 for a +0j
    "constant-den-overflow": ("caa", "c", "c", "caa", False),  # R4's bound fails
    "quotient-overflow": ("c", "ca", "ca", "ca", False),
    "w-constant-den": ("c", "caa", "caa", "c", False),  # R3 in the w chart only
}
Z_TINY = complex(3.9e-309, -3.9e-309)  # 1/z + 1/2 maps it to a z whose |z| overflows


def kernel_case(name):
    f, poles = KERNEL_MAPS[name]
    return f, oracle_horner(f.num, f.den, f._rnum, f._rden), poles


def assert_kernel_is_the_oracle(iterate, horner, z, n):
    want, error = oracle_orbit(horner, z, n)
    got = ["before"]  # the kernel appends to what the list holds
    if error is None:
        iterate(z, n, got)
    else:
        with pytest.raises(MapError):
            iterate(z, n, got)
    assert bits(got) == bits(["before"] + want)


class TestOrbitKernel:
    @pytest.mark.parametrize("n", [0, 1, 1000])
    @pytest.mark.parametrize("name", list(KERNEL_MAPS))
    def test_iterates_are_the_scalar_steps_bit_for_bit(self, name, n):
        f, horner, poles = kernel_case(name)
        for z in KERNEL_STARTS + poles:
            assert_kernel_is_the_oracle(f.iterate, horner, z, n)
            assert bits([f.step(z)]) == bits([oracle_step(horner, z)])

    @given(z=finite_complex(6.0), name=st.sampled_from(list(KERNEL_MAPS)),
           n=st.sampled_from([0, 1, 1000]))
    def test_iterates_from_any_point(self, z, name, n):
        f, horner, _ = kernel_case(name)
        assert_kernel_is_the_oracle(f.iterate, horner, z, n)

    def test_poles_then_infinity_then_zero(self):
        f, _, _ = kernel_case("poles")
        out = []
        f.iterate(1 + 0j, 3, out)
        assert out == [None, 0j, -1 + 0j]

    def test_signed_zero_coefficient_is_kept(self):
        # f(-0 - 0i) = (0.5 - 0i)/0.3: the imaginary part keeps the sign of the
        # constant term's, which a coefficient written out by repr would lose
        f, horner, _ = kernel_case("signed-zero")
        assert math.copysign(1.0, horner["z"][0][-1].imag) == -1.0
        plus = RationalMap([0.5, 0, 0, 0, 0, 1], [0.3, 0, 1])
        for g, sign in ((f, -1.0), (plus, 1.0)):
            image = g.step(complex(-0.0, -0.0))
            assert image == 0.5 / 0.3 and math.copysign(1.0, image.imag) == sign

    def test_map_error_leaves_the_earlier_iterates(self):
        # the unreduced (z - 1)/(z^2 - 1): -1 -> ∞ -> 0 -> 1, and 0/0 at 1
        pair = (Polynomial([-1, 1]), Polynomial([-1, 0, 1]),
                Polynomial([0, 1, -1]), Polynomial([1, 0, -1]))
        kernel, horner = _orbit_kernel(*pair), oracle_horner(*pair)
        out = ["before"]
        with pytest.raises(MapError):
            kernel(-1 + 0j, 10, out)
        assert out == ["before", None, 0j, 1]
        for z in (-1 + 0j, None, 0j, 1 + 0j):
            assert_kernel_is_the_oracle(kernel, horner, z, 10)

    @pytest.mark.parametrize("name", list(RULE_PATTERNS))
    def test_each_rule_case_compiles_its_pattern(self, name, monkeypatch):
        monkeypatch.setattr(ratmap, "_KERNELS", {})
        f, _, _ = kernel_case(name)
        _orbit_kernel(f.num, f.den, f._rnum, f._rden)
        assert list(ratmap._KERNELS) == [RULE_PATTERNS[name]]

    def test_one_compiled_kernel_per_shape(self, monkeypatch):
        # the shape is the coefficient pattern: every z^2 + c (c != 0) shares one
        monkeypatch.setattr(ratmap, "_KERNELS", {})
        for c in (0.25, -1, GOLDEN_LAM / 2 - GOLDEN_LAM**2 / 4, 0.3 - 0.02j):
            parse_map("z^2 + c", {"c": c}).step(0j)
        assert list(ratmap._KERNELS) == [RULE_PATTERNS["siegel"]]
        parse_map("lam * z^2 * (z - 4) / (1 - 4*z)", {"lam": BLASCHKE_LAM}).step(0j)
        assert list(ratmap._KERNELS)[1:] == [RULE_PATTERNS["blaschke-herman"]]

    @pytest.mark.parametrize("argv", [
        ["parse", "--map", "z^2 - 1"],
        ["cycles", "--map", "z^2 + c", "--param", "c=0.25+0i", "--max-period", "2"],
        ["parabolic", "--map", "z + z^3", "--max-period", "1"],
        ["tails", "--map", "z^2 - 1", "--max-period", "2", "--budget", "2000"],
        ["count", "--map", "z + z^2", "--max-period", "2", "--table"],
    ] + [["corpus-run", "--only", name] for name in ("petal-two", "lattes-deg4",
                                                     "blaschke-herman")])
    def test_a_cli_command_compiles_at_most_two_kernels(self, argv, monkeypatch, capsys):
        monkeypatch.setattr(ratmap, "_KERNELS", {})
        assert main(argv) == 0
        capsys.readouterr()
        assert len(ratmap._KERNELS) <= 2


class TestOverflowingModulus:
    """A finite value whose modulus overflows a double lies in the w chart."""

    f = parse_map("1/z + 0.5")
    big = f.step(Z_TINY)

    def test_the_modulus_overflows(self):
        assert self.big == 1 / Z_TINY + 0.5 and cmath.isfinite(self.big)
        with pytest.raises(OverflowError):
            abs(self.big)

    def test_chart_coords(self):
        assert chart_coords(self.big) == ("w", 1.0 / self.big)

    def test_step_and_iterate(self):
        # t = 1/big is ±0, and the w chart gives f(∞) = 0.5
        assert bits([self.f.step(self.big)]) == bits([0.5 + 0j])
        out = []
        self.f.iterate(Z_TINY, 1000, out)
        want, _ = oracle_orbit(oracle_horner(self.f.num, self.f.den, self.f._rnum,
                                             self.f._rden), 0.5 + 0j, 998)
        assert bits(out) == bits([self.big, 0.5 + 0j] + want)

    def test_distance_is_the_array_rule(self):
        zs = raw_array([self.big, Z_TINY])
        for b in (0j, 1.0 + 0j, None, -self.big, -Z_TINY):
            assert distance_matrix(zs, raw_array([b]))[:, 0].tolist() == [distance(self.big, b), distance(Z_TINY, b)]
        assert distance(self.big, 0j) == math.inf  # |big - 0| overflows; 0 has no w
        assert distance(Z_TINY, None) == math.inf  # |1/Z_TINY - 0| overflows
        assert distance(self.big, 1.0) == 1.0  # |w - 1| with w = ±0

    def test_array_rules_are_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            zs = raw_array([self.big, Z_TINY])
            assert moduli(zs[0]).tolist() == [math.inf, abs(Z_TINY)]
            assert (snap_keys(zs) >> 62).tolist() == [1, 0]
            for b in (None, -self.big, -Z_TINY):
                distance_matrix(zs, raw_array([b]))[:, 0]


class TestHomogeneousIterate:
    @pytest.mark.parametrize("z", [0j, 0.3, -1.2 + 0.7j, 2.5j, 4.0 - 3.0j])
    def test_compose_self_homogeneous_is_f_cubed(self, z):
        # A/B is f^3 up to a common factor of A and B
        f = parse_map("(2*z + 1)/(z^2 + 3)")
        a, b = f.compose_self_homogeneous(3)
        assert max(a.degree, b.degree) <= 8
        out = []
        f.iterate(z, 3, out)
        assert abs(a(z) / b(z) - out[-1]) <= 1e-12 * max(1.0, abs(out[-1]))

    def test_iterate_jets_through_infinity(self):
        # 1/(z - 1) sends 1 to infinity and infinity to 0: (1 + h : 1) -> (1 : h)
        f = parse_map("1/(z - 1)")
        x, y = f.iterate_jets(np.array([1, 1, 0], dtype=complex),
                              np.array([1, 0, 0], dtype=complex), 1)
        assert x.tolist() == [1, 0, 0] and y.tolist() == [0, 1, 0]

    def test_local_jets_shapes_and_charts(self):
        # finite points put (z0 + u : 1) in; ∞ puts (1 : u) in, whose image
        # (u : 1 - u) comes back swapped, so x/y is 1/f there
        f = parse_map("1/(z - 1)")
        z0 = np.array([0.5, 2.0, -3.0j])
        x, y = f.local_jets(z0, 4, 1)
        assert x.shape == y.shape == (4, 3)
        assert np.allclose(x[0] / y[0], 1 / (z0 - 1), rtol=0, atol=1e-15)
        x, y = f.local_jets(None, 4, 1)
        assert x.tolist() == [1, -1, 0, 0] and y.tolist() == [0, 1, 0, 0]

    @pytest.mark.parametrize("expr,z0,n,lam", [
        ("z^2 - 1", (1 + 5**0.5) / 2, 1, 1 + 5**0.5),  # 2 z at a fixed point
        ("3*z + 1/z", None, 1, 1 / 3),  # at ∞, in w = 1/z
        ("z^2 + 1", None, 3, 0),  # superattracting ∞ of a polynomial
        ("z + 1/z", 1j / 2**0.5, 2, 9),  # the 2-cycle {±i/√2}, through f^2
    ])
    def test_multiplier_from_local_jets(self, expr, z0, n, lam):
        assert abs(parse_map(expr).multiplier(z0, n) - lam) <= 1e-12 * max(1, abs(lam))


class TestCriticalDivisor:
    def test_quadratic(self):
        ram = parse_map("z^2 - 1").critical_divisor()
        pts = {p.to_json() if p.is_infinity else tuple(p.to_json()) for p, _ in ram.entries}
        assert ram.total == 2
        assert ("inf" in pts) and ((0.0, 0.0) in pts)

    def test_power_map_multiplicity(self):
        ram = parse_map("z^4").critical_divisor()
        assert ram.total == 6
        assert ram.multiplicity_at(SpherePoint(0.0)) == 3
        assert ram.multiplicity_at(SpherePoint.infinity()) == 3

    @given(
        num=st.lists(coeff_or_zero(), min_size=3, max_size=5),
        den=st.lists(coeff_or_zero(), min_size=1, max_size=4),
    )
    def test_total_is_2d_minus_2(self, num, den):
        try:
            f = RationalMap(num, den)
        except (MapError, ValueError):
            assume(False)
        assume(f.degree >= 1)
        try:
            ram = f.critical_divisor()
        except MapError:
            assume(False)
        assert ram.total == 2 * f.degree - 2


class TestForwardThickening:
    @given(c=finite_complex(1.0), n=st.integers(0, 3))
    def test_ram_n_monotone(self, c, n):
        f = parse_map("z^2 + c", {"c": c})
        cur = f.ram_n(n)
        nxt = f.ram_n(n + 1)
        # multiplicities never decrease, support never shrinks
        for pt, m in cur.entries:
            assert nxt.multiplicity_at(pt) >= m
        assert nxt.total >= cur.total

    def test_level_zero_thickens(self):
        f = parse_map("z^2 - 1")
        ram0 = f.ram_n(0)
        ram = f.critical_divisor()
        for pt, m in ram.entries:
            assert ram0.multiplicity_at(pt) == m + 1

    def test_pcf_orbit_stabilizes(self):
        # postcritically finite: support stops growing
        f = parse_map("(z^2+1)^2 / (4*z^3 - 4*z)")
        sizes = [len(f.ram_n(n)) for n in range(6)]
        assert sizes[-1] == sizes[-2]
