"""Parabolic invariants: petal counts, the iterative residue, Fatou coordinates."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from ratdyn.cycles import CLASS_PARABOLIC_REP, analyze_cycles
from ratdyn.kernel import Polynomial
from ratdyn.parabolic import (
    NORMAL_RADIUS,
    ParabolicError,
    fatou_coordinate,
    local_return_series,
    rotation_order,
    tangency_and_residu,
)
from ratdyn.ratmap import RationalMap, SpherePoint, parse_map

from conftest import finite_complex


class TestRotationOrder:
    def test_exact_roots_of_unity(self):
        assert rotation_order(1.0) == 1
        assert rotation_order(-1.0) == 2
        assert rotation_order(np.exp(2j * np.pi / 5)) == 5

    def test_irrational_is_none(self):
        theta = (np.sqrt(5) - 1) / 2
        assert rotation_order(np.exp(2j * np.pi * theta)) is None

    def test_horizon(self):
        lam = np.exp(2j * np.pi / 70)
        assert rotation_order(lam, K=64) is None
        assert rotation_order(lam, K=70) == 70


class TestLocalReturnSeries:
    def test_simple_parabolic(self):
        g = local_return_series(parse_map("z + z^2"), 0.0, 1, 6)
        assert np.allclose(g.c[:3], [0, 1, 1])

    def test_cycle_through_infinity(self):
        # z -> 1/z has the 2-cycle {0, inf}; the return series at 0 is z
        g = local_return_series(parse_map("1/z"), 0.0, 2, 5)
        assert np.allclose(g.c[:2], [0, 1], atol=1e-12)

    def test_point_not_fixed_raises(self):
        with pytest.raises(ParabolicError, match="does not fix"):
            local_return_series(parse_map("z^2 - 1"), 0.0, 1, 5)


class TestFrozenResidues:
    """Iterative residues of reference maps, frozen from the closed forms
    and checked against the fixed-point index of the same series."""

    CASES = [
        ("z + z^2", 0.0, 1, 1, 1, 1.0 + 0j),
        ("z + z^2 + z^3", 0.0, 1, 1, 1, 0.0 + 0j),
        ("z + z^2 + (1+1i)*z^3", 0.0, 1, 1, 1, -1j),
        ("z + z^3", 0.0, 1, 1, 2, 1.5 + 0j),
        ("z^2 + 1/4", 0.5, 1, 1, 1, 1.0 + 0j),
        ("z^2 - 3/4", -0.5, 1, 2, 2, 1.375 + 0j),
        ("z / (1 + z)", 0.0, 1, 1, 1, 0.0 + 0j),
        # expanded at u = z - z0 however far z0 lies, and at u = 1/z at infinity
        *[(f"z + (z - {z0})^2", z0, 1, 1, 1, 1.0 + 0j) for z0 in (1.9, 2.1, 2.5, 2.8, 3.0, 5.0, 100.0)],
        ("z + 1 + 1/z", SpherePoint.infinity(), 1, 1, 1, 1.0 + 0j),
        # z + z^2 + a z^3 has nu = 1 - a; large |nu| once made the field solve fail
        *[(f"z + z^2 + ({a})*z^3", 0.0, 1, 1, 1, nu)
          for a, nu in (("-10", 11 + 0j), ("10i", 1 - 10j), ("-2-8i", 3 + 8j), ("-50", 51 + 0j))],
    ]

    @pytest.mark.parametrize("expr,z0,p,r,e_loc,nu", CASES)
    def test_nu(self, expr, z0, p, r, e_loc, nu):
        inv = tangency_and_residu(parse_map(expr), z0, p, r)
        assert inv.r == r
        assert inv.e_loc == e_loc
        assert abs(inv.nu - nu) < 1e-9

    def test_index_cross_check(self):
        # nu = (m+1)/2 - index must hold between the field and index routines
        for expr, z0, p, r, e_loc, nu in self.CASES:
            inv = tangency_and_residu(parse_map(expr), z0, p, r)
            assert abs(inv.nu - ((inv.e_loc + 1) / 2 - inv.index)) < 1e-8


def bulb_root(k, q):
    """z^2 + c at the root of its k/q bulb, and its parabolic fixed point."""
    lam = np.exp(2j * np.pi * k / q)
    return parse_map("z^2 + c", {"c": lam / 2 - lam**2 / 4}), lam / 2


class TestGrowingReturnSeries:
    """The coefficients of f^q at a bulb root grow with q; the tangency
    coefficient must not read as zero beside the larger ones after it."""

    @pytest.mark.parametrize("k,q", [(k, q) for q in range(2, 13) for k in range(1, q)
                                     if np.gcd(k, q) == 1])
    def test_bulb_root_petal_count(self, k, q):
        # the fixed point of multiplier e^{2 pi i k/q} has q petals under f^q
        f, z0 = bulb_root(k, q)
        assert tangency_and_residu(f, z0, 1, q).e_loc == q

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_nu_matches_contour_integral(self, k):
        # index = (1/2 pi i) of the contour integral of dz/(z - f^7(z)) around
        # the fixed point, by the trapezoid rule on plain z^2 + c
        f, z0 = bulb_root(k, 7)
        c = f.num.coeffs[0]
        z = z0 + 0.1 * np.exp(2j * np.pi * np.arange(1024) / 1024)
        w = z
        for _ in range(7):
            w = w * w + c
        index = np.mean((z - z0) / (z - w))
        inv = tangency_and_residu(f, z0, 1, 7)
        assert abs(inv.nu - (4 - index)) < 1e-6

    def test_closure_is_the_same_point_rule(self):
        # f^7 moves a point 0.1 off the 1/7 root by 6.8e-6, beyond SNAP_TOL;
        # beside the coefficients of f^7 (up to 3e6) that once read as closed
        f, z0 = bulb_root(1, 7)
        with pytest.raises(ParabolicError, match="does not fix"):
            local_return_series(f, z0 + 0.1, 7, 12)

    @pytest.mark.parametrize("k,nu", [(1, 5.78227492195929 + 0.584578455242251j),
                                      (5, 5.55815272799615 + 0.00432897105101185j)])
    def test_nu_at_twelve_petals(self, k, nu):
        # the tangency sits at order 13, past the first truncation; nu from an
        # 80-digit contour integral of dz/(z - f^12(z)) at radii 0.03 and 0.05
        f, z0 = bulb_root(k, 12)
        assert abs(tangency_and_residu(f, z0, 1, 12).nu - nu) < 1e-7

    def test_tangency_below_rounding_raises(self):
        # at 64 petals the tangency coefficient is about (1e-6)^64: no
        # truncation shows it, and the doubling stops at 64 (2d - 2) + 2
        lam = np.exp(2j * np.pi / 64)
        f = RationalMap(Polynomial([0, lam, 1e-6]), Polynomial([1]))
        with pytest.raises(ParabolicError, match="truncation budget"):
            tangency_and_residu(f, 0.0, 1, 64)

    def test_parabolic_cycle_through_infinity(self):
        # z^2 - 5/4 conjugated by 1/(z - a), which sends the point a of its
        # parabolic 2-cycle to infinity
        a = (np.sqrt(2) - 1) / 2
        cycles = analyze_cycles(parse_map("1/((a + 1/z)^2 - 5/4 - a)", {"a": a}), 2)
        [two] = [c for c in cycles if c.period == 2]
        assert two.contains(-1 / np.sqrt(2)) and two.contains(None)
        assert two.cls == CLASS_PARABOLIC_REP
        nu = tangency_and_residu(parse_map("z^2 - 5/4"), a, 2, 2).nu
        assert abs(nu - 1.31) < 1e-9
        assert abs(two.parabolic.nu - nu) < 1e-9


class TestResidueProperties:
    @given(a=finite_complex(1.5, min_mag=0.3), b=finite_complex(1.5))
    def test_analytic_oracle_one_petal(self, a, b):
        # for f = z + a z^2 + b z^3 the index is b/a^2, so nu = 1 - b/a^2
        f = RationalMap(Polynomial([0, 1, a, b]), Polynomial([1]))
        inv = tangency_and_residu(f, 0.0, 1, 1)
        assert inv.e_loc == 1
        assert abs(inv.index - b / a**2) < 1e-7 * max(1, abs(b / a**2))
        assert abs(inv.nu - (1 - b / a**2)) < 1e-7 * max(1, abs(b / a**2))

    @given(
        a=finite_complex(1.0, min_mag=0.3),
        b=finite_complex(1.0),
        c=finite_complex(1.2, min_mag=0.4),
        d=finite_complex(0.4),
    )
    def test_affine_conjugation_invariance(self, a, b, c, d):
        f = RationalMap(Polynomial([0, 1, a, b]), Polynomial([1]))
        nu0 = tangency_and_residu(f, 0.0, 1, 1).nu
        # g = h o f o h^{-1} for h(z) = c z + d: parabolic point moves to d
        inner = Polynomial([-d / c, 1 / c])
        g_poly = c * f.num.compose(inner) + Polynomial([d])
        g = RationalMap(g_poly, Polynomial([1]))
        try:
            nu1 = tangency_and_residu(g, complex(d), 1, 1).nu
        except ParabolicError:
            assume(False)
        assert abs(nu1 - nu0) < 1e-6 * max(1.0, abs(nu0))

    @given(
        a=finite_complex(1.0, min_mag=0.3),
        b=finite_complex(1.0),
        extra=st.integers(2, 8),
    )
    def test_truncation_stabilization(self, a, b, extra):
        f = RationalMap(Polynomial([0, 1, a, b]), Polynomial([1]))
        base = tangency_and_residu(f, 0.0, 1, 1, N=12)
        deeper = tangency_and_residu(f, 0.0, 1, 1, N=12 + extra)
        assert abs(base.nu - deeper.nu) < 1e-7 * max(1.0, abs(base.nu))


class TestFatouCoordinate:
    @pytest.mark.parametrize("expr,e", [("z + z^2", 1), ("z + z^3", 2)])
    def test_abel_equation_on_petal_grid(self, expr, e):
        f = parse_map(expr)
        inv = tangency_and_residu(f, 0.0, 1, 1)
        worst = 0.0
        for petal in range(e):
            theta = inv.attracting_angles[petal]
            for rad in np.linspace(0.05, 0.18, 6):
                for jitter in (-0.25, 0.0, 0.25):
                    z = rad * np.exp(1j * (theta + jitter * np.pi / (2 * e)))
                    s_z = fatou_coordinate(f, inv, z, petal_index=petal)
                    fz = z
                    for _ in range(inv.p * inv.r):
                        fz = f.evaluate(fz).value
                    s_fz = fatou_coordinate(f, inv, fz, petal_index=petal)
                    worst = max(worst, abs(s_fz - s_z - 1))
        assert worst < 1e-6

    @given(t=st.floats(0.04, 0.2), jitter=st.floats(-0.3, 0.3))
    def test_abel_equation_random_points(self, t, jitter):
        f = parse_map("z + z^2")
        inv = tangency_and_residu(f, 0.0, 1, 1)
        z = t * np.exp(1j * (np.pi + jitter))
        try:
            s_z = fatou_coordinate(f, inv, z)
            s_fz = fatou_coordinate(f, inv, f.evaluate(z).value)
        except ParabolicError:
            assume(False)
        assert abs(s_fz - s_z - 1) < 1e-6

    def test_wrong_petal_rejected(self):
        f = parse_map("z + z^2")
        inv = tangency_and_residu(f, 0.0, 1, 1)
        with pytest.raises(ParabolicError):
            fatou_coordinate(f, inv, 0.1)  # repelling direction

    def test_start_beyond_the_normal_radius_refused(self):
        # -0.5 lies on the attracting axis of z + z^2 and its orbit stays
        # near 0, but |u| = 0.5 is beyond NORMAL_RADIUS, where x is not trusted
        f = parse_map("z + z^2")
        inv = tangency_and_residu(f, 0.0, 1, 1)
        assert inv.sectors(inv.normal_series(np.array([-0.5])))[0] == 0
        assert NORMAL_RADIUS < 0.5
        with pytest.raises(ParabolicError, match="escaped the parabolic chart"):
            fatou_coordinate(f, inv, -0.5)

    def test_origin_against_point_in_w_chart(self):
        # z = 0 has no local coordinate u = 1/z about the parabolic point
        # at infinity: a typed error, not a division by zero
        f = parse_map("z + 1 + 1/z")
        inv = tangency_and_residu(f, SpherePoint.infinity(), 1, 1)
        with pytest.raises(ParabolicError):
            fatou_coordinate(f, inv, 0.0)
