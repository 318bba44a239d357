"""Kernel/cokernel dimensions of the vector-field equalizer, global and local."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from ratdyn.extjet import JetSpec, global_e1, jet_e1
from ratdyn.ratmap import MapError, RationalMap, parse_map

from conftest import coeff_or_zero, finite_complex


class TestGlobal:
    @pytest.mark.parametrize(
        "expr,d",
        [("z^2", 2), ("z^3", 3), ("z^2 - 1", 2), ("(z^2+1)^2/(4*z^3-4*z)", 4)],
    )
    def test_generic_dims(self, expr, d):
        _, ker, coker = global_e1(parse_map(expr))
        assert (ker, coker) == (0, 2 * d - 2)

    @pytest.mark.parametrize("expr", ["z/(1+z)", "2*z", "(z-1)/(z+1)"])
    def test_mobius_dims(self, expr):
        _, ker, coker = global_e1(parse_map(expr))
        assert (ker, coker) == (1, 1)

    @given(
        num=st.lists(coeff_or_zero(), min_size=4, max_size=5),
        den=st.lists(coeff_or_zero(), min_size=1, max_size=3),
    )
    def test_random_maps_match_2d_minus_2(self, num, den):
        try:
            f = RationalMap(num, den)
        except (MapError, ValueError):
            assume(False)
        assume(f.degree >= 2)
        _, ker, coker = global_e1(f)
        assert (ker, coker) == (0, 2 * f.degree - 2)


class TestParabolicJets:
    @pytest.mark.parametrize(
        "expr,e", [("z + z^2", 1), ("z + z^3", 2), ("z + z^4", 3)]
    )
    def test_tangent_to_identity(self, expr, e):
        # dims are exact once the order passes the resonance window 2e + 1
        f = parse_map(expr)
        spec = JetSpec(site="cycle", point=0.0, period=1, order=2 * e + 2)
        ker, coker, stabilized = jet_e1(f, spec)
        assert (ker, coker) == (1, e + 1)
        assert stabilized

    def test_multiplier_minus_one_first_return(self):
        # lambda = -1 at the fixed point; fold in the rotation via r = 2
        f = parse_map("z^2 - 3/4")
        spec = JetSpec(site="cycle", point=-0.5, period=1, order=6)
        ker, coker, stabilized = jet_e1(f, spec, r=2)
        assert (ker, coker) == (1, 3)  # e = 2 petals of the first return
        assert stabilized

    @pytest.mark.parametrize("z0", [3.0, 5.0])
    def test_translated_point_matches_origin(self, z0):
        # z + (z - z0)^2 at z0 is conjugate to z + z^2 at 0 by a translation
        at_zero = jet_e1(parse_map("z + z^2"), JetSpec(site="cycle", point=0.0, order=6))
        spec = JetSpec(site="cycle", point=z0, period=1, order=6)
        assert jet_e1(parse_map(f"z + (z - {z0})^2"), spec) == at_zero
        assert at_zero[:2] == (1, 2)

    def test_two_jets_truncation(self):
        f = parse_map("z + z^2")
        spec = JetSpec(site="cycle", point=0.0, period=1, order=1)
        ker, coker, _ = jet_e1(f, spec)
        assert coker <= 2  # order-1 jets cannot see past the tangency

    def test_order_sweep_stabilizes(self):
        f = parse_map("z + z^3")
        dims = []
        for order in range(6, 11):
            spec = JetSpec(site="cycle", point=0.0, period=1, order=order)
            ker, coker, _ = jet_e1(f, spec)
            dims.append((ker, coker))
        assert len(set(dims)) == 1


class TestSuperattracting:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_power_map_cokernel(self, n):
        f = parse_map(f"z^{n}")
        dims = []
        for order in range(n + 2, n + 7):
            spec = JetSpec(site="cycle", point=0.0, period=1, order=order)
            ker, coker, _ = jet_e1(f, spec)
            dims.append(coker)
        assert set(dims) == {n - 1}
