"""Polynomial arithmetic, root finding, and rank/nullspace extraction."""

import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratdyn.kernel import (
    Polynomial,
    RootFindingError,
    ZeroPolynomialError,
    horner_with_derivative,
    nullspace,
    poly_roots,
    rank_nullity,
)

from conftest import finite_complex


class TestPolynomial:
    def test_trim_and_degree(self):
        p = Polynomial([1, 2, 0, 0])
        assert p.degree == 1
        assert np.allclose(p.coeffs, [1, 2])

    def test_zero_poly(self):
        z = Polynomial([0, 0, 0])
        assert z.is_zero and z.degree == 0

    def test_arithmetic(self):
        p = Polynomial([1, 1])   # 1 + z
        q = Polynomial([0, 0, 1])  # z^2
        assert (p * q).degree == 3
        assert np.allclose((p + q).coeffs, [1, 1, 1])
        assert np.allclose((p - p).coeffs, [0])
        assert np.allclose((p**3).coeffs, [1, 3, 3, 1])

    def test_derivative(self):
        p = Polynomial([5, 0, 3, 2])  # 5 + 3z^2 + 2z^3
        assert np.allclose(p.derivative().coeffs, [0, 6, 6])

    def test_shifted_is_taylor_shift(self):
        p = Polynomial([1, -2, 0, 4])
        q = p.shifted(0.7 + 0.3j)
        for t in (0.1, -0.5 + 0.2j, 1.3j):
            assert abs(q(t) - p(0.7 + 0.3j + t)) < 1e-12

    def test_compose(self):
        p = Polynomial([0, 0, 1])  # z^2
        q = Polynomial([1, 1])     # 1 + z
        r = p.compose(q)           # (1+z)^2
        assert np.allclose(r.coeffs, [1, 2, 1])

    def test_call_vectorized(self):
        p = Polynomial([1, 0, 1])
        zs = np.array([0, 1j, 2.0])
        assert np.allclose(p(zs), [1, 0, 5])

    def test_fused_value_and_derivative(self):
        p = Polynomial([0.5 - 1j, 2, -3j, 1, 0.25])
        zs = np.array([0, 1j, 2.0, -0.3 + 0.7j, 5 - 4j])
        val, der = horner_with_derivative(p.coeffs, zs)
        assert np.array_equal(val, p(zs))
        dp = p.derivative()(zs)
        assert np.all(np.abs(der - dp) <= 1e-13 * np.maximum(1.0, np.abs(dp)))


class TestRoots:
    def test_roots_of_unity(self):
        p = Polynomial([-1, 0, 0, 0, 0, 1])  # z^5 - 1
        roots = sorted((z for z, m in poly_roots(p)), key=lambda z: np.angle(z))
        expect = sorted(
            np.exp(2j * np.pi * np.arange(5) / 5), key=lambda z: np.angle(z)
        )
        assert all(m == 1 for _, m in poly_roots(p))
        assert np.allclose(roots, expect, atol=1e-9)

    def test_multiple_root_collapse(self):
        # (z - 1)^2 (z + 2)
        p = Polynomial([-1, 1]) * Polynomial([-1, 1]) * Polynomial([2, 1])
        found = {round(z.real, 6): m for z, m in poly_roots(p)}
        assert found == {1.0: 2, -2.0: 1}

    def test_double_root_keeps_close_simple_root(self):
        # (z - 1)^2 (z - 1 - 3e-4): a triple root at 1 + 1e-4 is not certified
        p = Polynomial([-1, 1]) ** 2 * Polynomial([-(1 + 3e-4), 1])
        (z1, m1), (z2, m2) = poly_roots(p)
        assert (m1, m2) == (2, 1)
        assert abs(z1 - 1) < 1e-9 and abs(z2 - (1 + 3e-4)) < 1e-7

    def test_triple_root(self):
        p = Polynomial([-1, 1]) ** 3
        [(z, m)] = poly_roots(p)
        assert m == 3 and abs(z - 1) < 1e-5

    def test_nonfinite_iterates_raise(self):
        # f^6(z) - z of z^2 - 1 in monomials (degree 64): the iteration overflows
        from ratdyn.ratmap import parse_map

        a, b = parse_map("z^2 - 1").compose_self_homogeneous(6)
        with pytest.raises(RootFindingError, match="not finite"):
            poly_roots(a - Polynomial([0, 1]) * b)

    def test_nonfinite_iterates_raise_without_warnings(self):
        from ratdyn.ratmap import parse_map

        a, b = parse_map("z^2 - 1").compose_self_homogeneous(6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RootFindingError, match="not finite"):
                poly_roots(a - Polynomial([0, 1]) * b)

    def test_zero_polynomial_raises(self):
        with pytest.raises(ZeroPolynomialError):
            poly_roots(Polynomial([0]))

    def test_sympy_cross_check(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.symbols("x")
        expr = 3 * x**4 - 2 * x**3 + x - 5
        sym_roots = sympy.nroots(expr, n=20)
        p = Polynomial([-5, 1, 0, -2, 3])
        key = lambda z: (round(z.real, 8), round(z.imag, 8))
        ours = sorted((z for z, _ in poly_roots(p)), key=key)
        theirs = sorted((complex(r) for r in sym_roots), key=key)
        assert np.allclose(ours, theirs, atol=1e-9)

    @given(
        roots=st.lists(finite_complex(1.5), min_size=1, max_size=6),
    )
    def test_random_products_recovered(self, roots):
        # well-separated simple roots are recovered with their product intact
        sep = min(
            [abs(a - b) for i, a in enumerate(roots) for b in roots[i + 1:]],
            default=1.0,
        )
        if sep < 1e-2:
            return
        p = Polynomial([1.0])
        for r in roots:
            p = p * Polynomial([-r, 1])
        found = poly_roots(p)
        assert sum(m for _, m in found) == len(roots)
        for r in roots:
            assert min(abs(z - r) for z, _ in found) < 1e-6


class TestLinearAlgebra:
    def test_rank_of_product(self, rng):
        b = rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))
        c = rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5))
        mat = b @ c
        rank, null, conull = rank_nullity(mat)
        assert (rank, null, conull) == (2, 3, 4)

    def test_nullspace_annihilates(self, rng):
        mat = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
        mat[:, 5] = mat[:, 0] + mat[:, 1]  # force rank deficiency
        ns = nullspace(mat)
        assert ns.shape[1] >= 1
        assert np.max(np.abs(mat @ ns)) < 1e-8
        gram = ns.conj().T @ ns
        assert np.allclose(gram, np.eye(ns.shape[1]), atol=1e-10)


def test_import_loads_no_scipy():
    # numpy's LAPACK SVD serves rank_nullity and nullspace; scipy is slow to import
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, ratdyn; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"
