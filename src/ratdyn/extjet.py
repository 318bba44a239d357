"""Finite-dimensional realizations of the vector-field equalizer v -> f*v - df v.

Globally, a vector field v d/dz with polynomial v of degree <= 2 is a
global section of the tangent sheaf; pulling back along f = P/Q and
clearing denominators realizes the equalizer as a 3 x (2d+1) matrix whose
kernel/cokernel dimensions match the cohomological count (1,1 in degree
one, 0 and 2d-2 otherwise).

At a cycle, the same operator acts on polynomial jets through the local
first-return series g:  A(v) = v(g(z)) - g'(z) v(z), truncated at jet
order N.  Truncation alone distorts the dimensions (the operator shifts
valuations), so the two numbers are extracted differently:

* cokernel at order N: corank of the square truncation A_N, which is
  exact once N passes the resonance window;
* kernel at order N: a jet is a genuine kernel direction only if it
  extends to higher order, so the kernel of a deeper truncation A_M
  (M = N + padding) is computed first and then projected down to order N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import rank_nullity, nullspace
from .parabolic import local_return_series
from .ratmap import RationalMap
from .series import TruncatedSeries


@dataclass
class JetSpec:
    """Where and how to truncate: site 'global' or a cycle point with period
    p, with jets truncated at the given order (order 1 keeps 2-jets)."""

    site: str = "global"
    point: object = None
    period: int = 1
    order: int = 6


def global_e1(f: RationalMap):
    """(matrix, kernel_dim, cokernel_dim) of the global equalizer.

    Columns are the images of 1, z, z^2; the image of v is
    v(P/Q) Q^2 - (P'Q - PQ') v, written in the monomial basis of degree
    <= 2d polynomials.  The Wronskian P'Q - PQ' is the map's own
    (``RationalMap.wronskian``), and multiplying it by z^j shifts its
    coefficients j places.
    """
    p, q = f.num, f.den
    wron = f.wronskian.coeffs
    mat = np.zeros((2 * f.degree + 1, 3), dtype=complex)
    # v = 1, z, z^2 composed with f, times Q^2
    for j, pq in enumerate((q * q, p * q, p * p)):
        mat[: len(pq.coeffs), j] += pq.coeffs
        mat[j : j + len(wron), j] -= wron
    _, ker, coker = rank_nullity(_colnorm(mat))
    return mat, ker, coker


def _colnorm(mat):
    """Scale each nonzero column to unit max magnitude.

    Column scaling preserves rank (and the dimension of any coordinate
    projection of the nullspace) but keeps badly scaled maps — e.g. a
    tiny leading coefficient — from fooling the relative SVD tolerance.
    """
    scale = np.max(np.abs(mat), axis=0)
    scale[scale == 0] = 1.0
    return mat / scale


def _jet_matrix(g: TruncatedSeries, N):
    """(N+1) x (N+1) matrix of v -> v(g) - g' v on jets of order N."""
    gp = g.derivative().truncate(N)
    cols = []
    power = TruncatedSeries([1.0], order=N)
    gN = g.truncate(N)
    for j in range(N + 1):
        mono = TruncatedSeries(np.eye(1, N + 1, j)[0], order=N)
        img = power - gp * mono
        cols.append(img.c.copy())
        power = power * gN
    return np.stack(cols, axis=1)


def _dims(a_m, null, n):
    """(kernel_dim, cokernel_dim) at order n <= M from the deep matrix A_M and
    its null space.  The leading (n+1) x (n+1) block of A_M is A_n (jets of
    order n only see coefficients up to n); it is column-scaled on its own,
    since the scales of the full matrix's columns differ from the block's."""
    _, _, coker = rank_nullity(_colnorm(a_m[: n + 1, : n + 1]))
    if null.shape[1] == 0:
        return 0, coker
    # dimension of the image of the deep nullspace inside order-n jets
    return rank_nullity(null[: n + 1, :])[0], coker


def jet_e1(f: RationalMap, spec: JetSpec, r=1):
    """Jet equalizer dimensions at a cycle site, with a stabilization flag.

    The local operator is that of the first return f^(period * r) at the
    given cycle point (r > 1 folds in a root-of-unity multiplier).
    Returns (kernel_dim, cokernel_dim, stabilized).
    """
    if spec.site == "global":
        _, ker, coker = global_e1(f)
        return ker, coker, True
    if spec.period < 1 or r < 1 or spec.order < 0:
        raise ValueError(f"jets need period >= 1, r >= 1 and order >= 0, got "
                         f"{spec.period}, {r} and {spec.order}")
    N = spec.order
    pad = max(N, 4)
    M = N + pad
    g = local_return_series(f, spec.point, spec.period * r, M + 2)
    # one deep matrix serves order N and, for the stabilization flag, N - 1
    a_m = _jet_matrix(g, M)
    null = nullspace(_colnorm(a_m))
    ker, coker = _dims(a_m, null, N)
    stabilized = N >= 2 and (ker, coker) == _dims(a_m, null, N - 1)
    return ker, coker, stabilized
