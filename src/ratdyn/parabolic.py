"""Parabolic local invariants of a periodic point with root-of-unity multiplier.

Given a cycle point z0 where the first-return multiplier is a root of
unity of order r, the return map g = f^{pr} is tangent to the identity in
the local coordinate z - z0 (1/z when z0 is infinity), here called z:

    g(z) = z + a z^{m+1} + ...   (a != 0, m = number of petals of g)

The series of g comes from ``RationalMap.local_jets`` (as the cycle
solver's), pr steps at once, so the cycle may pass through infinity.  The
petal count m is read as cycles reads Phi: each coefficient against the
largest up to its order, so a series that grows keeps its tangency.

The module computes m, the attracting/repelling directions, and the
iterative residue nu — the unique constant for which the formal
differential (1 + nu x^m) / x^{m+1} dx admits an invariant realization
under g.  The equation W(g(z)) g'(z) = W(z) for a formal Laurent field W
with prescribed leading coefficient is triangular, so one forward
substitution gives every coefficient of W; nu is its z^{-1} coefficient.
A second forward substitution gives the normalizing coordinate x(z).
The holomorphic fixed-point index (the residue of dz/(z - g(z))) is
computed from the same series by a separate routine, so
nu = (m+1)/2 - index checks the routines, not the series against the map.
Approximate Fatou coordinates with Abel property s(g(z)) = s(z) + 1 are
built from the same data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .series import TruncatedSeries
from .ratmap import SNAP_TOL, RationalMap, SpherePoint, _as_point, distance, local_coord

UNITY_TOL = 1e-8
UNITY_HORIZON = 64
FATOU_STEPS = 20  # returns of g taken by fatou_coordinate
PETAL_SLACK = 1.02  # half-width of a petal sector, in units of pi/(2m)


class ParabolicError(ValueError):
    pass


def rotation_order(lam, K=UNITY_HORIZON):
    """Least r <= K with lam^r = 1 within UNITY_TOL, or None."""
    lam = complex(lam)
    power = 1.0 + 0j
    for r in range(1, K + 1):
        power *= lam
        if abs(power - 1.0) <= UNITY_TOL:
            return r
    return None


@dataclass
class ParabolicInvariants:
    """Local data of a parabolic cycle point.

    r: order of the multiplier as a root of unity.
    e_loc: petal count of the first return g = f^{pr} (tangency order
        e_loc + 1); for the underlying map this is r * (petals per cycle).
    nu: the iterative residue of g.
    index: holomorphic fixed-point index of g, from the same series as nu.
    attracting_angles / repelling_angles: local directions at the cycle
        point, in the local coordinate u = z - z0 (u = 1/z at infinity).
    normal_series: truncated series of the normalizing coordinate x(z)
        (x = a^{1/e_loc} z + ..., a the leading coefficient of g(z) - z,
        bringing the invariant differential to (1 + nu x^m)/x^{m+1} dx).
    """

    z0: SpherePoint
    p: int
    r: int
    e_loc: int
    nu: complex
    index: complex
    attracting_angles: list = field(default_factory=list)
    repelling_angles: list = field(default_factory=list)
    normal_series: TruncatedSeries | None = None

    def to_json(self):
        return {
            "r": self.r,
            "e_loc": self.e_loc,
            "nu": [self.nu.real, self.nu.imag],
            "index": [self.index.real, self.index.imag],
            "attracting_angles": list(self.attracting_angles),
            "repelling_angles": list(self.repelling_angles),
        }


def local_return_series(f: RationalMap, z0, n, N):
    """Taylor series of f^n at its fixed point z0 to order N, in the local
    coordinate u: x/y - z0 of the n-th iterate (x : y) of the jets of z0
    (``RationalMap.local_jets``), or x/y itself at infinity.  f^n fixes z0
    when the image x_0/y_0 is within SNAP_TOL of z0 in ``ratmap.distance``
    (the rule of ``SpherePoint``); the constant term is then set to zero."""
    z0 = _as_point(z0)
    x, y = f.local_jets(z0.value, N + 1, n)
    if y[0] == 0:
        raise ParabolicError(f"f^{n} moves {z0!r} to the other chart")
    image = complex(x[0]) / complex(y[0])  # in the chart of z0: its 1/z at infinity
    if z0.is_infinity:
        image = 1.0 / image if image else None
    gap = distance(image, z0.value)
    if gap > SNAP_TOL:
        raise ParabolicError(f"f^{n} does not fix {z0!r} (distance {gap:.2e})")
    out = TruncatedSeries(x) * TruncatedSeries(y).inverse()
    out.c[0] = 0.0
    return out


def _tangency_order(g):
    """(m, a) with g(z) = z + a z^{m+1} + ..., or None when g - z vanishes to
    the truncation order; error if g is not tangent to the identity."""
    c = g.c.copy()
    c[1] -= 1.0
    if abs(c[1]) > 1e-5:
        raise ParabolicError(f"return map not tangent to identity (g'={g.c[1]:.6g})")
    # against the largest coefficient up to each order, not the whole series
    scale = np.maximum.accumulate(np.maximum(np.abs(g.c), 1.0))
    for k in range(2, len(c)):
        if abs(c[k]) > 1e-6 * scale[k]:
            return k - 1, complex(c[k])
    return None


def _invariant_field(g, m, a, N):
    """Laurent coefficients of W with W(g(z)) g'(z) = W(z), by forward substitution.

    W = sum_{k>=-(m+1)} w_k z^k with w_{-(m+1)} pinned to 1/a.  Cleared by
    z^{m+1}, the equation is sum_k w_k z^{k+m+1} (u^k g' - 1) = 0 with
    u = g/z; the k-th term starts at order k + 2m + 1 with pivot (k + m + 1) a,
    so each w_k follows from the lower ones, and nu = w_{-1}.  Returns
    w[i] = w_{i-(m+1)} for i < N; a w_k whose pivot order lies past z^{N-1}
    stays zero.
    """
    u = TruncatedSeries(g.c[1:], order=N - 1)
    gp = g.derivative().truncate(N - 1)
    w = np.zeros(N, dtype=complex)
    w[0] = 1.0 / a
    resid = np.zeros(N, dtype=complex)  # cleared equation at orders 0 .. N-1
    uk = u.inverse() ** (m + 1)  # u^k for k = i - (m+1)
    for i in range(N - m):
        if i > 0:
            w[i] = -resid[i + m] / (i * a)
        resid[i:] += w[i] * (uk * gp - 1.0).c[: N - i]
        uk = uk * u
    return w


def _fixed_point_index(g, m, a, N):
    """Residue of dz/(z - g(z)) at 0: -(1/a) [z^m] (1 + h)^{-1}.

    where z - g(z) = -a z^{m+1} (1 + h(z)).
    """
    diff = TruncatedSeries.identity(g.order) - g
    tail = diff.c[m + 1 :]
    unit = TruncatedSeries(tail / (-a), order=len(tail) - 1)
    inv = unit.inverse()
    if m <= inv.order:
        return complex(-(1.0 / a) * inv.c[m])
    raise ParabolicError("truncation too short for the index and nu")


def _normalizing_series(w, m, N):
    """x(z) with (x^{-(m+1)} + nu x^{-1}) x'(z) = W(z), x = alpha z + ...

    alpha = a^{1/m} (principal branch) for a = 1/w_{-(m+1)}, and
    nu = w_{-1}.  With x = alpha z v(z), v = 1 + c_1 z + ..., the residual
    at Laurent order j - (m+1) is affine in c_j with slope alpha^{-m} (j - m)
    once c_1 .. c_{j-1} are fixed, and no later c_i enters it.  One ordered
    pass, evaluating the residual only up to that order, therefore fixes
    every c_j.  j = m is skipped: that degree of freedom is exactly nu.
    """
    a = 1.0 / w[0]
    nu = w[m]
    alpha = a ** (1.0 / m)
    scale = alpha ** (-m)
    c = np.zeros(N, dtype=complex)
    c[0] = 1.0
    for j in range(1, N):
        if j == m:
            continue
        vinv = TruncatedSeries(c[: j + 1]).inverse()  # c_j is still zero
        xp = TruncatedSeries(c[: j + 1] * np.arange(1, j + 2))  # (z v)'
        resid = scale * (vinv ** (m + 1) * xp)[j] - w[j]
        if j > m:
            resid += nu * (vinv * xp)[j - m]
        c[j] = -resid / (scale * (j - m))
    return TruncatedSeries(np.concatenate([[0.0], alpha * c]))


def tangency_and_residu(f: RationalMap, z0, p, r, N=None):
    """Full parabolic invariant package at a period-p point with lambda^r = 1.

    N is the series truncation order; by default the first truncation
    doubles from 12 until the tangency shows, then grows to at least 3(m+1).
    """
    z0 = _as_point(z0)
    g = local_return_series(f, z0, p * r, 12 if N is None else N)
    found = _tangency_order(g)
    # each cycle of petals attracts a critical orbit (Milnor, Thm 10.15), so
    # m <= r (2d - 2): a longer truncation cannot show a tangency
    while found is None and N is None and g.order < r * (2 * f.degree - 2) + 2:
        g = local_return_series(f, z0, p * r, 2 * g.order)
        found = _tangency_order(g)
    if found is None:
        raise ParabolicError("tangency order exceeds the truncation budget")
    m, a = found
    if N is None and 3 * (m + 1) > g.order:
        g = local_return_series(f, z0, p * r, 3 * (m + 1))
        m, a = _tangency_order(g)  # found again, at a longer truncation
    N = g.order
    w = _invariant_field(g, m, a, N)
    nu = complex(w[m])  # w_{-1}
    index = _fixed_point_index(g, m, a, N)
    # directions: attracting where a z^m is real negative
    arg_a = np.angle(a)
    attract = [float((np.pi - arg_a + 2 * np.pi * j) / m % (2 * np.pi)) for j in range(m)]
    repel = [float((-arg_a + 2 * np.pi * j) / m % (2 * np.pi)) for j in range(m)]
    xser = _normalizing_series(w, m, N)
    return ParabolicInvariants(
        z0=z0,
        p=p,
        r=r,
        e_loc=m,
        nu=nu,
        index=index,
        attracting_angles=sorted(attract),
        repelling_angles=sorted(repel),
        normal_series=xser,
    )


def fatou_coordinate(f: RationalMap, inv: ParabolicInvariants, z, petal_index=0):
    """Approximate incoming Fatou coordinate s(z) with s(f^{pr}(z)) = s(z) + 1.

    Computed as lim_n [ s0(g^n(z)) - n ], taken at n = FATOU_STEPS, where
    s0 = t - (nu/m) Log t, t = -1/(m x^m), x the normalizing coordinate;
    the principal Log cut falls on the repelling axis of each petal.  z
    must lie in the petal sector indexed by petal_index (attracting
    directions sorted by angle).
    """
    m = inv.e_loc
    zz = _as_point(z)
    steps = inv.p * inv.r
    prev = None
    for n in range(FATOU_STEPS + 1):
        u = local_coord(zz.value, inv.z0.value)
        if u is None or abs(u) > 0.8:
            raise ParabolicError("point escaped the parabolic chart during iteration")
        x = inv.normal_series(u)
        if n == 0 and petal_sector(x, m) != petal_index:
            raise ParabolicError("point is not in the requested petal sector")
        s0 = _model_coordinate(x, m, inv.nu)
        val = s0 - n
        prev = val
        for _ in range(steps):
            zz = f.evaluate(zz)
    return complex(prev)


def petal_sector(x, m):
    """Index j of the attracting sector of x, or None.

    Sector j holds the arguments within PETAL_SLACK * pi/(2m) of the
    attracting axis (pi + 2 pi j)/m; x = 0 lies in none.  The sectors are
    disjoint (PETAL_SLACK < 2), so the index is unique.
    """
    if x == 0:
        return None
    for j in range(m):
        theta = (np.pi + 2 * np.pi * j) / m
        if abs(np.angle(x * np.exp(-1j * theta))) <= PETAL_SLACK * np.pi / (2 * m):
            return j
    return None


def _model_coordinate(x, m, nu):
    """s0 = t - (nu/m) Log t with t = -1/(m x^m) (principal branch)."""
    t = -1.0 / (m * x**m)
    return t - (nu / m) * np.log(t)
