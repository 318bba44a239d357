"""Parabolic local invariants of a periodic point with root-of-unity multiplier.

Given a cycle point z0 where the first-return multiplier is a root of
unity of order r, the return map g = f^{pr} is tangent to the identity in
the local coordinate z - z0 (1/z when z0 is infinity), here called z:

    g(z) = z + a z^{m+1} + ...   (a != 0, m = number of petals of g)

The module computes m, the attracting/repelling directions, and the
iterative residue nu — the unique constant for which the formal
differential (1 + nu x^m) / x^{m+1} dx admits an invariant realization
under g.  nu is found by solving W(g(z)) g'(z) = W(z) for a formal
Laurent field W with prescribed leading coefficient; nu is then the
z^{-1} coefficient of W, and an independent cross-check value (the
holomorphic fixed-point index, the residue of dz/(z - g(z))) is computed
alongside.  Approximate Fatou coordinates with Abel property s(g(z)) =
s(z) + 1 are built from the same data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .series import TruncatedSeries
from .ratmap import RationalMap, SpherePoint, _as_point, local_coord

UNITY_TOL = 1e-8
UNITY_HORIZON = 64
PETAL_SLACK = 1.02  # half-width of a petal sector, in units of pi/(2m)


class ParabolicError(ValueError):
    pass


def rotation_order(lam, K=UNITY_HORIZON, tol=UNITY_TOL):
    """Least r <= K with lam^r = 1 within tol, or None."""
    lam = complex(lam)
    power = 1.0 + 0j
    for r in range(1, K + 1):
        power *= lam
        if abs(power - 1.0) <= tol:
            return r
    return None


@dataclass
class ParabolicInvariants:
    """Local data of a parabolic cycle point.

    r: order of the multiplier as a root of unity.
    e_loc: petal count of the first return g = f^{pr} (tangency order
        e_loc + 1); for the underlying map this is r * (petals per cycle).
    nu: the iterative residue of g.
    index: holomorphic fixed-point index of g (independent cross-check).
    tangency_coeff: leading coefficient a of g(z) - z.
    attracting_angles / repelling_angles: local directions at the cycle
        point, in the local coordinate u = z - z0 (u = 1/z at infinity).
    normal_series: truncated series of the normalizing coordinate x(z)
        (x = a^{1/e_loc} z + ..., bringing the invariant differential to
        (1 + nu x^m)/x^{m+1} dx).
    g_series: truncated series of the first return in the local coordinate.
    """

    z0: SpherePoint
    p: int
    r: int
    e_loc: int
    nu: complex
    index: complex
    tangency_coeff: complex
    attracting_angles: list = field(default_factory=list)
    repelling_angles: list = field(default_factory=list)
    normal_series: TruncatedSeries | None = None
    g_series: TruncatedSeries | None = None

    def to_json(self):
        return {
            "r": self.r,
            "e_loc": self.e_loc,
            "nu": [self.nu.real, self.nu.imag],
            "index": [self.index.real, self.index.imag],
            "attracting_angles": list(self.attracting_angles),
            "repelling_angles": list(self.repelling_angles),
        }


def local_return_series(f: RationalMap, z0, p, N):
    """Taylor series of f^p at the period-p point z0, in the local coordinate u.

    Built by composing one local step series per cycle point, each in
    the local coordinate about its point (u = z - z0, or 1/z at infinity),
    so the cycle may pass through infinity.  The constant term (which must vanish for
    a periodic point) is checked small and set to exactly zero.
    """
    z0 = _as_point(z0)
    pts = f.orbit(z0, p - 1) if p > 1 else [z0]
    pts.append(z0)  # periodicity: last step returns to the start
    comp = TruncatedSeries.identity(N)
    for i in range(p):
        step = _step_series(f, pts[i], pts[i + 1], N)
        comp = step.compose(comp)
    return comp


def _step_series(f, zi, zo, N):
    """Series of the local coordinate of f(z) about zo in the local coordinate about zi."""
    num, den = f.local_fraction(zi, zo)
    if den.coeffs[0] == 0:
        raise ParabolicError(f"chart degeneracy expanding about {zi!r}")
    out = TruncatedSeries(num.coeffs, order=N) * TruncatedSeries(den.coeffs, order=N).inverse()
    scale = max(np.max(np.abs(out.c)), 1e-30)
    if abs(out.c[0]) > 1e-6 * scale:
        raise ParabolicError(
            f"orbit step {zi!r} -> {zo!r} not closed (residual {abs(out.c[0]):.2e})"
        )
    out.c[0] = 0.0
    return out


def _self_compose(g, times):
    out = g
    for _ in range(times - 1):
        out = g.compose(out)
    return out


def _tangency_order(g, rel_tol=1e-6):
    """(m, a) with g(z) = z + a z^{m+1} + ...; error if no tangency found."""
    c = g.c.copy()
    c[1] -= 1.0
    scale = max(np.max(np.abs(g.c)), 1.0)
    if abs(c[1]) > 1e-5:
        raise ParabolicError(f"return map not tangent to identity (g'={g.c[1]:.6g})")
    for k in range(2, len(c)):
        if abs(c[k]) > rel_tol * scale:
            return k - 1, complex(c[k])
    raise ParabolicError("tangency order exceeds the truncation budget")


def _laurent_field_solve(g, m, a, N):
    """Solve W(g(z)) g'(z) = W(z) for Laurent W = sum_{k>=-(m+1)} w_k z^k.

    The leading coefficient w_{-(m+1)} is pinned to 1/a (so that W dz is
    the invariant differential in the normalization with x'(0)-scaling
    absorbed); the system then determines w_{-1} = nu uniquely.  Returns
    the coefficient vector w[-(m+1)..K] as (offset m+1, numpy array).
    """
    # u(z) = g(z)/z  (unit series), so g^k = z^k u^k for any integer k
    u = TruncatedSeries(g.c[1:], order=N - 1)
    gp = g.derivative().truncate(N - 1)
    K = N - m - 2  # top Laurent index carried
    ks = list(range(-(m + 1), K + 1))
    n_orders = N  # coefficients of z^0 .. z^{N-1} after clearing z^{m+1}
    cols = []
    for k in ks:
        # z^{m+1} * (w_k z^k u^k g' - w_k z^k) = w_k z^{k+m+1} (u^k g' - 1)
        vec = (u**k * gp - 1.0).c
        col = np.zeros(n_orders, dtype=complex)
        shift = k + m + 1
        take = min(len(vec), n_orders - shift)
        if take > 0:
            col[shift : shift + take] = vec[:take]
        cols.append(col)
    M = np.stack(cols, axis=1)
    lead = 1.0 / a
    rhs = -lead * M[:, 0]
    sol, *_ = np.linalg.lstsq(M[:, 1:], rhs, rcond=None)
    resid = M[:, 1:] @ sol - rhs
    if np.max(np.abs(resid)) > 1e-6 * max(1.0, abs(lead)):
        raise ParabolicError(
            f"invariant-field solve did not converge (residual {np.max(np.abs(resid)):.2e})"
        )
    w = np.concatenate([[lead], sol])
    return m + 1, w


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
    raise ParabolicError("truncation too short for the index cross-check")


def _normalizing_series(w_offset, w, m, nu, N):
    """x(z) with (x^{-(m+1)} + nu x^{-1}) x'(z) = W(z), x = alpha z + ...

    alpha^m = 1/w_lead ... precisely alpha = a^{1/m} for leading coefficient
    a = 1/w[-(m+1)], principal branch.  Solved by sweep relaxation on the
    unit part of x; the j-th coefficient controls the residual at Laurent
    order j - m - 1 with weight (j - m), so j = m is skipped (that degree
    of freedom is exactly nu).
    """
    a = 1.0 / w[0]
    alpha = a ** (1.0 / m)
    # x(z) = alpha * z * v(z), v = 1 + c_1 z + ...
    c = np.zeros(N, dtype=complex)
    c[0] = 1.0
    w_full = np.zeros(m + 1 + N, dtype=complex)
    w_full[: len(w)] = w[: len(w_full)]
    for _ in range(60):
        v = TruncatedSeries(c, order=N - 1)
        x_over_z = alpha * v
        xp = (TruncatedSeries.identity(N) * v.truncate(N)).derivative() * alpha
        # F(x) x' where F(x) = x^{-(m+1)} + nu x^{-1}
        lead_part = (x_over_z ** (-(m + 1))) * xp.truncate(N - 1)  # * z^{-(m+1)}
        res_part = (x_over_z ** (-1)) * xp.truncate(N - 1) * nu  # * z^{-1}
        # Laurent coefficients at order q, q from -(m+1):
        resid = np.zeros(m + 1 + N, dtype=complex)
        resid[: len(lead_part.c)] += lead_part.c  # index i is order i-(m+1)
        resid[m : m + len(res_part.c)] += res_part.c  # index m+i is order i-1
        resid -= w_full
        worst = 0.0
        for j in range(1, N):
            if j == m:
                continue
            # coefficient c_j acts at Laurent order j-(m+1) = index j
            upd = resid[j] / (alpha ** (-m) * (j - m))
            c[j] -= upd
            worst = max(worst, abs(upd))
        if worst < 1e-13:
            break
    return TruncatedSeries(_shift_in_z(alpha, c, N))


def _shift_in_z(alpha, c, N):
    """Coefficient vector of x(z) = alpha z (c_0 + c_1 z + ...) at order N."""
    out = np.zeros(N + 1, dtype=complex)
    take = min(len(c), N)
    out[1 : 1 + take] = alpha * c[:take]
    return out


def tangency_and_residu(f: RationalMap, z0, p, r, N=None):
    """Full parabolic invariant package at a period-p point with lambda^r = 1.

    N is the series truncation order; defaults to a stabilizing value
    once the tangency order is known (at least 3(m+1)).
    """
    z0 = _as_point(z0)
    probe = local_return_series(f, z0, p, 12 if N is None else N)
    if r > 1:
        probe = _self_compose(probe, r)
    m, a = _tangency_order(probe)
    if N is None:
        N = max(3 * (m + 1), 12)
    g = local_return_series(f, z0, p, N)
    if r > 1:
        g = _self_compose(g, r)
    m, a = _tangency_order(g)
    offset, w = _laurent_field_solve(g, m, a, N)
    nu = complex(w[offset - 1])  # index of z^{-1}
    index = _fixed_point_index(g, m, a, N)
    # directions: attracting where a z^m is real negative
    arg_a = np.angle(a)
    attract = [float((np.pi - arg_a + 2 * np.pi * j) / m % (2 * np.pi)) for j in range(m)]
    repel = [float((-arg_a + 2 * np.pi * j) / m % (2 * np.pi)) for j in range(m)]
    xser = _normalizing_series(offset, w, m, nu, N)
    return ParabolicInvariants(
        z0=z0,
        p=p,
        r=r,
        e_loc=m,
        nu=nu,
        index=index,
        tangency_coeff=a,
        attracting_angles=sorted(attract),
        repelling_angles=sorted(repel),
        normal_series=xser,
        g_series=g,
    )


def fatou_coordinate(f: RationalMap, inv: ParabolicInvariants, z, petal_index=0, n_iter=20):
    """Approximate incoming Fatou coordinate s(z) with s(f^{pr}(z)) = s(z) + 1.

    Computed as lim_n [ s0(g^n(z)) - n ] where s0 = t - (nu/m) Log t,
    t = -1/(m x^m), x the normalizing coordinate; the principal Log cut
    falls on the repelling axis of each petal.  z must lie in the petal
    sector indexed by petal_index (attracting directions sorted by angle).
    """
    m = inv.e_loc
    zz = _as_point(z)
    steps = inv.p * inv.r
    prev = None
    for n in range(n_iter + 1):
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
