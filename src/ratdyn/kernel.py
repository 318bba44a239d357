"""Foundational numerics: complex polynomials, root extraction, dense rank/nullity.

Everything here is plain dense complex arithmetic at float64.  Tolerances are
pinned (relative algebraic tolerance 1e-9, multiple-root grouping radius
1e-3) so results are reproducible.  A root has multiplicity above 1 only
when ``collapse_multiple_roots`` certifies it, or when it is an exact zero
at the origin.
"""

from __future__ import annotations

import numpy as np

ALGEBRAIC_TOL = 1e-9


class KernelError(ValueError):
    """Base class for numeric-kernel failures (an input the kernel cannot solve)."""


class ZeroPolynomialError(KernelError):
    pass


class RootFindingError(KernelError):
    """Root iteration did not converge."""


class Polynomial:
    """Dense complex polynomial, coefficients ascending in degree.

    The zero polynomial is canonically ``coeffs == [0]``; otherwise the
    leading coefficient is nonzero (exact trailing zeros are trimmed).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
        if c.ndim != 1:
            raise ValueError("coefficients must be one-dimensional")
        nz = np.nonzero(c)[0]
        if len(nz) == 0:
            c = np.zeros(1, dtype=complex)
        else:
            c = c[: nz[-1] + 1]
        if not np.all(np.isfinite(c)):
            raise ValueError("non-finite polynomial coefficient")
        self.coeffs = c

    # -- basic structure -------------------------------------------------
    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return len(self.coeffs) == 1 and self.coeffs[0] == 0

    def scale(self):
        """Max coefficient magnitude (0 only for the zero polynomial)."""
        return float(np.max(np.abs(self.coeffs)))

    def __repr__(self):
        return f"Polynomial({np.array2string(self.coeffs, precision=6)})"

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (
            len(self.coeffs) == len(other.coeffs)
            and bool(np.all(self.coeffs == other.coeffs))
        )

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other):
        other = _as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        c = np.zeros(n, dtype=complex)
        c[: len(self.coeffs)] += self.coeffs
        c[: len(other.coeffs)] += other.coeffs
        return Polynomial(c)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(-self.coeffs)

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __mul__(self, other):
        other = _as_poly(other)
        if self.is_zero or other.is_zero:
            return Polynomial([0])
        return Polynomial(np.convolve(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def derivative(self):
        if self.degree == 0:
            return Polynomial([0])
        k = np.arange(1, len(self.coeffs))
        return Polynomial(self.coeffs[1:] * k)

    def __call__(self, z):
        return horner(self.coeffs, z)

    def compose(self, other):
        """Polynomial composition self(other(z))."""
        other = _as_poly(other)
        out = Polynomial([0])
        for c in self.coeffs[::-1]:
            out = out * other + Polynomial([c])
        return out

    def shifted(self, z0):
        """Taylor shift: returns q with q(t) = self(z0 + t).

        Repeated synthetic division by (z - z0) (``ruffini``): coefficient
        j of the result is the j-th remainder.
        """
        out = np.empty(len(self.coeffs), dtype=complex)
        q = self.coeffs
        for j in range(len(out)):
            q = ruffini(q, z0)
            out[j] = q[0]
            q = q[1:]
        return Polynomial(out)


def ruffini(c, z0):
    """Synthetic division of the ascending coefficients c by (z - z0): the
    remainder, followed by the ascending coefficients of the quotient."""
    b = np.empty(len(c), dtype=complex)
    acc = b[-1] = c[-1]
    for i in range(len(c) - 2, -1, -1):
        acc = b[i] = c[i] + z0 * acc
    return b


def horner(coeffs, z):
    """Value at z (scalar or array) of the polynomial with ascending coefficients."""
    z = np.asarray(z, dtype=complex)
    out = np.zeros(z.shape, dtype=complex)
    for c in coeffs[::-1]:
        out = out * z + c
    return out if out.ndim else complex(out)


def horner_with_derivative(coeffs, z):
    """(p(z), p'(z)) for a complex array z, in one pass over the ascending coefficients."""
    val = np.full(z.shape, coeffs[-1], dtype=complex)
    der = np.zeros(z.shape, dtype=complex)
    for c in coeffs[-2::-1]:
        der = der * z + val
        val = val * z + c
    return val, der


def _as_poly(x):
    if isinstance(x, Polynomial):
        return x
    return Polynomial([x])


def poly_roots(p):
    """All roots of p with multiplicity, by Aberth-Ehrlich simultaneous iteration.

    Returns a list of (root, multiplicity) pairs, ordered by ``by_position``.
    Each returned root r satisfies |p(r)| <= ALGEBRAIC_TOL scale(p)
    max(1, |r|)^deg after Newton polishing.  Exact zeros at the origin are
    one root of their count; every other multiplicity is certified by
    ``collapse_multiple_roots``.
    """
    p = _as_poly(p)
    if p.is_zero:
        raise ZeroPolynomialError("cannot extract roots of the zero polynomial")
    c = p.coeffs
    scale = p.scale()
    # strip exact roots at the origin
    v = 0
    while v < len(c) - 1 and c[v] == 0:
        v += 1
    c = c[v:]
    n = len(c) - 1
    roots = []
    if v:
        roots.append((0j, v))
    if n == 0:
        return roots
    if n == 1:
        roots.append((-c[0] / c[1], 1))
        return by_position(roots)

    q = Polynomial(c)
    dq = q.derivative()
    # Cauchy-style inclusion radius
    r0 = 1.0 + np.max(np.abs(c[:-1])) / abs(c[-1])
    rng = np.random.default_rng(12345)
    ang = 2 * np.pi * (np.arange(n) + 0.25) / n + 0.05 * rng.standard_normal(n)
    [z], [ok] = aberth(lambda x, _: horner_with_derivative(c, x), [0.6 * r0 * np.exp(1j * ang)])
    with np.errstate(over="ignore", invalid="ignore"):
        # Newton polish (helps simple roots; stalls harmlessly on clusters)
        for _ in range(3):
            pz = q(z)
            dpz = dq(z)
            mask = np.abs(dpz) > 1e-200
            z = np.where(mask, z - pz / np.where(mask, dpz, 1), z)
        if not np.all(np.isfinite(z)):
            raise RootFindingError(
                f"{int(np.sum(~np.isfinite(z)))} of {n} root iterates are not finite")
        found = collapse_multiple_roots(z, lambda x, k: _shifted_taylor(q, scale, x, k))
        zr = np.array([r for r, _ in found], dtype=complex)
        res = np.abs(q(zr))
    if not np.all(np.isfinite(res)):
        raise RootFindingError("root residual is not finite")
    bound = ALGEBRAIC_TOL * scale * np.maximum(1.0, np.abs(zr)) ** n
    if np.any(res > bound):
        worst = float(np.max(res / np.maximum(bound, 1e-300)))
        raise RootFindingError(
            f"root residual exceeds tolerance by factor {worst:.3e}"
            + ("" if ok else " (iteration stalled)")
        )
    return by_position(roots + found)


def by_position(roots):
    """(root, multiplicity) pairs sorted by position to 1e-9, ties in their
    given order; a zero real or imaginary part of a root is +0.0."""
    roots = [(complex(r.real + 0.0, r.imag + 0.0), m) for r, m in roots]
    return sorted(roots, key=lambda rm: (round(rm[0].real, 9), round(rm[0].imag, 9)))


def _shifted_taylor(q, scale, x, k):
    """t_0 .. t_k of q(x + t), and zero levels 1e-10 scale max(1, |x|)^(deg - j)."""
    t = q.shifted(x).coeffs[: k + 1]
    return t, 1e-10 * scale * max(1.0, abs(x)) ** (q.degree - np.arange(len(t)))


_PAIR_BLOCK = 1 << 16  # matrix entries per block of a row-blocked pairwise pass
_GROUP_RADIUS = 1e-3
_RESOLVE_RATIO = 1e-2


def _close_pairs(z, radius):
    """Index pairs i < j with |z_i - z_j| <= radius * max(1, |z_i|), in row blocks."""
    n = len(z)
    scale = radius * np.maximum(1.0, np.abs(z))
    rows = max(1, _PAIR_BLOCK // max(n, 1))
    found = []
    for s in range(0, n, rows):
        near = np.abs(z[s : s + rows, None] - z[None, :]) <= scale[s : s + rows, None]
        i, j = np.nonzero(near)
        i = i + s
        keep = j > i
        found.extend(zip(i[keep].tolist(), j[keep].tolist()))
    return found


_MAX_ITER = 400


def aberth(jet, sets):
    """Aberth iteration on the zeros of several functions at once, each from
    its own array of starting points in ``sets``.

    ``jet(x, runs)`` gives the value and derivative at the points x, each
    up to the same nonzero factor per point, where the points of set j are
    x[runs[j]:runs[j+1]].  Each set keeps its own pairwise sums, run in row
    blocks so memory stays O(n * block), and every other step is
    elementwise, so a set's iterates move exactly as when it is solved
    alone.  Each iterate stops on its own step.  Returns the iterates of
    each set and whether every one of them stopped.
    """
    sizes = [len(x) for x in sets]
    bounds = np.cumsum([0] + sizes).tolist()
    blocks = [(lo, lo + n, max(1, _PAIR_BLOCK // max(n, 1))) for lo, n in zip(bounds, sizes)]
    z = np.concatenate(sets)
    active = np.arange(z.size)
    with np.errstate(all="ignore"):
        for _ in range(_MAX_ITER):
            za = z[active]
            # each set's active iterates are one run of active (both ascend)
            runs = np.searchsorted(active, bounds).tolist()
            val, der = jet(za, runs)
            der = np.where(der == 0, 1e-300, der)
            w = val / der
            s = np.empty(active.size, dtype=complex)
            for (lo, hi, rows), a0, a1 in zip(blocks, runs, runs[1:]):
                for b in range(a0, a1, rows):
                    idx = active[b : min(b + rows, a1)]
                    diff = z[idx, None] - z[None, lo:hi]
                    diff[np.arange(idx.size), idx - lo] = np.inf
                    s[b : b + idx.size] = np.sum(1.0 / diff, axis=1)
            denom = 1.0 - w * s
            denom = np.where(np.abs(denom) < 1e-14, 1e-14, denom)
            step = w / denom
            z[active] = za - step
            moving = np.abs(step) > 1e-15 * (1.0 + np.abs(za))
            active = active[moving]
            if not active.size:
                break
    stopped = np.searchsorted(active, bounds)
    return ([z[lo:hi] for lo, hi in zip(bounds, bounds[1:])],
            [bool(a0 == a1) for a0, a1 in zip(stopped, stopped[1:])])


def collapse_multiple_roots(z, taylor):
    """The roots the iterates z stand for, as (root, multiplicity) pairs in iterate order.

    A root of multiplicity m can only be located to ~eps^(1/m) by direct
    iteration, so no fixed radius can decide which iterates are one root.
    Iterates within the coarse radius _GROUP_RADIUS of each other form a
    group.  A member is a resolved simple root, and keeps its place, when
    both its Newton step and the uncertainty (zero level of t_0)/|t_1| of
    its position are below _RESOLVE_RATIO times its distance to the rest of
    the group (a residual that rounds to zero says nothing by itself).  The m unresolved members
    are tested against the hypothesis of one m-fold root: the (m-1)-th
    derivative has a simple (hence machine-precision) root there, and the
    collapse is certified when every Taylor coefficient t_0 .. t_(m-1) at
    that point is at or below its zero level.  When it is not, the member
    farthest from the centroid is set aside and the (m-1)-fold hypothesis
    is tried, down to two members; the members left over are tried again.
    A certified m-fold root is reported once, at the place of its first
    member; every other iterate is a simple root.

    ``taylor(x, k)`` gives the Taylor coefficients t_0 .. t_k of the function
    at x, up to a nonzero factor that may depend on x, and for each the
    level at or below which it counts as zero, in the same units.
    """
    n = len(z)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in _close_pairs(z, _GROUP_RADIUS):
        parent[find(i)] = find(j)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    out = z.copy()
    mult = np.ones(n, dtype=int)  # 0 for a member folded into its root
    for members in groups.values():
        if len(members) < 2:
            continue
        pts = z[members]
        gaps = np.abs(pts[:, None] - pts[None, :])
        np.fill_diagonal(gaps, np.inf)
        pending = []
        for i, zi, gap in zip(members, pts, gaps.min(axis=1)):
            t, zero = taylor(zi, 1)
            spread = max(abs(t[0]), zero[0])
            if len(t) < 2 or not spread < _RESOLVE_RATIO * gap * abs(t[1]):
                pending.append(i)
        while len(pending) >= 2:
            trial = list(pending)
            while len(trial) >= 2:
                zs = _certified_multiple_root(z[trial], taylor)
                if zs is not None:
                    mult[trial] = 0
                    out[trial[0]], mult[trial[0]] = zs, len(trial)
                    break
                far = int(np.argmax(np.abs(z[trial] - np.mean(z[trial]))))
                trial.pop(far)
            if len(trial) < 2:
                break
            pending = [i for i in pending if i not in trial]
    return [(complex(zi), int(m)) for zi, m in zip(out, mult) if m]


def _certified_multiple_root(pts, taylor):
    """The m-fold root the m iterates pts stand for, or None when it is not certified."""
    m = len(pts)
    center = complex(np.mean(pts))
    zs = center
    for _ in range(40):
        t, _ = taylor(zs, m)
        if len(t) <= m or t[m] == 0:
            break
        step = t[m - 1] / (m * t[m])
        zs = zs - step
        if abs(step) <= 1e-16 * max(1.0, abs(zs)):
            break
    if abs(zs - center) > _GROUP_RADIUS * max(1.0, abs(center)):
        return None
    t, zero = taylor(zs, m - 1)
    return zs if np.all(np.abs(t) <= zero[: len(t)]) else None


def rank_nullity(mat):
    """(rank, kernel_dim, cokernel_dim) of a dense complex matrix.

    Singular values at most ALGEBRAIC_TOL ||M||_2 count as zero.  rank + kernel_dim
    equals the column count exactly.
    """
    m = np.atleast_2d(np.asarray(mat, dtype=complex))
    if not np.all(np.isfinite(m)):
        raise ValueError("non-finite matrix entry")
    rows, cols = m.shape
    if rows == 0 or cols == 0 or not np.any(m):
        return 0, cols, rows
    s = np.linalg.svd(m, compute_uv=False)
    rank = int(np.sum(s > ALGEBRAIC_TOL * s[0]))
    return rank, cols - rank, rows - rank


def nullspace(mat):
    """Orthonormal basis (columns) of the numerical kernel (``rank_nullity``'s rank)."""
    m = np.atleast_2d(np.asarray(mat, dtype=complex))
    rows, cols = m.shape
    if rows == 0 or cols == 0 or not np.any(m):
        return np.eye(cols, dtype=complex)
    u, s, vh = np.linalg.svd(m)
    rank = int(np.sum(s > ALGEBRAIC_TOL * s[0]))
    return vh[rank:].conj().T
