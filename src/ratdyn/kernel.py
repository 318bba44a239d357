"""Foundational numerics: complex polynomials, root extraction, dense rank/nullity.

Everything here is plain dense complex arithmetic at float64.  Tolerances are
pinned (relative algebraic tolerance 1e-9, root-clustering radius 1e-6,
multiple-root grouping radius 1e-3) so results are reproducible.
"""

from __future__ import annotations

import numpy as np

ALGEBRAIC_TOL = 1e-9
CLUSTER_TOL = 1e-6


class KernelError(Exception):
    """Base class for numeric-kernel failures."""


class ZeroPolynomialError(KernelError):
    pass


class RootFindingError(KernelError):
    """Root iteration did not converge; carries the best iterate found."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


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

    def __hash__(self):
        return hash(self.coeffs.tobytes())

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

    def __rsub__(self, other):
        return _as_poly(other) + (-self)

    def __mul__(self, other):
        other = _as_poly(other)
        if self.is_zero or other.is_zero:
            return Polynomial([0])
        return Polynomial(np.convolve(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative polynomial power")
        out = Polynomial([1.0])
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

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

        Computed by repeated synthetic division by (z - z0); coefficient j of
        the result is the j-th remainder.
        """
        out = np.zeros(len(self.coeffs), dtype=complex)
        work = self.coeffs.copy()
        for j in range(len(out)):
            quot = np.zeros(max(len(work) - 1, 1), dtype=complex)
            r = work[-1]
            for i in range(len(work) - 2, -1, -1):
                quot[i] = r
                r = work[i] + z0 * r
            out[j] = r
            if len(work) == 1:
                break
            work = quot
        return Polynomial(out)

    def trimmed(self, rel_tol):
        """Drop trailing coefficients below rel_tol times the max magnitude."""
        if self.is_zero:
            return self
        thr = rel_tol * self.scale()
        c = self.coeffs.copy()
        k = len(c) - 1
        while k > 0 and abs(c[k]) <= thr:
            k -= 1
        return Polynomial(c[: k + 1])


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


def poly_roots(p, tol=ALGEBRAIC_TOL, cluster_tol=CLUSTER_TOL):
    """All roots of p with multiplicity, by Aberth-Ehrlich simultaneous iteration.

    Returns a list of (root, multiplicity) pairs.  Each returned root r
    satisfies |p(r)| <= tol * scale(p) after Newton polishing; roots closer
    than the clustering radius are merged and reported with their combined
    multiplicity at the cluster centroid.
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
        return _cluster(roots, cluster_tol)

    q = Polynomial(c)
    dq = q.derivative()
    # Cauchy-style inclusion radius
    r0 = 1.0 + np.max(np.abs(c[:-1])) / abs(c[-1])
    rng = np.random.default_rng(12345)
    ang = 2 * np.pi * (np.arange(n) + 0.25) / n + 0.05 * rng.standard_normal(n)
    z, ok = aberth(lambda x: horner_with_derivative(c, x), 0.6 * r0 * np.exp(1j * ang))
    with np.errstate(over="ignore", invalid="ignore"):
        # Newton polish (helps simple roots; stalls harmlessly on clusters)
        for _ in range(3):
            pz = q(z)
            dpz = dq(z)
            mask = np.abs(dpz) > 1e-200
            z = np.where(mask, z - pz / np.where(mask, dpz, 1), z)
        if not np.all(np.isfinite(z)):
            raise RootFindingError(
                f"{int(np.sum(~np.isfinite(z)))} of {n} root iterates are not finite", best=z
            )
        z = collapse_multiple_roots(z, lambda x, k: _shifted_taylor(q, scale, x, k))
        res = np.abs(q(z))
    if not np.all(np.isfinite(res)):
        raise RootFindingError("root residual is not finite", best=z)
    bound = tol * scale * np.maximum(1.0, np.abs(z)) ** n
    if np.any(res > bound):
        worst = float(np.max(res / np.maximum(bound, 1e-300)))
        raise RootFindingError(
            f"root residual exceeds tolerance by factor {worst:.3e}"
            + ("" if ok else " (iteration stalled)"),
            best=z,
        )
    roots.extend((complex(zi), 1) for zi in z)
    return _cluster(roots, cluster_tol)


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


def aberth(jet, z):
    """Aberth iteration from the starting points z on the zeros of a function.

    ``jet(x)`` gives the value and derivative at the points x, each up to
    the same nonzero factor per point.  Each iterate stops on its own step;
    the pairwise sum runs in row blocks, so memory stays O(n * block).
    Returns the iterates and whether every one of them stopped.
    """
    z = z.copy()
    n = z.size
    active = np.arange(n)
    rows = max(1, _PAIR_BLOCK // n)
    with np.errstate(all="ignore"):
        for _ in range(_MAX_ITER):
            za = z[active]
            val, der = jet(za)
            der = np.where(der == 0, 1e-300, der)
            w = val / der
            s = np.empty(active.size, dtype=complex)
            for b in range(0, active.size, rows):
                idx = active[b : b + rows]
                diff = z[idx, None] - z[None, :]
                diff[np.arange(idx.size), idx] = np.inf
                s[b : b + rows] = np.sum(1.0 / diff, axis=1)
            denom = 1.0 - w * s
            denom = np.where(np.abs(denom) < 1e-14, 1e-14, denom)
            step = w / denom
            z[active] = za - step
            moving = np.abs(step) > 1e-15 * (1.0 + np.abs(za))
            active = active[moving]
            if not active.size:
                break
    return z, not active.size


def collapse_multiple_roots(z, taylor):
    """Snap near-coincident iterates onto certified multiple roots.

    A root of multiplicity m can only be located to ~eps^(1/m) by direct
    iteration, which defeats the fixed clustering radius.  Iterates within
    the coarse radius _GROUP_RADIUS of each other form a group.  A member
    is a resolved simple root, and keeps its place, when both its Newton
    step and the uncertainty (zero level of t_0)/|t_1| of its position are
    below _RESOLVE_RATIO times its distance to the rest of the group (a residual
    that rounds to zero says nothing by itself).  The m unresolved members
    are tested against the hypothesis of one m-fold root: the (m-1)-th
    derivative has a simple (hence machine-precision) root there, and the
    collapse is certified when every Taylor coefficient t_0 .. t_(m-1) at
    that point is at or below its zero level.  When it is not, the member
    farthest from the centroid is set aside and the (m-1)-fold hypothesis
    is tried, down to two members; the members left over are tried again.

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
                    out[trial] = zs
                    break
                far = int(np.argmax(np.abs(z[trial] - np.mean(z[trial]))))
                trial.pop(far)
            if len(trial) < 2:
                break
            pending = [i for i in pending if i not in trial]
    return out


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


def _cluster(roots, cluster_tol):
    """Merge roots within the clustering radius; multiplicities add.

    Only roots with another root within four radii take part in the
    centroid-growing scan; every other root is a cluster of its own.
    """
    z = np.array([zi for zi, _ in roots], dtype=complex)
    mergeable = sorted({i for pair in _close_pairs(z, 4 * cluster_tol) for i in pair})
    out = []
    used = [False] * len(roots)
    for i, (zi, mi) in enumerate(roots):
        if used[i]:
            continue
        members = [(zi, mi)]
        used[i] = True
        changed = bool(mergeable)
        while changed:
            changed = False
            cz = sum(m * z for z, m in members) / sum(m for _, m in members)
            for j in mergeable:
                zj, mj = roots[j]
                if used[j]:
                    continue
                radius = cluster_tol * max(1.0, abs(cz))
                if abs(zj - cz) <= radius:
                    members.append((zj, mj))
                    used[j] = True
                    changed = True
        m = sum(mm for _, mm in members)
        cz = sum(mm * z for z, mm in members) / m
        out.append((complex(cz), m))
    out.sort(key=lambda rm: (round(rm[0].real, 9), round(rm[0].imag, 9)))
    return out


def rank_nullity(mat, tol=ALGEBRAIC_TOL):
    """(rank, kernel_dim, cokernel_dim) of a dense complex matrix at tolerance.

    Singular values below tol * ||M||_2 count as zero.  rank + kernel_dim
    equals the column count exactly.
    """
    m = np.atleast_2d(np.asarray(mat, dtype=complex))
    if not np.all(np.isfinite(m)):
        raise ValueError("non-finite matrix entry")
    rows, cols = m.shape
    if rows == 0 or cols == 0 or not np.any(m):
        return 0, cols, rows
    s = np.linalg.svd(m, compute_uv=False)
    rank = int(np.sum(s > tol * s[0]))
    return rank, cols - rank, rows - rank


def nullspace(mat, tol=ALGEBRAIC_TOL):
    """Orthonormal basis (columns) of the numerical kernel."""
    m = np.atleast_2d(np.asarray(mat, dtype=complex))
    rows, cols = m.shape
    if rows == 0 or cols == 0 or not np.any(m):
        return np.eye(cols, dtype=complex)
    u, s, vh = np.linalg.svd(m)
    rank = int(np.sum(s > tol * s[0]))
    return vh[rank:].conj().T
