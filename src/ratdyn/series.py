"""Truncated formal power series over the complex numbers.

A series is stored as its coefficient vector c[0..N] and represents
``sum c_k z^k  (mod z^{N+1})``.  All operations keep the truncation order
of the operands (the minimum, for binary operations).  Composition requires
the inner series to have zero constant term; compositional reversion
requires additionally a nonzero linear term.
"""

from __future__ import annotations

import numpy as np

from .kernel import horner


class SeriesError(ValueError):
    pass


class TruncatedSeries:
    """Formal power series truncated at a fixed order.

    order N means coefficients of z^0 .. z^N are tracked.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs, order=None):
        c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
        if order is not None:
            if order < 0:
                raise SeriesError("truncation order must be >= 0")
            if len(c) < order + 1:
                c = np.concatenate([c, np.zeros(order + 1 - len(c), dtype=complex)])
            else:
                c = c[: order + 1]
        self.c = c.copy()

    @property
    def order(self):
        return len(self.c) - 1

    @classmethod
    def identity(cls, order):
        """The series z."""
        c = np.zeros(order + 1, dtype=complex)
        if order >= 1:
            c[1] = 1.0
        return cls(c)

    def truncate(self, order):
        return TruncatedSeries(self.c, order=order)

    def __repr__(self):
        return f"TruncatedSeries({np.array2string(self.c, precision=6)})"

    def __getitem__(self, k):
        if 0 <= k <= self.order:
            return complex(self.c[k])
        raise IndexError(f"coefficient {k} beyond truncation order {self.order}")

    # -- ring operations -------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, TruncatedSeries):
            return other
        return TruncatedSeries([complex(other)], order=self.order)

    def __add__(self, other):
        other = self._coerce(other)
        n = min(self.order, other.order)
        return TruncatedSeries(self.c[: n + 1] + other.c[: n + 1])

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(-self.c)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return TruncatedSeries(self.c * complex(other))
        n = min(self.order, other.order)
        full = np.convolve(self.c[: n + 1], other.c[: n + 1])
        return TruncatedSeries(full[: n + 1])

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = TruncatedSeries([1.0], order=self.order)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse(self):
        """Multiplicative inverse; requires nonzero constant term."""
        if self.c[0] == 0:
            raise SeriesError("series with zero constant term is not invertible")
        n = self.order
        out = np.zeros(n + 1, dtype=complex)
        out[0] = 1.0 / self.c[0]
        for k in range(1, n + 1):
            s = np.dot(self.c[1 : k + 1], out[k - 1 :: -1][: k])
            out[k] = -s / self.c[0]
        return TruncatedSeries(out)

    def derivative(self):
        n = self.order
        if n == 0:
            return TruncatedSeries([0.0])
        k = np.arange(1, n + 1)
        return TruncatedSeries(self.c[1:] * k)

    def compose(self, inner):
        """self(inner(z)); inner must have zero constant term."""
        inner = self._coerce(inner)
        if inner.c[0] != 0:
            raise SeriesError("inner series must have zero constant term")
        n = min(self.order, inner.order)
        inner = inner.truncate(n)
        out = TruncatedSeries([0.0], order=n)
        for ck in self.c[n::-1]:
            out = out * inner + ck
        return out

    def reverse(self):
        """Compositional inverse h with h(self(z)) = z (mod z^{N+1}).

        Requires zero constant term and nonzero linear term.  Computed
        order by order: with g = self, the coefficient h_k is fixed by
        requiring [z^k] h(g(z)) = delta_{k,1}.
        """
        if self.c[0] != 0:
            raise SeriesError("can only revert a series with zero constant term")
        if self.order < 1 or self.c[1] == 0:
            raise SeriesError("can only revert a series with nonzero linear term")
        n = self.order
        g = self
        h = np.zeros(n + 1, dtype=complex)
        h[1] = 1.0 / self.c[1]
        # powers of g, built incrementally: gpow[j] = g^j truncated at n
        gpow = [TruncatedSeries([1.0], order=n), g]
        for k in range(2, n + 1):
            gpow.append(gpow[-1] * g)
            # [z^k] of sum_{j<=k} h_j g^j must vanish; g^k has leading
            # coefficient c1^k at z^k, everything else is already known.
            acc = 0j
            for j in range(1, k):
                acc += h[j] * gpow[j].c[k]
            h[k] = -acc / (self.c[1] ** k)
        return TruncatedSeries(h)

    def __call__(self, z):
        return horner(self.c, z)
