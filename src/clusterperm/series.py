"""Truncated bivariate exponential generating functions, exact arithmetic.

A BiSeries represents sum c_{n,q} x^n t^q with rational coefficients and an
explicit truncation order: coefficients of x^n are trusted only for
n <= order.  Binary operations take the minimum of the operand orders, so
precision loss is always visible in the result's order.

Coefficients are stored EGF-normalised: ``coeffs[(n, q)]`` holds n! c_{n,q}.
A labelled product is then a binomial convolution, d/dx an index shift and
multiplication by x^b/b! a binomial weight, so integral coefficients stay
integral (no n! denominators, no gcds) under every operation but ``scale``
by a non-integer.  Values are ``int`` wherever integral, else ``Fraction``.

The cluster-method identities live here: Pi_cl(x,t) assembled from a cluster
table, the substitution t -> t + delta, series reciprocal, and the avoidance
generating function Pi(x,t) = 1/(1 - Pi_cl(x, t-1)) whose normalised
coefficients are alpha_{n,q} = n! c_{n,q}, the number of permutations of
length n with exactly q consecutive occurrences of patterns from the
collection.  It is computed as Pi(x,t) = P(x, t-1) with
P(x,s) = 1/(1 - Pi_cl(x,s)): t -> t-1 is a ring homomorphism on each x^n
slice, so it commutes with inversion, and P is inverted on the unshifted
cluster rows, which are sparse in s where the shifted ones are dense.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, perm

from . import kernels
from .clusters import ClusterTable, cluster_counts
from .graph import PatternCollection
from .perms import DomainError


def _exact(coeffs, order: int) -> dict:
    """Normalised coefficients without zeros or terms beyond x^order, each
    an int wherever it is integral."""
    return {
        k: c if type(c) is int or c.denominator != 1 else c.numerator
        for k, c in coeffs.items()
        if c and k[0] <= order
    }


class BiSeries:
    """A truncated series whose ``coeffs[(n, q)]`` is n! times the
    coefficient of x^n t^q.  The constructor takes ordinary coefficients;
    ``coeff`` and ``subs_t`` return ordinary ones."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs=None):
        if order < 0:
            raise DomainError("truncation order must be nonnegative")
        self.order = order
        out = {}
        for (n, q), c in (coeffs or {}).items():
            if n < 0:
                raise DomainError("x exponents must be nonnegative")
            if n <= order:
                out[(n, q)] = Fraction(c) * factorial(n)
        self.coeffs: dict[tuple[int, int], int | Fraction] = _exact(out, order)

    @classmethod
    def _normalised(cls, order: int, coeffs) -> "BiSeries":
        """A series on normalised coefficients n! c_{n,q}."""
        s = cls(order)
        s.coeffs = _exact(coeffs, order)
        return s

    def _slices(self) -> list[list]:
        """slices[n][q] = coeffs[(n, q)]; each list ends in a nonzero entry."""
        slices = [[] for _ in range(self.order + 1)]
        for (n, q), c in self.coeffs.items():
            row = slices[n]
            row.extend([0] * (q + 1 - len(row)))
            row[q] = c
        return slices

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls, order: int) -> "BiSeries":
        return cls(order, {(0, 0): 1})

    # -- accessors ---------------------------------------------------------

    def coeff(self, n: int, q: int) -> Fraction:
        c = self.coeffs.get((n, q))
        return Fraction(c, factorial(n)) if c else Fraction(0)

    def eq_through(self, other: "BiSeries", order: int | None = None) -> bool:
        top = min(self.order, other.order, self.order if order is None else order)
        return all(n > top for n, _ in (self - other).coeffs)

    def __eq__(self, other):
        if not isinstance(other, BiSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __repr__(self):
        return f"BiSeries(order={self.order}, terms={len(self.coeffs)})"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "BiSeries") -> "BiSeries":
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) + c
        return BiSeries._normalised(min(self.order, other.order), out)

    def __neg__(self) -> "BiSeries":
        out = {k: -c for k, c in self.coeffs.items()}
        return BiSeries._normalised(self.order, out)

    def __sub__(self, other: "BiSeries") -> "BiSeries":
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) - c
        return BiSeries._normalised(min(self.order, other.order), out)

    def scale(self, factor) -> "BiSeries":
        f = Fraction(factor)
        out = {k: c * f for k, c in self.coeffs.items()}
        return BiSeries._normalised(self.order, out)

    def __mul__(self, other: "BiSeries") -> "BiSeries":
        """Binomial convolution: n! [x^n] fg = sum C(n, n1) a_{n1} b_{n-n1}."""
        order = min(self.order, other.order)
        out: dict[tuple[int, int], int | Fraction] = {}
        for (n1, q1), c1 in self.coeffs.items():
            if n1 > order:
                continue
            for (n2, q2), c2 in other.coeffs.items():
                n = n1 + n2
                if n > order:
                    continue
                key = (n, q1 + q2)
                out[key] = out.get(key, 0) + comb(n, n1) * c1 * c2
        return BiSeries._normalised(order, out)

    def truncated(self, order: int) -> "BiSeries":
        return BiSeries._normalised(min(order, self.order), self.coeffs)

    # -- calculus and substitutions -----------------------------------------

    def dx(self, times: int = 1) -> "BiSeries":
        """d^times/dx^times: an index shift of the normalised coefficients."""
        out = {(n - times, q): c for (n, q), c in self.coeffs.items() if n >= times}
        return BiSeries._normalised(self.order - times, out)

    def mul_xpow(self, b: int) -> "BiSeries":
        """Multiply by x^b / b!."""
        if b < 0:
            raise DomainError("monomial degree must be nonnegative")
        out = {(n + b, q): comb(n + b, b) * c for (n, q), c in self.coeffs.items()}
        return BiSeries._normalised(self.order + b, out)

    def mul_monomial(self, e: int) -> "BiSeries":
        """Multiply by the plain monomial x^e."""
        if e < 0:
            raise DomainError("monomial degree must be nonnegative")
        out = {(n + e, q): perm(n + e, e) * c for (n, q), c in self.coeffs.items()}
        return BiSeries._normalised(self.order + e, out)

    def mul_tpow(self, p: int) -> "BiSeries":
        if p < 0:
            raise DomainError("t power must be nonnegative")
        out = {(n, q + p): c for (n, q), c in self.coeffs.items()}
        return BiSeries._normalised(self.order, out)

    def shift_t(self, delta: int) -> "BiSeries":
        """Substitute t -> t + delta, re-expanding each x^n slice exactly by
        the Taylor shift: pass i divides by (t - delta) once more and leaves
        the i-th coefficient of the result in row[i]."""
        out: dict[tuple[int, int], int | Fraction] = {}
        for n, row in enumerate(self._slices()):
            top = len(row) - 1
            for i in range(top):
                for j in range(top - 1, i - 1, -1):
                    row[j] += delta * row[j + 1]
            out.update(((n, q), c) for q, c in enumerate(row))
        return BiSeries._normalised(self.order, out)

    def subs_t(self, value) -> dict[int, Fraction]:
        """Evaluate at a numeric t; returns the univariate slice map n -> c."""
        v = Fraction(value)
        out: dict[int, Fraction] = {}
        for (n, q), c in self.coeffs.items():
            out[n] = out.get(n, 0) + c * v**q
        return {n: Fraction(c, factorial(n)) for n, c in out.items() if c != 0}

    def reciprocal(self) -> "BiSeries":
        """Inverse series in x; requires constant coefficient exactly 1.

        On the normalised x^n slices a_n(t), the inverse r has r_0 = 1 and
        r_n = -sum_{m=1..n} C(n, m) a_m r_{n-m}."""
        a = self._slices()
        if a[0] != [1]:
            raise DomainError("reciprocal requires constant term 1")
        r = [[1]]
        for n in range(1, self.order + 1):
            acc = []
            for m in range(1, n + 1):
                am, rk = a[m], r[n - m]
                acc.extend([0] * (len(am) + len(rk) - 1 - len(acc)))
                w = comb(n, m)
                for i, x in enumerate(am):
                    if x:
                        x *= w
                        for j, y in enumerate(rk, i):
                            acc[j] -= x * y
            while acc and not acc[-1]:
                acc.pop()
            r.append(acc)
        out = {(n, q): c for n, row in enumerate(r) for q, c in enumerate(row)}
        return BiSeries._normalised(self.order, out)


# ---------------------------------------------------------------------------
# Cluster-method identities
# ---------------------------------------------------------------------------


def cluster_gf(table: ClusterTable, order: int) -> BiSeries:
    """Pi_cl(x,t): EGF of the cluster counts, including the fictitious
    0-cluster term x.  The counts are its normalised coefficients; a
    cluster of length n <= order can have up to n marks, so the table must
    be filled to order in both n and q."""
    if table.n_max < order:
        raise DomainError(
            f"table filled to n={table.n_max}, need n={order}"
        )
    if table.q_max < order:
        raise DomainError(f"table capped at q={table.q_max}, need q={order}")
    return BiSeries._normalised(order, table.totals)


def avoidance_gf(
    collection: PatternCollection, order: int, table: ClusterTable | None = None
) -> BiSeries:
    """Pi(x,t) = 1/(1 - Pi_cl(x, t-1)), truncated at x^order, computed as
    P(x, t-1) where P(x,s) = 1/(1 - Pi_cl(x,s)) is inverted on the
    unshifted cluster series.  A given table must count this collection."""
    if table is None:
        table = cluster_counts(collection, order, order)
    elif set(table.collection) != set(collection):
        raise DomainError(
            f"table counts clusters of {table.collection.patterns}, "
            f"not of {collection.patterns}"
        )
    pcl = cluster_gf(table, order)
    return (BiSeries.one(order) - pcl).reciprocal().shift_t(-1)


def alpha_counts(series: BiSeries) -> dict[tuple[int, int], int]:
    """alpha_{n,q} = n! c_{n,q}, the normalised coefficients; asserts
    integrality and nonnegativity."""
    for (n, q), a in series.coeffs.items():
        if type(a) is not int or a < 0:
            raise DomainError(f"coefficient at (n={n}, q={q}) is not a count: {a}")
    return dict(series.coeffs)


def count_distribution_oracle(
    collection: PatternCollection, n: int
) -> dict[int, int]:
    """Definitional alpha_{n,q} at one n, from the occurrence DP over S_n
    (``kernels.count_distribution``), which standardizes windows of sigma
    and never reads the overlap graph or the cluster counts."""
    if n < 1:
        raise DomainError("need n >= 1")
    return kernels.count_distribution(n, list(collection))


# ---------------------------------------------------------------------------
# TSV export
# ---------------------------------------------------------------------------


def alpha_to_tsv(series: BiSeries) -> str:
    counts = alpha_counts(series)
    lines = [f"{n}\t{q}\t{counts[(n, q)]}" for n, q in sorted(counts)]
    return "\n".join(lines) + "\n"


def avoiders_to_tsv(series: BiSeries) -> str:
    """Two-column form n, alpha_n for the avoider counts (q = 0 slice)."""
    counts = alpha_counts(series)
    lines = [f"{n}\t{counts.get((n, 0), 0)}" for n in range(1, series.order + 1)]
    return "\n".join(lines) + "\n"


def gf_to_tsv(series: BiSeries) -> str:
    """Exact coefficients as n, q, numerator/denominator rows."""
    rows = ((n, q, series.coeff(n, q)) for n, q in sorted(series.coeffs))
    lines = [f"{n}\t{q}\t{c.numerator}/{c.denominator}" for n, q, c in rows]
    return "\n".join(lines) + "\n"


def gf_from_tsv(text: str, order: int) -> BiSeries:
    coeffs = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        n, q, frac = line.split("\t")
        coeffs[(int(n), int(q))] = Fraction(frac)
    return BiSeries(order, coeffs)
