"""Truncated bivariate exponential generating functions, exact arithmetic.

A BiSeries represents sum c_{n,q} x^n t^q with rational coefficients and an
explicit truncation order: coefficients of x^n are trusted only for
n <= order.  Binary operations take the minimum of the operand orders, so
precision loss is always visible in the result's order.

Coefficients are stored EGF-normalised, in rows: ``rows[n][q]`` holds
n! c_{n,q} for n = 0..order.  A labelled product is then a binomial
convolution, d/dx an index shift and multiplication by x^b/b! a binomial
weight, so integral coefficients stay integral (no n! denominators, no gcds)
under every operation but ``scale`` by a non-integer.  Values are ``int``
wherever integral, else ``Fraction``.

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


def _fill_rows(order: int, cells) -> list[list]:
    """rows[n][q] = cells[(n, q)] for n = 0..order; cells past x^order are dropped."""
    rows = [[] for _ in range(order + 1)]
    for (n, q), c in cells.items():
        if n <= order:
            row = rows[n]
            row.extend([0] * (q + 1 - len(row)))
            row[q] = c
    return rows


def _mac(acc: list, u: list, v: list, w) -> None:
    """acc += w u v, the three rows read as polynomials in t."""
    acc.extend([0] * (len(u) + len(v) - 1 - len(acc)))
    for i, x in enumerate(u):
        if x:
            x *= w
            for j, y in enumerate(v, i):
                acc[j] += x * y


class BiSeries:
    """A truncated series whose ``rows[n][q]`` (n = 0..order) is n! times the
    coefficient of x^n t^q; each row ends in a nonzero entry.  Every operation
    returns fresh rows through ``_of_rows``; ``coeffs`` is a read-only view.
    The constructor takes ordinary coefficients {(n, q): c}; ``coeff`` and
    ``subs_t`` return ordinary ones."""

    __slots__ = ("order", "rows")

    def __init__(self, order: int, coeffs=None):
        cells = {}
        for (n, q), c in (coeffs or {}).items():
            if n < 0 or q < 0:
                raise DomainError(f"{'x' if n < 0 else 't'} exponents must be nonnegative")
            if n <= order:
                cells[n, q] = Fraction(c) * factorial(n)
        self.order, self.rows = order, BiSeries._of_rows(order, _fill_rows(order, cells)).rows

    @classmethod
    def _of_rows(cls, order: int, rows: list[list]) -> "BiSeries":
        """The series on the normalised rows[n][q], n = 0..order.  It owns
        the lists: trailing zeros are trimmed, integral values made ints."""
        if order < 0:
            raise DomainError("truncation order must be nonnegative")
        for row in rows:
            while row and not row[-1]:
                row.pop()
            if set(map(type, row)) - {int}:
                row[:] = [c if type(c) is int or c.denominator != 1 else c.numerator for c in row]
        s = cls.__new__(cls)
        s.order, s.rows = order, rows
        return s

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls, order: int) -> "BiSeries":
        return cls(order, {(0, 0): 1})

    # -- accessors ---------------------------------------------------------

    @property
    def coeffs(self) -> dict[tuple[int, int], int | Fraction]:
        """{(n, q): n! c_{n,q}} for the nonzero coefficients, in (n, q) order."""
        return {(n, q): c for n, row in enumerate(self.rows) for q, c in enumerate(row) if c}

    def coeff(self, n: int, q: int) -> Fraction:
        row = self.rows[n] if 0 <= n <= self.order else []
        return Fraction(row[q], factorial(n)) if 0 <= q < len(row) else Fraction(0)

    def eq_through(self, other: "BiSeries", order: int | None = None) -> bool:
        top = min(self.order, other.order, self.order if order is None else order)
        return top < 0 or self.rows[: top + 1] == other.rows[: top + 1]

    def __eq__(self, other):
        if not isinstance(other, BiSeries):
            return NotImplemented
        return self.order == other.order and self.rows == other.rows

    def __repr__(self):
        return f"BiSeries(order={self.order}, terms={len(self.coeffs)})"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "BiSeries", sign: int = 1) -> "BiSeries":
        rows = []
        for u, v in zip(self.rows, other.rows):  # through the smaller order
            acc = u + [0] * (len(v) - len(u))
            for q, c in enumerate(v):
                acc[q] += sign * c
            rows.append(acc)
        return BiSeries._of_rows(min(self.order, other.order), rows)

    def __sub__(self, other: "BiSeries") -> "BiSeries":
        return self.__add__(other, -1)

    def __neg__(self) -> "BiSeries":
        return BiSeries._of_rows(self.order, [[-c for c in row] for row in self.rows])

    def scale(self, factor) -> "BiSeries":
        f = Fraction(factor)
        return BiSeries._of_rows(self.order, [[c * f for c in row] for row in self.rows])

    def __mul__(self, other: "BiSeries") -> "BiSeries":
        """Binomial convolution: n! [x^n] fg = sum C(n, n1) a_{n1} b_{n-n1}."""
        order = min(self.order, other.order)
        a, b = self.rows, other.rows
        rows = []
        for n in range(order + 1):
            acc = []
            for n1 in range(n + 1):
                _mac(acc, a[n1], b[n - n1], comb(n, n1))
            rows.append(acc)
        return BiSeries._of_rows(order, rows)

    def truncated(self, order: int) -> "BiSeries":
        order = min(order, self.order)
        return BiSeries._of_rows(order, [row[:] for row in self.rows[: order + 1]])

    # -- calculus and substitutions -----------------------------------------

    def dx(self, times: int = 1) -> "BiSeries":
        """d^times/dx^times: an index shift of the normalised coefficients."""
        rows = [[] for _ in range(-times)] + [row[:] for row in self.rows[max(times, 0):]]
        return BiSeries._of_rows(self.order - times, rows)

    def _lift(self, k: int, weight) -> "BiSeries":
        """Row n moved to n + k and multiplied by weight(n + k, k)."""
        if k < 0:
            raise DomainError("monomial degree must be nonnegative")
        rows = [[weight(n, k) * c for c in row] for n, row in enumerate(self.rows, k)]
        return BiSeries._of_rows(self.order + k, [[] for _ in range(k)] + rows)

    def mul_xpow(self, b: int) -> "BiSeries":
        """Multiply by x^b / b!."""
        return self._lift(b, comb)

    def mul_monomial(self, e: int) -> "BiSeries":
        """Multiply by the plain monomial x^e."""
        return self._lift(e, perm)

    def mul_tpow(self, p: int) -> "BiSeries":
        if p < 0:
            raise DomainError("t power must be nonnegative")
        rows = [[0] * p + row if row else [] for row in self.rows]
        return BiSeries._of_rows(self.order, rows)

    def shift_t(self, delta: int) -> "BiSeries":
        """Substitute t -> t + delta, re-expanding each row exactly by the
        Taylor shift: pass i divides by (t - delta) once more and leaves the
        i-th coefficient of the result in row[i]."""
        rows = [row[:] for row in self.rows]
        for row in rows:
            top = len(row) - 1
            for i in range(top):
                for j in range(top - 1, i - 1, -1):
                    row[j] += delta * row[j + 1]
        return BiSeries._of_rows(self.order, rows)

    def subs_t(self, value) -> dict[int, Fraction]:
        """Evaluate at a numeric t; returns the univariate slice map n -> c."""
        v = Fraction(value)
        totals = (sum(c * v**q for q, c in enumerate(row)) for row in self.rows)
        return {n: Fraction(c, factorial(n)) for n, c in enumerate(totals) if c}

    def reciprocal(self) -> "BiSeries":
        """Inverse series in x; requires constant coefficient exactly 1.

        On the rows a_n(t), the inverse r has r_0 = 1 and
        r_n = -sum_{m=1..n} C(n, m) a_m r_{n-m}."""
        a = self.rows
        if a[0] != [1]:
            raise DomainError("reciprocal requires constant term 1")
        r = [[1]]
        for n in range(1, self.order + 1):
            acc = []
            for m in range(1, n + 1):
                _mac(acc, a[m], r[n - m], -comb(n, m))
            while acc and not acc[-1]:
                acc.pop()
            r.append(acc)
        return BiSeries._of_rows(self.order, r)


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
    return BiSeries._of_rows(order, _fill_rows(order, table.totals))


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
    counts = series.coeffs
    for (n, q), a in counts.items():
        if type(a) is not int or a < 0:
            raise DomainError(f"coefficient at (n={n}, q={q}) is not a count: {a}")
    return counts


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
    lines = [f"{n}\t{q}\t{a}" for (n, q), a in alpha_counts(series).items()]
    return "\n".join(lines) + "\n"


def avoiders_to_tsv(series: BiSeries) -> str:
    """Two-column form n, alpha_n for the avoider counts (q = 0 slice)."""
    alpha_counts(series)  # every coefficient must be a count
    lines = [f"{n}\t{row[0] if row else 0}" for n, row in enumerate(series.rows) if n]
    return "\n".join(lines) + "\n"


def gf_to_tsv(series: BiSeries) -> str:
    """Exact coefficients as n, q, numerator/denominator rows."""
    fact = [factorial(n) for n in range(series.order + 1)]
    cells = ((n, q, Fraction(c, fact[n])) for (n, q), c in series.coeffs.items())
    lines = [f"{n}\t{q}\t{c.numerator}/{c.denominator}" for n, q, c in cells]
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
