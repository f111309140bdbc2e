"""Truncated bivariate exponential generating functions, exact arithmetic.

A BiSeries represents sum c_{n,q} x^n t^q with an explicit truncation
order: coefficients of x^n are trusted only for n <= order.  Binary
operations take the minimum of the operand orders, so precision loss is
always visible in the result's order.

Coefficients are stored EGF-normalised, in rows: ``rows[n][q]`` holds
n! c_{n,q} for n = 0..order.  A labelled product is then a binomial
convolution, d/dx an index shift and multiplication by x^b/b! a binomial
weight, and every stored value is an ``int``: no n! denominators, no gcds.
The constructor rejects a c_{n,q} whose n! c_{n,q} is not an integer, and
``scale`` and ``shift_t`` take only integers.

The cluster-method identities live here: Pi_cl(x,t) assembled from a cluster
table, the substitution t -> t + delta, series reciprocal, and the avoidance
generating function Pi(x,t) = 1/(1 - Pi_cl(x, t-1)) whose normalised
coefficients are alpha_{n,q} = n! c_{n,q}, the number of permutations of
length n with exactly q consecutive occurrences of patterns from the
collection.  Both of its paths read the unshifted cluster rows, which are
sparse in s where the shifted ones are dense, and use
Pi(x,t) = P(x, t-1) with P(x,s) = 1/(1 - Pi_cl(x,s)).

Below order 40 ``avoidance_gf`` inverts 1 - Pi_cl(x,s) cell by cell with
``reciprocal`` and substitutes s -> t-1 with ``shift_t``: t -> t-1 is a ring
homomorphism on each x^n slice, so it commutes with inversion.  From order 40
on, ``_avoidance_rows`` evaluates P at s = 2^w - 1 instead (Kronecker
substitution): P_n(2^w - 1) = Pi_n(2^w), one integer per row whose base-2^w
digits are the alpha_{n,q} themselves, since each lies in 0..n! and w is
chosen with n! < 2^(w-1).  The pass needs no bound pass and no shift, and
checks that each row sums to n!.  It is ahead of the list path at orders
2-6 and 24-100 and about even at 8-13; ``_PACKED_ORDER_MIN`` gives the
numbers, and the one reason the bound is still 40.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, perm
from operator import add, mul

from . import kernels
from .clusters import ClusterTable, cluster_counts
from .graph import PatternCollection
from .kernels import slot_width, unpack_rows
from .perms import DomainError


def _integer(value, what: str) -> int:
    """value as an int: an int, or a rational whose denominator is 1."""
    if getattr(value, "denominator", None) != 1:
        raise DomainError(f"{what} must be an integer, not {value}")
    return int(value)


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
    The constructor takes ordinary coefficients {(n, q): c}, each with n! c
    an integer; ``coeff`` and ``subs_t`` return ordinary ones."""

    __slots__ = ("order", "rows")

    def __init__(self, order: int, coeffs=None):
        rows = [[] for _ in range(order + 1)]
        for (n, q), c in (coeffs or {}).items():
            if n < 0 or q < 0:
                raise DomainError(f"{'x' if n < 0 else 't'} exponents must be nonnegative")
            if n <= order:
                row = rows[n]
                row.extend([0] * (q + 1 - len(row)))
                row[q] = _integer(Fraction(c) * factorial(n), f"n! c at (n={n}, q={q})")
        self.order, self.rows = order, BiSeries._of_rows(order, rows).rows

    @classmethod
    def _of_rows(cls, order: int, rows: list[list[int]]) -> "BiSeries":
        """The series on the normalised int rows[n][q], n = 0..order.  It
        owns the lists, and trims their trailing zeros."""
        if order < 0:
            raise DomainError("truncation order must be nonnegative")
        for row in rows:
            while row and not row[-1]:
                row.pop()
        s = cls.__new__(cls)
        s.order, s.rows = order, rows
        return s

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls, order: int) -> "BiSeries":
        return cls(order, {(0, 0): 1})

    # -- accessors ---------------------------------------------------------

    @property
    def coeffs(self) -> dict[tuple[int, int], int]:
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

    def scale(self, factor: int) -> "BiSeries":
        f = _integer(factor, "scale factor")
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
        delta = _integer(delta, "t shift")
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
        r_n = -sum_{m=1..n} C(n, m) a_m r_{n-m}, one multiply-add per pair
        of cells."""
        a, order = self.rows, self.order
        if a[0] != [1]:
            raise DomainError("reciprocal requires constant term 1")
        r = [[1]]
        for n in range(1, order + 1):
            acc = []
            for m in range(1, n + 1):
                _mac(acc, a[m], r[n - m], -comb(n, m))
            while acc and not acc[-1]:
                acc.pop()
            r.append(acc)
        return BiSeries._of_rows(order, r)


# The order from which ``avoidance_gf`` takes the packed pass.  The median
# time of list reciprocal + shift over the packed pass on the seven inputs of
# tools/reciprocal_crossover.py (ROADMAP baseline) shows the pass ahead by
# 1.08-1.55x at orders 2-6, about even (0.84-1.13x) at 8-13, ahead from 24 to
# 100, and behind on three of seven inputs at 140 (0.81-0.97x).  The bound is
# 40 only because perfbench/tests/test_perfbench.py asserts
# series.reciprocal_s > 0 on ``count 123 --n 6``, which needs the list path.
_PACKED_ORDER_MIN = 40


def _avoidance_rows(pcl_rows: list[list[int]], order: int) -> list[list[int]]:
    """The rows of Pi(x, t) = 1/(1 - Pi_cl(x, t-1)) through x^order, from the
    unshifted rows of Pi_cl, in one packed pass with no shift.

    With B = 2^width and P(x, s) = 1/(1 - Pi_cl(x, s)), Pi_n(B) =
    P_n(B - 1) = R_n, where R_0 = 1 and R_n = sum_m C(n, m) Pi_cl,m(B - 1)
    R_{n-m}, every term nonnegative.  Reading Pi_cl by t-degree from the top
    down, R_n is Horner's rule in B - 1 over one C-level sum of products per
    degree.  The base-B digits of R_n are the alpha_{n,q}, counts in 0..n!,
    and n! < 2^(width - 1), so the signed ``unpack_rows`` reads them
    unchanged.  That holds only if the rows count clusters, where
    Pi(x, 1) = 1/(1 - x); so a row that does not sum to n! raises."""
    width = slot_width(factorial(order))
    cols = []  # (first and last m with Pi_cl[m][i] != 0, Pi_cl[m][i] by m), i from the top
    for i in reversed(range(max(map(len, pcl_rows)))):
        col = [row[i] if i < len(row) else 0 for row in pcl_rows]
        ms = [m for m in range(1, order + 1) if col[m]] or [order + 1]  # empty: Horner steps only
        cols.append((ms[0], ms[-1], col))
    packed, binom = [1], [1]
    for n in range(1, order + 1):
        binom = [1, *map(add, binom, binom[1:]), 1]
        back = packed[::-1]  # R_{n-m} at index m - 1
        total = 0
        for lo, hi, col in cols:
            total = (total << width) - total
            if lo <= n:
                hi = min(hi, n)
                weights = map(mul, binom[lo : hi + 1], col[lo : hi + 1])
                total += sum(map(mul, weights, back[lo - 1 : hi]))
        packed.append(total)
    rows = unpack_rows(packed, width)
    for n, row in enumerate(rows):
        if sum(row) != factorial(n):
            raise DomainError(f"row n={n} of the inverse sums to {sum(row)}, not n!: "
                              f"the table does not count clusters")
    return rows


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
    return BiSeries._of_rows(order, [row[:] for row in table.rows[: order + 1]])


def avoidance_gf(
    collection: PatternCollection, order: int, table: ClusterTable | None = None
) -> BiSeries:
    """Pi(x,t) = 1/(1 - Pi_cl(x, t-1)), truncated at x^order, computed as
    P(x, t-1) where P(x,s) = 1/(1 - Pi_cl(x,s)): by ``reciprocal`` and
    ``shift_t`` below order _PACKED_ORDER_MIN, by ``_avoidance_rows`` from
    it.  A given table must count this collection."""
    if table is None:
        table = cluster_counts(collection, order, order)
    elif set(table.collection) != set(collection):
        raise DomainError(
            f"table counts clusters of {table.collection.patterns}, "
            f"not of {collection.patterns}"
        )
    pcl = cluster_gf(table, order)
    if order >= _PACKED_ORDER_MIN:
        return BiSeries._of_rows(order, _avoidance_rows(pcl.rows, order))
    return (BiSeries.one(order) - pcl).reciprocal().shift_t(-1)


def alpha_counts(series: BiSeries) -> dict[tuple[int, int], int]:
    """alpha_{n,q} = n! c_{n,q}, the normalised coefficients; asserts
    integrality and nonnegativity in the one pass that builds the table."""
    return {
        (n, q): a
        for n, row in enumerate(series.rows)
        for q, a in enumerate(row)
        if a and (type(a) is int and a > 0 or _not_a_count(n, q, a))
    }


def _not_a_count(n: int, q: int, a):
    raise DomainError(f"coefficient at (n={n}, q={q}) is not a count: {a}")


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
