"""Monotone collections: simplified recurrence and linear ODE systems.

A collection is monotone when every realized k-overlap forces the overlapped
prefix of the right pattern to use only entries <= k.  For such collections
the refined cluster statistics collapse (the initial subword of a cluster is
literally the vertex permutation), the recurrence reduces to a single
binomial per edge,

    cl_{v,n,q} = sum_j C(n - m_j, l_j - m_j) cl_{v_j, n - l_j + k_j, q - 1},

and the vertex generating functions y_v(x,t) = sum cl_{v,n,q} x^n/n! t^q
satisfy a linear ODE system with monomial coefficients:

    d^m/dx^m y_v = t sum_j d^(m-m_j)/dx^(m-m_j) ( x^(l_j-m_j)/(l_j-m_j)!
                                                   d^(k_j)/dx^(k_j) y_{v_j} ),

where m_j is the maximal entry of the final k_j-subword of the edge pattern
and m is the per-vertex maximum of the m_j.  A single pattern's ODE
(``emit_single_pattern_ode``) is this system's equation for (1): every vertex
series other than y_(1) is y_(1) - x, and every term reads it at order >= 2.
The system's boundary holds each y_v^(i)(0, t), i < m_v, as a row: its
coefficients by q with no trailing zeros, as ``kernels.unpack_rows`` gives.

``verify_ode`` checks the system on packed rows.  On the normalised x^n
slices Y[n][q] = n! [x^n t^q] y, the term d^a(x^b/b! d^c y) has coefficient
C(n+a, b) Y[n+a-b+c][q], which is zero when n+a < b; with a = m - m_j,
b = l_j - m_j and c = k_j the equation at x^n t^q is the recurrence above at
length n + m.  Each row Y[n] is kept as one integer, the t-polynomial at
t = 2^s (``clusters.PackedRows``), so the equation at x^n is one signed sum
that must be zero: Y[n+m] minus (sum C(n+a, b) Y[n+a-b+c]) << s.  Every
residual coefficient is at most sum C(n+a, b) |Y[n+a-b+c]| + |Y[n+m]| in
size, a bound taken from the system's own terms; the rows are repacked
wider (``PackedRows.widened``) only where s does not keep it below 2^(s-1).
So no slot can carry into the next, the sum is zero only if every
coefficient is, and a wrong system or a wrong row can never alias to
a right one.  Only the first x^n that fails is unpacked, into signed
base-2^s digits, to report (n, q, lhs, rhs).  ``_check`` does this for
emitted and hand-assembled equations alike, and trusts each vertex's rows
through the last one.  ``verify-ode`` checks the vertex tables it filled;
``verify_ode`` and ``verify_poly_ode`` first pack the series' rows, one per
x^n through its order, by the fill's width rule (``_pack_series``).
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb, factorial, lcm, perm
from operator import add, mul
from typing import NamedTuple

from .clusters import (
    ClusterTable,
    PackedRows,
    _monotone_cluster_counts,
    _vertex_tables,
    monotone_recurrence_data,
)
from .graph import OverlapGraph, PatternCollection, build_graph, is_monotone
from .kernels import pack_row, slot_width, unpack_rows
from .perms import DomainError, Perm, format_perm
from .series import BiSeries


class MonotoneError(DomainError):
    pass


def _require_monotone(collection: PatternCollection):
    res = is_monotone(collection)
    if not res:
        pi, pp, k = res.witness
        raise MonotoneError(
            f"collection is not monotone: patterns {pi} -> {pp} overlap at "
            f"k={k} with prefix entry {max(pp[:k])} > {k}"
        )


def monotone_cluster_counts(
    collection: PatternCollection, n_max: int, q_max: int
) -> ClusterTable:
    """Totals cl_{n,q} via the simplified monotone recurrence."""
    _require_monotone(collection)
    if n_max < 1 or q_max < 1:
        raise DomainError("need n_max >= 1 and q_max >= 1")
    return _monotone_cluster_counts(collection, n_max, q_max)


def monotone_vertex_series(
    collection: PatternCollection, order: int
) -> dict[Perm, BiSeries]:
    """The generating functions y_v(x,t), truncated at x^order."""
    _require_monotone(collection)
    tables = _vertex_tables(build_graph(collection), order, order)
    return {v: BiSeries._of_rows(order, tables.lists(v)) for v in tables.rows}


# ---------------------------------------------------------------------------
# ODE emission
# ---------------------------------------------------------------------------


class OdeTerm(NamedTuple):
    """The operator y -> d^a/dx^a ( x^b/b! * d^c/dx^c y ) applied to y_target."""

    a: int
    b: int
    c: int
    target: Perm


class OdeEquation(NamedTuple):
    vertex: Perm
    order: int  # LHS derivative order m_v
    terms: tuple[OdeTerm, ...]  # RHS, each carrying an overall factor t


class OdeSystem(NamedTuple):
    equations: tuple[OdeEquation, ...]
    # boundary[v][i] is the t-polynomial y_v^(i)(0,t) for i < m_v, as its
    # coefficients by q with no trailing zeros
    boundary: dict[Perm, tuple[list[int], ...]]


def emit_ode_system(collection: PatternCollection) -> OdeSystem:
    return _ode_system(build_graph(collection))[0]


def _ode_system(graph: OverlapGraph, order: int = 0):
    """The system, and the vertex rows its boundary came from: one fill of
    ``_vertex_tables`` through x^order or the largest m_v, if that is more.

    The rows stay packed at t = 2^s; only the first m_v rows of each vertex
    are unpacked, for the boundary.  The fill's width s holds twice every
    row bound, and the residual of an emitted equation is a row minus a sum
    of rows bounded by that same row's bound, so ``_verify_rows`` checks
    them at s without repacking."""
    _require_monotone(graph.collection)
    data = monotone_recurrence_data(graph)
    equations = []
    for v in graph.vertices:
        # only (1) of the collection (1) has no out-edges; its series
        # y = x + t x satisfies y'' = 0
        m_v = max((d.m for d in data[v]), default=2)
        terms = tuple(
            sorted(OdeTerm(m_v - d.m, d.l - d.m, d.k, d.target) for d in data[v])
        )
        equations.append(OdeEquation(v, m_v, terms))
    # y_v^(i)(0, t) = sum_q cl_{v,i,q} t^q, read off this graph's cell table
    top = max(order, *(eq.order for eq in equations))
    tables = _vertex_tables(graph, top, top)
    boundary = {eq.vertex: tuple(unpack_rows(tables.rows[eq.vertex][: eq.order], tables.width))
                for eq in equations}
    return OdeSystem(tuple(equations), boundary), tables


def emit_single_pattern_ode(pattern) -> OdeSystem:
    """The equation and boundary for (1) of the graph system of a monotone
    single pattern of length >= 2, with every term's target set to (1).

    Every cluster starts with an occurrence of the pattern, so y_v = y_(1) - x
    for every vertex v != (1), and a term reads y_v only at d^c with
    c = |v| >= 2, where d^c y_v = d^c y_(1)."""
    collection = PatternCollection((pattern,))
    system, _ = _ode_system(build_graph(collection))
    eq = system.equations[0]  # the vertices are sorted by length: (1) is first
    if not eq.terms:
        pat = collection.patterns[0]
        raise DomainError(f"pattern {pat} has no self-overlap (length-1 expected)")
    terms = tuple(sorted(t._replace(target=(1,)) for t in eq.terms))
    return OdeSystem((eq._replace(terms=terms),), {(1,): system.boundary[(1,)]})


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


class EquationCheck(NamedTuple):
    vertex: Perm
    ok: bool
    checked_order: int
    mismatch: tuple[int, int, Fraction, Fraction] | None  # (n, q, lhs, rhs)


class VerifyReport(NamedTuple):
    ok: bool
    equations: tuple[EquationCheck, ...]
    boundary_ok: bool

    def __bool__(self):
        return self.ok


def _check(terms, tables: PackedRows, top: int):
    """(order checked, first residual) of the sum of the terms (w, p, e, a,
    b, c, target) on the packed rows, each vertex's trusted through x^n for
    n < len(tables.rows[v]); each term caps the order and raises where
    y.dx(c).mul_xpow(b).dx(a).mul_monomial(e).mul_tpow(p) would.

    With k = n - e + a, a term adds w perm(n, e) C(k, b) Y[k-b+c] t^p to the
    normalised x^n slice, and nothing when n < e or k < b.  The plan lists
    (n0, fs, p, target, d) by term: fs[n - n0] is its factor at x^n for
    n0 <= n <= top, and it reads Y[n + d].  No t-coefficient of the slice is
    larger in size than the sum of |factor| bounds[target][n + d], and the
    rows are repacked only if the largest such sum does not fit the width."""
    for w, p, e, a, b, c, target in terms:
        order = len(tables.rows[target]) - 1
        for bad, what in ((order < c, "truncation order"), (b < 0, "monomial degree"),
                          (order - c + b < a, "truncation order"),
                          (e < 0, "monomial degree"), (p < 0, "t power")):
            if bad:
                raise DomainError(f"{what} must be nonnegative")
        top = min(top, order - c + b - a + e)
    plan = []
    sizes = [0] * (top + 1)
    for w, p, e, a, b, c, target in terms:
        n0, d = max(e, e - a + b, e - a + b - c), a - e - b + c
        fs = [w * perm(n, e) * comb(n - e + a, b) for n in range(n0, top + 1)]
        plan.append((n0, fs, p, target, d))
        parts = map(mul, map(abs, fs), tables.bounds[target][n0 + d :])
        sizes[n0:] = map(add, sizes[n0:], parts)
    tables = tables.widened(slot_width(max(sizes, default=0)))
    return top, _first_residual(plan, top, tables)


def _first_residual(plan, top: int, tables: PackedRows):
    """The least (n, q, normalised coefficient) of the residual that is not
    zero, or None.  At each x^n, the terms' rows are shifted up p slots and
    added or subtracted by the sign of their factor: one signed sum.  No
    residual digit reaches 2^(width - 1) in size, so no digit can carry into
    the next, and the sum is zero only if every digit is."""
    s, rows = tables.width, tables.rows
    for n in range(top + 1):
        total = 0
        for n0, fs, p, t, d in plan:
            if n < n0:
                continue
            f, x = fs[n - n0], rows[t][n + d] << p * s
            if f not in (1, -1):
                x *= abs(f)
            total = total + x if f > 0 else total - x
        if total:
            digits = unpack_rows([total], s)[0]
            q = next(q for q, r in enumerate(digits) if r)
            return n, q, digits[q]
    return None


def _pack_series(series: dict[Perm, BiSeries]) -> PackedRows:
    """The series' rows packed by the rule of ``_vertex_tables``: at the
    width holding twice the largest row bound."""
    bounds = {v: [max(map(abs, row), default=0) for row in y.rows] for v, y in series.items()}
    width = slot_width(2 * max(map(max, bounds.values()), default=0))
    rows = {v: [pack_row(row, width) for row in y.rows] for v, y in series.items()}
    return PackedRows(width, rows, bounds)


def verify_ode(
    system: OdeSystem, series: dict[Perm, BiSeries], order: int
) -> VerifyReport:
    """Check every equation (and the boundary data) against the series: their
    rows are packed once, and each x^n is checked by one signed sum."""
    return _verify_rows(system, _pack_series(series), order)


def _verify_rows(system: OdeSystem, tables: PackedRows, order: int) -> VerifyReport:
    """``verify_ode`` on packed rows tables.rows[v][n], where row n packs
    n! [x^n t^q] y_v and the last row is the last one trusted: the vertex
    tables the system's boundary was read from are such rows.  Each
    equation y_v^(m) - t (sum of the terms) goes through ``_check``, and
    only a failing x^n is unpacked."""
    checks = []
    for eq in system.equations:
        if order < eq.order:
            raise DomainError(
                f"truncation order {order} is below m_v={eq.order}, the "
                f"derivative order of the equation for vertex "
                f"({format_perm(eq.vertex)})"
            )
        filled = len(tables.rows[eq.vertex]) - 1
        if filled < order:
            raise DomainError(f"series for {eq.vertex} filled to {filled}, need {order}")
        if order < 0:  # only with m_v < 0; the sum of the terms has this order
            raise DomainError("truncation order must be nonnegative")
        lhs = (1, 0, 0, 0, 0, eq.order, eq.vertex)
        rhs = [(-1, 1, 0, t.a, t.b, t.c, t.target) for t in eq.terms]
        top, bad = _check([lhs, *rhs], tables, min(order, order - eq.order))
        if bad:
            n, q, r = bad
            row = unpack_rows([tables.rows[eq.vertex][n + eq.order]], tables.width)[0]
            y_m = row[q] if q < len(row) else 0
            bad = (n, q, Fraction(y_m, factorial(n)), Fraction(y_m - r, factorial(n)))
        checks.append(EquationCheck(eq.vertex, bad is None, top, bad))
    # rows past the last one read as zero; a caller's rows compare trimmed
    boundary_ok = all(
        unpack_rows((tables.rows[v] + [0] * len(rows))[: len(rows)], tables.width)
        == [list(row)[: max((q + 1 for q, c in enumerate(row) if c), default=0)] for row in rows]
        for v, rows in system.boundary.items()
    )
    ok = boundary_ok and all(c.ok for c in checks)
    return VerifyReport(ok, tuple(checks), boundary_ok)


class OdePolyTerm(NamedTuple):
    """coeff * t^t_power * x^pre_degree * d^a/dx^a ( x^b/b! d^c/dx^c y_target );
    general enough for hand-assembled single equations with polynomial
    coefficients."""

    coeff: Fraction
    t_power: int
    pre_degree: int
    a: int
    b: int
    c: int
    target: Perm


def verify_poly_ode(
    terms: list[OdePolyTerm], series: dict[Perm, BiSeries], order: int
) -> tuple[bool, tuple[int, int, Fraction] | None, int]:
    """Check that the sum of the terms vanishes; returns (ok, first nonzero
    residual coefficient as (n, q, value) or None, order actually checked).
    The coefficients are cleared by the lcm of their denominators, and the
    rows packed as in ``verify_ode``."""
    coeffs = [Fraction(t.coeff) for t in terms]
    weight = lcm(*(c.denominator for c in coeffs))
    terms = [(int(c * weight), t.t_power, t.pre_degree, t.a, t.b, t.c, t.target)
             for c, t in zip(coeffs, terms)]
    top, bad = _check(terms, _pack_series(series), order)
    if bad:
        bad = (*bad[:2], Fraction(bad[2], weight * factorial(bad[0])))
    return bad is None, bad, top


# ---------------------------------------------------------------------------
# Serialization and rendering
# ---------------------------------------------------------------------------


def _poly_to_json(row: list[int]):
    return {str(q): f"{c.numerator}/{c.denominator}" for q, c in enumerate(row) if c}


def system_to_json(system: OdeSystem) -> str:
    doc = {
        "equations": [
            {
                "vertex": format_perm(eq.vertex),
                "order": eq.order,
                "terms": [
                    {"a": t.a, "b": t.b, "c": t.c, "target": format_perm(t.target)}
                    for t in eq.terms
                ],
                "boundary": [
                    _poly_to_json(p) for p in system.boundary.get(eq.vertex, ())
                ],
            }
            for eq in system.equations
        ]
    }
    return json.dumps(doc, indent=2) + "\n"


def _term_text(t: OdeTerm) -> str:
    inner = f"y_({''.join(map(str, t.target))})"
    if t.c:
        inner = f"{inner}^({t.c})"
    if t.b:
        inner = f"x^{t.b}/{t.b}! * {inner}"
    if t.a:
        inner = f"d^{t.a}/dx^{t.a}( {inner} )"
    return inner


def system_to_text(system: OdeSystem) -> str:
    lines = []
    for eq in system.equations:
        name = f"y_({''.join(map(str, eq.vertex))})"
        rhs = " + ".join(_term_text(t) for t in eq.terms)
        lines.append(f"{name}^({eq.order}) = " + (f"t * ( {rhs} )" if rhs else "0"))
    return "\n".join(lines) + "\n"
