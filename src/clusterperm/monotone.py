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
and m is the per-vertex maximum of the m_j.

``verify_ode`` checks the system one coefficient at a time.  On the
normalised x^n slices Y[n][q] = n! [x^n t^q] y, the term
d^a(x^b/b! d^c y) has coefficient C(n+a, b) Y[n+a-b+c][q], which is zero when
n+a < b; with a = m - m_j, b = l_j - m_j and c = k_j the equation at x^n t^q
is the recurrence above at length n + m.  The check itself, ``_verify_rows``,
reads the rows Y[n] as lists by q: ``verify_ode`` passes a series' slices,
and ``verify-ode`` the vertex tables its system's boundary was read from.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, perm
from typing import NamedTuple

from .clusters import (
    ClusterTable,
    _monotone_cluster_counts,
    _vertex_tables,
    monotone_recurrence_data,
)
from .graph import (
    OverlapGraph,
    PatternCollection,
    build_graph,
    is_monotone,
    overlap_lengths,
)
from .perms import DomainError, Perm, format_perm, parse_perm
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
    return {  # the counts are n! c_{v,n,q}
        v: BiSeries._normalised(
            order, {(n, q): c for n, row in enumerate(rows) for q, c in enumerate(row)}
        )
        for v, rows in _vertex_tables(build_graph(collection), order, order).items()
    }


# ---------------------------------------------------------------------------
# ODE emission
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class OdeTerm:
    """The operator y -> d^a/dx^a ( x^b/b! * d^c/dx^c y ) applied to y_target."""

    a: int
    b: int
    c: int
    target: Perm


@dataclass(frozen=True)
class OdeEquation:
    vertex: Perm
    order: int  # LHS derivative order m_v
    terms: tuple[OdeTerm, ...]  # RHS, each carrying an overall factor t


@dataclass(frozen=True)
class OdeSystem:
    equations: tuple[OdeEquation, ...]
    # boundary[v][i] is the t-polynomial y_v^(i)(0,t) for i < m_v,
    # as a map q -> coefficient
    boundary: dict[Perm, tuple[dict[int, Fraction], ...]]


def emit_ode_system(collection: PatternCollection) -> OdeSystem:
    return _ode_system(build_graph(collection))[0]


def _ode_system(graph: OverlapGraph, order: int = 0):
    """The system, and the vertex rows its boundary came from: one fill of
    ``_vertex_tables`` through x^order or the largest m_v, if that is more."""
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
    rows = _vertex_tables(graph, top, top)
    boundary = {
        eq.vertex: tuple(
            {q: c for q, c in enumerate(row) if c} for row in rows[eq.vertex][: eq.order]
        )
        for eq in equations
    }
    return OdeSystem(tuple(equations), boundary), rows


def emit_single_pattern_ode(pattern) -> OdeSystem:
    """One-equation specialization for a monotone single pattern."""
    collection = PatternCollection((tuple(pattern),))
    _require_monotone(collection)
    pat = collection.patterns[0]
    l = len(pat)
    ks = overlap_lengths(pat, pat)
    if not ks:
        raise DomainError(f"pattern {pat} has no self-overlap (length-1 expected)")
    ms = [max(pat[l - k :]) for k in ks]
    m = max(ms)
    terms = tuple(
        sorted(OdeTerm(m - mj, l - mj, kj, (1,)) for kj, mj in zip(ks, ms))
    )
    eq = OdeEquation((1,), m, terms)
    rows = [{} for _ in range(m)]
    if m >= 2:
        rows[1] = {0: Fraction(1)}  # y'(0,t) = 1
    return OdeSystem((eq,), {(1,): tuple(rows)})


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


def _slice(specs, n: int) -> list:
    """The normalised x^n slice, by q, of the sum of w t^p x^e d^a(x^b/b! d^c y)
    over the specs (w, p, e, a, b, c, slices of y): with k = n - e + a, a term
    adds w perm(n, e) C(k, b) Y[k-b+c][q-p], and nothing when n < e or k < b."""
    acc = []
    for w, p, e, a, b, c, rows in specs:
        k = n - e + a
        if n < e or k < b or k - b + c < 0:
            continue
        row = rows[k - b + c]
        f = w * perm(n, e) * comb(k, b)
        acc.extend([0] * (p + len(row) - len(acc)))
        for q, y in enumerate(row, p):
            acc[q] += f * y
    return acc


def _residual(terms, slices, orders, top: int):
    """(order checked, least nonzero (n, q, normalised coefficient) or None) for
    the sum of the terms (w, p, e, a, b, c, target); each one caps the order and
    raises where y.dx(c).mul_xpow(b).dx(a).mul_monomial(e).mul_tpow(p) would."""
    specs = []
    for w, p, e, a, b, c, target in terms:
        order = orders[target]
        for bad, what in ((order < c, "truncation order"), (b < 0, "monomial degree"),
                          (order - c + b < a, "truncation order"),
                          (e < 0, "monomial degree"), (p < 0, "t power")):
            if bad:
                raise DomainError(f"{what} must be nonnegative")
        top = min(top, order - c + b - a + e)
        specs.append((w, p, e, a, b, c, slices[target]))
    for n in range(top + 1):
        for q, r in enumerate(_slice(specs, n)):
            if r:
                return top, (n, q, r)
    return top, None


def verify_ode(
    system: OdeSystem, series: dict[Perm, BiSeries], order: int
) -> VerifyReport:
    """Check every equation (and the boundary data) against the series, one
    coefficient at a time on their normalised x^n slices."""
    slices = {v: y._slices() for v, y in series.items()}
    return _verify_rows(system, slices, {v: y.order for v, y in series.items()}, order)


def _verify_rows(system: OdeSystem, slices, orders, order: int) -> VerifyReport:
    """``verify_ode`` on the rows slices[v][n][q] = n! [x^n t^q] y_v, trusted
    through x^orders[v]; cl_{v,n,q} from ``_vertex_tables`` are such rows."""
    checks = []
    for eq in system.equations:
        if order < eq.order:
            raise DomainError(
                f"truncation order {order} is below m_v={eq.order}, the "
                f"derivative order of the equation for vertex "
                f"({format_perm(eq.vertex)})"
            )
        if orders[eq.vertex] < order:
            raise DomainError(
                f"series for {eq.vertex} filled to {orders[eq.vertex]}, need {order}"
            )
        if order < 0:  # only with m_v < 0; the sum of the terms has this order
            raise DomainError("truncation order must be nonnegative")
        lhs = (1, 0, 0, 0, 0, eq.order, eq.vertex)  # y^(m) - t (sum of the terms)
        rhs = [(-1, 1, 0, t.a, t.b, t.c, t.target) for t in eq.terms]
        top, bad = _residual([lhs, *rhs], slices, orders, min(order, order - eq.order))
        if bad:
            n, q, r = bad
            row = _slice([(*lhs[:6], slices[eq.vertex])], n)
            y_m = row[q] if q < len(row) else 0
            bad = (n, q, Fraction(y_m, factorial(n)), Fraction(y_m - r, factorial(n)))
        checks.append(EquationCheck(eq.vertex, bad is None, top, bad))
    boundary_ok = all(
        {q: c for q, c in enumerate(slices[v][i] if i <= orders[v] else []) if c}
        == {q: c for q, c in row.items() if c}
        for v, rows in system.boundary.items()
        for i, row in enumerate(rows)
    )
    ok = boundary_ok and all(c.ok for c in checks)
    return VerifyReport(ok, tuple(checks), boundary_ok)


@dataclass(frozen=True)
class OdePolyTerm:
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
    residual coefficient as (n, q, value) or None, order actually checked)."""
    slices = {v: y._slices() for v, y in series.items()}
    terms = [(Fraction(t.coeff), t.t_power, t.pre_degree, t.a, t.b, t.c, t.target)
             for t in terms]
    top, bad = _residual(terms, slices, {v: y.order for v, y in series.items()}, order)
    if bad:
        bad = (*bad[:2], Fraction(bad[2], factorial(bad[0])))
    return bad is None, bad, top


# ---------------------------------------------------------------------------
# Serialization and rendering
# ---------------------------------------------------------------------------


def _poly_to_json(poly: dict[int, Fraction]):
    return {str(q): f"{c.numerator}/{c.denominator}" for q, c in sorted(poly.items())}


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


def system_from_json(text: str) -> OdeSystem:
    doc = json.loads(text)
    equations = []
    boundary = {}
    for item in doc["equations"]:
        v = parse_perm(item["vertex"])
        terms = tuple(
            OdeTerm(t["a"], t["b"], t["c"], parse_perm(t["target"]))
            for t in item["terms"]
        )
        equations.append(OdeEquation(v, item["order"], terms))
        boundary[v] = tuple(
            {int(q): Fraction(c) for q, c in row.items()}
            for row in item.get("boundary", [])
        )
    return OdeSystem(tuple(equations), boundary)


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
