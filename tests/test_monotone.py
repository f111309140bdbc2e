"""Monotone collections: recurrence, ODE emission, and verification."""

from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import comb, factorial, lcm

import pytest

import clusterperm.clusters as clusters_module
import clusterperm.graph as graph_module
import clusterperm.monotone as monotone_module
from conftest import MONO_A, MONO_C, MONO_D, MONO_ALL
from test_acceptance import (
    CORRECT_C,
    CORRECT_D,
    ELIMINATED_C,
    ELIMINATED_D,
    ONE,
    _poly_terms,
)
from clusterperm.clusters import (
    PackedRows,
    _refined_cluster_counts,
    _vertex_tables,
    cluster_counts,
    count_clusters_oracle,
)
from clusterperm.graph import PatternCollection, _overlaps, build_graph
from clusterperm.kernels import pack_row, slot_width
from clusterperm.monotone import (
    EquationCheck,
    MonotoneError,
    OdeEquation,
    OdePolyTerm,
    OdeSystem,
    OdeTerm,
    VerifyReport,
    _ode_system,
    _verify_rows,
    emit_ode_system,
    emit_single_pattern_ode,
    is_monotone,
    monotone_cluster_counts,
    monotone_vertex_series,
    system_to_json,
    system_to_text,
    verify_ode,
    verify_poly_ode,
)
from clusterperm.perms import DomainError
from clusterperm.series import (
    BiSeries,
    alpha_counts,
    avoidance_gf,
    count_distribution_oracle,
)


def test_is_monotone_positive():
    for coll in MONO_ALL:
        assert is_monotone(coll)


def test_is_monotone_negative_with_witness():
    res = is_monotone(PatternCollection(((2, 1, 3),)))
    assert not res
    pi, pip, k = res.witness
    assert (pi, pip, k) == ((2, 1, 3), (2, 1, 3), 1)
    assert max(pip[:k]) == 2  # the offending prefix entry exceeds k


def test_monotone_matches_general_engine():
    # cluster_counts routes these collections to the collapsed recurrence, so
    # the refined recurrence is called directly to keep the check independent
    for coll in MONO_ALL:
        mono = monotone_cluster_counts(coll, 12, 4)
        gen = _refined_cluster_counts(coll, 12, 4)
        assert mono.totals == dict(gen.totals)
        for n_max, q_max in ((0, 3), (3, 0)):
            with pytest.raises(DomainError, match="need n_max >= 1 and q_max >= 1"):
                monotone_cluster_counts(coll, n_max, q_max)
        for n in range(1, 9):
            for q in range(1, 5):
                assert mono.total(n, q) == count_clusters_oracle(coll, n, q), (
                    coll, n, q)


def test_emit_requires_monotone():
    with pytest.raises(MonotoneError):
        emit_ode_system(PatternCollection(((2, 1, 3),)))
    with pytest.raises(MonotoneError):
        emit_single_pattern_ode((2, 1, 3))


@pytest.mark.parametrize("patterns", [MONO_C.patterns, ((1, 2, 3, 4, 5),), ((1,),)])
def test_emit_builds_the_graph_and_checks_monotonicity_once(monkeypatch, patterns):
    coll = PatternCollection(patterns)
    calls = Counter()
    for name in ("build_graph", "is_monotone"):
        def counting(collection, _name=name, _real=getattr(graph_module, name)):
            calls[_name] += 1
            return _real(collection)

        for module in (monotone_module, clusters_module):
            monkeypatch.setattr(module, name, counting)
    system = emit_ode_system(coll)
    assert calls == {"build_graph": 1, "is_monotone": 1}
    order = max(eq.order for eq in system.equations)
    assert verify_ode(system, monotone_vertex_series(coll, order), order).boundary_ok


def test_one_fill_serves_the_boundary_and_the_rows():
    # the rows _ode_system fills through max(order, m_v) give the boundary a
    # fill through the top m_v gives, and the rows a fill through the order gives
    colls = [*MONO_ALL, *(PatternCollection((p,)) for p in _monotone_self_overlapping(6))]
    assert len(colls) == 84
    for coll in colls:
        graph = build_graph(coll)
        for order in (0, 9, 30):
            system, tables = _ode_system(graph, order)
            top = max(eq.order for eq in system.equations)
            fresh = _vertex_tables(graph, top, top)
            assert system.boundary == {
                eq.vertex: tuple(fresh.lists(eq.vertex)[: eq.order]) for eq in system.equations
            }, (coll, order)
            assert system == emit_ode_system(coll)
            through = {v: tables.lists(v)[: order + 1] for v in tables.rows}
            fresh = _vertex_tables(graph, order, order)
            assert through == {v: fresh.lists(v) for v in fresh.rows}, (coll, order)


def test_emitted_equation_orders():
    assert [eq.order for eq in emit_ode_system(MONO_A).equations] == [5]
    assert [eq.order for eq in emit_ode_system(MONO_C).equations] == [5, 5]
    assert [eq.order for eq in emit_ode_system(MONO_D).equations] == [6, 6]


def test_single_pattern_equation_shape():
    system = emit_single_pattern_ode((1, 3, 2, 6, 7, 9, 4, 8, 5))
    (eq,) = system.equations
    assert eq.order == 8
    shapes = sorted((t.a, t.b, t.c) for t in eq.terms)
    # self-overlaps of lengths 1 and 3 give x^4/4! (not x^3/3!) and x terms
    assert shapes == [(0, 1, 3), (3, 4, 1)]
    assert system.boundary[(1,)][0] == []  # y(0) = 0
    assert system.boundary[(1,)][1] == [1]  # y'(0) = 1


def test_emitted_systems_verify():
    for coll in MONO_ALL:
        system = emit_ode_system(coll)
        top = 14 + max(eq.order for eq in system.equations)
        ys = monotone_vertex_series(coll, top)
        report = verify_ode(system, ys, top)
        assert report.ok, report


def test_single_pattern_ode_verifies():
    for pat in [(1, 2, 3, 4, 5), (1, 3, 2, 6, 7, 9, 4, 8, 5), (1, 2, 3)]:
        system = emit_single_pattern_ode(pat)
        top = 14 + system.equations[0].order
        ys = monotone_vertex_series(PatternCollection((pat,)), top)
        report = verify_ode(system, ys, top)
        assert report.ok, (pat, report)


def test_boundary_rows_compare_trimmed():
    # a caller's rows may carry trailing zeros, and rows past the series'
    # order read as zero; a changed coefficient still fails
    system = emit_ode_system(MONO_C)
    order = max(eq.order for eq in system.equations)
    ys = monotone_vertex_series(MONO_C, order)

    def boundary_ok(boundary):
        return verify_ode(system._replace(boundary=boundary), ys, order).boundary_ok

    assert boundary_ok(system.boundary)
    assert boundary_ok({v: tuple((*row, 0, 0) for row in rows)
                        for v, rows in system.boundary.items()})
    for v, rows in system.boundary.items():
        assert len(rows) == order
        assert boundary_ok({**system.boundary, v: (*rows, ys[v].rows[order], [0, 0])})
        assert not boundary_ok({**system.boundary, v: (*rows, ys[v].rows[order], [0, 1])})
        assert not boundary_ok({**system.boundary, v: ([*rows[0], 1], *rows[1:])})


def test_corrected_elimination_of_two_vertex_system():
    """Eliminating the second unknown from the two-vertex system of MONO_D by
    repeated differentiation yields y''''''''' = t(xy')''''' + t(xy')'''' + ty'''''',
    which the recurrence series satisfies identically."""
    one = (1,)
    ys = monotone_vertex_series(MONO_D, 24)
    terms = [
        OdePolyTerm(Fraction(1), 0, 0, 0, 0, 9, one),
        OdePolyTerm(Fraction(-1), 1, 0, 5, 1, 1, one),
        OdePolyTerm(Fraction(-1), 1, 0, 4, 1, 1, one),
        OdePolyTerm(Fraction(-1), 1, 0, 0, 0, 6, one),
    ]
    ok, residual, top = verify_poly_ode(terms, {one: ys[one]}, 24)
    assert ok and residual is None and top >= 15


def test_verify_ode_reports_mismatch():
    system = emit_ode_system(MONO_A)
    ys = monotone_vertex_series(MONO_A, 12)
    wrong = dict(ys)
    wrong[(1,)] = ys[(1,)].scale(Fraction(2))
    report = verify_ode(system, wrong, 12)
    assert not report.ok and not report


def test_system_rendering():
    text = system_to_text(emit_ode_system(MONO_C))
    assert "y_(1)^(5)" in text
    assert "y_(132)" in text


def test_length_one_pattern_on_the_monotone_path():
    # (1) has no overlaps, yet is itself a cluster with one occurrence
    coll = PatternCollection(((1,),))
    totals = cluster_counts(coll, 6, 6).totals
    assert totals == {(1, 0): 1, (1, 1): 1}
    table = monotone_cluster_counts(coll, 6, 6)
    assert table.totals == totals
    y = monotone_vertex_series(coll, 6)[(1,)]
    assert {k: y.coeff(*k) * factorial(k[0]) for k in y.coeffs} == totals
    # the refined engine agrees with the collapsed totals
    assert _refined_cluster_counts(coll, 6, 6).totals == totals
    from_table = alpha_counts(avoidance_gf(coll, 6, table=table))
    from_series = alpha_counts(
        (BiSeries.one(6) - y.shift_t(-1)).reciprocal()
    )
    assert from_table == from_series
    for n in range(1, 7):
        row = {q: c for (m, q), c in from_table.items() if m == n}
        assert row == count_distribution_oracle(coll, n) == {n: factorial(n)}


# ---------------------------------------------------------------------------
# The coefficient-wise verifiers against the operator chains they replace
# ---------------------------------------------------------------------------


def ref_first_term(s, top):
    return min((k for k in s.coeffs if k[0] <= top), default=None)


def ref_verify_ode(system, series, order):
    """The verifier as a chain of BiSeries operators: every RHS term is
    dx(c).mul_xpow(b).dx(a), and their sum times t is subtracted from y^(m)."""
    checks = []
    for eq in system.equations:
        if order < eq.order:
            raise DomainError(
                f"truncation order {order} is below m_v={eq.order}, the "
                f"derivative order of the equation for vertex "
                f"({''.join(map(str, eq.vertex))})"
            )
        y = series[eq.vertex]
        if y.order < order:
            raise DomainError(f"series for {eq.vertex} filled to {y.order}, need {order}")
        lhs = y.dx(eq.order)
        terms = (series[t.target].dx(t.c).mul_xpow(t.b).dx(t.a) for t in eq.terms)
        rhs = sum(terms, BiSeries(order)).mul_tpow(1)
        top = min(lhs.order, rhs.order, order - eq.order)
        bad = ref_first_term(lhs + (-rhs), top)
        if bad:
            bad = (*bad, lhs.coeff(*bad), rhs.coeff(*bad))
        checks.append(EquationCheck(eq.vertex, bad is None, top, bad))
    boundary_ok = all(
        {q: c for (n, q), c in series[v].coeffs.items() if n == i}
        == {q: c for q, c in enumerate(row) if c}
        for v, rows in system.boundary.items()
        for i, row in enumerate(rows)
    )
    ok = boundary_ok and all(c.ok for c in checks)
    return VerifyReport(ok, tuple(checks), boundary_ok)


def ref_verify_poly_ode(terms, series, order):
    """The sum of the terms as a chain of BiSeries operators, with every
    coefficient times the lcm of their denominators; the residual is divided
    back by it."""
    weight = lcm(*(Fraction(t.coeff).denominator for t in terms))
    acc = None
    for t in terms:
        s = series[t.target].dx(t.c).mul_xpow(t.b).dx(t.a)
        s = s.mul_monomial(t.pre_degree).mul_tpow(t.t_power).scale(t.coeff * weight)
        acc = s if acc is None else acc + s
    top = min(acc.order, order)
    bad = ref_first_term(acc, top)
    if bad:
        return False, (*bad, acc.coeff(*bad) / weight), top
    return True, None, top


def _bumped(ys, v, n, q, delta=1):
    """The series with the normalised coefficient of y_v at (n, q) raised by delta."""
    coeffs = dict(ys[v].coeffs)
    coeffs[(n, q)] = coeffs.get((n, q), 0) + delta
    ordinary = {(m, p): Fraction(c, factorial(m)) for (m, p), c in coeffs.items()}
    return {**ys, v: BiSeries(ys[v].order, ordinary)}


def test_verify_ode_matches_the_operator_chain_on_the_reference_systems():
    for coll in MONO_ALL:
        system = emit_ode_system(coll)
        m = max(eq.order for eq in system.equations)
        ys = monotone_vertex_series(coll, m + 16)
        for order in (m, m + 1, m + 9, m + 16):
            report = verify_ode(system, ys, order)
            assert report == ref_verify_ode(system, ys, order), (coll, order)
            assert report.ok
        wrong = {v: y.scale(2) for v, y in ys.items()}
        report = verify_ode(system, wrong, m + 16)
        assert report == ref_verify_ode(system, wrong, m + 16)
        assert not report.ok and not report.boundary_ok


def _monotone_self_overlapping(max_len):
    for l in range(2, max_len + 1):
        for p in permutations(range(1, l + 1)):
            if _overlaps(p, p) and is_monotone(PatternCollection((p,))):
                yield p


def ref_single_pattern_ode(pattern):
    """The one-equation ODE of a monotone single pattern, derived from its
    self-overlaps: a term per overlap length k, with m_k the maximum of the
    final k entries and m the largest m_k; y(0) = 0 and y'(0) = 1."""
    l = len(pattern)
    ks = _overlaps(pattern, pattern)
    ms = [max(pattern[l - k :]) for k in ks]
    m = max(ms)
    terms = tuple(sorted(OdeTerm(m - mj, l - mj, kj, ONE) for kj, mj in zip(ks, ms)))
    rows = [[] for _ in range(m)]
    if m >= 2:
        rows[1] = [1]
    return OdeSystem((OdeEquation(ONE, m, terms),), {ONE: tuple(rows)})


def test_single_pattern_ode_is_the_graph_system_at_one():
    patterns = list(_monotone_self_overlapping(7))
    assert len(patterns) == 407
    for p in patterns:
        system = emit_single_pattern_ode(p)
        want = ref_single_pattern_ode(p)
        assert system == want, p
        assert system_to_json(system) == system_to_json(want), p
    with pytest.raises(DomainError, match=r"^pattern \(1,\) has no self-overlap \(length-1 expected\)$"):
        emit_single_pattern_ode((1,))


def test_verify_ode_matches_the_operator_chain_on_single_patterns():
    patterns = list(_monotone_self_overlapping(6))
    assert len(patterns) == 80
    for p in patterns:
        system = emit_single_pattern_ode(p)
        order = system.equations[0].order + 8
        ys = monotone_vertex_series(PatternCollection((p,)), order)
        report = verify_ode(system, ys, order)
        assert report == ref_verify_ode(system, ys, order), p
        assert report.ok, p


@pytest.mark.parametrize("coll", [MONO_C, MONO_D])
def test_verify_ode_matches_the_operator_chain_on_bumped_series(coll):
    system = emit_ode_system(coll)
    order = 16
    ys = monotone_vertex_series(coll, order + 2)  # filled past the checked order
    for eq in system.equations:
        m, top = eq.order, order - eq.order
        bumps = [(m - 1, 1), (m + 3, 1), (top + m, 1), (top + m + 1, 1)]
        if eq.vertex == ONE:
            bumps.append((1, 0))
        for n, q in bumps:
            wrong = _bumped(ys, eq.vertex, n, q)
            report = verify_ode(system, wrong, order)
            assert report == ref_verify_ode(system, wrong, order), (eq.vertex, n, q)
            (check,) = [c for c in report.equations if c.vertex == eq.vertex]
            if n == top + m + 1:  # only y^(m) at x^(top+1) reads it
                assert report.ok, (eq.vertex, n, q)
            elif n == top + m:
                assert check.mismatch[:2] == (top, q), (eq.vertex, n, q)
            elif n < m:
                assert not report.boundary_ok, (eq.vertex, n, q)


def test_verify_poly_ode_matches_the_operator_chain():
    cases = [
        (MONO_D, 29, CORRECT_D),
        (MONO_C, 36, ELIMINATED_C),
        (MONO_D, 29, ELIMINATED_D),
    ]
    for coll, order, data in cases:
        series = {ONE: monotone_vertex_series(coll, order)[ONE]}
        terms = _poly_terms(data)
        for top in (order, order - 9):
            got = verify_poly_ode(terms, series, top)
            assert got == ref_verify_poly_ode(terms, series, top), (data, top)


def _raised(verifier, *args):
    with pytest.raises(DomainError) as info:
        verifier(*args)
    return str(info.value)


def test_verifiers_raise_where_the_operator_chain_does():
    ys = monotone_vertex_series(MONO_A, 12)
    systems = [(emit_ode_system(MONO_A), 4), (emit_ode_system(MONO_A), 13)]
    # y_(1) is filled to x^12: dx(13), and dx(16) after x^3/3!, leave no terms;
    # one derivative fewer leaves a term of order 0
    for bad, fits in (((0, 0, 13), (0, 0, 12)), ((13, 0, 0), (12, 0, 0)),
                      ((16, 3, 0), (15, 3, 0)), ((0, -1, 0), (0, 0, 0))):
        bad, fits = (OdeSystem((OdeEquation(ONE, 2, (OdeTerm(*t, ONE),)),), {})
                     for t in (bad, fits))
        systems.append((bad, 12))
        assert verify_ode(fits, ys, 12) == ref_verify_ode(fits, ys, 12)
    systems.append((OdeSystem((OdeEquation(ONE, -1, ()),), {}), -1))
    for system, order in systems:
        message = _raised(ref_verify_ode, system, ys, order)
        assert _raised(verify_ode, system, ys, order) == message, (system, order)
    y = {ONE: ys[ONE]}
    for bad in ((1, 0, 0, 0, 0, 13), (1, 0, 0, 13, 0, 0), (1, 0, 0, 16, 3, 0),
                (1, 0, 0, 0, -1, 0), (1, 0, 0, 0, -1, 13), (1, 0, -1, 0, 0, 0),
                (1, -1, 0, 0, 0, 0)):
        terms = [OdePolyTerm(Fraction(1), 0, 0, 0, 0, 1, ONE), OdePolyTerm(*bad, ONE)]
        message = _raised(ref_verify_poly_ode, terms, y, 12)
        assert _raised(verify_poly_ode, terms, y, 12) == message, bad


def test_verifiers_build_no_series(monkeypatch):
    system = emit_ode_system(MONO_C)
    ys = monotone_vertex_series(MONO_C, 20)
    wrong = _bumped(ys, ONE, 9, 1)
    calls = Counter()
    real = BiSeries._of_rows.__func__

    def counting(cls, order, rows):
        calls["_of_rows"] += 1
        return real(cls, order, rows)

    monkeypatch.setattr(BiSeries, "_of_rows", classmethod(counting))
    assert verify_ode(system, ys, 20).ok
    assert not verify_ode(system, wrong, 20).ok
    terms = [OdePolyTerm(Fraction(1), 0, 0, 0, 0, 1, ONE)]
    assert not verify_poly_ode(terms, ys, 20)[0]
    assert calls == {}
    ys[ONE].dx()  # the counter sees the operators
    assert calls == {"_of_rows": 1}


# ---------------------------------------------------------------------------
# The packed check is exact: no change to a row or a system goes unseen
# ---------------------------------------------------------------------------


def _checked(system, ys, order, width=None):
    """The operator chain's report, after asserting that ``verify_ode`` on
    the series gives it, and ``_verify_rows`` too on their rows packed at
    ``width``."""
    want = ref_verify_ode(system, ys, order)
    assert verify_ode(system, ys, order) == want
    if width is not None:
        lists = {v: y.rows for v, y in ys.items()}
        tables = PackedRows(
            width,
            {v: [pack_row(row, width) for row in rows] for v, rows in lists.items()},
            {v: [max(map(abs, row), default=0) for row in rows] for v, rows in lists.items()},
        )
        assert _verify_rows(system, tables, order) == want
    return want


@pytest.fixture
def widenings(monkeypatch):
    """Counts ``PackedRows.widened`` calls, and the calls that repack."""
    calls = Counter()
    real = PackedRows.widened

    def spy(self, width):
        calls["called"] += 1
        calls["repacked"] += width > self.width
        return real(self, width)

    monkeypatch.setattr(PackedRows, "widened", spy)
    return calls


def test_emitted_systems_check_at_the_fill_width(widenings):
    # _ode_system's claim: the residual of an emitted equation fits the
    # width of the fill its boundary came from, so no check repacks
    colls = [MONO_C, MONO_D, *(PatternCollection((p,)) for p in _monotone_self_overlapping(6))]
    assert len(colls) == 82
    equations = 0
    for coll in colls:
        system, tables = _ode_system(build_graph(coll), 30)
        assert _verify_rows(system, tables, 30).ok, coll
        equations += len(system.equations)
    assert widenings == Counter(called=equations)


@pytest.mark.parametrize("coll", MONO_ALL)
def test_packed_check_reports_entries_changed_by_one(coll):
    # the lowest q, the highest q and the largest entry of the first and the
    # last nonzero row past x^(m+1) that the LHS reads
    system = emit_ode_system(coll)
    order = max(eq.order for eq in system.equations) + 10
    width = _vertex_tables(build_graph(coll), order, order).width
    ys = monotone_vertex_series(coll, order)
    assert _checked(system, ys, order, width).ok
    for eq in system.equations:
        rows = ys[eq.vertex].rows
        nonempty = [n for n in range(eq.order + 2, order + 1) if rows[n]]
        for n in (nonempty[0], nonempty[-1]):
            row = rows[n]
            low = next(q for q, c in enumerate(row) if c)
            largest = max(range(len(row)), key=row.__getitem__)
            for q in {low, len(row) - 1, largest}:
                for delta in (1, -1):
                    wrong = _bumped(ys, eq.vertex, n, q, delta)
                    report = _checked(system, wrong, order, width)
                    (check,) = [c for c in report.equations if c.vertex == eq.vertex]
                    assert check.mismatch[:2] == (n - eq.order, q), (eq.vertex, n, q)


@pytest.mark.parametrize("coll", [MONO_C, MONO_D, PatternCollection(((1, 2, 3, 4, 5),))])
def test_packed_check_sees_entries_past_the_fill_width(coll):
    # an entry raised by 2^s, with the entry above it lowered by 1, packs at
    # the fill's width s to the very integer the true row does
    system = emit_ode_system(coll)
    order = max(eq.order for eq in system.equations) + 10
    width = _vertex_tables(build_graph(coll), order, order).width
    ys = monotone_vertex_series(coll, order)
    for eq in system.equations:
        rows = ys[eq.vertex].rows
        n = next(n for n in range(eq.order, order) if len(rows[n]) > 1)
        row = rows[n]
        q = len(row) - 2
        aliased = _bumped(_bumped(ys, eq.vertex, n, q, 1 << width), eq.vertex, n, q + 1, -1)
        packed = [sum(d << (i * width) for i, d in enumerate(y[eq.vertex].rows[n]))
                  for y in (ys, aliased)]
        assert packed[0] == packed[1]
        for wrong in (aliased, _bumped(ys, eq.vertex, n, len(row) - 1, 1 << width)):
            report = _checked(system, wrong, order)
            assert not report.ok, (coll, eq.vertex)


def test_packed_check_widens_past_an_aliasing_residual():
    # y_v' = t (x^2/2! y_u)'' holds with every row of y_u equal to 1 and
    # Y_v[n+1] = C(n+2, 2) t.  At x^15 the row -120 t + t^2 stands in for
    # C(17, 2) t = 136 t = (256 - 120) t: every digit is below 2^7 in size,
    # yet at width 8 both pack to the same integer
    u = (1, 2)
    rows_v = [[], *([0, comb(n + 2, 2)] for n in range(15)), [0, comb(17, 2) - 256, 1]]
    assert [slot_width(max(map(abs, row), default=0)) for row in rows_v] == [8] * 17
    assert sum(d << (8 * q) for q, d in enumerate(rows_v[16])) == comb(17, 2) << 8
    lists = {ONE: rows_v, u: [[1] for _ in range(17)]}
    system = OdeSystem((OdeEquation(ONE, 1, (OdeTerm(2, 2, 0, u),)),), {})
    ys = {v: BiSeries._of_rows(16, [row[:] for row in rows]) for v, rows in lists.items()}
    report = _checked(system, ys, 16, width=8)
    (check,) = report.equations
    assert check.mismatch == (15, 1, Fraction(-120, factorial(15)), Fraction(136, factorial(15)))


@pytest.mark.parametrize("coll", [MONO_C, MONO_D])
def test_packed_check_reports_altered_systems(coll, widenings):
    # every term of every equation, with another target, with b raised by 1,
    # or with b and c raised by 6 (it reads the same rows, times C(k, b + 6));
    # some of these need a wider slot than the fill's
    system = emit_ode_system(coll)
    order = max(eq.order for eq in system.equations) + 20
    _, tables = _ode_system(build_graph(coll), order)
    ys = monotone_vertex_series(coll, order)
    repacked = 0
    for i, eq in enumerate(system.equations):
        for j, term in enumerate(eq.terms):
            other = next(v for v in tables.rows if v != term.target)
            for changed in (term._replace(target=other), term._replace(b=term.b + 1),
                            term._replace(b=term.b + 6, c=term.c + 6)):
                terms = (*eq.terms[:j], changed, *eq.terms[j + 1:])
                equations = list(system.equations)
                equations[i] = eq._replace(terms=terms)
                altered = OdeSystem(tuple(equations), system.boundary)
                want = _checked(altered, ys, order)
                before = widenings["repacked"]
                assert _verify_rows(altered, tables, order) == want
                assert not want.ok, (i, j, changed)
                repacked += widenings["repacked"] > before
    assert repacked


def test_packed_poly_check_clears_fractions():
    # criterion 7's equations, with their coefficients over 3, and with one
    # coefficient moved by 1/5
    cases = [
        (MONO_D, 29, CORRECT_D),
        (MONO_C, 36, ELIMINATED_C),
        (MONO_D, 29, ELIMINATED_D),
        (MONO_C, 16, CORRECT_C),
    ]
    for coll, order, data in cases:
        y = monotone_vertex_series(coll, order)[ONE]
        terms = _poly_terms(data)
        thirds = [t._replace(coeff=t.coeff / 3) for t in terms]
        moved = [terms[0]._replace(coeff=terms[0].coeff + Fraction(1, 5)), *terms[1:]]
        for ts in (terms, thirds, moved):
            got = verify_poly_ode(ts, {ONE: y}, order)
            assert got == ref_verify_poly_ode(ts, {ONE: y}, order), (data, order)
        assert not verify_poly_ode(moved, {ONE: y}, order)[0]
