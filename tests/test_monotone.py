"""Monotone collections: recurrence, ODE emission, and verification."""

from collections import Counter
from fractions import Fraction
from math import factorial

import pytest

import clusterperm.clusters as clusters_module
import clusterperm.graph as graph_module
import clusterperm.monotone as monotone_module
from conftest import MONO_A, MONO_B, MONO_C, MONO_D, MONO_ALL
from clusterperm.clusters import (
    _refined_cluster_counts,
    cluster_counts,
    count_clusters_oracle,
    table_totals,
)
from clusterperm.graph import PatternCollection
from clusterperm.monotone import (
    MonotoneError,
    OdePolyTerm,
    emit_ode_system,
    emit_single_pattern_ode,
    is_monotone,
    monotone_cluster_counts,
    monotone_vertex_series,
    system_from_json,
    system_to_json,
    system_to_text,
    verify_ode,
    verify_poly_ode,
)
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
        assert mono.totals == table_totals(gen)
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
    assert system.boundary[(1,)][0] == {}  # y(0) = 0
    assert system.boundary[(1,)][1] == {0: Fraction(1)}  # y'(0) = 1


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
    assert not report.ok


def test_system_json_round_trip():
    for coll in (MONO_B, MONO_C):
        system = emit_ode_system(coll)
        back = system_from_json(system_to_json(system))
        assert back == system


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
    # the table's refined queries agree with its totals
    assert table.refined((1,), 1, 1, (1,)) == table.vertex_total((1,), 1, 1) == 1
    from_table = alpha_counts(avoidance_gf(coll, 6, table=table))
    from_series = alpha_counts(
        (BiSeries.one(6) - y.shift_t(-1)).reciprocal()
    )
    assert from_table == from_series
    for n in range(1, 7):
        row = {q: c for (m, q), c in from_table.items() if m == n}
        assert row == count_distribution_oracle(coll, n) == {n: factorial(n)}
