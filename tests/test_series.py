"""Exact bivariate truncated series and the generating-function assembly."""

from copy import deepcopy
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from conftest import MONO_ALL, MONO_C, MONO_D
from clusterperm import series
from clusterperm.clusters import ClusterTable, cluster_counts
from clusterperm.graph import PatternCollection
from clusterperm.perms import DomainError
from clusterperm.series import (
    BiSeries,
    alpha_counts,
    alpha_to_tsv,
    avoidance_gf,
    avoiders_to_tsv,
    cluster_gf,
    count_distribution_oracle,
)

# ordinary coefficients c_{n,q} in [-5, 5], drawn as the integer n! c_{n,q}
coeff_maps = st.lists(
    st.tuples(st.integers(1, 5), st.integers(0, 3)).flatmap(
        lambda k: st.tuples(st.just(k), st.integers(-5 * factorial(k[0]), 5 * factorial(k[0])))
    ),
    max_size=8,
    unique_by=lambda cell: cell[0],
).map(lambda cells: {(n, q): Fraction(a, factorial(n)) for (n, q), a in cells})


def series_from(coeffs, order=5):
    return BiSeries(order, {k: Fraction(v) for k, v in coeffs.items() if k[0] <= order})


def test_basic_arithmetic():
    a = series_from({(0, 0): 1, (1, 0): 2})
    b = series_from({(1, 0): 3, (2, 1): 1})
    assert (a + b).coeff(1, 0) == 5
    assert (a - b).coeff(2, 1) == -1
    assert (a * b).coeff(1, 0) == 3
    assert (a * b).coeff(2, 0) == 6
    assert (-a).coeff(0, 0) == -1


def test_mul_truncates_to_min_order():
    a = BiSeries(3, {(0, 0): Fraction(1)})
    b = BiSeries(5, {(0, 0): Fraction(1)})
    assert (a * b).order == 3


def test_dx_and_mul_xpow():
    # x^3/3! differentiates to x^2/2!
    s = BiSeries.one(6).mul_xpow(3)
    assert s.coeff(3, 0) == Fraction(1, 6)
    assert s.order == 9  # multiplying by x^3 extends the known order
    d = s.dx()
    assert d.coeff(2, 0) == Fraction(1, 2)
    assert d.order == 8
    assert s.mul_monomial(2).coeff(5, 0) == Fraction(1, 6)


def test_reciprocal_geometric():
    one_minus_x = BiSeries(8, {(0, 0): Fraction(1), (1, 0): Fraction(-1)})
    geo = one_minus_x.reciprocal()
    for n in range(9):
        assert geo.coeff(n, 0) == 1
    assert (one_minus_x * geo).eq_through(BiSeries.one(8))


def test_reciprocal_requires_unit_constant():
    with pytest.raises(DomainError):
        BiSeries(3, {(1, 0): Fraction(1)}).reciprocal()


@settings(max_examples=30, deadline=None)
@given(coeff_maps)
def test_reciprocal_is_two_sided_inverse(coeffs):
    coeffs = dict(coeffs)
    coeffs[(0, 0)] = Fraction(1)
    s = series_from(coeffs)
    r = s.reciprocal()
    assert (s * r).eq_through(BiSeries.one(s.order))


@settings(max_examples=30, deadline=None)
@given(coeff_maps)
def test_shift_t_round_trip(coeffs):
    s = series_from(coeffs)
    assert s.shift_t(1).shift_t(-1).eq_through(s)


@settings(max_examples=60, deadline=None)
@given(coeff_maps, st.integers(-2, 2))
def test_shift_t_commutes_with_inversion(coeffs, delta):
    # t -> t + delta is a ring homomorphism on each x^n slice
    a = series_from(coeffs)  # zero constant term
    one = BiSeries.one(a.order)
    assert (one - a).reciprocal().shift_t(delta) == (one - a.shift_t(delta)).reciprocal()


def test_subs_t():
    s = series_from({(1, 0): 1, (1, 2): 3})
    vals = s.subs_t(2)
    assert vals[1] == 1 + 3 * 4


def test_avoidance_gf_known_counts():
    # consecutive-(1,2,3)-avoiding permutation counts
    gf = avoidance_gf(PatternCollection(((1, 2, 3),)), 7)
    counts = alpha_counts(gf)
    avoiders = [counts.get((n, 0), 0) for n in range(1, 8)]
    assert avoiders == [1, 2, 5, 17, 70, 349, 2017]


def ref_alpha_counts(series):
    """The coefficients first, then the check, in (n, q) order."""
    counts = series.coeffs
    for (n, q), a in counts.items():
        if type(a) is not int or a < 0:
            raise DomainError(f"coefficient at (n={n}, q={q}) is not a count: {a}")
    return counts


def _outcome(f, *args):
    try:
        return f(*args)
    except DomainError as exc:
        return str(exc)


@given(coeff_maps)
def test_alpha_counts_matches_the_two_pass_reference(coeffs):
    s = series_from(coeffs)
    assert _outcome(alpha_counts, s) == _outcome(ref_alpha_counts, s)


def test_alpha_counts_names_the_first_bad_coefficient():
    gf = avoidance_gf(PatternCollection(((1, 2, 3),)), 7)
    assert alpha_counts(gf) == ref_alpha_counts(gf)
    for n, q, bad in ((4, 0, -1), (5, 2, Fraction(1, 2)), (3, 1, -2)):
        rows = [row[:] for row in gf.rows]
        rows[n][q] = bad
        rows[6][0] = Fraction(1, 3)  # a later bad row is not the one named
        wrong = BiSeries._of_rows(gf.order, rows)
        message = f"coefficient at (n={n}, q={q}) is not a count: {bad}"
        assert _outcome(alpha_counts, wrong) == _outcome(ref_alpha_counts, wrong) == message


def test_avoidance_gf_at_t_one_is_geometric():
    for pats in [((1, 2, 3),), ((1, 3, 2), (2, 1, 3))]:
        gf = avoidance_gf(PatternCollection(pats), 8)
        for n, value in gf.subs_t(1).items():
            assert value == 1, (pats, n)


def test_distribution_matches_oracle():
    coll = PatternCollection(((1, 3, 2), (2, 1, 3)))
    gf = avoidance_gf(coll, 7)
    counts = alpha_counts(gf)
    for n in range(1, 8):
        dist = count_distribution_oracle(coll, n)
        assert dist == {q: c for (m, q), c in counts.items() if m == n}


def test_cluster_gf_contains_base_term():
    table = cluster_counts(PatternCollection(((1, 2, 3),)), 6, 6)
    pcl = cluster_gf(table, 6)
    assert pcl.coeff(1, 0) == 1  # the fictitious 0-cluster x term
    assert pcl.coeff(3, 1) == Fraction(1, factorial(3))


def test_table_capped_below_the_order_in_q_is_rejected():
    # a (8, 2) table of 123 lacks the clusters with 3..6 occurrences; its
    # n = 8 row would be wrong yet still sum to 8!
    coll = PatternCollection(((1, 2, 3),))
    short = cluster_counts(coll, 8, 2)
    with pytest.raises(DomainError, match="capped at q=2, need q=8"):
        cluster_gf(short, 8)
    with pytest.raises(DomainError, match="table filled to n=8, need n=9"):
        cluster_gf(short, 9)
    with pytest.raises(DomainError, match="capped at q=2"):
        avoidance_gf(coll, 8, table=short)
    row = {q: a for (n, q), a in alpha_counts(avoidance_gf(coll, 8)).items() if n == 8}
    assert row[6] == 1 and sum(row.values()) == factorial(8)


def ref_avoidance_gf(table, order):
    """The inverse GF shifted before inverting: 1/(1 - Pi_cl(x, t-1))."""
    return (BiSeries.one(order) - cluster_gf(table, order).shift_t(-1)).reciprocal()


# ---------------------------------------------------------------------------
# The two paths of ``avoidance_gf``: below _PACKED_ORDER_MIN the list
# reciprocal and shift_t, the reference of the packed pass ``_avoidance_rows``
# that runs from it.
# ---------------------------------------------------------------------------


def _coll(*patterns):
    return PatternCollection(tuple(tuple(map(int, p)) for p in patterns))


def list_path(table, order):
    """Pi(x, t) by the list reciprocal of 1 - Pi_cl(x, s), then s -> t - 1."""
    return (BiSeries.one(order) - cluster_gf(table, order)).reciprocal().shift_t(-1)


def test_avoidance_gf_matches_the_shift_first_order(reference_tables):
    assert len(reference_tables) == 173
    for coll, table in reference_tables:  # filled to (12, 12)
        want = ref_avoidance_gf(table, 10)
        assert avoidance_gf(coll, 10, table=table) == want, coll
        assert series._avoidance_rows(cluster_gf(table, 10).rows, 10) == want.rows, coll
    for coll in MONO_ALL:
        table = cluster_counts(coll, 30, 30)
        want = ref_avoidance_gf(table, 30)
        assert avoidance_gf(coll, 30, table=table) == want, coll
        assert series._avoidance_rows(cluster_gf(table, 30).rows, 30) == want.rows, coll


def test_avoidance_gf_through_the_packed_kernel_matches_the_list_kernel():
    # dense and sparse (132: one cell per cluster length) cluster rows, and
    # MONO_C at 100, whose alpha need a slot past 512 bits
    colls = (_coll("12345"), MONO_C, MONO_D, _coll("1324"), _coll("132"))
    for coll, order in [*((c, order) for c in colls for order in (40, 50, 60)), (MONO_C, 100)]:
        table = cluster_counts(coll, order, order)
        got = avoidance_gf(coll, order, table=table)
        assert got.rows == list_path(table, order).rows, (coll, order)


def test_packed_pass_rejects_a_table_that_does_not_count_clusters():
    # a 2-cluster with no marks: every row from n = 2 on sums past n!
    coll = _coll("12345")
    table = cluster_counts(coll, 40, 40)
    bumped = ClusterTable(coll, 40, 40, {**table.totals, (2, 0): 1})
    with pytest.raises(DomainError, match=r"row n=2 of the inverse sums to 3, not n!"):
        avoidance_gf(coll, 40, table=bumped)
    assert avoidance_gf(coll, 40, table=table).rows[2] == [2]


def test_avoidance_gf_picks_its_path_by_order(monkeypatch):
    calls = []
    for name in ("reciprocal", "shift_t"):
        def spy(self, *args, real=getattr(BiSeries, name), name=name):
            calls.append(name)
            return real(self, *args)
        monkeypatch.setattr(BiSeries, name, spy)
    coll = _coll("132")
    for order, want in ((39, ["reciprocal", "shift_t"]), (40, [])):
        table = cluster_counts(coll, order, order)
        calls.clear()
        got = avoidance_gf(coll, order, table=table)
        assert calls == want, order
        assert got.rows == list_path(table, order).rows
    assert series._PACKED_ORDER_MIN == 40


def test_table_of_another_collection_is_rejected():
    coll, other = PatternCollection(((1, 2, 3),)), PatternCollection(((1, 3, 2),))
    with pytest.raises(DomainError, match=r"clusters of \(\(1, 3, 2\),\), not of \(\(1, 2, 3\),\)"):
        avoidance_gf(coll, 6, table=cluster_counts(other, 6, 6))
    pair = PatternCollection(((1, 3, 2), (2, 1, 3)))
    with pytest.raises(DomainError, match="not of"):
        avoidance_gf(pair, 6, table=cluster_counts(other, 6, 6))
    # the same patterns in another order count the same clusters
    swapped = PatternCollection(((2, 1, 3), (1, 3, 2)))
    assert avoidance_gf(pair, 6, table=cluster_counts(swapped, 6, 6)) == avoidance_gf(pair, 6)


def test_constructor_rejects_a_coefficient_not_integral_times_n_factorial():
    with pytest.raises(DomainError, match=r"n! c at \(n=2, q=0\) must be an integer, not 2/3"):
        BiSeries(3, {(2, 0): Fraction(1, 3)})
    assert BiSeries(3, {(2, 0): Fraction(1, 2)}).rows == [[], [], [1], []]


def test_scale_and_shift_t_take_only_integers():
    s = BiSeries(3, {(0, 0): 1, (2, 1): Fraction(1, 2), (3, 2): 4})
    for bad in (Fraction(1, 2), 0.5, 2.0, "2"):
        with pytest.raises(DomainError, match=f"scale factor must be an integer, not {bad}"):
            s.scale(bad)
        with pytest.raises(DomainError, match=f"t shift must be an integer, not {bad}"):
            s.shift_t(bad)
    # an integral Fraction is the int it equals
    assert s.scale(Fraction(-2)).rows == s.scale(-2).rows == [[-2], [], [0, -2], [0, 0, -48]]
    assert s.shift_t(Fraction(1)).rows == s.shift_t(1).rows == [[1], [], [1, 1], [24, 48, 24]]
    rows = s.scale(Fraction(3)).shift_t(Fraction(-1)).rows
    assert all(type(c) is int for row in rows for c in row)


def test_tsv_round_trips():
    coll = PatternCollection(((1, 3, 2),))
    gf = avoidance_gf(coll, 6)
    assert alpha_to_tsv(gf).strip()
    avo = avoiders_to_tsv(gf)
    assert avo.splitlines()[0].split("\t")[0] == "1"


def test_tsv_rows_beyond_the_order_are_dropped():
    s = BiSeries(1, {(1, 0): 1, (2, 1): Fraction(1, 2), (100000, 0): 1})
    assert s.coeffs == {(1, 0): 1}
    assert s.coeff(2, 1) == 0


def test_tsv_t_exponent_above_x_exponent_is_rejected():
    # a length-n permutation has at most n occurrences, so no GF line the
    # package writes has q > n
    gf = avoidance_gf(PatternCollection(((1, 2, 3),)), 8)
    assert all(q <= n for n, q in gf.coeffs)


def test_negative_x_exponent_is_rejected():
    for coeffs in ({(-1, 0): 1}, {(-2, 1): 1}):
        with pytest.raises(DomainError, match="x exponents must be nonnegative"):
            BiSeries(3, coeffs)
    assert BiSeries(3, {(1, 0): 1}).coeff(-1, 0) == 0
    # a negative t exponent once overwrote the last entry of its row
    for coeffs in ({(0, 0): 1, (1, 0): 1, (1, 2): 5, (1, -1): 7}, {(0, 0): 1, (1, -1): 2}):
        with pytest.raises(DomainError, match="t exponents must be nonnegative"):
            BiSeries(3, coeffs)
    s = BiSeries(3, {(0, 0): 1, (1, 0): 1, (1, 2): 5})
    for n, q in ((1, -1), (1, -3), (-1, 0), (4, 0), (1, 3)):
        assert s.coeff(n, q) == 0 and type(s.coeff(n, q)) is Fraction
    assert s.shift_t(1).coeff(1, 2) == 5


# ---------------------------------------------------------------------------
# Ordinary-coefficient reference: BiSeries stores n! c_{n,q}, and every
# operation must agree with these Fraction bodies on the ordinary c_{n,q}.
# A reference series is a pair (order, {(n, q): c}).
# ---------------------------------------------------------------------------


def ref(order, coeffs):
    return order, {
        k: Fraction(c) for k, c in coeffs.items() if c != 0 and k[0] <= order
    }


def ref_add(a, b):
    out = dict(a[1])
    for k, c in b[1].items():
        out[k] = out.get(k, Fraction(0)) + c
    return ref(min(a[0], b[0]), out)


def ref_scale(a, f):
    return ref(a[0], {k: c * f for k, c in a[1].items()})


def ref_mul(a, b):
    order = min(a[0], b[0])
    out = {}
    for (n1, q1), c1 in a[1].items():
        for (n2, q2), c2 in b[1].items():
            if n1 + n2 <= order:
                key = (n1 + n2, q1 + q2)
                out[key] = out.get(key, Fraction(0)) + c1 * c2
    return ref(order, out)


def ref_dx(a, times):
    for _ in range(times):
        a = ref(a[0] - 1, {(n - 1, q): n * c for (n, q), c in a[1].items() if n})
    return a


def ref_mul_xpow(a, b):
    return ref(a[0] + b, {(n + b, q): c / factorial(b) for (n, q), c in a[1].items()})


def ref_mul_monomial(a, e):
    return ref(a[0] + e, {(n + e, q): c for (n, q), c in a[1].items()})


def ref_mul_tpow(a, p):
    return ref(a[0], {(n, q + p): c for (n, q), c in a[1].items()})


def ref_shift_t(a, delta):
    out = {}
    for (n, big_q), c in a[1].items():
        for q in range(big_q + 1):
            key = (n, q)
            term = c * comb(big_q, q) * delta ** (big_q - q)
            out[key] = out.get(key, Fraction(0)) + term
    return ref(a[0], out)


def ref_subs_t(a, value):
    out = {}
    for (n, q), c in a[1].items():
        out[n] = out.get(n, Fraction(0)) + c * Fraction(value) ** q
    return {n: c for n, c in out.items() if c != 0}


def ref_reciprocal(a):
    slices = {}
    for (n, q), c in a[1].items():
        slices.setdefault(n, {})[q] = c
    r = {0: {0: Fraction(1)}}
    for n in range(1, a[0] + 1):
        acc = {}
        for m in range(1, n + 1):
            for q1, c1 in slices.get(m, {}).items():
                for q2, c2 in r[n - m].items():
                    acc[q1 + q2] = acc.get(q1 + q2, Fraction(0)) - c1 * c2
        r[n] = acc
    return ref(a[0], {(n, q): c for n, row in r.items() for q, c in row.items()})


def _assert_matches(series, expected):
    order, coeffs = expected
    assert series.order == order
    # the rows invariant: one row per n, none ending in 0, only ints
    assert len(series.rows) == series.order + 1
    for row in series.rows:
        assert not row or row[-1] != 0
        assert all(type(c) is int for c in row)
    assert set(series.coeffs) == set(coeffs)
    for (n, q), c in coeffs.items():
        assert series.coeff(n, q) == c
        stored = series.coeffs[(n, q)]
        assert stored == c * factorial(n)  # the EGF normalisation


unit_maps = coeff_maps.map(lambda m: {**m, (0, 0): Fraction(1)})


@settings(max_examples=60, deadline=None)
@given(
    coeff_maps,
    unit_maps,
    st.integers(-3, 3),
    st.integers(0, 3),
    st.integers(0, 3),
    st.integers(-2, 2),
    st.fractions(min_value=-2, max_value=2, max_denominator=3),
)
def test_operations_match_ordinary_reference(a_map, b_map, f, k, p, delta, v):
    a, b = series_from(a_map, 5), series_from(b_map, 4)
    ra, rb = ref(5, a_map), ref(4, b_map)
    a_rows, b_rows = deepcopy(a.rows), deepcopy(b.rows)

    def assert_matches(series, expected):  # and the operands' rows untouched, unshared
        _assert_matches(series, expected)
        assert a.rows == a_rows and b.rows == b_rows
        assert not {id(r) for r in series.rows} & {id(r) for r in a.rows + b.rows}

    _assert_matches(a, ra)
    assert_matches(a + b, ref_add(ra, rb))
    assert_matches(a - b, ref_add(ra, ref_scale(rb, -1)))
    assert_matches(-a, ref_scale(ra, -1))
    assert_matches(a * b, ref_mul(ra, rb))
    assert_matches(a.scale(f), ref_scale(ra, f))
    assert_matches(a.dx(k), ref_dx(ra, k))
    assert_matches(a.mul_xpow(k), ref_mul_xpow(ra, k))
    assert_matches(a.mul_monomial(k), ref_mul_monomial(ra, k))
    assert_matches(a.mul_tpow(p), ref_mul_tpow(ra, p))
    assert_matches(a.shift_t(delta), ref_shift_t(ra, delta))
    assert_matches(b.reciprocal(), ref_reciprocal(rb))
    assert_matches(b.scale(f).shift_t(delta), ref_shift_t(ref_scale(rb, f), delta))
    assert_matches(a.truncated(k), ref(min(k, 5), a_map))
    agree = {key for key in ra[1].keys() | rb[1].keys() if ra[1].get(key) == rb[1].get(key)}
    for top in (None, k):
        bound = min(4, 4 if top is None else top)
        want = all(key in agree for key in ra[1].keys() | rb[1].keys() if key[0] <= bound)
        assert a.eq_through(b, top) == b.eq_through(a, top) == want
    assert a.subs_t(v) == ref_subs_t(ra, v)
    assert all(type(c) is Fraction for c in a.subs_t(v).values())
    assert type(a.coeff(0, 0)) is Fraction
    assert a.rows == a_rows and b.rows == b_rows


def test_counts_stay_integers_through_the_pipeline():
    coll = PatternCollection(((1, 3, 2, 4),))
    table = cluster_counts(coll, 9, 9)
    pcl = cluster_gf(table, 9)
    assert pcl.coeffs == {k: c for k, c in table.totals.items() if c}
    gf = avoidance_gf(coll, 9, table=table)
    unshifted = (BiSeries.one(9) - pcl).reciprocal()
    for s in (pcl, pcl.shift_t(-1), unshifted, gf, gf.dx(2).mul_xpow(3)):
        assert all(type(c) is int for c in s.coeffs.values())
    assert alpha_counts(gf) == gf.coeffs
