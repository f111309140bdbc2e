"""Cluster enumeration oracle and the recurrence engines."""

from itertools import accumulate, combinations, product
from math import comb
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    MONO_ALL,
    MONO_D,
    random_two_pattern_collections,
    reference_collections,
)
from clusterperm.clusters import (
    Cluster,
    _edge_profile,
    _first_row,
    _refined_cluster_counts,
    _vertex_tables,
    cluster_counts,
    cluster_counts_single_pattern,
    count_clusters_oracle,
    enumerate_clusters_oracle,
    monotone_recurrence_data,
)
from clusterperm.graph import PatternCollection, build_graph, is_monotone
from clusterperm.perms import DomainError, all_permutations, occurrences, standardize

small_pattern = st.integers(3, 4).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
)

# Reduced two-pattern collections of lengths 2-4, split by class so that a
# property over them exercises both recurrences.
PAIR_POOL = random_two_pattern_collections(300, seed=7)
MONOTONE_PAIRS = [c for c in PAIR_POOL if is_monotone(c)]
GENERAL_PAIRS = [c for c in PAIR_POOL if not is_monotone(c)]


def test_cluster_validation():
    coll = PatternCollection(((1, 2, 3),))
    c = Cluster((1, 2, 3, 4), ((1, 2, 3), (1, 2, 3)), (1, 2))
    assert len(c.sigma) == 4
    with pytest.raises(DomainError):
        # second window is not an occurrence
        Cluster((1, 2, 4, 3), ((1, 2, 3), (1, 2, 3)), (1, 2))
    with pytest.raises(DomainError):
        # gap between the windows
        Cluster((1, 2, 3, 4, 5, 6), ((1, 2, 3), (1, 2, 3)), (1, 4))
    with pytest.raises(DomainError):
        # first offset must be 1
        Cluster((1, 2, 3, 4), ((1, 2, 3),), (2,))
    del coll


def test_enumerate_clusters_identity_pattern():
    coll = PatternCollection(((1, 2, 3),))
    twos = enumerate_clusters_oracle(coll, 5, 2)
    assert len(twos) == 1
    (c,) = twos
    assert c.sigma == (1, 2, 3, 4, 5)
    assert c.offsets == (1, 3)
    assert count_clusters_oracle(coll, 4, 2) == 1
    assert count_clusters_oracle(coll, 6, 2) == 0
    # 123 then 321 two entries apart, and 321 then 123, order the two shared
    # entries both ways: both oracles skip those shapes
    up_down = PatternCollection(((1, 2, 3), (3, 2, 1)))
    clusters = enumerate_clusters_oracle(up_down, 4, 2)
    assert [c.sigma for c in clusters] == [(1, 2, 3, 4), (4, 3, 2, 1)]
    assert count_clusters_oracle(up_down, 4, 2) == 2


def test_one_cluster_counts_are_trivial():
    coll = PatternCollection(((1, 3, 2, 5, 4),))
    assert count_clusters_oracle(coll, 5, 1) == 1
    assert count_clusters_oracle(coll, 6, 1) == 0


def test_clusters_cover_and_occur():
    coll = PatternCollection(((1, 3, 2), (2, 1, 3)))
    for c in enumerate_clusters_oracle(coll, 6, 2):
        n = len(c.sigma)
        assert c.offsets[-1] + len(c.patterns[-1]) - 1 == n
        for d, p in zip(c.offsets, c.patterns):
            assert d in occurrences(p, c.sigma)


def test_length_one_pattern_table():
    table = cluster_counts(PatternCollection(((1,),)), 6, 6)
    assert table.totals == {(1, 0): 1, (1, 1): 1}


def test_recurrence_matches_oracle_mixed_collection():
    coll = PatternCollection(((1, 2, 3), (1, 3, 2)))
    table = cluster_counts(coll, 8, 4)
    for n in range(1, 9):
        for q in range(1, 5):
            assert table.total(n, q) == count_clusters_oracle(coll, n, q), (n, q)


def test_input_checks():
    coll = PatternCollection(((1, 3, 2),))
    for n, q in [(0, 1), (1, 0)]:
        with pytest.raises(DomainError, match="need n >= 1 and q >= 1"):
            count_clusters_oracle(coll, n, q)


def test_single_pattern_engine_matches_general():
    for pat in [(2, 1, 3), (1, 3, 2, 4), (2, 4, 1, 3), (1, 2, 3, 4, 5)]:
        coll = PatternCollection((pat,))
        gen = cluster_counts(coll, 10, 4)
        single = cluster_counts_single_pattern(pat, 10, 4)
        assert dict(gen.totals) == single.totals, pat
        assert _refined_cluster_counts(coll, 10, 4).totals == single.totals, pat
    for n_max, q_max in [(0, 3), (3, 0)]:
        with pytest.raises(DomainError):
            cluster_counts_single_pattern((1, 3, 2), n_max, q_max)


@settings(max_examples=25, deadline=None)
@given(small_pattern)
def test_recurrence_matches_oracle_random_singleton(pat):
    coll = PatternCollection((pat,))
    table = cluster_counts(coll, 7, 3)
    for n in range(1, 8):
        for q in range(1, 4):
            assert table.total(n, q) == count_clusters_oracle(coll, n, q)


def test_pair_pool_mixes_both_classes():
    assert len(MONOTONE_PAIRS) >= 3
    assert len(GENERAL_PAIRS) >= 100


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(MONOTONE_PAIRS) | st.sampled_from(GENERAL_PAIRS))
def test_recurrence_matches_oracle_random_pair(coll):
    table = cluster_counts(coll, 8, 3)
    for n in range(1, 9):
        for q in range(1, 4):
            assert table.total(n, q) == count_clusters_oracle(coll, n, q), (n, q)


def test_monotone_table_answers_refined_queries():
    # routed to the collapsed recurrence, which builds no refined engine; the
    # refined engine's per-vertex sums equal the collapsed vertex rows
    table = cluster_counts(MONO_D, 10, 4)
    assert table._engine is None
    refined = _refined_cluster_counts(MONO_D, 10, 4)
    assert refined.totals == table.totals
    tables = _vertex_tables(build_graph(MONO_D), 10, 4)
    by_vertex = {(v, n): [0] * 5 for v in tables.rows for n in range(11)}
    for (v, n, word), row in refined._engine.memo.items():
        # a monotone cluster's initial subword is the vertex itself
        assert word == v, (v, n, word)
        for q, c in enumerate(row):
            by_vertex[v, n][q] += c
    for v in tables.rows:
        for n, row in enumerate(tables.lists(v)):
            assert by_vertex[v, n] == (row + [0] * 5)[:5], (v, n)


def test_total_is_zero_outside_the_table():
    # 12345 is a 123-cluster with 2 and with 3 marks; a row or entry indexed
    # from the end would read those nonzero cells
    table = cluster_counts(PatternCollection(((1, 2, 3),)), 5, 4)
    assert table.rows[-1][2] == table.rows[3][-1] == 1
    outside = [(-1, 2), (6, 2), (3, -1), (5, 5)]
    assert [table.total(n, q) for n, q in outside] == [0, 0, 0, 0]
    assert all(table.total(n, q) == table.totals.get((n, q), 0)
               for n in range(-2, 8) for q in range(-2, 7))


def test_refined_counts_sum_to_totals():
    coll = PatternCollection(((1, 3, 2, 5, 4),))
    table = cluster_counts(coll, 9, 3)
    assert table._engine is None
    assert _refined_cluster_counts(coll, 9, 3).totals == table.totals


def test_engine_memo_holds_one_vector_per_word():
    # 1324 overlaps itself at k = 1 and k = 2, so a 1324-cluster with q marks
    # has length 2q + 2 to 3q + 1; a top-down memo keyed on (v, n, q, word)
    # held 22,591 states here, and one keyed on (v, n, word) 1,178
    coll = PatternCollection(((1, 3, 2, 4),))
    assert [count_clusters_oracle(coll, n, 2) for n in (5, 6, 7, 8)] == [0, 2, 1, 0]
    table = cluster_counts(coll, 20, 20)
    assert len(table._engine.memo) == 90
    assert all(table._engine.memo.values())


# Sixteen overlap-graph vertices and 130 edges.
SIXTEEN = PatternCollection(tuple(
    tuple(map(int, p))
    for p in "123456 153264 253614 315426 362541 435261 541632 632154".split()
))


@pytest.mark.parametrize("coll, n, q, bound", [
    (PatternCollection(((1, 3, 2, 4),)), 60, 60, 1000),  # 870; top-down 34,338
    (SIXTEEN, 8, 3, 100),  # 81; top-down 312
])
def test_forward_fill_builds_only_nonzero_states(coll, n, q, bound):
    table = cluster_counts(coll, n, q)
    assert len(table._engine.memo) <= bound
    assert all(table._engine.memo.values())


def _below(totals, q_cap):
    return {(n, q): c for (n, q), c in totals.items() if q <= q_cap}


def test_capped_tables_restrict_the_full_table(reference_tables):
    for coll, full in reference_tables:
        for q_cap in (1, 2, 3):
            capped = cluster_counts(coll, 12, q_cap).totals
            assert capped == _below(full.totals, q_cap), (coll, q_cap)


def test_q_cap_prunes_long_words():
    coll = PatternCollection(((1, 3, 2, 4),))
    full = cluster_counts(coll, 30, 30).totals
    for q_cap in (1, 3):
        table = cluster_counts(coll, 30, q_cap)
        assert table.totals == _below(full, q_cap), q_cap
        # beyond length 1 + 3 q_cap the recursion stops at once
        assert all(n <= 1 + 3 * q_cap for _, n, _ in table._engine.memo)


class RefEngine:
    """The refined recurrence evaluated top-down with a memo, the reference
    for the forward fill: ``vec(v, n, word)`` enumerates every fresh pick of
    every edge out of v and recurses into the target word each one reaches,
    zero or not."""

    def __init__(self, graph, q_max):
        self.q_max = q_max
        self.n_cap = 1 + q_max * (max(map(len, graph.collection)) - 1)
        self.memo = {}
        self.by_source = {v: [] for v in graph.vertices}
        for e in graph.edges:
            self.by_source[e.source].append(self._profile(e))
        self.first_row = tuple(enumerate(_first_row(graph.collection)[: q_max + 1]))

    @staticmethod
    def _profile(e):
        """(target, drop, gaps, sub): gaps lists (g, fresh entries, spacing,
        lifts, room) for each gap g between sorted source entries that holds
        fresh entries or must leave room; sub gives each target entry's index
        in the step's value list and its standardizing shift."""
        pat, l, k, kp = e.pattern, len(e.pattern), len(e.source), len(e.target)
        where = range(l) if l <= k + kp else [*range(k), *range(l - kp, l)]
        values = [pat[i] for i in where]
        size = len(values)
        tilde = standardize(values)
        source_ranks = sorted(tilde[:k])
        ranks = (0, *source_ranks, size + 1)
        entry = (0, *sorted(values), l + 1)
        spacing = [entry[r + 1] - entry[r] - 1 for r in range(size + 1)]
        gaps = []
        for g in range(k + 1):
            lo, hi = ranks[g], ranks[g + 1]
            fresh, gap_spacing = hi - lo - 1, tuple(spacing[lo:hi])
            if fresh or gap_spacing[0]:
                lifts = tuple(accumulate(gap_spacing))[:fresh]
                gaps.append((g, fresh, gap_spacing, lifts, sum(gap_spacing)))

        def index(r):
            if r in source_ranks:
                return source_ranks.index(r)
            return k + r - 1 - sum(x < r for x in source_ranks)

        sub = tuple(
            (index(tilde[size - kp + j]), pat[l - kp + j] - e.target[j])
            for j in range(kp)
        )
        return e.target, l - kp, gaps, sub

    def vec(self, v, n, word):
        if n == 1:
            return self.first_row
        if n > self.n_cap:
            return ()
        key = (v, n, word)
        if key not in self.memo:
            acc = [0] * (self.q_max + 1)
            for prof in self.by_source[v]:
                self._step(prof, n, word, acc)
            self.memo[key] = tuple((q, c) for q, c in enumerate(acc) if c)
        return self.memo[key]

    def _step(self, prof, n, word, acc):
        target, drop, gaps, sub = prof
        if n - drop < 1:
            return
        source = tuple(sorted(word))
        bounds = (0, *source, n + 1)
        weight, choices = 1, []
        for g, fresh, spacing, lifts, room in gaps:
            lo, hi = bounds[g], bounds[g + 1]
            if not fresh:
                weight *= comb(hi - lo - 1, room)
                if not weight:
                    return
                continue
            options = []
            for low in combinations(range(lo + 1, hi - room), fresh):
                picked = tuple(x + s for x, s in zip(low, lifts))
                ways, prev = 1, lo
                for x, m in zip(picked + (hi,), spacing):
                    ways *= comb(x - prev - 1, m)
                    prev = x
                options.append((picked, ways))
            if not options:
                return
            choices.append(options)
        for chosen in product(*choices):
            values, ways = source, weight
            for picked, w in chosen:
                values += picked
                ways *= w
            word_sub = tuple(values[i] - s for i, s in sub)
            for q, c in self.vec(target, n - drop, word_sub):
                if q < self.q_max:
                    acc[q + 1] += ways * c


def ref_edge_profile(e):
    """``_edge_profile`` derived with ``standardize`` for the ranks of the
    boundary values, the reference for the library's derivation, which
    reads them off the sorted values instead."""
    pat, l, k, kp = e.pattern, len(e.pattern), len(e.source), len(e.target)
    where = range(l) if l <= k + kp else [*range(k), *range(l - kp, l)]
    values = [pat[i] for i in where]
    size = len(values)
    rank = standardize(values)
    entry = (0, *sorted(values), l + 1)  # pattern entry of each rank
    spacing = [entry[r + 1] - entry[r] - 1 for r in range(size + 1)]
    fixed = tuple(
        (rank[size - kp + j], pat[l - kp + j] - e.target[j]) for j in range(kp)
    )
    ends = sorted({0, size + 1, *(r for r, _ in fixed)})
    runs = sorted(
        ((lo, hi, tuple(spacing[lo:hi]))
         for lo, hi in zip(ends, ends[1:])
         if hi - lo > 1 or spacing[lo]),
        key=lambda run: run[1] - run[0] > 1,
    )
    *outer, inner = [slice(lo + 1, hi) for lo, hi, _ in runs]
    return (l - kp, e.source, fixed, runs, outer, inner, itemgetter(*rank[:k]),
            [0] * (size + 2))


# Eight overlap-graph vertices.
CACHE_COLLECTION = PatternCollection(tuple(
    tuple(map(int, p)) for p in "51423 54321 34215 31452".split()
))


def test_edge_profiles_match_the_reference_derivation():
    singles = [PatternCollection((p,)) for p in all_permutations(5)]
    colls = reference_collections() + [SIXTEEN, CACHE_COLLECTION] + singles
    edges = {e for coll in colls for e in build_graph(coll).edges}
    assert len(edges) > 600
    for e in edges:
        *step, get, b = _edge_profile(e)
        *ref, ref_get, ref_b = ref_edge_profile(e)
        assert step == ref, e
        # itemgetters compare by identity; their reductions name the items
        assert get.__reduce__() == ref_get.__reduce__(), e
        assert b == ref_b, e


def _admissible_words(v, n):
    for values in combinations(range(1, n + 1), len(v)):
        yield tuple(values[x - 1] for x in v)


def test_refined_queries_match_the_top_down_reference():
    # the monotone collections too, through the refined engine; the sums by
    # vertex and length show that the memo holds no inadmissible word
    for coll in reference_collections() + list(MONO_ALL):
        memo = _refined_cluster_counts(coll, 10, 10)._engine.memo
        assert all(memo.values())
        in_memo = {}
        for (v, n, _), row in memo.items():
            total = in_memo.setdefault((v, n), [0] * 11)
            for q, c in enumerate(row):
                total[q] += c
        graph = build_graph(coll)
        ref = RefEngine(graph, 10)
        for v in graph.vertices:
            for n in range(1, 11):
                by_vertex = [0] * 11
                for word in _admissible_words(v, n):
                    expected = dict(ref.vec(v, n, word))
                    got = {q: c for q, c in enumerate(memo.get((v, n, word), ())) if c}
                    assert got == expected, (coll, v, n, word)
                    for q, c in got.items():
                        by_vertex[q] += c
                assert in_memo.get((v, n), [0] * 11) == by_vertex, (coll, v, n)


def test_refined_rows_are_the_sums_of_the_memo_rows_of_one():
    # cl_{n,q} is the sum over first letters of the (1) states at n, the
    # base state ((1), 1, (1)) among them; each state holds its trimmed q-row
    colls = [*reference_collections(), PatternCollection(((1, 3, 2, 5, 4), (2, 4, 1, 3))),
             *MONO_ALL, PatternCollection(((1,),))]
    for coll in colls:
        table = _refined_cluster_counts(coll, 10, 10)
        sums = [[0] * 11 for _ in range(11)]
        for (v, n, _), row in table._engine.memo.items():
            assert type(row) is list and row and row[-1], (coll, v, n, row)
            for q, c in enumerate(row if v == (1,) else ()):
                sums[n][q] += c
        for total in sums:
            while total and not total[-1]:
                total.pop()
        assert table.rows == sums, coll
        assert table.rows is table._engine.rows


def ref_vertex_tables(graph, n_max, q_max):
    """The collapsed recurrence filled on lists, the reference for the packed
    fill: rows[v][n] lists cl_{v,n,q} by q, bottom-up in n."""
    data = monotone_recurrence_data(graph)
    rows = {v: [[] for _ in range(n_max + 1)] for v in graph.vertices}
    if n_max >= 1:
        rows[(1,)][1] = list(_first_row(graph.collection)[: q_max + 1])
    for n in range(2, n_max + 1):
        for v, edges in data.items():
            acc = []
            for l, k, m, target in edges:
                coef = comb(n - m, l - m) if n >= m else 0  # m <= l
                if coef and n - l + k >= 1:
                    sub = rows[target][n - l + k][:q_max]
                    acc.extend([0] * (len(sub) + 1 - len(acc)))
                    for q, c in enumerate(sub, 1):
                        acc[q] += coef * c
            while acc and not acc[-1]:
                acc.pop()
            rows[v][n] = acc
    return rows


MONOTONE_SINGLES = [
    PatternCollection((p,))
    for l in range(1, 7)
    for p in all_permutations(l)
    if is_monotone(PatternCollection((p,)))
]


def test_packed_fill_matches_the_list_fill():
    """Every unpacked row equals the list fill's, under each q cap, and the
    width leaves room for twice every row bound."""
    assert len(MONOTONE_SINGLES) == 81
    for coll in (*MONO_ALL, *MONOTONE_SINGLES):
        graph = build_graph(coll)
        for n_max in (1, 2, 13, 30):
            for q_max in sorted({1, 3, n_max}):
                tables = _vertex_tables(graph, n_max, q_max)
                ref = ref_vertex_tables(graph, n_max, q_max)
                assert {v: tables.lists(v) for v in tables.rows} == ref, (
                    coll, n_max, q_max)
                assert tables.width % 8 == 0
                for v, rows in ref.items():
                    for row, bound in zip(rows, tables.bounds[v]):
                        assert max(row, default=0) <= bound < 1 << (tables.width - 2)
