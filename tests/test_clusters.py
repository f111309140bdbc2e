"""Cluster enumeration oracle and the recurrence engines."""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import MONO_D, random_two_pattern_collections
from clusterperm.clusters import (
    Cluster,
    _vertex_tables,
    binom,
    cluster_counts,
    cluster_counts_single_pattern,
    count_clusters_oracle,
    enumerate_clusters_oracle,
    table_totals,
    totals_from_tsv,
    totals_to_tsv,
)
from clusterperm.graph import PatternCollection, is_monotone
from clusterperm.perms import DomainError, occurrences

small_pattern = st.integers(3, 4).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
)

# Reduced two-pattern collections of lengths 2-4, split by class so that a
# property over them exercises both recurrences.
PAIR_POOL = random_two_pattern_collections(300, seed=7)
MONOTONE_PAIRS = [c for c in PAIR_POOL if is_monotone(c)]
GENERAL_PAIRS = [c for c in PAIR_POOL if not is_monotone(c)]


def test_binomial_vanishing_convention():
    assert binom(5, 2) == 10
    assert binom(-1, 0) == 0
    assert binom(3, 5) == 0
    assert binom(3, -1) == 0
    assert binom(0, 0) == 1


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


def test_single_pattern_engine_matches_general():
    for pat in [(2, 1, 3), (1, 3, 2, 4), (2, 4, 1, 3), (1, 2, 3, 4, 5)]:
        coll = PatternCollection((pat,))
        gen = cluster_counts(coll, 10, 4)
        single = cluster_counts_single_pattern(pat, 10, 4)
        assert table_totals(gen) == single.totals, pat
        for n in range(1, 11):
            for q in range(1, 5):
                by_first = sum(
                    single.refined((1,), n, q, (p1,)) for p1 in range(1, n + 1)
                )
                assert by_first == single.total(n, q), (pat, n, q)
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
    # routed to the collapsed recurrence: the refined engine is built lazily
    table = cluster_counts(MONO_D, 10, 4)
    assert table._engine is None
    cells = _vertex_tables(table.graph, 10, 4)
    for n in range(1, 11):
        for q in range(1, 5):
            by_first = sum(
                table.refined((1,), n, q, (p1,)) for p1 in range(1, n + 1)
            )
            assert by_first == table.total(n, q), (n, q)
            for v in table.graph.vertices:
                # a monotone cluster's initial subword is the vertex itself
                expected = cells.get((v, n, q), 0)
                assert table.vertex_total(v, n, q) == expected, (v, n, q)
                assert table.refined(v, n, q, v) == expected, (v, n, q)
    assert table._engine is not None


@pytest.mark.parametrize("coll, word", [
    (PatternCollection(((1, 4, 2, 5, 3),)), (1, 4, 2)),  # refined recurrence
    (PatternCollection(((1, 3, 2, 5, 4),)), (1, 3, 2)),  # collapsed recurrence
])
def test_refined_rejects_inadmissible_words(coll, word):
    table = cluster_counts(coll, 9, 3)
    v, n, q = (1, 3, 2), 9, 2
    assert v in table.graph.vertices
    assert table.refined(v, n, q, word) > 0
    states = len(table._engine.memo)
    for bad in [
        (1, 4),  # wrong length
        (1, 4, 2, 3),  # wrong length
        (1, 10, 2),  # entry above n
        (0, 4, 2),  # entry below 1
        (1, 4, 4),  # repeated entry
        (2, 1, 3),  # standardizes to 213
        (1, 2, 3),  # standardizes to 123
    ]:
        assert table.refined(v, n, q, bad) == 0, bad
    assert table.refined((2, 1), n, q, (2, 1)) == 0  # not a vertex
    assert table.vertex_total((2, 1), n, q) == 0
    assert len(table._engine.memo) == states


def test_refined_counts_sum_to_totals():
    coll = PatternCollection(((1, 3, 2, 5, 4),))
    table = cluster_counts(coll, 9, 3)
    for n in range(1, 10):
        for q in range(1, 4):
            by_first = sum(
                table.refined((1,), n, q, (p1,)) for p1 in range(1, n + 1)
            )
            assert by_first == table.total(n, q)


def test_engine_memo_holds_one_vector_per_word():
    # a 1324-cluster with q marks has length 3q + 1, so a memo keyed on
    # (v, n, q, word) would hold 22,591 states here, almost all of them zero
    table = cluster_counts(PatternCollection(((1, 3, 2, 4),)), 20, 20)
    assert len(table._engine.memo) == 1178


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


@pytest.mark.parametrize("coll", [
    PatternCollection(((1, 4, 2, 5, 3),)),  # refined recurrence
    PatternCollection(((1, 3, 2, 5, 4),)),  # collapsed recurrence
])
def test_refined_queries_above_q_max_are_domain_errors(coll):
    table = cluster_counts(coll, 9, 3)
    v = (1, 3, 2)
    assert table.vertex_total(v, 9, 3) > 0
    with pytest.raises(DomainError, match="q_max=3"):
        table.refined(v, 9, 4, v)
    with pytest.raises(DomainError, match="q_max=3"):
        table.vertex_total(v, 9, 4)


def test_totals_tsv_round_trip():
    coll = PatternCollection(((1, 2, 3),))
    totals = table_totals(cluster_counts(coll, 8, 3))
    text = totals_to_tsv(totals)
    assert totals_from_tsv(text) == totals
