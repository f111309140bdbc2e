"""Cluster-table cache keyed by the canonical overlap graph."""

import os
import random
from collections import Counter
from dataclasses import replace
from itertools import combinations

import pytest

import clusterperm.cache as cache_module
from clusterperm.cache import (
    atomic_write_text,
    cache_dir,
    cache_key,
    cached_cluster_counts,
    load_table,
    save_table,
)
from clusterperm.clusters import cluster_counts
from clusterperm.equivalence import graphs_isomorphic
from clusterperm.graph import (
    OverlapGraph,
    PatternCollection,
    build_graph,
    canonical_form,
)
from clusterperm.perms import DomainError, all_permutations, parse_perm

WILF_PAIR = (
    PatternCollection(((1, 4, 3, 2, 6, 5, 9, 8, 7),)),
    PatternCollection(((1, 3, 4, 2, 6, 5, 8, 9, 7),)),
)


def test_key_deterministic():
    c = PatternCollection(((1, 2, 3), (2, 1, 3)))
    assert cache_key(c) == cache_key(c)
    assert len(cache_key(c)) == 64


# Keys computed before the canonical form moved into graph.py; a change to
# the form or its encoding would orphan every cached table.
PINNED_KEYS = {
    "143265987":
        "34a247d6a16381d0cddeb01c3aa5d3e800b865c24a51c4a1b3babb8b4453e2ab",
    "51423 54321 34215 31452":
        "0e7c9403b24b02c12dcb43cc0c6b17e7f30458b04721913749fed96e5fa76ac2",
    "51423 54321 34215 31452 14253":
        "e6c5f40a5e869c8fcdb67f55279c636d91b97247ba635810f5687b8bf52dafa4",
    "123 213":
        "e3740ac2c793b20bcd2bc399b97d8166273a51e784f36eb448a9547f45474f0b",
}


def small_reduced_collections():
    """Singletons of length 2-5 and reduced pairs of length 2-4."""
    out = [PatternCollection((p,)) for l in range(2, 6) for p in all_permutations(l)]
    short = [p for l in range(2, 5) for p in all_permutations(l)]
    for pair in combinations(short, 2):
        try:
            out.append(PatternCollection(pair))
        except DomainError:
            continue
    return out


@pytest.mark.parametrize("text", sorted(PINNED_KEYS))
def test_key_is_stable(text):
    coll = PatternCollection(tuple(parse_perm(w) for w in text.split()))
    assert cache_key(coll) == PINNED_KEYS[text]


def assert_isomorphism(mapping, g1, g2):
    assert mapping is not None, (g1.collection, g2.collection)
    assert mapping[(1,)] == (1,)
    assert sorted(mapping) == sorted(g1.vertices)
    assert sorted(mapping.values()) == sorted(g2.vertices)
    assert all(len(v) == len(w) for v, w in mapping.items())
    moved = Counter((mapping[e.source], mapping[e.target], e.label) for e in g1.edges)
    assert moved == Counter((e.source, e.target, e.label) for e in g2.edges)


def reversed_names(g):
    """The same graph with every vertex renamed to its reverse."""
    name = {v: tuple(reversed(v)) for v in g.vertices}
    return OverlapGraph(
        g.collection,
        tuple(sorted(name.values(), key=lambda v: (len(v), v))),
        tuple(
            replace(e, source=name[e.source], target=name[e.target])
            for e in g.edges
        ),
    )


def test_equal_keys_are_exactly_isomorphic_graphs():
    colls = small_reduced_collections()
    assert len(colls) == 546
    groups = {}
    for coll in colls:
        groups.setdefault(cache_key(coll), []).append(build_graph(coll))
    for first, *others in groups.values():
        for other in others:
            assert_isomorphism(graphs_isomorphic(first, other), first, other)
    # the groups above hold one-vertex graphs only; renamed copies give every
    # graph an isomorphic partner with the vertices listed in another order
    for graphs in groups.values():
        copy = reversed_names(graphs[0])
        assert_isomorphism(graphs_isomorphic(graphs[0], copy), graphs[0], copy)
    rng = random.Random(546)
    reps = [graphs[0] for graphs in groups.values()]
    for g1, g2 in (rng.sample(reps, 2) for _ in range(300)):
        assert graphs_isomorphic(g1, g2) is None, (g1.collection, g2.collection)


def test_isomorphic_graphs_share_key():
    assert cache_key(WILF_PAIR[0]) == cache_key(WILF_PAIR[1])


def test_distinct_graphs_distinct_keys():
    assert cache_key(PatternCollection(((1, 2, 3),))) != cache_key(
        PatternCollection(((1, 3, 2),))
    )


def test_cache_dir_env(monkeypatch, tmp_path):
    monkeypatch.setenv("CLUSTERPERM_CACHE_DIR", str(tmp_path / "c"))
    assert cache_dir() == tmp_path / "c"


def test_save_load_round_trip(tmp_path):
    coll = PatternCollection(((1, 3, 2),))
    table = cluster_counts(coll, 9, 4)
    path = save_table(table, tmp_path)
    assert path.exists()
    hit = load_table(coll, 9, 4, tmp_path)
    assert hit is not None
    assert hit.totals == table.totals
    assert load_table(coll, 10, 4, tmp_path) is None


def test_cached_counts_hit_equals_recompute(tmp_path):
    coll = PatternCollection(((1, 2, 3), (1, 3, 2)))
    first = cached_cluster_counts(coll, 8, 4, tmp_path)
    second = cached_cluster_counts(coll, 8, 4, tmp_path)
    direct = cluster_counts(coll, 8, 4)
    assert first.totals == second.totals == direct.totals


def test_cache_miss_and_hit_compute_the_key_once(tmp_path, monkeypatch):
    # eight overlap-graph vertices: the key is the costly part of a lookup
    coll = PatternCollection(
        tuple(parse_perm(p) for p in "51423 54321 34215 31452".split())
    )
    assert len(build_graph(coll).vertices) == 8
    calls = []

    def counting(graph):
        calls.append(graph)
        return canonical_form(graph)

    monkeypatch.setattr(cache_module, "canonical_form", counting)
    cold = cached_cluster_counts(coll, 8, 3, tmp_path)
    assert len(calls) == 1
    warm = cached_cluster_counts(coll, 8, 3, tmp_path)
    assert len(calls) == 2
    assert cold.totals == warm.totals == cluster_counts(coll, 8, 3).totals
    assert len(list(tmp_path.iterdir())) == 1


def test_isomorphic_collections_share_cached_table(tmp_path):
    t1 = cached_cluster_counts(WILF_PAIR[0], 11, 2, tmp_path)
    t2 = cached_cluster_counts(WILF_PAIR[1], 11, 2, tmp_path)
    assert t1.totals == t2.totals
    assert len(list(tmp_path.iterdir())) == 1


@pytest.mark.parametrize(
    "bad",
    ['{"n_max": 8, "q_max": 4, "totals": [[1, 0', "[]", '{"n_max": 8}'],
    ids=["truncated", "not-an-object", "no-totals"],
)
def test_unreadable_file_is_a_miss_and_is_rewritten(tmp_path, bad):
    coll = PatternCollection(((1, 2, 3), (1, 3, 2)))
    path = save_table(cluster_counts(coll, 8, 4), tmp_path)
    whole = path.read_text()
    path.write_text(bad)
    assert load_table(coll, 8, 4, tmp_path) is None
    table = cached_cluster_counts(coll, 8, 4, tmp_path)
    assert table.totals == cluster_counts(coll, 8, 4).totals
    assert path.read_text() == whole


def test_atomic_write(tmp_path):
    target = tmp_path / "sub" / "out.json"
    atomic_write_text(target, "hello\n")
    assert target.read_text() == "hello\n"
    atomic_write_text(target, "world\n")
    assert target.read_text() == "world\n"
    leftovers = [p for p in target.parent.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []
