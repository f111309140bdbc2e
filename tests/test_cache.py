"""Cluster-table cache keyed by the canonical overlap graph."""

import json
import random
import time
from collections import Counter
from itertools import chain, combinations, permutations, product

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import clusterperm.cache as cache_module
import clusterperm.graph as graph_module
from clusterperm.cache import (
    atomic_write_text,
    cache_dir,
    cache_key,
    cached_cluster_counts,
    load_table,
    save_table,
)
from clusterperm.cli import main
from clusterperm.clusters import cluster_counts, count_clusters_oracle
from clusterperm.equivalence import graphs_isomorphic
from clusterperm.graph import (
    Edge,
    EdgeLabel,
    LeafBudgetError,
    OverlapGraph,
    PatternCollection,
    build_graph,
    canonical_form,
)
from clusterperm.perms import DomainError, all_permutations, parse_perm
from conftest import MONO_ALL, nudged

WILF_PAIR = (
    PatternCollection(((1, 4, 3, 2, 6, 5, 9, 8, 7),)),
    PatternCollection(((1, 3, 4, 2, 6, 5, 8, 9, 7),)),
)


def test_key_deterministic():
    c = PatternCollection(((1, 2, 3), (2, 1, 3)))
    assert cache_key(c) == cache_key(c)
    assert len(cache_key(c)) == 64


# Keys of the colour-refinement canonical form, set at cache schema 2; the key
# does not hash the schema, so a layout change leaves them as they are, and a
# change to the form or its encoding would orphan every cached table.
PINNED_KEYS = {
    "143265987":
        "a8a7eb8325756e09624d491f7ebb41ea451f4e01abbaa2b0b788db4e3eb6a04c",
    "51423 54321 34215 31452":
        "25cce247009ed3b52101cac8f81ba2229e6fc08940254fcd014e2a05508a4cd0",
    "51423 54321 34215 31452 14253":
        "bebe956e40ada16955b89c0328fa64df339bec67adcea551aef1f5ed861da4c1",
    "123 213":
        "1485cf455631e109e4f794651ecf1eebf89a010d1d30bdfea6478c7089b1ccac",
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
            e._replace(source=name[e.source], target=name[e.target])
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


def renamed(g, rng):
    """The same graph with the vertices of each length shuffled among their
    names."""
    name = {}
    for length in {len(v) for v in g.vertices}:
        same = [v for v in g.vertices if len(v) == length]
        name.update(zip(same, rng.sample(same, len(same))))
    edges = (e._replace(source=name[e.source], target=name[e.target]) for e in g.edges)
    return OverlapGraph(
        g.collection,
        g.vertices,
        tuple(sorted(edges, key=lambda e: (e.source, e.target, e.label, e.pattern))),
    )


IN, OUT, MID = (
    EdgeLabel((1,), (4,), 4), EdgeLabel((4,), (1,), 4), EdgeLabel((2,), (1,), 3)
)


def synthetic_graph(lengths, arcs):
    """(1) at index 0, then one vertex of each length in ``lengths``; ``arcs``
    holds (source index, target index, label) triples."""
    names = {length: iter(all_permutations(length)) for length in set(lengths)}
    vertices = [(1,), *(next(names[length]) for length in lengths)]
    edges = [
        Edge(vertices[s], vertices[t], label, (1, 2, 3, 4))
        for s, t, label in arcs
    ]
    return OverlapGraph(
        PatternCollection(((1, 2, 3, 4),)),
        tuple(sorted(vertices, key=lambda v: (len(v), v))),
        tuple(sorted(edges, key=lambda e: (e.source, e.target, e.label, e.pattern))),
    )


def cycles(sizes, label=IN):
    """Disjoint directed cycles on the vertices from index 1 on."""
    arcs, start = [], 1
    for size in sizes:
        arcs += [(start + i, start + (i + 1) % size, label) for i in range(size)]
        start += size
    return arcs


def circulant_graph(na, nb, aa, bb, ab, ba):
    """Two length classes of na and nb vertices.  Each of ``aa``, ``bb``,
    ``ab`` and ``ba`` is a (steps, label) pair: vertex i of the source class
    points to vertex j of the target class when (j - i) mod (target size) is
    a step."""
    first = {"a": (1, na), "b": (1 + na, nb)}
    arcs = []
    for (src, tgt), (steps, label) in zip(("aa", "bb", "ab", "ba"), (aa, bb, ab, ba)):
        (fs, ns), (ft, nt) = first[src], first[tgt]
        arcs += [
            (fs + i, ft + j, label)
            for i in range(ns)
            for j in range(nt)
            if (j - i) % nt in steps
        ]
    return synthetic_graph([4] * na + [5] * nb, arcs)


# Colour refinement leaves tied cells in each of these graphs.  In most,
# every vertex but (1) has the same length and the same labelled degrees.
TIED_GRAPHS = {
    "hexagon": synthetic_graph([4] * 6, cycles([6])),
    "two-triangles": synthetic_graph([4] * 6, cycles([3, 3])),
    "three-squares": synthetic_graph([4] * 12, cycles([4, 4, 4])),
    "hexagon-and-two-triangles": synthetic_graph([4] * 12, cycles([6, 3, 3])),
    # a loop, a 2-cycle and a 3-cycle, which refinement cannot tell apart
    "loop-and-short-cycles": synthetic_graph([4] * 6, cycles([1, 2, 3], MID)),
    # two tied cells, one per length, whose individualisations interact
    "two-circulants": circulant_graph(
        5, 4, ({1, 2, 3}, MID), ({0, 2, 3}, IN), ({0, 2}, IN), (set(), IN)
    ),
    "cube": synthetic_graph(
        [4] * 8,
        [
            (a + 1, (a ^ 1 << b) + 1, IN if b else OUT)
            for a in range(8)
            for b in range(3)
        ],
    ),
}


# Automorphism groups S_12, S_10 and S_12: refinement splits nothing, and the
# search has more leaves than the canonical form's budget.
OVER_BUDGET = {
    "star": synthetic_graph(
        [4] * 12,
        [(0, i, IN) for i in range(1, 13)] + [(i, 0, OUT) for i in range(1, 13)],
    ),
    "clique": synthetic_graph(
        [4] * 10, [(i, j, IN) for i in range(1, 11) for j in range(1, 11) if i != j]
    ),
    "no-edges": synthetic_graph([4] * 12, []),
}


@pytest.mark.parametrize("name", sorted(TIED_GRAPHS))
def test_tied_cells_get_a_renaming_invariant_form(name):
    g = TIED_GRAPHS[name]
    start = time.perf_counter()
    form, _ = canonical_form(g)
    assert time.perf_counter() - start < 1.0
    rng = random.Random(name)
    for _ in range(5):
        copy = renamed(g, rng)
        assert canonical_form(copy)[0] == form
        assert_isomorphism(graphs_isomorphic(g, copy), g, copy)


@pytest.mark.parametrize("name", sorted(OVER_BUDGET))
def test_over_budget_graphs_raise_the_named_error(name):
    g = OVER_BUDGET[name]
    copy = renamed(g, random.Random(name))
    named = rf"^canonical form: .* {len(g.vertices)}-vertex graph$"
    for search in (lambda: canonical_form(g), lambda: graphs_isomorphic(g, copy)):
        start = time.perf_counter()
        with pytest.raises(LeafBudgetError, match=named):
            search()
        assert time.perf_counter() - start < 1.0


def test_form_is_the_least_leaf():
    # individualising the looped vertex first gives the only leaves whose
    # least edge is (1, 1), the least edge any leaf can have
    g = TIED_GRAPHS["loop-and-short-cycles"]
    (_, edges), order = canonical_form(g)
    assert edges[0][:2] == (1, 1)
    assert order[1] == g.vertices[1]


def test_every_overlap_graph_tried_keys_within_one_leaf(monkeypatch):
    # the canonical form searches without automorphism pruning because
    # colour refinement alone makes these graphs discrete
    monkeypatch.setattr(graph_module, "_LEAF_BUDGET", 1)
    colls = [
        *small_reduced_collections(),
        *MONO_ALL,
        *(
            PatternCollection(tuple(parse_perm(w) for w in text.split()))
            for text in (
                "123456 153264 253614 315426 362541 435261 541632 632154",
                "51423 54321 34215 31452",
            )
        ),
    ]
    assert len(colls) == 552
    for coll in colls:
        cache_key(coll)  # raises LeafBudgetError past one leaf


def relabelling_form(graph):
    """Reference: the least edge encoding over every vertex order that keeps
    lengths sorted, found by trying them all."""
    classes = {}
    for v in graph.vertices:
        classes.setdefault(len(v), []).append(v)
    edges = [(e.source, e.target, e.label) for e in graph.edges]
    best = None
    for orders in product(*(permutations(classes[k]) for k in sorted(classes))):
        index = {v: i for i, v in enumerate(chain.from_iterable(orders))}
        enc = sorted((index[s], index[t], label) for s, t, label in edges)
        best = enc if best is None else min(best, enc)
    return tuple(sorted(map(len, graph.vertices))), tuple(best)


def copies_of_a_motif(rng):
    """Copies of one random motif, each joined to (1) alike, plus stray arcs."""
    size = rng.randint(1, 3)
    copies = rng.randint(2, min(3, 7 // size))
    lengths = [rng.choice((4, 5)) for _ in range(size)]
    motif = [
        (a, b, rng.choice((IN, OUT, MID)))
        for a in range(size + 1)
        for b in range(size + 1)
        if rng.random() < 0.35
    ]
    at = lambda c, a: 0 if a == 0 else c * size + a
    arcs = [(at(c, a), at(c, b), lab) for c in range(copies) for a, b, lab in motif]
    for _ in range(rng.randint(0, 2)):
        ends = rng.choices(range(size * copies + 1), k=2)
        arcs.append((*ends, rng.choice((IN, OUT, MID))))
    return synthetic_graph(lengths * copies, arcs)


def cycle_union(rng):
    """Disjoint directed cycles on 7 vertices of one length, some joined to
    (1)."""
    sizes = []
    while sum(sizes) < 7:
        sizes.append(rng.randint(1, 7 - sum(sizes)))
    arcs = cycles(sizes, rng.choice((IN, MID)))
    starts = [1 + sum(sizes[:i]) for i in range(len(sizes))]
    arcs += [(0, start, OUT) for start in starts if rng.random() < 0.5]
    return synthetic_graph([4] * 7, arcs)


def circulants(rng):
    na, nb = rng.randint(2, 4), rng.randint(2, 4)
    return circulant_graph(
        na,
        nb,
        *(
            ({d for d in range(n) if rng.random() < 0.4}, rng.choice((IN, OUT, MID)))
            for n in (na, nb, nb, na)
        ),
    )


def test_form_agrees_with_the_relabelling_search():
    rng = random.Random(2014)
    graphs = [
        make(rng)
        for make in (copies_of_a_motif, cycle_union, circulants)
        for _ in range(60)
    ]
    forms = [canonical_form(g)[0] for g in graphs]
    for g, form in zip(graphs, forms):
        assert canonical_form(renamed(g, rng))[0] == form
    slow = [relabelling_form(g) for g in graphs]
    assert len(set(slow)) < len(graphs)
    for i, j in combinations(range(len(graphs)), 2):
        assert (forms[i] == forms[j]) == (slow[i] == slow[j])


def test_tied_cells_are_told_apart():
    # colour refinement cannot split either graph, individualisation can
    hexagon, triangles = TIED_GRAPHS["hexagon"], TIED_GRAPHS["two-triangles"]
    assert canonical_form(hexagon)[0] != canonical_form(triangles)[0]
    assert graphs_isomorphic(hexagon, triangles) is None


small_patterns = st.integers(3, 6).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
)


@st.composite
def nudged_collections(draw):
    """1-3 distinct patterns, and a copy with some adjacent values swapped."""
    patterns = draw(st.lists(small_patterns, min_size=1, max_size=3, unique=True))
    rng = draw(st.randoms(use_true_random=False))
    return patterns, [nudged(p, rng) for p in patterns]


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much]
)
@given(nudged_collections())
def test_equal_keys_give_equal_oracle_cluster_counts(pair):
    try:
        coll, twin = (PatternCollection(tuple(p)) for p in pair)
    except DomainError:
        assume(False)
    assume(set(coll) != set(twin) and cache_key(coll) == cache_key(twin))
    for n in range(1, 9):
        for q in range(1, 4):
            assert count_clusters_oracle(coll, n, q) == count_clusters_oracle(
                twin, n, q
            ), (n, q)


def test_isomorphic_graphs_share_key():
    assert cache_key(WILF_PAIR[0]) == cache_key(WILF_PAIR[1])


def test_distinct_graphs_distinct_keys():
    assert cache_key(PatternCollection(((1, 2, 3),))) != cache_key(
        PatternCollection(((1, 3, 2),))
    )


def test_cache_dir_env(monkeypatch, tmp_path):
    monkeypatch.setenv("CLUSTERPERM_CACHE_DIR", str(tmp_path / "c"))
    assert cache_dir() == tmp_path / "c"


def test_cache_dir_defaults_under_home(monkeypatch, tmp_path):
    monkeypatch.delenv("CLUSTERPERM_CACHE_DIR", raising=False)
    monkeypatch.setenv("HOME", str(tmp_path))
    assert cache_dir() == tmp_path / ".cache" / "clusterperm"


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


def test_collection_past_the_leaf_budget_is_computed_uncached(tmp_path, monkeypatch):
    monkeypatch.setattr(graph_module, "_LEAF_BUDGET", 0)  # every graph is past it
    coll = PatternCollection(((1, 2, 3), (1, 3, 2)))
    with pytest.raises(LeafBudgetError):
        cache_key(coll)
    table = cached_cluster_counts(coll, 8, 4, tmp_path)
    assert table.totals == cluster_counts(coll, 8, 4).totals
    assert list(tmp_path.iterdir()) == []


def test_cached_counts_read_and_write_through_the_public_functions(
    tmp_path, monkeypatch
):
    # a wrapper set on the module attributes, as a profiler or tracer would
    # install it, sees every lookup and every store
    coll = PatternCollection(((1, 3, 2), (2, 1, 3)))
    key = cache_key(coll)
    loads, saves = [], []
    real_load, real_save = cache_module.load_table, cache_module.save_table

    def load(*args, **kwargs):
        table = real_load(*args, **kwargs)
        loads.append((kwargs.get("key"), table is None))
        return table

    def save(*args, **kwargs):
        saves.append(kwargs.get("key"))
        return real_save(*args, **kwargs)

    monkeypatch.setattr(cache_module, "load_table", load)
    monkeypatch.setattr(cache_module, "save_table", save)
    cached_cluster_counts(coll, 6, 2, tmp_path)
    cached_cluster_counts(coll, 6, 2, tmp_path)
    assert loads == [(key, True), (key, False)]
    assert saves == [key]


def test_given_key_is_used_as_is(tmp_path):
    coll = PatternCollection(((1, 3, 2),))
    table = cluster_counts(coll, 6, 2)
    path = save_table(table, tmp_path, key="k" * 64)
    assert path.name.startswith("k" * 64)
    assert load_table(coll, 6, 2, tmp_path, key="k" * 64).totals == table.totals
    assert load_table(coll, 6, 2, tmp_path) is None


def test_isomorphic_collections_share_cached_table(tmp_path):
    t1 = cached_cluster_counts(WILF_PAIR[0], 11, 2, tmp_path)
    t2 = cached_cluster_counts(WILF_PAIR[1], 11, 2, tmp_path)
    assert t1.totals == t2.totals
    assert len(list(tmp_path.iterdir())) == 1


# the JSON decoder raises RecursionError, not ValueError, on the nested file
@pytest.mark.parametrize(
    "bad",
    ['{"n_max": 8, "q_max": 4, "totals": [[1, 0', "[]", '{"n_max": 8}', "[" * 200_000],
    ids=["truncated", "not-an-object", "no-totals", "nested"],
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
    assert load_table(coll, 8, 4, tmp_path).totals == table.totals


def test_file_with_a_foreign_key_is_a_miss_and_is_rewritten(tmp_path):
    coll = PatternCollection(((1, 2, 3), (1, 3, 2)))
    other = PatternCollection(((1, 2, 3),))
    path = save_table(cluster_counts(coll, 8, 4), tmp_path)
    whole = path.read_text()
    # another collection's table under this collection's file name
    save_table(cluster_counts(other, 8, 4), tmp_path).replace(path)
    assert json.loads(path.read_text())["key"] == cache_key(other)
    assert load_table(coll, 8, 4, tmp_path) is None
    table = cached_cluster_counts(coll, 8, 4, tmp_path)
    assert table.totals == cluster_counts(coll, 8, 4).totals
    assert path.read_text() == whole


def test_file_with_other_bounds_is_a_miss_and_is_rewritten(tmp_path):
    coll = PatternCollection(((1, 2, 3), (1, 3, 2)))
    direct = cluster_counts(coll, 9, 3)
    assert any(n > 6 for n, _ in direct.totals)
    path = save_table(direct, tmp_path)
    whole = path.read_text()
    # a (6, 3) table under the (9, 3) file name
    save_table(cluster_counts(coll, 6, 3), tmp_path).replace(path)
    assert load_table(coll, 9, 3, tmp_path) is None
    table = cached_cluster_counts(coll, 9, 3, tmp_path)
    assert (table.n_max, table.q_max, table.totals) == (9, 3, direct.totals)
    assert path.read_text() == whole


@pytest.mark.parametrize("schema", [None, 1, cache_module.SCHEMA + 1])
def test_file_of_another_schema_is_a_miss_and_is_rewritten(tmp_path, schema):
    coll = PatternCollection(((1, 2, 3), (1, 3, 2)))
    path = save_table(cluster_counts(coll, 8, 4), tmp_path)
    whole = path.read_text()
    doc = json.loads(whole)
    if schema is None:
        del doc["schema"]
    else:
        doc["schema"] = schema
    path.write_text(json.dumps(doc))
    assert load_table(coll, 8, 4, tmp_path) is None
    assert cached_cluster_counts(coll, 8, 4, tmp_path).totals == (
        cluster_counts(coll, 8, 4).totals
    )
    assert path.read_text() == whole


# each fault was served as a hit by a loader that checked only the schema,
# key and bounds of the file: with n as text, total(6, 2) read 0, and with the
# cell deleted it read 0 too, which the cell count in the file now tells apart
@pytest.mark.parametrize("fault", [
    lambda cells: [[str(n), q, c] for n, q, c in cells],
    lambda cells: [[n, True if q == 1 else q, c] for n, q, c in cells],
    lambda cells: cells + [[99, 1, "5"]],
    lambda cells: cells + [[4, 5, "5"]],
    lambda cells: cells[:-1] + [[*cells[-1][:2], "-7"]],
    lambda cells: cells[:-1] + [[*cells[-1][:2], "0"]],
    lambda cells: cells[:-1] + [[*cells[-1][:2], int(cells[-1][2])]],
    lambda cells: cells + [[6, 2, "9"]],
    lambda cells: [c for c in cells if c != [6, 2, "2"]],
], ids=["n-text", "q-bool", "n-past-n_max", "q-past-q_max", "negative", "zero", "int-count",
        "repeated", "deleted"])
def test_file_with_a_malformed_cell_is_a_miss_and_is_rewritten(tmp_path, fault):
    coll = PatternCollection(((1, 3, 2, 4),))
    path = save_table(cluster_counts(coll, 8, 4), tmp_path)
    whole = path.read_text()
    doc = json.loads(whole)
    assert [6, 2, "2"] in doc["totals"]
    doc["totals"] = fault(doc["totals"])
    path.write_text(json.dumps(doc))
    assert load_table(coll, 8, 4, tmp_path) is None
    assert cached_cluster_counts(coll, 8, 4, tmp_path).totals == (
        cluster_counts(coll, 8, 4).totals
    )
    assert path.read_text() == whole


def test_file_with_a_cell_past_the_cluster_bound_is_a_miss(tmp_path):
    # 2^300 added to cl_{40,1} = 0 leaves every cell a decimal string, and
    # the packed pass of avoidance_gf accepted the table; no cl_{n,q}
    # exceeds n! 2^(n - 1), about 2^197 at n = 40
    coll = PatternCollection(((1, 2, 3, 4, 5),))
    table = cluster_counts(coll, 40, 40)
    assert table.total(40, 1) == 0
    path = save_table(table, tmp_path)
    assert load_table(coll, 40, 40, tmp_path).totals == table.totals
    doc = json.loads(path.read_text())
    doc["totals"].append([40, 1, str(2**300)])
    doc["cells"] += 1
    path.write_text(json.dumps(doc))
    assert load_table(coll, 40, 40, tmp_path) is None
    # a cell at the bound itself is read back
    doc["totals"] = [[1, 0, "1"], [3, 1, str(6 << 2)]]
    doc["cells"] = 2
    path.write_text(json.dumps(doc))
    assert load_table(coll, 40, 40, tmp_path).totals == {(1, 0): 1, (3, 1): 24}


def test_file_with_its_cells_reversed_is_a_hit(tmp_path, monkeypatch, capsys):
    # each cell is placed in the rows by its (n, q), so a valid file is read
    # whatever the order of its cells, and is left as it is
    monkeypatch.setenv("CLUSTERPERM_CACHE_DIR", str(tmp_path / "cache"))
    patterns = tmp_path / "p.txt"
    patterns.write_text("13254\n2413\n")
    argv = ["clusters", str(patterns), "--n", "9", "--q", "4"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert main([*argv, "--cache"]) == 0
    assert capsys.readouterr().out == out
    (path,) = (tmp_path / "cache").iterdir()
    doc = json.loads(path.read_text())
    doc["totals"].reverse()
    path.write_text(json.dumps(doc))
    coll = PatternCollection(((1, 3, 2, 5, 4), (2, 4, 1, 3)))
    assert load_table(coll, 9, 4, tmp_path / "cache") == cluster_counts(coll, 9, 4)
    assert main([*argv, "--cache"]) == 0
    assert capsys.readouterr().out == out
    assert json.loads(path.read_text()) == doc


def test_atomic_write(tmp_path):
    target = tmp_path / "sub" / "out.json"
    atomic_write_text(target, "hello\n")
    assert target.read_text() == "hello\n"
    atomic_write_text(target, "world\n")
    assert target.read_text() == "world\n"
    leftovers = [p for p in target.parent.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


def _failing_replace(src, dst):
    raise OSError(f"cannot rename {src} to {dst}")


def test_atomic_write_failure_leaves_no_temporary_file(tmp_path, monkeypatch):
    target = tmp_path / "sub" / "out.json"
    atomic_write_text(target, "hello\n")
    monkeypatch.setattr(cache_module.os, "replace", _failing_replace)
    with pytest.raises(OSError, match="cannot rename"):
        atomic_write_text(target, "world\n")
    assert target.read_text() == "hello\n"
    assert [p.name for p in target.parent.iterdir()] == ["out.json"]


def test_cached_clusters_report_a_failed_write(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CLUSTERPERM_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(cache_module.os, "replace", _failing_replace)
    patterns = tmp_path / "p.txt"
    patterns.write_text("1324\n")
    assert main(["clusters", str(patterns), "--n", "8", "--q", "3", "--cache"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: cannot rename")
    assert list((tmp_path / "cache").glob("*.tmp")) == []
