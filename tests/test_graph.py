"""Pattern collections, overlaps, linkages, and the overlap graph."""

import random

import pytest
from hypothesis import given, strategies as st

import clusterperm.clusters as clusters_module
import clusterperm.graph as graph_module
from clusterperm import kernels
from clusterperm.clusters import (
    _consistent_shapes,
    count_clusters_oracle,
    enumerate_clusters_oracle,
)
from clusterperm.equivalence import classify_s5
from clusterperm.graph import (
    Edge,
    EdgeLabel,
    NotReducedError,
    PatternCollection,
    build_graph,
    graph_to_dot,
    is_monotone,
)
from conftest import reference_collections
from clusterperm.perms import (
    DomainError,
    InvalidPermutationError,
    all_permutations,
    check_permutation,
    occurrences,
    standardize,
)

small_perm = st.integers(2, 5).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
)


def test_overlap_lengths_excludes_full_overlap():
    assert graph_module._overlaps((1, 2, 3), (1, 2, 3)) == [1, 2]
    assert graph_module._overlaps((1, 2), (1, 2, 3)) == [1]
    assert graph_module._overlaps((1, 3, 2, 5, 4), (1, 3, 2, 5, 4)) == [1, 3]


@given(small_perm, small_perm)
def test_enumerate_linkages_are_genuine(pi, pip):
    # the cluster oracle's path: the permutations of length n whose first l
    # and last l' entries standardize to pi and pip, for each overlap k
    l, lp = len(pi), len(pip)
    ref = _reference_overlaps(pi, pip)
    for n in range(max(l, lp), l + lp):
        preds = _window_order_preds(n, [(0, pi), (n - lp, pip)])
        words = [] if preds is None else clusters_module._extensions_to_perms(n, preds)
        assert bool(words) == (l + lp - n in ref), (pi, pip, n)
        assert len(set(words)) == len(words)
        for w in words:
            assert sorted(w) == list(range(1, n + 1))
            assert standardize(w[:l]) == pi and standardize(w[n - lp :]) == pip
        if n <= 6:
            assert set(words) == {
                s for s in all_permutations(n)
                if standardize(s[:l]) == pi and standardize(s[n - lp :]) == pip
            }


def test_pattern_collection_requires_reduced():
    with pytest.raises(NotReducedError) as err:
        PatternCollection(((1, 4, 5, 6, 2, 3), (1, 3, 4, 5, 2)))
    assert err.value.divisor == (1, 3, 4, 5, 2)
    assert err.value.multiple == (1, 4, 5, 6, 2, 3)
    with pytest.raises(DomainError):
        PatternCollection(((1, 2, 3), (1, 2, 3)))


def test_reduction_check_skips_pairs_of_one_length(monkeypatch):
    # distinct patterns of one length never divide each other, so only a
    # shorter pattern is tried against a longer one
    calls = []
    real = graph_module.divides

    def counting(p, p2):
        calls.append((p, p2))
        return real(p, p2)

    monkeypatch.setattr(graph_module, "divides", counting)
    PatternCollection(tuple(
        tuple(map(int, p))
        for p in "123456 153264 253614 315426 362541 435261 541632 632154".split()
    ))
    assert calls == []
    PatternCollection(((1, 3, 2), (2, 1, 3), (1, 2, 3, 4)))
    assert calls == [((1, 3, 2), (1, 2, 3, 4)), ((2, 1, 3), (1, 2, 3, 4))]
    calls.clear()
    with pytest.raises(NotReducedError):
        PatternCollection(((1, 4, 5, 6, 2, 3), (1, 3, 4, 5, 2)))
    assert calls == [((1, 3, 4, 5, 2), (1, 4, 5, 6, 2, 3))]


def test_collection_symmetries():
    c = PatternCollection(((1, 2, 3), (2, 1, 3)))
    assert set(c.reversed().patterns) == {(3, 2, 1), (3, 1, 2)}
    assert set(c.complemented().patterns) == {(3, 2, 1), (2, 3, 1)}


def test_build_graph_vertices():
    g = build_graph(PatternCollection(((1, 2, 3),)))
    assert set(g.vertices) == {(1,), (1, 2)}
    # canonical_form and emit_single_pattern_ode read (1) at index 0
    assert g.vertices[0] == (1,)


def test_build_graph_two_vertex_example():
    g = build_graph(PatternCollection(((1, 5, 7, 6, 2, 4, 3), (1, 3, 2, 5, 4))))
    assert set(g.vertices) == {(1,), (1, 3, 2)}
    labels = sorted(
        (e.source, e.target, e.label.mu_i, e.label.mu_f, e.label.length)
        for e in g.edges
    )
    assert labels == [
        ((1,), (1,), (1,), (3,), 7),
        ((1,), (1,), (1,), (4,), 5),
        ((1,), (1, 3, 2), (1,), (2, 3, 4), 7),
        ((1,), (1, 3, 2), (1,), (2, 4, 5), 5),
        ((1, 3, 2), (1,), (1, 2, 3), (4,), 5),
        ((1, 3, 2), (1, 3, 2), (1, 2, 3), (2, 4, 5), 5),
    ]


def test_edge_label_rendering():
    lab = EdgeLabel((1,), (2, 3, 4), 7)
    assert str(lab) == "({1},{2,3,4};7)"


def test_graph_to_dot():
    dot = graph_to_dot(build_graph(PatternCollection(((1, 2, 3),))))
    assert dot.startswith("digraph")
    assert "1 2" in dot or "(1, 2)" in dot or "12" in dot


def test_deterministic_edge_order():
    coll = PatternCollection(((1, 2, 3), (2, 1, 3)))
    g1, g2 = build_graph(coll), build_graph(coll)
    assert g1.edges == g2.edges
    assert g1.vertices == g2.vertices


def _reference_overlaps(pi, pip):
    """Per-k standardization of both borders, as the definition reads."""
    l, lp = len(pi), len(pip)
    return [
        k for k in range(1, min(l, lp) + 1)
        if standardize(pi[l - k :]) == standardize(pip[:k])
    ]


def _check_overlap_queries(pi, pip):
    ref = _reference_overlaps(pi, pip)
    top = min(len(pi), len(pip))
    assert graph_module._overlaps(pi, pip) == [k for k in ref if k < top]


def test_overlap_queries_match_per_k_standardization():
    small = [p for l in range(1, 5) for p in all_permutations(l)]
    for pi in small:
        for pip in small:
            _check_overlap_queries(pi, pip)
    rng = random.Random(9)
    for _ in range(300):
        pi, pip = (
            tuple(rng.sample(range(1, l + 1), l))
            for l in (rng.randint(5, 7), rng.randint(5, 7))
        )
        _check_overlap_queries(pi, pip)


@pytest.mark.parametrize(
    "pi, pip", [((1,), (5,)), ((1,), (2, 1, 1)), ((5,), (1,)), ((2, 1, 1), (1,))]
)
def test_overlap_queries_reject_invalid_input(pi, pip):
    # one side of length 1 leaves no proper overlap to test, so both sides
    # must be validated before any comparison
    with pytest.raises(InvalidPermutationError):
        is_monotone([pi, pip])


def test_float_entries_are_rejected_with_the_table_cold_or_warm():
    # (1.0, 3.0, 2.0) hashes and compares equal to (1, 3, 2): a query that
    # read the table before validating would be served that pattern's entry
    floats, ints = (1.0, 3.0, 2.0), (1, 3, 2)
    with pytest.raises(InvalidPermutationError):
        check_permutation(floats)
    graph_module._borders.cache_clear()
    for _ in ("cold", "warm"):
        for patterns in ([floats], [floats, ints], [ints, floats]):
            with pytest.raises(InvalidPermutationError):
                is_monotone(patterns)
        assert is_monotone([ints])
        assert graph_module._borders.cache_info().currsize > 0


def _reference_build_graph(coll):
    """The builder before the border table: its own per-pattern
    standardization of every proper prefix and suffix."""
    heads = {p: [standardize(p[:k]) for k in range(1, len(p))] for p in coll}
    tails = {p: [standardize(p[len(p) - k :]) for k in range(1, len(p))] for p in coll}
    verts = {(1,)}
    for pb in coll:
        for pa in coll:
            verts.update(h for h, t in zip(heads[pa], tails[pb]) if h == t)
    edges = []
    for pat in coll:
        l = len(pat)
        prefix_ok = {k: h for k, h in enumerate(heads[pat], 1) if h in verts}
        suffix_ok = {kp: t for kp, t in enumerate(tails[pat], 1) if t in verts}
        for k, src in prefix_ok.items():
            for kp, tgt in suffix_ok.items():
                label = EdgeLabel(
                    tuple(sorted(pat[:k])), tuple(sorted(pat[l - kp :])), l
                )
                edges.append(Edge(src, tgt, label, pat))
    edges.sort(key=lambda e: (e.source, e.target, e.label, e.pattern))
    return tuple(sorted(verts, key=lambda v: (len(v), v))), tuple(edges)


def test_build_graph_matches_reference_builder():
    rng = random.Random(11)
    done = 0
    while done < 200:
        pats = [
            tuple(rng.sample(range(1, l + 1), l))
            for l in (rng.randint(2, 7) for _ in range(rng.randint(1, 4)))
        ]
        try:
            coll = PatternCollection(tuple(map(tuple, pats)))
        except DomainError:  # duplicate or not reduced
            continue
        g = build_graph(coll)
        assert (g.vertices, g.edges) == _reference_build_graph(coll)
        done += 1


def test_classify_s5_standardizes_each_border_once(monkeypatch):
    calls = []
    real = graph_module.standardize

    def counting(word):
        calls.append(word)
        return real(word)

    monkeypatch.setattr(graph_module, "standardize", counting)
    graph_module._borders.cache_clear()
    classify_s5(n_max=9)
    # at most the 4 proper prefixes and 4 proper suffixes of each of the
    # 120 patterns of S_5; per-query standardization makes about 9,500
    assert 0 < len(calls) <= 120 * 8


def test_oracles_do_not_read_the_border_table(monkeypatch):
    coll = PatternCollection(((1, 3, 2, 4), (1, 2, 3)))

    def forbidden(p):
        raise AssertionError("an oracle read the border table")

    monkeypatch.setattr(graph_module, "_borders", forbidden)
    assert count_clusters_oracle(coll, 6, 2) == len(enumerate_clusters_oracle(coll, 6, 2))
    assert sum(kernels.count_distribution(6, list(coll)).values()) == 720


def _cluster_shapes(collection, n, q):
    """All (pattern sequence, offsets) with total length n and every window
    contained in 1..n, consistent or not: the shape walk's reference."""
    pats = list(collection)
    out = []

    def extend(seq, offs):
        j = len(seq)
        d, last = offs[-1], seq[-1]
        if j == q:
            if d + len(last) - 1 == n:
                out.append((tuple(seq), tuple(offs)))
            return
        for p in pats:
            for nxt in range(d + 1, d + len(last)):
                if nxt + len(p) - 1 <= n:
                    extend(seq + [p], offs + [nxt])

    for p in pats:
        if len(p) <= n:
            extend([p], [1])
    return out


def _window_order_preds(n, windows):
    """Predecessor masks of the positions, from the value order each
    (0-based offset, pattern) window dictates, closed by Warshall's
    algorithm; None on contradiction."""
    less = [0] * n  # bit j of less[i]: position j has the smaller value
    for off, pat in windows:
        below = 0
        for i in sorted(range(len(pat)), key=pat.__getitem__):
            less[off + i] |= below
            below |= 1 << (off + i)
    for k in range(n):
        for i in range(n):
            if less[i] >> k & 1:
                less[i] |= less[k]
    if any(less[i] >> i & 1 for i in range(n)):
        return None
    return less


def _set_closure_preds(n, windows):
    """Predecessor sets of each position, closed by repeated unions until
    nothing changes; None when a position precedes itself."""
    less = [set() for _ in range(n)]
    for off, pat in windows:
        by_rank = sorted(range(len(pat)), key=lambda i: pat[i])
        for a in range(len(pat)):
            for b in range(a + 1, len(pat)):
                less[off + by_rank[b]].add(off + by_rank[a])
    changed = True
    while changed:
        changed = False
        for i in range(n):
            extra = set()
            for j in less[i]:
                extra |= less[j] - less[i]
            if extra:
                less[i] |= extra
                changed = True
    if any(i in less[i] for i in range(n)):
        return None
    return [sum(1 << j for j in s) for s in less]


def _reference_shapes():
    """(collection, n, q, every shape) on the reference corpus, n <= 8 and
    q <= 4."""
    for coll in reference_collections():
        for n in range(1, 9):
            for q in range(1, 5):
                yield coll, n, q, _cluster_shapes(coll, n, q)


def test_shape_walk_yields_the_consistent_shapes_of_the_reference_walk():
    # the walk prunes a prefix once its closure is contradictory; the
    # reference enumerates every shape and closes each one by Warshall
    shapes = contradictions = 0
    for coll, n, q, every in _reference_shapes():
        expected = []
        for seq, offs in every:
            preds = _window_order_preds(n, [(d - 1, p) for p, d in zip(seq, offs)])
            if preds is not None:
                expected.append((seq, offs, preds))
            contradictions += preds is None
        shapes += len(every)
        assert list(_consistent_shapes(coll, n, q)) == expected, (coll, n, q)
    assert (shapes, contradictions) == (3821, 2742)


def test_mask_closure_matches_set_closure():
    # the walk's incremental closure against a closure by sets: each
    # consistent shape with its masks, and no shape the sets find consistent
    # is missing
    consistent = 0
    for coll, n, q, every in _reference_shapes():
        got = {(seq, offs): preds for seq, offs, preds in _consistent_shapes(coll, n, q)}
        for seq, offs in every:
            windows = [(d - 1, p) for p, d in zip(seq, offs)]
            assert got.get((seq, offs)) == _set_closure_preds(n, windows), (seq, offs)
        consistent += len(got)
    assert consistent == 3821 - 2742
