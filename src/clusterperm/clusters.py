"""Cluster counting: exhaustive oracle and the overlap-graph recurrence.

A q-cluster for a collection Pi is a permutation sigma completely covered by
q marked occurrences of patterns from Pi at offsets d_1 = 1 < d_2 < ... < d_q
with adjacent occurrences overlapping (d_{j+1} < d_j + l_j) and
len(sigma) = d_q + l_q - 1.

Counts are produced two independent ways:

* an exhaustive oracle that enumerates (pattern sequence, offsets) shapes and
  counts the permutations realizing each shape (linear extensions of the
  induced value order);
* a recurrence over the edges of the overlap graph, refined by the actual
  initial subword of the cluster.

The refined count cl[v, n, q, p_bar] is the number of q-clusters sigma of
length n whose first len(v) entries are literally the word p_bar (with
standardization v).  Summing over admissible words at the distinguished
vertex (1) gives cl_{n,q}, which a ``ClusterTable`` stores as the rows of
Pi_cl, the way ``BiSeries`` stores a series.  The recurrence is evaluated on
t-polynomials: one entry per (v, n, p_bar) holds cl[v, n, q, p_bar] for
every q <= q_max, and an edge shifts its target's polynomial by one mark.
It is filled forward in n from the base state ((1), 1, (1)): each nonzero
state is pushed along the edges into its vertex, so only nonzero states are
ever built, and none beyond 1 + q_max (l_max - 1), the most entries q_max
marks can cover.

For a monotone collection the initial subword of a cluster is the vertex
permutation itself, and the recurrence collapses to one binomial per edge
(see ``monotone``).  ``cluster_counts`` uses that collapsed recurrence
whenever ``is_monotone`` holds and the refined one otherwise.
"""

from __future__ import annotations

import functools
from itertools import accumulate, combinations, product
from math import comb
from operator import itemgetter
from typing import NamedTuple

from . import kernels
from .kernels import pack_row, slot_width, unpack_rows
from .graph import (
    Edge,
    OverlapGraph,
    PatternCollection,
    _Record,
    build_graph,
    is_monotone,
)
from .perms import DomainError, Perm, check_permutation, standardize


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------


class Cluster(_Record):
    __slots__ = ("sigma", "patterns", "offsets")

    def __init__(self, sigma: Perm, patterns: tuple[Perm, ...], offsets: tuple[int, ...]):
        self._set(sigma, patterns, offsets)
        check_permutation(self.sigma)
        n = len(self.sigma)
        q = len(self.patterns)
        if q == 0 or len(self.offsets) != q:
            raise DomainError("cluster needs q >= 1 patterns with matching offsets")
        if self.offsets[0] != 1:
            raise DomainError("first offset must be 1")
        for j, (pat, d) in enumerate(zip(self.patterns, self.offsets)):
            window = self.sigma[d - 1 : d + len(pat) - 1]
            if len(window) != len(pat) or standardize(window) != pat:
                raise DomainError(f"window {j + 1} is not an occurrence of {pat}")
            if j + 1 < q:
                nxt = self.offsets[j + 1]
                if not d < nxt < d + len(pat):
                    raise DomainError("adjacent occurrences must overlap")
        if self.offsets[-1] + len(self.patterns[-1]) - 1 != n:
            raise DomainError("cluster must be completely covered")


def _consistent_shapes(collection: PatternCollection, n: int, q: int):
    """(patterns, offsets, predecessor masks) of each consistent cluster
    shape: q windows ending at n, each overlapping the one before, whose
    value orders do not contradict.

    The windows are placed left to right.  ``less[i]``, the bitmask of the
    positions forced below position i, stays transitively closed: a window
    adds its order as a chain of edges a < b, and each edge puts a and all
    below it under b and all above b.  An edge with b already below a
    closes a cycle, and the prefix is dropped with every shape extending it.
    As the collection is reduced, each window of a consistent shape adds 1
    to l_max - 1 positions, so a prefix that cannot end at n is dropped too.
    """
    if n < 1 or q < 1:
        raise DomainError("need n >= 1 and q >= 1")
    pats = [(p, sorted(range(len(p)), key=p.__getitem__)) for p in collection]
    step = max(map(len, collection)) - 1
    out = []

    def place(less, off, order):
        less = less.copy()
        for a, b in zip(order, order[1:]):
            a, b = a + off, b + off
            if less[a] >> b & 1:
                return None
            below = less[a] | 1 << a
            if below & ~less[b]:
                for y in range(n):
                    if y == b or less[y] >> b & 1:
                        less[y] |= below
        return less

    def extend(seq, offs, less):
        if len(seq) == q:
            out.append((tuple(seq), tuple(offs), less))
            return
        left = q - len(seq) - 1  # windows after the next one
        starts = range(offs[-1] + 1, offs[-1] + len(seq[-1])) if seq else (1,)
        for p, order in pats:
            for d in starts:
                if left <= n - (d + len(p) - 1) <= left * step:
                    closed = place(less, d - 1, order)
                    if closed is not None:
                        extend(seq + [p], offs + [d], closed)

    extend([], [], [0] * n)
    yield from out


def _extensions_to_perms(n: int, less: list[int]) -> list[Perm]:
    """Enumerate all value assignments consistent with the order constraints."""
    result: list[Perm] = []
    values = [0] * n

    def assign(rank: int, remaining: int):
        if not remaining:
            result.append(tuple(values))
            return
        for pos in range(n):
            # pos may take the next rank only once every smaller-valued
            # position already holds a value
            if remaining >> pos & 1 and not less[pos] & remaining:
                values[pos] = rank
                assign(rank + 1, remaining & ~(1 << pos))

    assign(1, (1 << n) - 1)
    return result


def enumerate_clusters_oracle(
    collection: PatternCollection, n: int, q: int
) -> list[Cluster]:
    """Every q-cluster of length n, by exhaustive search.  Oracle use only."""
    found = [
        Cluster(sigma, seq, offs)
        for seq, offs, preds in _consistent_shapes(collection, n, q)
        for sigma in _extensions_to_perms(n, preds)
    ]
    found.sort(key=lambda c: (c.sigma, c.patterns, c.offsets))
    return found


def count_clusters_oracle(collection: PatternCollection, n: int, q: int) -> int:
    """|enumerate_clusters_oracle| computed by linear-extension counting."""
    total = 0
    for _, _, preds in _consistent_shapes(collection, n, q):
        total += kernels.count_linear_extensions(n, preds)
    return total


# ---------------------------------------------------------------------------
# Refined recurrence over the overlap graph
# ---------------------------------------------------------------------------


def _edge_profile(e: Edge) -> tuple:
    """One step of the refined recurrence along e, as the tuple ``_Engine``
    fills from: (drop, source, fixed, runs, outer, inner, get, b).

    The boundary of an edge is the whole pattern when l <= k + k', and its
    first k and last k' entries otherwise.  Write b_1 < ... < b_s for its
    values in the cluster, with b_0 = 0 and b_{s+1} = n + 1.  spacing_r
    pattern entries off the boundary lie between ranks r and r + 1, so a
    step has weight prod_r C(b_{r+1} - b_r - 1, spacing_r).

    ``drop`` is l - k': the sub-cluster is this much shorter.  ``fixed[j]``
    is (rank, shift) of the target's j-th entry: b at that rank, less the
    shift that standardizes it within the sub-cluster.  The source entries
    not shared with the target are free.  ``runs`` lists (lo, hi,
    spacing[lo:hi]) for each pair of consecutive fixed ranks, 0 and s + 1
    included, with free ranks or spacing between them, and sorted so that
    the runs with free ranks come last: the picks of the last run are the
    innermost loop.  ``outer`` and ``inner`` are the slices of b the runs
    fill, ``get`` reads the source word off b, and ``b`` is the buffer.

    A shift counts the entries outside the sub-cluster below its entry, so
    the fixed values leave room for every free entry and spacing: each run
    has a placement, and every weight is positive.
    """
    pat, l, k, kp = e.pattern, len(e.pattern), len(e.source), len(e.target)
    values = pat if l <= k + kp else pat[:k] + pat[l - kp :]
    size = len(values)
    entry = (0, *sorted(values), l + 1)  # pattern entry of each rank
    rank = [entry.index(x) for x in values]  # values of a permutation: distinct
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


def _first_row(collection: PatternCollection) -> tuple[int, ...]:
    """cl_{(1),1,q} by q: the fictitious 0-cluster, and (1) if it is the one
    pattern (it has no overlaps, so no edge yields it)."""
    return (1, 1) if collection.patterns == ((1,),) else (1,)


Terms = tuple[tuple[int, int], ...]  # the nonzero (q, count) of a t-polynomial


class _Engine:
    """The refined recurrence on one overlap graph, filled forward once
    through n_max and truncated at q_max marks.

    ``memo[v, n, word]`` is the t-polynomial of cl[v, n, q, word], as the
    tuple of its nonzero (q, count) terms; only nonzero states are stored.
    The fill starts from the base state ((1), 1, (1)).  Every edge shortens
    the cluster, so the states at n are complete once every shorter state
    has been pushed.  Pushing a state along an edge into its vertex adds its
    terms, shifted up by one mark and weighted, to each source state the
    step can come from.  A state whose lowest q is q_max pushes nothing, so
    no state beyond 1 + q_max (l_max - 1) is built.

    An edge into v is the tuple of ``_edge_profile``.  A layer keys its
    states by vertex, then by what the edge's getter reads off b: the word,
    or its one entry for the source (1).
    """

    def __init__(self, graph: OverlapGraph, n_max: int, q_max: int):
        into: dict[Perm, list] = {v: [] for v in graph.vertices}
        for e in graph.edges:
            into[e.target].append(_edge_profile(e))
        self.memo: dict[tuple[Perm, int, Perm], Terms] = {}
        layers = [{v: {} for v in graph.vertices} for _ in range(n_max + 1)]
        layers[1][(1,)][1] = _first_row(graph.collection)[: q_max + 1]
        for n, layer in enumerate(layers):
            for v, states in layer.items():
                for y, acc in states.items():
                    y = y if len(v) > 1 else (y,)
                    terms = tuple((q, c) for q, c in enumerate(acc) if c)
                    self.memo[v, n, y] = terms
                    pushed = [(q + 1, c) for q, c in terms if q < q_max]
                    for drop, src, fixed, runs, outer, inner, get, b in (
                            into[v] if pushed else ()):
                        m = n + drop
                        if m > n_max:
                            continue
                        out = layers[m][src]
                        b[-1] = m + 1
                        for (r, shift), x in zip(fixed, y):
                            b[r] = x + shift
                        choices = [_run_options(spacing, b[lo], b[hi])
                                   for lo, hi, spacing in runs]
                        for chosen in product(*choices[:-1]):
                            ways = 1
                            for run, (picked, w) in zip(outer, chosen):
                                b[run] = picked
                                ways *= w
                            for picked, w in choices[-1]:
                                b[inner] = picked
                                word = get(b)
                                row = out.get(word)
                                if row is None:
                                    row = out[word] = [0] * (q_max + 1)
                                w *= ways
                                for q, c in pushed:
                                    row[q] += w * c
            layers[n] = None


# Runs whose placements are kept, shared by every fill; a fixed bound, so a
# long-running process cannot grow the table without limit.
@functools.lru_cache(maxsize=4096)
def _run_options(spacing: tuple[int, ...], low: int, high: int) -> tuple:
    """(values, weight) of each way to place len(spacing) - 1 free values
    strictly between the boundary values low and high, with spacing[i]
    pattern entries off the boundary below the i-th and spacing[-1] above
    the last."""
    lifts = tuple(accumulate(spacing))[: len(spacing) - 1]
    options = []
    for gaps in combinations(range(low + 1, high - sum(spacing)), len(lifts)):
        picked = tuple(x + s for x, s in zip(gaps, lifts))
        ways, prev = 1, low
        for x, m in zip(picked + (high,), spacing):
            ways *= comb(x - prev - 1, m)
            prev = x
        options.append((picked, ways))
    return tuple(options)


def _refined_cluster_counts(
    collection: PatternCollection, n_max: int, q_max: int
) -> ClusterTable:
    """cl_{n,q} by the refined recurrence: the terms of every (1) state, the
    base state's (1, 0) among them, summed over first letters."""
    engine = _Engine(build_graph(collection), n_max, q_max)
    rows = [[] for _ in range(n_max + 1)]
    for (v, n, _), terms in engine.memo.items():
        for q, c in terms if v == (1,) else ():
            rows[n] += [0] * (q + 1 - len(rows[n]))
            rows[n][q] += c
    return ClusterTable(collection, n_max, q_max, rows, engine)


# ---------------------------------------------------------------------------
# Collapsed recurrence for monotone collections
# ---------------------------------------------------------------------------


class EdgeData(NamedTuple):
    l: int  # pattern length
    k: int  # target vertex length
    m: int  # maximal entry of the final subword
    target: Perm


def monotone_recurrence_data(graph: OverlapGraph) -> dict[Perm, list[EdgeData]]:
    """Per-vertex (l_j, k_j, m_j, target) tuples for the simplified
    recurrence.  They count clusters only when the collection is monotone."""
    data: dict[Perm, list[EdgeData]] = {v: [] for v in graph.vertices}
    for e in graph.edges:
        l, k, kp = len(e.pattern), len(e.source), len(e.target)
        m = max(e.label.mu_f) if l > k + kp else l
        data[e.source].append(EdgeData(l, kp, m, e.target))
    for v in data:
        data[v].sort()
    return data


class PackedRows(NamedTuple):
    """t-polynomial rows packed at t = 2^width (``kernels.pack_row``), by
    vertex: ``rows[v][n]`` is the row d_q of v at n, and ``bounds[v][n]``
    bounds every |d_q| of it, below 2^(width - 1).
    """

    width: int
    rows: dict[Perm, list[int]]
    bounds: dict[Perm, list[int]]

    def lists(self, v: Perm) -> list[list[int]]:
        """The rows of v, unpacked."""
        return unpack_rows(self.rows[v], self.width)

    def widened(self, width: int) -> "PackedRows":
        """The same rows at ``width``, if that is wider."""
        if width <= self.width:
            return self
        rows = {v: [pack_row(row, width) for row in unpack_rows(xs, self.width)]
                for v, xs in self.rows.items()}
        return PackedRows(width, rows, self.bounds)


def _vertex_tables(graph: OverlapGraph, n_max: int, q_max: int) -> PackedRows:
    """cl_{v,n,q} for every vertex v of a monotone collection's graph, packed:
    row n of v is sum_q cl_{v,n,q} 2^(q s), for q <= q_max.

    The recurrence runs twice, bottom-up in n.  Every count is >= 0, so the
    first run, on scalars, bounds each row by sum_edges binom * (bound of its
    source row), without the q cap.  The slot width s is then chosen with
    twice the largest bound below 2^(s - 1): no slot can carry into the next,
    and a check comparing a row with another sum of rows (``monotone``) fits
    at that width too.  The second run adds binom * (row & cap) along each
    edge, where ``cap`` keeps the slots q < q_max, and shifts the sum up one
    slot: one big-integer multiply-add per edge instead of one per count.
    """
    data = monotone_recurrence_data(graph)
    bounds = {v: [0] * (n_max + 1) for v in data}
    rows = {v: [0] * (n_max + 1) for v in data}
    first = _first_row(graph.collection)[: q_max + 1]
    if n_max >= 1:
        bounds[(1,)][1] = sum(first)
    into = [(rows[v], bounds[v], [(l, k, m, rows[t], bounds[t]) for l, k, m, t in edges])
            for v, edges in data.items()]
    steps = []
    for n in range(2, n_max + 1):
        for row, bound, edges in into:
            # binom(n - m, l - m) vanishes for n < l, and m <= l
            terms = [(comb(n - m, l - m), r, b, n - l + k)
                     for l, k, m, r, b in edges if n >= l]
            if terms:  # else the row and its bound stay 0
                bound[n] = sum([c * b[j] for c, _, b, j in terms])
                steps.append((row, n, terms))
    width = slot_width(2 * max(map(max, bounds.values()), default=0))
    if n_max >= 1:
        rows[(1,)][1] = pack_row(first, width)
    cap = (1 << (q_max * width)) - 1
    for row, n, terms in steps:
        acc = 0
        for c, r, _, j in terms:
            x = r[j] if j < q_max else r[j] & cap  # row j holds no q above j
            if c != 1:
                x *= c
            acc = acc + x if acc else x
        row[n] = acc << width
    return PackedRows(width, rows, bounds)


def _monotone_cluster_counts(
    collection: PatternCollection, n_max: int, q_max: int
) -> ClusterTable:
    """cl_{n,q} by the collapsed recurrence; the collection must be monotone."""
    rows = _vertex_tables(build_graph(collection), n_max, q_max).lists((1,))
    return ClusterTable(collection, n_max, q_max, rows)


# ---------------------------------------------------------------------------
# Cluster tables
# ---------------------------------------------------------------------------


class ClusterTable(_Record):
    """cl_{n,q} for n <= n_max and q <= q_max as the rows of Pi_cl, laid out
    as in ``BiSeries``: ``rows[n][q]`` is cl_{n,q} for n = 0..n_max, and each
    row ends in a nonzero entry.  ``totals`` views the nonzero cells by (n, q).

    ``_engine`` is the filled refined engine when the rows came from it,
    and None when they came from the collapsed recurrence or the cache.
    """

    __slots__ = ("collection", "n_max", "q_max", "rows", "_engine")

    def __init__(self, collection: PatternCollection, n_max: int, q_max: int,
                 rows: list[list[int]], _engine: _Engine | None = None):
        self._set(collection, n_max, q_max, rows, _engine)

    @property
    def totals(self) -> dict[tuple[int, int], int]:
        """{(n, q): cl_{n,q}} for the nonzero cells, in (n, q) order."""
        return {(n, q): c for n, row in enumerate(self.rows) for q, c in enumerate(row) if c}

    def total(self, n: int, q: int) -> int:
        row = self.rows[n] if 0 <= n <= self.n_max else ()
        return row[q] if 0 <= q < len(row) else 0


def cluster_counts(
    collection: PatternCollection, n_max: int, q_max: int
) -> ClusterTable:
    """Fill cl_{n,q} for n <= n_max, q <= q_max: by the collapsed recurrence
    when the collection is monotone, by the refined one otherwise."""
    if n_max < 1 or q_max < 1:
        raise DomainError("need n_max >= 1 and q_max >= 1")
    if is_monotone(collection):
        return _monotone_cluster_counts(collection, n_max, q_max)
    return _refined_cluster_counts(collection, n_max, q_max)


def cluster_counts_single_pattern(
    pattern, n_max: int, q_max: int
) -> ClusterTable:
    """cl_{n,q} for the singleton collection of a bare pattern."""
    return cluster_counts(
        PatternCollection((check_permutation(pattern),)), n_max, q_max
    )


# ---------------------------------------------------------------------------
# TSV export
# ---------------------------------------------------------------------------


def totals_to_tsv(totals: dict[tuple[int, int], int]) -> str:
    """One n, q, count line per cell, in the order given: (n, q) order for
    ``ClusterTable.totals`` and ``series.alpha_counts``."""
    lines = [f"{n}\t{q}\t{c}" for (n, q), c in totals.items()]
    return "\n".join(lines) + "\n"
