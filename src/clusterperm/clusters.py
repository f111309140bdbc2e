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
vertex (1) gives the total cl_{n,q}.  The recurrence is evaluated on
t-polynomials: one memoized entry per (v, n, p_bar) holds cl[v, n, q, p_bar]
for every q <= q_max, and an edge shifts its target's polynomial by one mark.
Since q marks cover at most 1 + q (l_max - 1) entries, every (v, n, p_bar)
with n beyond 1 + q_max (l_max - 1) is zero and is not expanded.

For a monotone collection the initial subword of a cluster is the vertex
permutation itself, and the recurrence collapses to one binomial per edge
(see ``monotone``).  ``cluster_counts`` uses that collapsed recurrence
whenever ``is_monotone`` holds and the refined one otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, combinations, product
from math import comb
from typing import NamedTuple

from . import kernels
from .graph import (
    Edge,
    OverlapGraph,
    PatternCollection,
    _extensions_to_perms,
    _window_order_preds,
    build_graph,
    is_monotone,
)
from .perms import DomainError, Perm, check_permutation, standardize


def binom(n: int, m: int) -> int:
    """Binomial coefficient with the vanishing convention for n < 0, m > n."""
    if m < 0 or n < 0 or m > n:
        return 0
    return comb(n, m)


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cluster:
    sigma: Perm
    patterns: tuple[Perm, ...]
    offsets: tuple[int, ...]

    def __post_init__(self):
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


def _cluster_shapes(collection: PatternCollection, n: int, q: int):
    """All (pattern sequence, offsets) with total length n and every window
    contained in 1..n."""
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


def enumerate_clusters_oracle(
    collection: PatternCollection, n: int, q: int
) -> list[Cluster]:
    """Every q-cluster of length n, by exhaustive search.  Oracle use only."""
    if n < 1 or q < 1:
        raise DomainError("need n >= 1 and q >= 1")
    found = []
    for seq, offs in _cluster_shapes(collection, n, q):
        windows = [(d - 1, p) for p, d in zip(seq, offs)]
        preds = _window_order_preds(n, windows)
        if preds is None:
            continue
        for sigma in _extensions_to_perms(n, preds):
            found.append(Cluster(sigma, seq, offs))
    found.sort(key=lambda c: (c.sigma, c.patterns, c.offsets))
    return found


def count_clusters_oracle(collection: PatternCollection, n: int, q: int) -> int:
    """|enumerate_clusters_oracle| computed by linear-extension counting."""
    if n < 1 or q < 1:
        raise DomainError("need n >= 1 and q >= 1")
    total = 0
    for seq, offs in _cluster_shapes(collection, n, q):
        windows = [(d - 1, p) for p, d in zip(seq, offs)]
        preds = _window_order_preds(n, windows)
        if preds is None:
            continue
        masks = [sum(1 << j for j in s) for s in preds]
        total += kernels.count_linear_extensions(n, masks)
    return total


# ---------------------------------------------------------------------------
# Refined recurrence over the overlap graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinkageProfile:
    """Per-edge data driving one step of the refined recurrence.

    The boundary of an edge is the whole pattern when l <= k + k', and its
    first k and last k' entries otherwise.  A step extends the source word
    (the boundary's first k entries) by the fresh boundary entries.  Their
    ranks among the source entries are fixed by the pattern, so each fresh
    entry lies in a known gap between consecutive source entries.

    ``gaps`` lists (g, fresh entries, spacing, lifts, room) for every gap g
    that holds fresh entries or must leave room: spacing[i] pattern entries
    off the boundary lie between the i-th and (i+1)-th boundary entries of
    the gap (its ends included), lifts[i] is the room needed below the i-th
    fresh entry, and room is the total.  ``sub`` gives, for each entry of
    the target's initial word, its index in the step's value list (the
    sorted source entries, then each gap's fresh entries) and the shift that
    standardizes it within the sub-cluster.
    """

    edge: Edge
    drop: int  # l - k': the sub-cluster is this much shorter
    gaps: tuple[tuple[int, int, tuple[int, ...], tuple[int, ...], int], ...]
    sub: tuple[tuple[int, int], ...]


def _edge_profile(e: Edge) -> LinkageProfile:
    pat, l, k, kp = e.pattern, len(e.pattern), e.k, e.k_prime
    where = range(l) if l <= k + kp else [*range(k), *range(l - kp, l)]
    values = [pat[i] for i in where]
    size = len(values)
    tilde = standardize(values)
    source_ranks = sorted(tilde[:k])
    ranks = (0, *source_ranks, size + 1)
    entry = (0, *sorted(values), l + 1)  # pattern entry of each rank
    spacing = [entry[r + 1] - entry[r] - 1 for r in range(size + 1)]
    gaps = []
    for g in range(k + 1):
        lo, hi = ranks[g], ranks[g + 1]
        fresh, gap_spacing = hi - lo - 1, tuple(spacing[lo:hi])
        if fresh or gap_spacing[0]:
            lifts = tuple(accumulate(gap_spacing))[:fresh]
            gaps.append((g, fresh, gap_spacing, lifts, sum(gap_spacing)))

    def index(r):  # position of boundary rank r in the step's value list
        if r in source_ranks:
            return source_ranks.index(r)
        return k + r - 1 - sum(x < r for x in source_ranks)

    sub = tuple(
        (index(tilde[size - kp + j]), pat[l - kp + j] - e.target[j])
        for j in range(kp)
    )
    return LinkageProfile(e, l - kp, tuple(gaps), sub)


def _first_row(collection: PatternCollection) -> tuple[int, ...]:
    """cl_{(1),1,q} by q: the fictitious 0-cluster, and (1) if it is the one
    pattern (it has no overlaps, so no edge yields it)."""
    return (1, 1) if collection.patterns == ((1,),) else (1,)


Terms = tuple[tuple[int, int], ...]  # the nonzero (q, count) of a t-polynomial


class _Engine:
    """Memoized evaluator of the refined recurrence on one overlap graph,
    truncated at q_max marks.

    ``_vec(v, n, word)`` is the t-polynomial of cl[v, n, q, word] truncated
    at q_max, as the tuple of its nonzero (q, count) terms; the memo holds
    one per (v, n, word).  An edge step adds its target's terms, shifted up
    by one mark.  Above ``n_cap`` = 1 + q_max (l_max - 1) every count is
    zero, so the recursion stops there: without that cap a small q_max would
    still expand every word up to n_max.

    ``refined`` and ``vertex_total`` check their input; the recursion
    builds only admissible words and skips the check.
    """

    def __init__(self, graph: OverlapGraph, q_max: int):
        self.graph = graph
        self.q_max = q_max
        self.n_cap = 1 + q_max * (max(map(len, graph.collection)) - 1)
        self.memo: dict[tuple[Perm, int, Perm], Terms] = {}
        self.by_source: dict[Perm, list[LinkageProfile]] = {
            v: [] for v in graph.vertices
        }
        for e in graph.edges:
            self.by_source[e.source].append(_edge_profile(e))
        row = _first_row(graph.collection)[: q_max + 1]
        self.first_row: Terms = tuple(enumerate(row))

    def refined(self, v: Perm, n: int, q: int, word: Perm) -> int:
        self._check_q(q)
        if (
            v not in self.by_source
            or len(word) != len(v)
            or any(not 1 <= x <= n for x in word)
            or len(set(word)) != len(word)
            or standardize(word) != v
        ):
            return 0
        return dict(self._vec(v, n, word)).get(q, 0)

    def vertex_total(self, v: Perm, n: int, q: int) -> int:
        self._check_q(q)
        if v not in self.by_source:
            return 0
        total = 0
        for values in combinations(range(1, n + 1), len(v)):
            word = tuple(values[x - 1] for x in v)
            total += dict(self._vec(v, n, word)).get(q, 0)
        return total

    def _check_q(self, q: int):
        if q > self.q_max:
            raise DomainError(
                f"refined counts capped at q_max={self.q_max}, asked for q={q}"
            )

    def _vec(self, v: Perm, n: int, word: Perm) -> Terms:
        if n == 1:  # v and word are (1)
            return self.first_row
        if n > self.n_cap:
            return ()
        key = (v, n, word)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        acc = [0] * (self.q_max + 1)
        for prof in self.by_source[v]:
            self._edge_step(prof, n, word, acc)
        vec = tuple((q, c) for q, c in enumerate(acc) if c)
        self.memo[key] = vec
        return vec

    def _edge_step(self, prof: LinkageProfile, n: int, word: Perm, acc: list):
        n_sub = n - prof.drop
        if n_sub < 1:
            return
        source = tuple(sorted(word))
        bounds = (0, *source, n + 1)
        weight = 1
        choices = []
        for g, fresh, spacing, lifts, room in prof.gaps:
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
                    if m:
                        ways *= comb(x - prev - 1, m)
                    prev = x
                options.append((picked, ways))
            if not options:
                return
            choices.append(options)
        target, sub, top = prof.edge.target, prof.sub, self.q_max
        for chosen in product(*choices):
            values, ways = source, weight
            for picked, w in chosen:
                values += picked
                ways *= w
            word_sub = tuple(values[i] - s for i, s in sub)
            for q, c in self._vec(target, n_sub, word_sub):
                if q < top:
                    acc[q + 1] += ways * c


def _refined_cluster_counts(
    collection: PatternCollection, n_max: int, q_max: int
) -> ClusterTable:
    """cl_{n,q} by the refined recurrence, summed over first letters."""
    graph = build_graph(collection)
    engine = _Engine(graph, q_max)
    totals = {(1, 0): 1}
    for n in range(1, n_max + 1):
        row = [0] * (q_max + 1)
        for p1 in range(1, n + 1):
            for q, c in engine._vec((1,), n, (p1,)):
                row[q] += c
        for q in range(1, q_max + 1):
            if row[q]:
                totals[(n, q)] = row[q]
    return ClusterTable(collection, n_max, q_max, totals, graph, engine)


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
        l = len(e.pattern)
        m = max(e.label.mu_f) if l > e.k + e.k_prime else l
        data[e.source].append(EdgeData(l, e.k_prime, m, e.target))
    for v in data:
        data[v].sort()
    return data


def _vertex_tables(
    graph: OverlapGraph, n_max: int, q_max: int
) -> dict[tuple[Perm, int, int], int]:
    """cl_{v,n,q} for every vertex v of a monotone collection's graph, filled
    bottom-up in n: rows[v][n] lists them by q, and an edge reads a smaller n."""
    data = monotone_recurrence_data(graph)
    rows = {v: [[] for _ in range(n_max + 1)] for v in graph.vertices}
    if n_max >= 1:
        rows[(1,)][1] = list(_first_row(graph.collection)[: q_max + 1])
    for n in range(2, n_max + 1):
        for v, edges in data.items():
            acc = [0] * (q_max + 1)
            for l, k, m, target in edges:
                coef = binom(n - m, l - m)
                if coef and n - l + k >= 1:
                    sub = rows[target][n - l + k]
                    for q, c in enumerate(sub[:q_max], 1):
                        acc[q] += coef * c
            while acc and not acc[-1]:
                acc.pop()
            rows[v][n] = acc
    return {
        (v, n, q): c for v, by_n in rows.items()
        for n, row in enumerate(by_n) for q, c in enumerate(row) if c
    }


def _monotone_cluster_counts(
    collection: PatternCollection, n_max: int, q_max: int
) -> ClusterTable:
    """cl_{n,q} by the collapsed recurrence; the collection must be monotone."""
    graph = build_graph(collection)
    cells = _vertex_tables(graph, n_max, q_max)
    totals = {(n, q): c for (v, n, q), c in cells.items() if v == (1,)}
    return ClusterTable(collection, n_max, q_max, totals, graph)


# ---------------------------------------------------------------------------
# Cluster tables
# ---------------------------------------------------------------------------


@dataclass
class ClusterTable:
    """Totals cl_{n,q}, plus the overlap graph when the table was computed.

    ``refined`` and ``vertex_total`` need the graph.  The refined engine is
    built on first use when the totals came from the collapsed recurrence.
    """

    collection: PatternCollection
    n_max: int
    q_max: int
    totals: dict[tuple[int, int], int]
    graph: OverlapGraph | None = None
    _engine: _Engine | None = field(default=None, repr=False)

    def total(self, n: int, q: int) -> int:
        return self.totals.get((n, q), 0)

    def refined(self, v: Perm, n: int, q: int, word: Perm) -> int:
        return self._refined_engine().refined(v, n, q, word)

    def vertex_total(self, v: Perm, n: int, q: int) -> int:
        return self._refined_engine().vertex_total(v, n, q)

    def _refined_engine(self) -> _Engine:
        if self._engine is None:
            if self.graph is None:
                raise DomainError("table carries totals only")
            self._engine = _Engine(self.graph, self.q_max)
        return self._engine


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


def table_totals(table: ClusterTable) -> dict[tuple[int, int], int]:
    return dict(table.totals)


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
    lines = [f"{n}\t{q}\t{totals[(n, q)]}" for n, q in sorted(totals)]
    return "\n".join(lines) + "\n"


def totals_from_tsv(text: str) -> dict[tuple[int, int], int]:
    totals = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        n, q, c = line.split("\t")
        totals[(int(n), int(q))] = int(c)
    return totals
