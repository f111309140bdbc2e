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
  initial subword of the cluster, filled by induction on q.

The refined count cl[v, n, q, p_bar] is the number of q-clusters sigma of
length n whose first len(v) entries are literally the word p_bar (with
standardization v).  Summing over admissible words at the distinguished
vertex (1) gives the total cl_{n,q}.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb

from . import kernels
from .graph import (
    Edge,
    OverlapGraph,
    PatternCollection,
    _extensions_to_perms,
    _window_order_preds,
    build_graph,
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
# Recurrence over the overlap graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinkageProfile:
    """Per-edge data driving one recurrence step.

    For l > k + k': psi orders the boundary word (p_1..p_{k+k'}) increasingly
    and pi_sorted holds the corresponding boundary entries of the pattern in
    increasing order (the images under the shift map back into positions of
    the pattern).  tilde is the standardization the boundary word must match.
    For l <= k + k' the boundary covers the whole pattern and no binomial
    data is needed; tilde is the pattern itself.
    """

    edge: Edge
    degenerate: bool  # l <= k + k'
    tilde: Perm
    psi: tuple[int, ...] | None  # 1-based positions into the boundary word
    pi_sorted: tuple[int, ...] | None  # boundary entries of pi, increasing
    new_order: tuple[int, ...]  # rank order of the fresh positions


def _edge_profile(e: Edge) -> LinkageProfile:
    pat, l, k, kp = e.pattern, len(e.pattern), e.k, e.k_prime
    if l > k + kp:
        combined = pat[:k] + pat[l - kp :]
        tilde = standardize(combined)
        psi = tuple(sorted(range(1, k + kp + 1), key=lambda i: tilde[i - 1]))

        def sh(j):  # boundary index -> position in the pattern
            return j if j <= k else j + l - k - kp

        pi_sorted = tuple(pat[sh(j) - 1] for j in psi)
        assert all(
            pi_sorted[i] < pi_sorted[i + 1] for i in range(len(pi_sorted) - 1)
        )
        new_order = tuple(
            sorted(range(kp), key=lambda i: tilde[k + i])
        )
        return LinkageProfile(e, False, tilde, psi, pi_sorted, new_order)
    new_order = tuple(sorted(range(l - k), key=lambda i: pat[k + i]))
    return LinkageProfile(e, True, pat, None, None, new_order)


class _Engine:
    """Memoized evaluator of the refined recurrence on one overlap graph."""

    def __init__(self, graph: OverlapGraph):
        self.graph = graph
        self.memo: dict = {}
        self.by_source: dict[Perm, list[LinkageProfile]] = {
            v: [] for v in graph.vertices
        }
        for e in graph.edges:
            self.by_source[e.source].append(_edge_profile(e))

    def refined(self, v: Perm, n: int, q: int, word: Perm) -> int:
        if (
            len(word) != len(v)
            or any(not 1 <= x <= n for x in word)
            or len(set(word)) != len(word)
            or standardize(word) != v
        ):
            return 0
        if q == 0:
            return 1 if v == (1,) and n == 1 else 0
        key = (v, n, q, word)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        total = 0
        for prof in self.by_source[v]:
            total += self._edge_step(prof, n, q, word)
        self.memo[key] = total
        return total

    def _edge_step(self, prof: LinkageProfile, n: int, q: int, word: Perm) -> int:
        e = prof.edge
        pat, l, k, kp = e.pattern, len(e.pattern), e.k, e.k_prime
        n_sub = n - l + kp
        if n_sub < 1:
            return 0
        used = set(word)
        avail = [x for x in range(1, n + 1) if x not in used]
        num_new = kp if not prof.degenerate else l - k
        total = 0
        for combo in combinations(avail, num_new):
            fresh = [0] * num_new
            for rank, idx in enumerate(prof.new_order):
                fresh[idx] = combo[rank]
            full = word + tuple(fresh)
            if standardize(full) != prof.tilde:
                continue
            if prof.degenerate:
                sub = tuple(
                    full[l - kp + j] - pat[l - kp + j] + e.target[j]
                    for j in range(kp)
                )
                total += self.refined(e.target, n_sub, q - 1, sub)
            else:
                psi, pis = prof.psi, prof.pi_sorted
                prod = binom(full[psi[0] - 1] - 1, pis[0] - 1)
                for j in range(k + kp - 1):
                    if prod == 0:
                        break
                    prod *= binom(
                        full[psi[j + 1] - 1] - full[psi[j] - 1] - 1,
                        pis[j + 1] - pis[j] - 1,
                    )
                if prod:
                    prod *= binom(n - full[psi[k + kp - 1] - 1], l - pis[k + kp - 1])
                if prod == 0:
                    continue
                sub = tuple(
                    fresh[j] - pat[l - kp + j] + e.target[j] for j in range(kp)
                )
                total += prod * self.refined(e.target, n_sub, q - 1, sub)
        return total

    def vertex_total(self, v: Perm, n: int, q: int) -> int:
        k = len(v)
        total = 0
        for values in combinations(range(1, n + 1), k):
            word = tuple(values[v[i] - 1] for i in range(k))
            total += self.refined(v, n, q, word)
        return total


@dataclass
class ClusterTable:
    """Totals cl_{n,q} plus (when available) the refined engine behind them."""

    collection: PatternCollection
    n_max: int
    q_max: int
    totals: dict[tuple[int, int], int]
    graph: OverlapGraph | None = None
    _engine: _Engine | None = field(default=None, repr=False)

    def total(self, n: int, q: int) -> int:
        return self.totals.get((n, q), 0)

    def refined(self, v: Perm, n: int, q: int, word: Perm) -> int:
        if self._engine is None:
            raise DomainError("table carries totals only")
        return self._engine.refined(v, n, q, word)

    def vertex_total(self, v: Perm, n: int, q: int) -> int:
        if self._engine is None:
            raise DomainError("table carries totals only")
        return self._engine.vertex_total(v, n, q)


def cluster_counts(
    collection: PatternCollection, n_max: int, q_max: int
) -> ClusterTable:
    """Fill cl_{n,q} for n <= n_max, q <= q_max via the refined recurrence."""
    if n_max < 1 or q_max < 1:
        raise DomainError("need n_max >= 1 and q_max >= 1")
    if collection.patterns == ((1,),):
        # the pattern (1) admits exactly one cluster, the 1-cluster (1) itself
        return ClusterTable(collection, n_max, q_max, {(1, 0): 1, (1, 1): 1})
    graph = build_graph(collection)
    engine = _Engine(graph)
    totals = {(1, 0): 1}
    for n in range(1, n_max + 1):
        for q in range(1, q_max + 1):
            c = sum(engine.refined((1,), n, q, (p1,)) for p1 in range(1, n + 1))
            if c:
                totals[(n, q)] = c
    return ClusterTable(collection, n_max, q_max, totals, graph, engine)


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
