"""Overlap graph of a reduced pattern collection.

Vertices are the standardizations of the proper overlap words: permutations
that arise simultaneously as a proper left divisor of one pattern and a
proper right divisor of a (possibly identical) pattern.  The length-1
permutation (1) is always a vertex (the distinguished vertex).  For each
pattern pi of length l, every pair (k, k') with st[prefix_k(pi)] and
st[suffix_k'(pi)] both vertices contributes a directed edge labeled by the
unordered entry sets of those subwords together with l.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import NamedTuple

from .perms import (
    DomainError,
    Perm,
    check_permutation,
    divides,
    standardize,
)


class NotReducedError(DomainError):
    def __init__(self, divisor: Perm, multiple: Perm):
        self.divisor = divisor
        self.multiple = multiple
        super().__init__(f"collection not reduced: {divisor} divides {multiple}")


@dataclass(frozen=True)
class PatternCollection:
    """A reduced, duplicate-free collection of patterns."""

    patterns: tuple[Perm, ...]

    def __post_init__(self):
        if not self.patterns:
            raise DomainError("empty pattern collection")
        seen = set()
        for p in self.patterns:
            check_permutation(p)
            if p in seen:
                raise DomainError(f"duplicate pattern {p}")
            seen.add(p)
        for p in self.patterns:
            for p2 in self.patterns:
                if p != p2 and divides(p, p2):
                    raise NotReducedError(p, p2)

    def __iter__(self):
        return iter(self.patterns)

    def __len__(self):
        return len(self.patterns)

    def reversed(self) -> "PatternCollection":
        return PatternCollection(tuple(tuple(reversed(p)) for p in self.patterns))

    def complemented(self) -> "PatternCollection":
        return PatternCollection(
            tuple(tuple(len(p) + 1 - x for x in p) for p in self.patterns)
        )


def collection(patterns) -> PatternCollection:
    """Build a PatternCollection from an iterable of permutation-like values."""
    return PatternCollection(tuple(tuple(p) for p in patterns))


def reduce_collection(patterns) -> PatternCollection:
    """Drop duplicates and every pattern divisible by another pattern."""
    pats = [check_permutation(p) for p in patterns]
    if not pats:
        raise DomainError("empty pattern list")
    uniq: list[Perm] = []
    for p in pats:
        if p not in uniq:
            uniq.append(p)
    kept = [
        p
        for p in uniq
        if not any(q != p and divides(q, p) for q in uniq)
    ]
    return PatternCollection(tuple(kept))


def k_overlaps(pi: Perm, pi_prime: Perm, k: int) -> bool:
    """Does the length-k suffix of pi standardize like the prefix of pi_prime?"""
    pi = check_permutation(pi)
    pi_prime = check_permutation(pi_prime)
    if not 1 <= k <= min(len(pi), len(pi_prime)):
        raise DomainError(f"overlap length {k} out of range")
    return standardize(pi[len(pi) - k :]) == standardize(pi_prime[:k])


def overlap_lengths(pi: Perm, pi_prime: Perm) -> list[int]:
    """All proper overlap lengths k < min(l, l') of the ordered pair."""
    top = min(len(pi), len(pi_prime))
    return [k for k in range(1, top) if k_overlaps(pi, pi_prime, k)]


class MonotoneResult(NamedTuple):
    ok: bool
    witness: tuple[Perm, Perm, int] | None  # (pi, pi_prime, k) on failure

    def __bool__(self):
        return self.ok


def is_monotone(collection: PatternCollection) -> MonotoneResult:
    """Is every realized k-overlap's prefix of the right pattern made of
    entries <= k?  Checks all ordered pairs, self-pairs included."""
    for pi in collection:
        for pi_prime in collection:
            for k in overlap_lengths(pi, pi_prime):
                if max(pi_prime[:k]) > k:
                    return MonotoneResult(False, (pi, pi_prime, k))
    return MonotoneResult(True, None)


def linkage_lengths(pi: Perm, pi_prime: Perm) -> set[int]:
    """Lengths n of linkages of the ordered pair (pi, pi_prime).

    Each n satisfies max(l, l') < n < l + l'.  The degenerate case
    k = min(l, l') would force one pattern to divide the other and is
    excluded.
    """
    l, lp = len(pi), len(pi_prime)
    return {l + lp - k for k in overlap_lengths(pi, pi_prime)}


def enumerate_linkages(pi: Perm, pi_prime: Perm, n: int) -> list[Perm]:
    """All sigma in S_n whose first l entries standardize to pi and last l'
    to pi_prime, by exhaustive construction (oracle use only)."""
    pi = check_permutation(pi)
    pi_prime = check_permutation(pi_prime)
    l, lp = len(pi), len(pi_prime)
    if not max(l, lp) <= n < l + lp:
        raise DomainError(f"linkage length {n} out of range for lengths {l},{lp}")
    preds = _window_order_preds(n, [(0, pi), (n - lp, pi_prime)])
    if preds is None:
        return []
    return sorted(_extensions_to_perms(n, preds))


def _window_order_preds(n: int, windows: list[tuple[int, Perm]]):
    """Strict-order predecessor sets implied by standardization constraints.

    ``windows`` holds (0-based offset, pattern) pairs; the pattern dictates
    the total value-order of its window's positions.  Returns per-position
    predecessor sets (transitively closed) or None on contradiction.
    """
    less = [set() for _ in range(n)]  # less[i]: positions with smaller value
    for off, pat in windows:
        by_rank = sorted(range(len(pat)), key=lambda i: pat[i])
        for a in range(len(pat)):
            for b in range(a + 1, len(pat)):
                less[off + by_rank[b]].add(off + by_rank[a])
    # transitive closure
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
    for i in range(n):
        if i in less[i]:
            return None
    return less


def _extensions_to_perms(n: int, less: list[set[int]]) -> list[Perm]:
    """Enumerate all value assignments consistent with the order constraints."""
    result: list[Perm] = []
    values = [0] * n
    remaining = set(range(n))

    def assign(rank: int):
        if rank > n:
            result.append(tuple(values))
            return
        for pos in sorted(remaining):
            # pos may take the next rank only once every smaller-valued
            # position already holds a value
            if less[pos] & remaining:
                continue
            remaining.discard(pos)
            values[pos] = rank
            assign(rank + 1)
            values[pos] = 0
            remaining.add(pos)

    assign(1)
    return result


@dataclass(frozen=True, order=True)
class EdgeLabel:
    """Unordered entry sets of the boundary subwords plus the pattern length."""

    mu_i: tuple[int, ...]  # sorted
    mu_f: tuple[int, ...]  # sorted
    length: int

    def __str__(self):
        fmt = lambda s: "{" + ",".join(str(x) for x in s) + "}"
        return f"({fmt(self.mu_i)},{fmt(self.mu_f)};{self.length})"


@dataclass(frozen=True)
class Edge:
    source: Perm
    target: Perm
    label: EdgeLabel
    pattern: Perm
    k: int  # length of the initial subword (= len(source))
    k_prime: int  # length of the final subword (= len(target))


@dataclass(frozen=True)
class OverlapGraph:
    collection: PatternCollection
    vertices: tuple[Perm, ...]  # sorted by (length, lex); contains (1,)
    edges: tuple[Edge, ...]

    @property
    def distinguished(self) -> Perm:
        return (1,)

    def out_edges(self, vertex: Perm) -> list[Edge]:
        return [e for e in self.edges if e.source == vertex]

    def in_edges(self, vertex: Perm) -> list[Edge]:
        return [e for e in self.edges if e.target == vertex]


def build_graph(coll: PatternCollection) -> OverlapGraph:
    verts: set[Perm] = {(1,)}
    for pb in coll:
        for pa in coll:
            for k in overlap_lengths(pb, pa):
                verts.add(standardize(pa[:k]))
    vertices = tuple(sorted(verts, key=lambda v: (len(v), v)))
    edges: list[Edge] = []
    for pat in coll:
        l = len(pat)
        prefix_ok = {
            k: standardize(pat[:k])
            for k in range(1, l)
            if standardize(pat[:k]) in verts
        }
        suffix_ok = {
            kp: standardize(pat[l - kp :])
            for kp in range(1, l)
            if standardize(pat[l - kp :]) in verts
        }
        for k, src in prefix_ok.items():
            for kp, tgt in suffix_ok.items():
                label = EdgeLabel(
                    mu_i=tuple(sorted(pat[:k])),
                    mu_f=tuple(sorted(pat[l - kp :])),
                    length=l,
                )
                edges.append(Edge(src, tgt, label, pat, k, kp))
    edges.sort(key=lambda e: (e.source, e.target, e.label, e.pattern))
    return OverlapGraph(coll, vertices, tuple(edges))


def _arrangements(groups):
    """Every concatenation of one ordering of each group.  Lazy, unlike
    itertools.product, which would hold every ordering of every group."""
    if not groups:
        yield ()
        return
    for head in permutations(groups[0]):
        for tail in _arrangements(groups[1:]):
            yield head + tail


def canonical_form(graph: OverlapGraph) -> tuple[tuple, tuple[Perm, ...]]:
    """The graph up to label-preserving isomorphism fixing (1), and the
    vertex order that attains it.

    A relabelling gives the distinguished vertex index 0 and the others
    1..V-1; it encodes the graph as (vertex lengths by index, sorted
    (source, target, mu_i, mu_f, length) edge tuples), vertex permutation
    labels discarded.  The encoding is the least one over all relabellings.
    The least lengths tuple is the sorted one, so only relabellings that
    permute vertices within each length class are searched.  ``order[i]``
    is the vertex given index i.
    """
    classes: dict[int, list[Perm]] = {}
    for v in graph.vertices:
        if v != (1,):
            classes.setdefault(len(v), []).append(v)
    groups = [classes[length] for length in sorted(classes)]
    lengths = tuple(len(v) for group in groups for v in group)
    edges = [
        (e.source, e.target, e.label.mu_i, e.label.mu_f, e.label.length)
        for e in graph.edges
    ]
    best = None
    for rest in _arrangements(groups):
        order = ((1,),) + rest
        index = {v: i for i, v in enumerate(order)}
        enc = tuple(sorted((index[s], index[t], *label) for s, t, *label in edges))
        if best is None or enc < best[0]:
            best = (enc, order)
    enc, order = best
    return (lengths, enc), order


def graph_to_dot(g: OverlapGraph) -> str:
    def name(v: Perm) -> str:
        return "".join(str(x) for x in v) if max(v) <= 9 else "_".join(map(str, v))

    lines = ["digraph overlaps {"]
    for v in g.vertices:
        lines.append(f'  "{name(v)}" [label="{" ".join(map(str, v))}"];')
    for e in g.edges:
        lines.append(f'  "{name(e.source)}" -> "{name(e.target)}" [label="{e.label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
