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

import functools
from itertools import islice
from typing import Iterable, NamedTuple, Sequence

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


class LeafBudgetError(DomainError):
    pass


class _Record:
    """Fields in ``__slots__``, set once by ``_set``.  The public ones, those
    not starting with ``_``, are the value: == compares them in one class,
    the hash is their tuple's, the repr names them."""

    __slots__ = ()

    def _set(self, *values):
        for f, v in zip(self.__slots__, values):
            object.__setattr__(self, f, v)

    def _public(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__ if f[0] != "_")

    def __eq__(self, other):
        return self._public() == other._public() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._public())

    def __repr__(self):
        shown = (f"{f}={getattr(self, f)!r}" for f in self.__slots__ if f[0] != "_")
        return f"{type(self).__name__}({', '.join(shown)})"

    def __setattr__(self, name, *_):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), tuple(map(self.__getattribute__, self.__slots__))


class PatternCollection(_Record):
    """A reduced, duplicate-free collection of patterns."""

    __slots__ = ("patterns",)

    def __init__(self, patterns: Iterable[Sequence[int]]):
        self._set(tuple(check_permutation(p) for p in patterns))
        if not self.patterns:
            raise DomainError("empty pattern collection")
        seen = set()
        for p in self.patterns:
            if p in seen:
                raise DomainError(f"duplicate pattern {p}")
            seen.add(p)
        for p in self.patterns:
            for p2 in self.patterns:
                # distinct patterns of one length never divide each other
                if len(p) < len(p2) and divides(p, p2):
                    raise NotReducedError(p, p2)

    def __iter__(self):
        return iter(self.patterns)

    def __len__(self):
        return len(self.patterns)

    def reversed(self) -> "PatternCollection":
        return PatternCollection([p[::-1] for p in self.patterns])

    def complemented(self) -> "PatternCollection":
        return PatternCollection([tuple(len(p) + 1 - x for x in p) for p in self.patterns])


# Patterns whose border tables are kept; a fixed bound, so a long-running
# process cannot grow the table without limit.
_BORDER_PATTERNS = 4096


@functools.lru_cache(maxsize=_BORDER_PATTERNS)
def _borders(p: Perm) -> tuple[tuple[Perm, ...], tuple[Perm, ...]]:
    """(heads, tails): ``heads[k - 1]`` and ``tails[k - 1]`` standardize the
    length-k proper prefix and suffix of the permutation ``p``.

    Every overlap query reads this table, so each border of a pattern is
    standardized once per process rather than once per query.  The
    oracles keep their own standardization and never read it.
    """
    p = check_permutation(p)
    l = len(p)
    heads = tuple(standardize(p[:k]) for k in range(1, l))
    tails = tuple(standardize(p[l - k :]) for k in range(1, l))
    return heads, tails


def _overlaps(pi: Perm, pi_prime: Perm) -> list[int]:
    """All proper overlap lengths k < min(l, l') of the ordered pair of
    permutations, which the caller has validated.

    The border table is keyed by equality, so an unvalidated tuple such
    as ``(1.0, 3.0, 2.0)`` would be served the entry of ``(1, 3, 2)``.
    """
    tails, heads = _borders(pi)[1], _borders(pi_prime)[0]
    return [k for k, (t, h) in enumerate(zip(tails, heads), 1) if t == h]


class MonotoneResult(NamedTuple):
    ok: bool
    witness: tuple[Perm, Perm, int] | None  # (pi, pi_prime, k) on failure

    def __bool__(self):
        return self.ok


def is_monotone(collection: PatternCollection) -> MonotoneResult:
    """Is every realized k-overlap's prefix of the right pattern made of
    entries <= k?  Checks all ordered pairs, self-pairs included."""
    pats = [check_permutation(p) for p in collection]  # also plain sequences
    for pi in pats:
        for pi_prime in pats:
            for k in _overlaps(pi, pi_prime):
                if max(pi_prime[:k]) > k:
                    return MonotoneResult(False, (pi, pi_prime, k))
    return MonotoneResult(True, None)


class EdgeLabel(NamedTuple):
    """Unordered entry sets of the boundary subwords plus the pattern length."""

    mu_i: tuple[int, ...]  # sorted
    mu_f: tuple[int, ...]  # sorted
    length: int

    def __str__(self):
        fmt = lambda s: "{" + ",".join(str(x) for x in s) + "}"
        return f"({fmt(self.mu_i)},{fmt(self.mu_f)};{self.length})"


class Edge(NamedTuple):
    source: Perm
    target: Perm
    label: EdgeLabel
    pattern: Perm  # its first len(source) and last len(target) entries are the subwords


class OverlapGraph(NamedTuple):
    collection: PatternCollection
    vertices: tuple[Perm, ...]  # sorted by (length, lex); contains (1,)
    edges: tuple[Edge, ...]


def build_graph(coll: PatternCollection) -> OverlapGraph:
    borders = {p: _borders(p) for p in coll}
    verts: set[Perm] = {(1,)}
    for pb in coll:
        for pa in coll:
            verts.update(h for h, t in zip(borders[pa][0], borders[pb][1]) if h == t)
    vertices = tuple(sorted(verts, key=lambda v: (len(v), v)))
    edges: list[Edge] = []
    for pat in coll:
        l = len(pat)
        heads, tails = borders[pat]
        starts = [(h, tuple(sorted(pat[:k])))
                  for k, h in enumerate(heads, 1) if h in verts]
        ends = [(t, tuple(sorted(pat[l - kp :])))
                for kp, t in enumerate(tails, 1) if t in verts]
        for src, mu_i in starts:
            for tgt, mu_f in ends:
                edges.append(Edge(src, tgt, EdgeLabel(mu_i=mu_i, mu_f=mu_f, length=l), pat))
    edges.sort()  # by source, target, label, pattern
    return OverlapGraph(coll, vertices, tuple(edges))


# Leaves the canonical-form search may visit; a fixed bound, so a graph with
# a large automorphism group gives an error instead of a factorial search.
_LEAF_BUDGET = 1000


def _refine(colour: list[int], out, inn) -> list[int]:
    """Colour refinement to a stable colouring, as dense ranks 0..k-1.

    Each round a vertex's signature is its colour followed by the sorted
    (edge label, neighbour colour) pairs of its out-edges and of its
    in-edges; the new colours are the ranks of the signatures.  The
    signature leads with the old colour, so each round splits cells without
    reordering them, and the ranks depend only on invariants of the
    coloured graph.
    """
    while True:
        sigs = [
            (c, tuple(sorted((lab, colour[w]) for lab, w in out[v])),
             tuple(sorted((lab, colour[w]) for lab, w in inn[v])))
            for v, c in enumerate(colour)
        ]
        rank = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new = [rank[sig] for sig in sigs]
        if new == colour:
            return colour
        colour = new


def _individualise(colour: list[int], v: int) -> list[int]:
    """Split v off the front of its cell; later colours shift up by one."""
    c = colour[v]
    return [x + (x > c or (x == c and w != v)) for w, x in enumerate(colour)]


def labelled_digraph_form(vertices: Sequence, colours: Sequence, arcs) -> tuple[tuple, tuple]:
    """A vertex-coloured, arc-labelled digraph up to isomorphism, and the
    vertex order that attains it: ``order[i]`` is the vertex given index i.

    ``colours[i]`` is the colour of ``vertices[i]``; ``arcs`` holds (source,
    target, label tuple) triples.  The form is the sorted colours and the
    least encoding, as sorted (source index, target index, *label) tuples,
    over the leaves of individualise-and-refine.  Refinement splits cells by
    their labelled arcs; in a cell still tied, one vertex of each twin class
    is individualised in turn, in index order.  Twins are vertices whose swap
    is an automorphism: it fixes the colouring and carries one twin's leaves
    onto the other's, encodings unchanged.  Past ``_LEAF_BUDGET`` leaves the
    search raises ``LeafBudgetError``.
    """
    index = {v: i for i, v in enumerate(vertices)}
    label_id = {lab: i for i, lab in enumerate(sorted({lab for _, _, lab in arcs}))}
    out = [[] for _ in vertices]
    inn = [[] for _ in vertices]
    edges = []
    for s, t, lab in arcs:
        s, t, i = index[s], index[t], label_id[lab]
        out[s].append((i, t))
        inn[t].append((i, s))
        edges.append((s, t, *lab))

    def twins(u: int, w: int) -> bool:
        swap = {u: w, w: u}
        return all(sorted((i, swap.get(x, x)) for i, x in adj[u]) == sorted(adj[w])
                   for adj in (out, inn))

    def leaves(colour: list[int]):
        """The discrete colourings below ``colour``, depth first."""
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(colour):
            cells.setdefault(c, []).append(v)
        cell = next((vs for _, vs in sorted(cells.items()) if len(vs) > 1), None)
        if cell is None:
            yield colour
            return
        # the first vertex of each twin class
        firsts = [v for i, v in enumerate(cell) if not any(twins(u, v) for u in cell[:i])]
        if len(firsts) > 1:
            for v in firsts:
                yield from leaves(_refine(_individualise(colour, v), out, inn))
            return
        # in a cell of twins, individualising one leaves the rest tied and
        # refines nothing, so the search splits the cell in index order
        yield from leaves(functools.reduce(_individualise, cell[:-1], colour))

    def encode(colour: list[int]) -> tuple:
        return tuple(sorted((colour[s], colour[t], *lab) for s, t, *lab in edges))

    found = list(islice(leaves(_refine(list(colours), out, inn)), _LEAF_BUDGET + 1))
    if len(found) > _LEAF_BUDGET:
        raise LeafBudgetError(
            f"canonical form: over {_LEAF_BUDGET} leaves on a {len(vertices)}-vertex graph"
        )
    code, colour = min(((encode(c), c) for c in found), key=lambda leaf: leaf[0])
    order = tuple(sorted(vertices, key=lambda v: colour[index[v]]))
    return (tuple(sorted(colours)), code), order


def canonical_form(graph: OverlapGraph) -> tuple[tuple, tuple[Perm, ...]]:
    """``labelled_digraph_form`` of the overlap graph, each vertex coloured
    by its length, so (1) sits alone at index 0, and each edge labelled
    (mu_i, mu_f, length): vertex names and edge patterns are discarded."""
    return labelled_digraph_form(graph.vertices, [len(v) for v in graph.vertices],
                                 [(e.source, e.target, e.label) for e in graph.edges])


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
