"""Strong c-Wilf equivalence: sufficient conditions and ground-truth checks.

Two collections are strongly c-Wilf equivalent when the full distribution of
consecutive-occurrence counts agrees for every length.  ``equiv`` decides
this in two steps:

* check_theorem13: a structural sufficient condition on a pattern bijection:
  it preserves the overlap lengths of every ordered pair and each pattern's
  label (its length, and its final and initial entry sets at each overlap
  length where it overlaps its collection).  It returns a
  ``Theorem13Report`` (ok, failures), with ok exactly when no failure is
  listed.  A passing bijection is an isomorphism of the pattern digraphs,
  patterns coloured by label and arcs labelled by ovl, so
  any_theorem13_bijection decides it with the cache's canonical-form search,
  ``graph.labelled_digraph_form``, after comparing the sorted labels;
* verify_strong_equivalence: coefficientwise equality of the avoidance
  generating functions to a finite order (the definition, truncated),
  decided on the cluster tables that determine them.

graphs_isomorphic (label-preserving isomorphism of overlap graphs) is also
sufficient, but ``equiv`` does not call it: on the reduced collections of up
to two patterns of length <= 6 it never decided a pair the bijection had not.

The module also classifies the orbits of S_5 under reverse and complement.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import NamedTuple

from .clusters import cluster_counts, cluster_counts_single_pattern
from .graph import (
    OverlapGraph,
    PatternCollection,
    _Record,
    _overlaps,
    build_graph,
    canonical_form,
    labelled_digraph_form,
)
from .monotone import _require_monotone
from .perms import (
    DomainError,
    Perm,
    _format_perm,
    all_permutations,
    check_permutation,
    symmetry_orbit,
)


def _patterns_of(collection) -> tuple[Perm, ...]:
    """Normalize a PatternCollection or plain pattern sequence.

    The structural sufficient condition is well defined for any set of
    distinct patterns, so unlike the cluster recurrence it does not require
    the collection to be reduced.
    """
    if isinstance(collection, PatternCollection):
        return collection.patterns
    pats = tuple(check_permutation(p) for p in collection)
    if len(set(pats)) != len(pats):
        raise DomainError("duplicate pattern in collection")
    return pats


class PatternBijection(_Record):
    __slots__ = ("pairs",)

    def __init__(self, pairs: tuple[tuple[Perm, Perm], ...]):
        self._set(tuple((check_permutation(a), check_permutation(b)) for a, b in pairs))
        firsts = [a for a, _ in self.pairs]
        seconds = [b for _, b in self.pairs]
        if len(set(firsts)) != len(firsts) or len(set(seconds)) != len(seconds):
            raise DomainError("mapping is not a bijection")


class Theorem13Report(NamedTuple):
    """Outcome of a bijection check: ``ok`` exactly when ``failures``, the
    reasons it fails, is empty."""

    ok: bool
    failures: tuple[str, ...]

    def __bool__(self):
        return self.ok


# The label kind of each condition: does it read entry sets, or only maxima?
_THEOREM13, _MONOTONE = True, False


def _ovl_matrix(pats) -> dict:
    """{(x, y): ovl(x, y)} over the ordered pairs of one collection."""
    return {(x, y): _overlaps(x, y) for x in pats for y in pats}


def _labels(ovl, kind) -> dict:
    """{x: label} from one collection's ``_ovl_matrix``.  K_out(x) is the
    union of ovl(x, y) over the collection, y = x included, and K_in(x) that
    of ovl(y, x).  The label is len(x), then (k, final k-set) for k in
    K_out(x) and (k, initial k-set) for k in K_in(x) if ``kind`` reads sets,
    each set a sorted tuple so that labels sort, else (k, maximum of the
    final k entries) for k in K_out(x) alone.  Every realized k of (x, y)
    lies in K_out(x) and K_in(y), and preserving ovl preserves K_out and
    K_in, so a bijection that preserves ovl on every ordered pair passes the
    condition exactly when it preserves them.
    """
    k_out, k_in = {}, {}
    for (x, y), ks in ovl.items():
        k_out.setdefault(x, set()).update(ks)
        k_in.setdefault(y, set()).update(ks)
    return {x: (len(x), tuple((k, tuple(sorted(x[-k:])) if kind else max(x[-k:]))
                              for k in sorted(ks)),
                tuple((k, tuple(sorted(x[:k]))) for k in sorted(k_in[x]) if kind))
            for x, ks in k_out.items()}


def _check_bijection(pi1, pi2, phi: PatternBijection, kind):
    """Lengths, then ovl on every ordered pair and the labels of ``kind``.

    Where ovl agrees on every pair, K_out and K_in agree, so two labels
    differ only at a k both take, and every difference is a failure."""
    pats1, pats2 = _patterns_of(pi1), _patterns_of(pi2)
    image = dict(phi.pairs)
    if set(image) != set(pats1) or set(image.values()) != set(pats2):
        raise DomainError("bijection does not match the two collections")
    failures = [f"length mismatch: {x} vs {image[x]}" for x in pats1 if len(x) != len(image[x])]
    if not failures:
        ovl1, ovl2 = _ovl_matrix(pats1), _ovl_matrix(pats2)
        for (x, y), ks1 in ovl1.items():
            ks2 = ovl2[image[x], image[y]]
            if ks1 != ks2:
                failures.append(f"overlap lengths differ for ({x},{y}): {ks1} vs {ks2}")
        labels1, labels2 = _labels(ovl1, kind), _labels(ovl2, kind)
        noun = "set" if kind else "set maximum"
        for x in pats1:
            for side, sets, other in zip(("final", "initial"), labels1[x][1:],
                                         labels2[image[x]][1:]):
                failures += [f"{side} {k}-{noun} differs: {x} vs {image[x]}"
                             for k, key in sets if (k, key) not in other]
    return Theorem13Report(not failures, tuple(failures))


def _bijection(pi1, pi2, kind) -> PatternBijection | None:
    """A bijection passing ``_check_bijection`` with ``kind``, or None: an
    isomorphism of the pattern digraphs, each pattern coloured by its label
    and each ordered pair (x, y) joined by an arc labelled ovl(x, y) where
    that is not empty.  Sorted labels that differ rule one out, and no form
    is built; otherwise the sides are isomorphic exactly when their
    ``labelled_digraph_form`` forms are equal, and the bijection pairs the
    orders that attain them, each side's vertices being its sorted patterns.
    A form past its leaf budget raises ``LeafBudgetError``: None would claim
    that no bijection exists.
    """
    sides = []
    for pats in (sorted(_patterns_of(pi1)), sorted(_patterns_of(pi2))):
        ovl = _ovl_matrix(pats)
        sides.append((pats, ovl, _labels(ovl, kind)))
    (_, _, labels1), (_, _, labels2) = sides
    if sorted(labels1.values()) != sorted(labels2.values()):
        return None
    (form1, order1), (form2, order2) = (
        labelled_digraph_form(pats, [labels[x] for x in pats],
                              [(x, y, tuple(ks)) for (x, y), ks in ovl.items() if ks])
        for pats, ovl, labels in sides
    )
    return PatternBijection(tuple(sorted(zip(order1, order2)))) if form1 == form2 else None


def check_theorem13(pi1, pi2, phi: PatternBijection) -> Theorem13Report:
    """Sufficient condition for strong c-Wilf equivalence via a bijection: it
    preserves lengths, ovl(x, y) on every ordered pair, and the labels of
    ``_labels``, i.e. the final and initial k-sets wherever a pair overlaps.

    Accepts PatternCollections or plain sequences of patterns; note the
    condition only implies equivalence for reduced collections.
    """
    return _check_bijection(pi1, pi2, phi, _THEOREM13)


def any_theorem13_bijection(pi1, pi2) -> PatternBijection | None:
    """A bijection passing check_theorem13, found by ``_bijection``; raises
    ``LeafBudgetError`` past the canonical form's leaf budget."""
    return _bijection(pi1, pi2, _THEOREM13)


def check_monotone_corollary(pi1, pi2, phi: PatternBijection) -> Theorem13Report:
    """Weaker sufficient condition for two monotone collections: the bijection
    must preserve lengths, overlap lengths, and for every realized k-overlap
    only the maximum of the final k entries (the initial k entries of a
    monotone pattern's overlap are forced to be {1..k}).

    Raises MonotoneError when either side is not monotone: there the
    maxima do not determine the cluster counts.
    """
    _require_monotone(_patterns_of(pi1))
    _require_monotone(_patterns_of(pi2))
    return _check_bijection(pi1, pi2, phi, _MONOTONE)


def any_monotone_corollary_bijection(pi1, pi2) -> PatternBijection | None:
    """A bijection passing check_monotone_corollary, found by ``_bijection``."""
    pats1, pats2 = _patterns_of(pi1), _patterns_of(pi2)
    if len(pats1) == len(pats2):
        _require_monotone(pats1)
        _require_monotone(pats2)
    return _bijection(pats1, pats2, _MONOTONE)


def graphs_isomorphic(g1: OverlapGraph, g2: OverlapGraph):
    """Vertex bijection inducing a label-preserving edge bijection, with the
    distinguished vertex fixed; None when no such bijection exists.

    Two graphs are isomorphic exactly when their canonical forms are equal,
    and the bijection matches the two orders that attain the form.  A form
    whose search passes its leaf budget raises ``LeafBudgetError``: None
    would claim the graphs are not isomorphic.  ``equiv`` does not call it.
    """
    if len(g1.vertices) != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return None
    (form1, order1), (form2, order2) = canonical_form(g1), canonical_form(g2)
    return dict(zip(order1, order2)) if form1 == form2 else None


def verify_strong_equivalence(
    pi1: PatternCollection, pi2: PatternCollection, order: int
) -> bool:
    """Definitional check to finite order: equality of avoidance GFs.

    Pi = 1/(1 - Pi_cl(x, t-1)) can be inverted order by order in x, so the
    avoidance GFs agree through x^order exactly when the cluster counts
    cl_{n,q} agree for every n <= order and every q; a cluster of length n
    has at most n marked occurrences, so q <= order covers them all.  Both
    tables' rows end in nonzero entries, so the rows compare as lists.
    """
    return cluster_counts(pi1, order, order).rows == cluster_counts(pi2, order, order).rows


# ---------------------------------------------------------------------------
# Classification of S_5
# ---------------------------------------------------------------------------

_S5_Q_MAX = 3  # ``classify_s5`` separates classes by cl_{n,q} for q <= 3


def classify_s5(n_max: int = 13) -> dict:
    """Orbits of S_5 under reverse and complement, bucketed by self-overlap
    lengths k >= 2, with strong c-Wilf equivalence classes and the cluster
    statistics separating inequivalent pairs.

    Between single patterns the bijection is forced and K_out(p) is ovl(p, p),
    so check_theorem13 is equality of the patterns' singleton labels, and the
    bucket key is read off the label.  A class is the orbits that share one
    orbit label set, the set of their members' labels, in order of first
    appearance.  Reverse and complement carry equal labels to equal labels,
    so two orbits' label sets are equal or disjoint, and an orbit shares a
    class exactly when one of its members passes check_theorem13 against the
    representative of another.  No bijection search runs.  Such a member has
    that representative's cluster table (Theorem 1.3), and reverse and
    complement keep cluster tables, so a class's first representative fills
    the one table of its class, and a one-class bucket fills none.
    """
    orbits, seen = {}, set()
    for p in all_permutations(5):  # in order: p is the least of each new orbit
        if p not in seen:
            orbits[p] = sorted(symmetry_orbit(p))
            seen.update(orbits[p])
    reps = list(orbits)
    name = {rep: _format_perm(rep) for rep in reps}

    label = {m: _labels(_ovl_matrix((m,)), _THEOREM13)[m] for m in all_permutations(5)}
    buckets: dict[str, list[Perm]] = {}
    classes: dict[str, dict[frozenset, list[Perm]]] = {}
    for rep in reps:
        # the label's finals are (k, final k-set) for k in K_out
        key = ",".join(str(k) for k, _ in label[rep][1] if k >= 2) or "none"
        buckets.setdefault(key, []).append(rep)
        orbit_labels = frozenset(label[m] for m in orbits[rep])
        classes.setdefault(key, {}).setdefault(orbit_labels, []).append(rep)

    cells = [(n, q) for q in range(1, _S5_Q_MAX + 1) for n in range(1, n_max + 1)]
    separations, undecided = [], []
    for groups in classes.values():
        vectors = {}  # by class with a rival: its first representative's cells
        for first, *_ in groups.values() if len(groups) > 1 else ():
            rows = cluster_counts_single_pattern(first, n_max, _S5_Q_MAX).rows
            vectors[first] = [rows[n][q] if q < len(rows[n]) else 0 for n, q in cells]
        for g1, g2 in combinations(groups.values(), 2):
            sep = next(((n, q, a, b) for (n, q), a, b
                        in zip(cells, vectors[g1[0]], vectors[g2[0]]) if a != b), None)
            for r1, r2 in product(g1, g2):
                if sep is None:
                    undecided.append((name[r1], name[r2]))
                else:
                    n, q, a, b = sep
                    separations.append(dict(a=name[r1], b=name[r2], n=n, q=q,
                                            a_count=str(a), b_count=str(b)))
    return {
        "orbit_count": len(reps),
        "orbits": [
            {
                "representative": name[rep],
                "size": len(orbits[rep]),
                "members": [_format_perm(m) for m in orbits[rep]],
            }
            for rep in reps
        ],
        "buckets": {
            key: [name[r] for r in members]
            for key, members in sorted(buckets.items())
        },
        "classes": {
            key: [[name[r] for r in grp] for grp in groups.values()]
            for key, groups in sorted(classes.items())
        },
        "separations": separations,
        "undecided": undecided,
    }
