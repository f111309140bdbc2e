"""Strong c-Wilf equivalence: sufficient conditions and ground-truth checks.

Two collections are strongly c-Wilf equivalent when the full distribution of
consecutive-occurrence counts agrees for every length.  ``equiv`` decides
this in two steps:

* check_theorem13: a structural sufficient condition on a pattern bijection:
  it preserves the overlap lengths of every ordered pair and each pattern's
  label (its length, and its final and initial entry sets at each overlap
  length where it overlaps its collection), as in labelled isomorphism.  It
  returns a ``Theorem13Report`` (ok, failures), with ok exactly when no
  failure is listed; any_theorem13_bijection searches for a bijection;
* verify_strong_equivalence: coefficientwise equality of the avoidance
  generating functions to a finite order (the definition, truncated),
  decided on the cluster tables that determine them.

graphs_isomorphic (label-preserving isomorphism of overlap graphs) is also
sufficient, but ``equiv`` no longer calls it: on the reduced collections of up
to two patterns of length <= 6 it never decided a pair the search had not.

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


# (key of the final k entries, whether initial k-sets count) of each condition
_THEOREM13 = (frozenset, True)
_MONOTONE = (max, False)


def _ovl_matrix(pats) -> dict:
    """{(x, y): ovl(x, y)} over the ordered pairs of one collection."""
    return {(x, y): _overlaps(x, y) for x in pats for y in pats}


def _labels(ovl, kind) -> dict:
    """{x: label} from one collection's ``_ovl_matrix``.  K_out(x) is the
    union of ovl(x, y) over the collection, y = x included, and K_in(x) that
    of ovl(y, x).  The label is len(x), (k, final_key(final k entries)) for k
    in K_out(x), and (k, initial k-set) for k in K_in(x) if ``kind`` counts
    initial sets.  Every realized k of (x, y) lies in K_out(x) and K_in(y), and
    preserving ovl preserves K_out and K_in, so a bijection that preserves ovl
    on every ordered pair passes the condition exactly when it preserves them.
    """
    final_key, initials = kind
    k_out, k_in = {}, {}
    for (x, y), ks in ovl.items():
        k_out.setdefault(x, set()).update(ks)
        k_in.setdefault(y, set()).update(ks)
    return {x: (len(x), tuple((k, final_key(x[-k:])) for k in sorted(ks)),
                tuple((k, frozenset(x[:k])) for k in sorted(k_in[x]) if initials))
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
        noun = "set" if kind[0] is frozenset else "set maximum"
        for x in pats1:
            for side, sets, other in zip(("final", "initial"), labels1[x][1:],
                                         labels2[image[x]][1:]):
                failures += [f"{side} {k}-{noun} differs: {x} vs {image[x]}"
                             for k, key in sets if (k, key) not in other]
    return Theorem13Report(not failures, tuple(failures))


# Nodes (calls of ``extend``) a bijection search may visit; past it the search
# raises rather than run a factorial backtrack.
_NODE_BUDGET = 1000


class SearchBudgetError(DomainError):
    pass


def _first_bijection(pi1, pi2, kind) -> PatternBijection | None:
    """First bijection passing ``_check_bijection`` with ``kind``, pairing
    sorted(pats1) with the orderings of sorted(pats2) in lexicographic order.

    Backtracking in that order, offering only candidates of equal label and
    testing ovl on the pairs each makes with those already assigned, finds
    the bijection a scan of all k! orderings would.  A search that passes
    ``_NODE_BUDGET`` nodes raises ``SearchBudgetError``: None would claim
    that no bijection exists.
    """
    pats1, pats2 = _patterns_of(pi1), _patterns_of(pi2)
    if len(pats1) != len(pats2):
        return None
    a, b = sorted(pats1), sorted(pats2)
    ovl_a, ovl_b = _ovl_matrix(a), _ovl_matrix(b)
    label_a, label_b = _labels(ovl_a, kind), _labels(ovl_b, kind)

    image: list[Perm] = []
    free = dict.fromkeys(b)  # insertion-ordered set
    nodes = 0

    def extend(i: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > _NODE_BUDGET:
            raise SearchBudgetError(
                f"bijection search: over {_NODE_BUDGET} nodes on {len(a)} patterns a side"
            )
        if i == len(a):
            return True
        x = a[i]
        for fx in list(free):
            if label_b[fx] == label_a[x] and all(
                ovl_a[x, y] == ovl_b[fx, fy] and ovl_a[y, x] == ovl_b[fy, fx]
                for y, fy in zip(a[: i + 1], [*image, fx])
            ):
                del free[fx]
                image.append(fx)
                if extend(i + 1):
                    return True
                image.pop()
                free[fx] = None
        return False

    return PatternBijection(tuple(zip(a, image))) if extend(0) else None


def check_theorem13(pi1, pi2, phi: PatternBijection) -> Theorem13Report:
    """Sufficient condition for strong c-Wilf equivalence via a bijection: it
    preserves lengths, ovl(x, y) on every ordered pair, and the labels of
    ``_labels``, i.e. the final and initial k-sets wherever a pair overlaps.

    Accepts PatternCollections or plain sequences of patterns; note the
    condition only implies equivalence for reduced collections.
    """
    return _check_bijection(pi1, pi2, phi, _THEOREM13)


def any_theorem13_bijection(pi1, pi2) -> PatternBijection | None:
    """First bijection passing check_theorem13, in deterministic order;
    raises ``SearchBudgetError`` past the search's node budget."""
    return _first_bijection(pi1, pi2, _THEOREM13)


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
    """First bijection passing check_monotone_corollary, deterministic order."""
    pats1, pats2 = _patterns_of(pi1), _patterns_of(pi2)
    if len(pats1) == len(pats2):
        _require_monotone(pats1)
        _require_monotone(pats2)
    return _first_bijection(pats1, pats2, _MONOTONE)


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
    form1, order1 = canonical_form(g1)
    form2, order2 = canonical_form(g2)
    if form1 != form2:
        return None
    return dict(zip(order1, order2))


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
    representative of another.  No bijection search runs.
    """
    orbits = {min(orb): sorted(orb) for orb in map(symmetry_orbit, all_permutations(5))}
    reps = sorted(orbits)

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
    vectors = {}
    for rep in reps:
        table = cluster_counts_single_pattern(rep, n_max, _S5_Q_MAX)
        vectors[rep] = [table.total(n, q) for n, q in cells]

    separations = []
    undecided = []
    for groups in classes.values():
        for g1, g2 in combinations(groups.values(), 2):
            for r1, r2 in product(g1, g2):
                sep = next(((n, q, a, b) for (n, q), a, b
                            in zip(cells, vectors[r1], vectors[r2]) if a != b), None)
                if sep is None:
                    undecided.append((r1, r2))
                else:
                    n, q, a, b = sep
                    separations.append(
                        {
                            "a": _format_perm(r1),
                            "b": _format_perm(r2),
                            "n": n,
                            "q": q,
                            "a_count": str(a),
                            "b_count": str(b),
                        }
                    )
    return {
        "orbit_count": len(reps),
        "orbits": [
            {
                "representative": _format_perm(rep),
                "size": len(orbits[rep]),
                "members": [_format_perm(m) for m in orbits[rep]],
            }
            for rep in reps
        ],
        "buckets": {
            key: [_format_perm(r) for r in members]
            for key, members in sorted(buckets.items())
        },
        "classes": {
            key: [[_format_perm(r) for r in grp] for grp in groups.values()]
            for key, groups in sorted(classes.items())
        },
        "separations": separations,
        "undecided": [
            (_format_perm(a), _format_perm(b)) for a, b in undecided
        ],
    }
