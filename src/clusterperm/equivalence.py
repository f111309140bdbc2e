"""Strong c-Wilf equivalence: sufficient conditions and ground-truth checks.

Two collections are strongly c-Wilf equivalent when the full distribution of
consecutive-occurrence counts agrees for every length.  Three tools decide
this at increasing cost:

* check_theorem13: a structural sufficient condition on a pattern bijection
  (equal lengths, equal realized overlap lengths for every ordered pair, and
  equal boundary entry sets at every realized overlap);
* graphs_isomorphic: a label-preserving isomorphism of overlap graphs, also
  sufficient since the graph determines the cluster recurrence; decided by
  equality of canonical forms (graph.canonical_form, the form the cache
  keys on), or left to the next check when the form passes its leaf budget;
* verify_strong_equivalence: coefficientwise equality of the avoidance
  generating functions to a finite order (the definition, truncated),
  decided on the cluster tables that determine them.

The module also provides the separated pattern families (whose members are
pairwise equivalent by construction) and the full classification of S_5
orbits under reverse and complement.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations as _it_permutations

from .clusters import cluster_counts, cluster_counts_single_pattern
from .graph import (
    OverlapGraph,
    PatternCollection,
    _overlaps,
    build_graph,
    canonical_form,
    overlap_lengths,
)
from .monotone import _require_monotone
from .perms import (
    DomainError,
    Perm,
    _format_perm,
    all_permutations,
    check_permutation,
    occurrences,
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


@dataclass(frozen=True)
class PatternBijection:
    pairs: tuple[tuple[Perm, Perm], ...]

    def __post_init__(self):
        firsts = [a for a, _ in self.pairs]
        seconds = [b for _, b in self.pairs]
        if len(set(firsts)) != len(firsts) or len(set(seconds)) != len(seconds):
            raise DomainError("mapping is not a bijection")

    def check_domains(self, pi1, pi2):
        if set(a for a, _ in self.pairs) != set(_patterns_of(pi1)) or set(
            b for _, b in self.pairs
        ) != set(_patterns_of(pi2)):
            raise DomainError("bijection does not match the two collections")

    def apply(self, pattern: Perm) -> Perm:
        for a, b in self.pairs:
            if a == pattern:
                return b
        raise DomainError(f"{pattern} not in bijection domain")


@dataclass(frozen=True)
class Theorem13Report:
    ok: bool
    lengths_ok: bool
    linkages_ok: bool
    overlap_sets_ok: bool
    failures: tuple[str, ...]

    def __bool__(self):
        return self.ok


def _check_bijection(pi1, pi2, phi: PatternBijection, overlap_test):
    """Length and overlap-length preservation, then ``overlap_test`` at each
    realized overlap.  ``overlap_test(pi, pip, k, fp, fpp)`` returns the
    failure strings of the k-overlap of the ordered pair (pi, pip) against
    its image (fp, fpp)."""
    phi.check_domains(pi1, pi2)
    pats1 = _patterns_of(pi1)
    failures = []
    lengths_ok = True
    for pi in pats1:
        if len(pi) != len(phi.apply(pi)):
            lengths_ok = False
            failures.append(f"length mismatch: {pi} vs {phi.apply(pi)}")
    linkages_ok = True
    overlaps_ok = True
    if lengths_ok:
        for pi in pats1:
            for pip in pats1:
                fp, fpp = phi.apply(pi), phi.apply(pip)
                ks1 = overlap_lengths(pi, pip)
                ks2 = overlap_lengths(fp, fpp)
                if ks1 != ks2:
                    linkages_ok = False
                    failures.append(
                        f"overlap lengths differ for ({pi},{pip}): {ks1} vs {ks2}"
                    )
                    continue
                for k in ks1:
                    found = overlap_test(pi, pip, k, fp, fpp)
                    if found:
                        overlaps_ok = False
                        failures.extend(found)
    ok = lengths_ok and linkages_ok and overlaps_ok
    return Theorem13Report(ok, lengths_ok, linkages_ok, overlaps_ok, tuple(failures))


# Nodes (calls of ``extend``) a bijection search may visit.  No search in the
# tests or the benchmark visits more than 5, while collections of equal-length
# patterns that all overlap only at k = 1 can need factorially many.
_NODE_BUDGET = 1000


class SearchBudgetError(DomainError):
    pass


def _first_bijection(pi1, pi2, overlap_test) -> PatternBijection | None:
    """First bijection passing ``_check_bijection`` with ``overlap_test``,
    pairing sorted(pats1) with the orderings of sorted(pats2) in
    lexicographic order.

    Every condition of the check concerns one ordered pair of patterns, so a
    backtracking search in the same order, which offers only patterns of
    equal length and tests each new pair against those already assigned,
    finds the same bijection as a scan of all k! orderings.  A search that
    passes ``_NODE_BUDGET`` nodes raises ``SearchBudgetError``: None would
    claim that no bijection exists.
    """
    pats1, pats2 = _patterns_of(pi1), _patterns_of(pi2)
    if len(pats1) != len(pats2):
        return None
    a, b = sorted(pats1), sorted(pats2)
    overlaps = {(x, y): _overlaps(x, y) for side in (a, b) for x in side for y in side}

    def pair_ok(x, y, fx, fy):
        ks = overlaps[x, y]
        return ks == overlaps[fx, fy] and not any(
            overlap_test(x, y, k, fx, fy) for k in ks
        )

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
            if len(fx) != len(x) or not pair_ok(x, x, fx, fx):
                continue
            if all(
                pair_ok(x, y, fx, fy) and pair_ok(y, x, fy, fx)
                for y, fy in zip(a, image)
            ):
                del free[fx]
                image.append(fx)
                if extend(i + 1):
                    return True
                image.pop()
                free[fx] = None
        return False

    return PatternBijection(tuple(zip(a, image))) if extend(0) else None


def _equal_overlap_sets(pi, pip, k, fp, fpp):
    failures = []
    if set(pi[len(pi) - k :]) != set(fp[len(fp) - k :]):
        failures.append(f"final {k}-set differs: {pi} vs {fp}")
    if set(pip[:k]) != set(fpp[:k]):
        failures.append(f"initial {k}-set differs: {pip} vs {fpp}")
    return failures


def _equal_final_maxima(pi, pip, k, fp, fpp):
    if max(pi[len(pi) - k :]) != max(fp[len(fp) - k :]):
        return [f"final {k}-set maximum differs: {pi} vs {fp}"]
    return []


def check_theorem13(pi1, pi2, phi: PatternBijection) -> Theorem13Report:
    """Sufficient condition for strong c-Wilf equivalence via a bijection.

    Accepts PatternCollections or plain sequences of patterns; note the
    condition only implies equivalence for reduced collections.
    """
    return _check_bijection(pi1, pi2, phi, _equal_overlap_sets)


def any_theorem13_bijection(pi1, pi2) -> PatternBijection | None:
    """First bijection passing check_theorem13, in deterministic order;
    raises ``SearchBudgetError`` past the search's node budget."""
    return _first_bijection(pi1, pi2, _equal_overlap_sets)


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
    return _check_bijection(pi1, pi2, phi, _equal_final_maxima)


def any_monotone_corollary_bijection(pi1, pi2) -> PatternBijection | None:
    """First bijection passing check_monotone_corollary, deterministic order."""
    pats1, pats2 = _patterns_of(pi1), _patterns_of(pi2)
    if len(pats1) == len(pats2):
        _require_monotone(pats1)
        _require_monotone(pats2)
    return _first_bijection(pats1, pats2, _equal_final_maxima)


def graphs_isomorphic(g1: OverlapGraph, g2: OverlapGraph):
    """Vertex bijection inducing a label-preserving edge bijection, with the
    distinguished vertex fixed; None when no such bijection exists.

    Two graphs are isomorphic exactly when their canonical forms are equal,
    and the bijection matches the two orders that attain the form.  A form
    whose search passes its leaf budget raises ``LeafBudgetError``: None
    would claim the graphs are not isomorphic.
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
    recurrences keep nonzero cells only, so the totals compare as dicts.
    """
    t1 = cluster_counts(pi1, order, order).totals
    t2 = cluster_counts(pi2, order, order).totals
    return t1 == t2


# ---------------------------------------------------------------------------
# Separated families
# ---------------------------------------------------------------------------


def separation_property(alpha, beta) -> bool:
    a = check_permutation(alpha)
    b = check_permutation(beta)
    k, kp = len(a), len(b)
    ext_a = a + (k + 1,)
    ext_b = (kp + 1,) + b
    return not occurrences(ext_a, b) and not occurrences(ext_b, a)


def separated_set(alpha, beta, l: int) -> list[Perm]:
    """All permutations of length k+l+k' with prefix alpha on the smallest
    values, suffix beta on the middle values, and the top l values free."""
    a = check_permutation(alpha)
    b = check_permutation(beta)
    if l < 1:
        raise DomainError("need l >= 1")
    k, kp = len(a), len(b)
    suffix = tuple(x + k for x in b)
    top = range(k + kp + 1, k + kp + l + 1)
    out = [a + mid + suffix for mid in _it_permutations(top)]
    out.sort()
    return out


# ---------------------------------------------------------------------------
# Classification of S_5
# ---------------------------------------------------------------------------


def _self_overlap_profile(p: Perm) -> tuple[int, ...]:
    return tuple(k for k in _overlaps(p, p) if k >= 2)


def _theorem13_signature(p: Perm) -> tuple[int, tuple]:
    """Length, self-overlap lengths, and the final and initial entry sets at
    each self-overlap.  For single patterns p and p', the only bijection
    maps p to p', and it passes check_theorem13 exactly when the two
    signatures are equal."""
    l = len(p)
    return (
        l,
        tuple((k, frozenset(p[l - k :]), frozenset(p[:k])) for k in _overlaps(p, p)),
    )


def classify_s5(n_max: int = 13, q_max: int = 3) -> dict:
    """Orbits of S_5 under reverse and complement, bucketed by self-overlap
    profile, with strong c-Wilf equivalence classes and the cluster statistics
    separating inequivalent pairs.

    Two orbits share a class when some member of one passes check_theorem13
    against the representative of the other.  Between single patterns that
    test is equality of ``_theorem13_signature``, since the bijection
    between them is forced, so no bijection search runs.
    """
    orbits = {}
    for p in all_permutations(5):
        orb = symmetry_orbit(p)
        rep = min(orb)
        orbits[rep] = sorted(orb)
    reps = sorted(orbits)

    buckets: dict[str, list[Perm]] = {}
    for rep in reps:
        prof = _self_overlap_profile(rep)
        key = ",".join(map(str, prof)) if prof else "none"
        buckets.setdefault(key, []).append(rep)

    signatures = {
        rep: {_theorem13_signature(m) for m in orbits[rep]} for rep in reps
    }
    cells = [(n, q) for q in range(1, q_max + 1) for n in range(1, n_max + 1)]
    vectors = {}
    for rep in reps:
        totals = cluster_counts_single_pattern(rep, n_max, q_max).totals
        vectors[rep] = [totals.get(cell, 0) for cell in cells]

    def positive(r1: Perm, r2: Perm) -> bool:
        return _theorem13_signature(r1) in signatures[r2]

    def separating(r1: Perm, r2: Perm):
        for (n, q), a, b in zip(cells, vectors[r1], vectors[r2]):
            if a != b:
                return (n, q, a, b)
        return None

    classes: dict[str, list[list[Perm]]] = {}
    separations = []
    undecided = []
    for key, members in buckets.items():
        groups: list[list[Perm]] = []
        for rep in members:
            placed = False
            for grp in groups:
                if positive(grp[0], rep):
                    grp.append(rep)
                    placed = True
                    break
            if not placed:
                groups.append([rep])
        classes[key] = groups
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                for r1 in groups[i]:
                    for r2 in groups[j]:
                        sep = separating(r1, r2)
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
            key: [[_format_perm(r) for r in grp] for grp in groups]
            for key, groups in sorted(classes.items())
        },
        "separations": separations,
        "undecided": [
            (_format_perm(a), _format_perm(b)) for a, b in undecided
        ],
    }
