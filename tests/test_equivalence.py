"""Equivalence checks: structural conditions, graph isomorphism, GF equality."""

import functools
import random
import time
from itertools import combinations, permutations

import pytest

from clusterperm import clusters, equivalence, graph, kernels, perms
from clusterperm.cache import cache_key
from conftest import nudged, random_two_pattern_collections
from clusterperm.equivalence import (
    PatternBijection,
    any_monotone_corollary_bijection,
    any_theorem13_bijection,
    check_monotone_corollary,
    check_theorem13,
    classify_s5,
    graphs_isomorphic,
    verify_strong_equivalence,
)
from clusterperm.graph import NotReducedError, PatternCollection, build_graph
from clusterperm.monotone import MonotoneError
from clusterperm.perms import DomainError, occurrences, parse_perm
from clusterperm.series import avoidance_gf

WILF_PAIR = (
    PatternCollection(((1, 4, 3, 2, 6, 5, 9, 8, 7),)),
    PatternCollection(((1, 3, 4, 2, 6, 5, 8, 9, 7),)),
)

# Four two-pattern collections related by swapping two adjacent middle values
# in either pattern; two of them are not reduced because the short pattern
# consecutively divides the long one.
FOUR_COLLECTIONS = [
    ((1, 4, 5, 6, 2, 3), (1, 3, 4, 5, 2)),
    ((1, 4, 5, 6, 2, 3), (1, 3, 5, 4, 2)),
    ((1, 4, 6, 5, 2, 3), (1, 3, 4, 5, 2)),
    ((1, 4, 6, 5, 2, 3), (1, 3, 5, 4, 2)),
]

# Four length-9 singletons related by the weaker overlap-set-maximum condition.
NINE_FAMILY = [
    (1, 4, 3, 2, 6, 5, 9, 8, 7),
    (1, 3, 4, 2, 6, 5, 8, 9, 7),
    (1, 4, 3, 2, 5, 6, 9, 8, 7),
    (1, 3, 4, 2, 5, 6, 8, 9, 7),
]


def test_bijection_validation():
    with pytest.raises(DomainError):
        PatternBijection((((1, 2), (1, 2)), ((2, 1), (1, 2))))
    phi = PatternBijection((((1, 2, 3), (1, 3, 2)),))
    with pytest.raises(DomainError, match="does not match"):
        check_theorem13([(1, 2, 3), (2, 1, 3)], [(1, 3, 2), (2, 1, 3)], phi)


def test_condition_positive_on_wilf_pair():
    phi = any_theorem13_bijection(*WILF_PAIR)
    assert phi is not None
    report = check_theorem13(WILF_PAIR[0], WILF_PAIR[1], phi)
    assert report.ok and not report.failures


def test_condition_negative_on_different_overlaps():
    c1 = PatternCollection(((1, 2, 3),))
    c2 = PatternCollection(((1, 3, 2),))
    phi = PatternBijection((((1, 2, 3), (1, 3, 2)),))
    report = check_theorem13(c1, c2, phi)
    assert not report.ok and not report
    assert report.failures[0] == "overlap lengths differ for ((1, 2, 3),(1, 2, 3)): [1, 2] vs [1]"


def test_condition_accepts_raw_pattern_lists():
    assert any_theorem13_bijection(
        [(1, 2, 3)], [(2, 3, 1)]
    ) is None  # lengths of overlaps differ
    for a, b in combinations(FOUR_COLLECTIONS, 2):
        assert any_theorem13_bijection(a, b) is not None
    with pytest.raises(DomainError):
        check_theorem13(
            [(1, 2), (1, 2)], [(1, 2), (2, 1)],
            PatternBijection((((1, 2), (1, 2)),)),
        )


def test_two_of_the_four_collections_are_not_reduced():
    reduced = []
    for pats in FOUR_COLLECTIONS:
        try:
            PatternCollection(pats)
            reduced.append(True)
        except NotReducedError:
            reduced.append(False)
    assert reduced == [False, True, True, False]


def test_condition_insufficient_without_reducedness():
    """The structural condition holds across all four collections, yet the
    non-reduced ones have a different occurrence distribution already at n=6:
    nested occurrences inflate the counts, so the sufficient condition only
    applies to reduced collections."""

    def distribution(pats, n):
        out = {}
        for sigma in permutations(range(1, n + 1)):
            q = sum(len(occurrences(p, sigma)) for p in pats)
            out[q] = out.get(q, 0) + 1
        return out

    d = [distribution(pats, 6) for pats in FOUR_COLLECTIONS]
    assert d[0] == d[3] == {0: 708, 1: 11, 2: 1}
    assert d[1] == d[2] == {0: 707, 1: 13}
    assert d[0] != d[1]


def test_reduced_pair_of_the_four_is_equivalent():
    c1 = PatternCollection(FOUR_COLLECTIONS[1])
    c2 = PatternCollection(FOUR_COLLECTIONS[2])
    assert verify_strong_equivalence(c1, c2, 10)


def test_table_verdict_matches_gf_comparison():
    # reverse and complement preserve the distribution, so half the pairs
    # agree; a seeded partner from the same list almost never does
    colls = random_two_pattern_collections(12, seed=21, max_len=5)
    rng = random.Random(21)
    pairs = [
        (PatternCollection(((1, 3, 4, 2),)), PatternCollection(((1, 4, 3, 2),))),
        (PatternCollection(((1, 2, 3, 4),)), PatternCollection(((4, 3, 2, 1),))),
        (PatternCollection(((1, 2, 3),)), PatternCollection(((1, 3, 2),))),
        tuple(PatternCollection(FOUR_COLLECTIONS[i]) for i in (1, 2)),
    ]
    for c in colls:
        pairs += [(c, c.reversed()), (c, c.complemented()), (c, rng.choice(colls))]
    verdicts = []
    for c1, c2 in pairs:
        gf_equal = avoidance_gf(c1, 7).eq_through(avoidance_gf(c2, 7))
        assert verify_strong_equivalence(c1, c2, 7) == gf_equal, (c1, c2)
        verdicts.append(gf_equal)
    assert verdicts.count(True) >= 20 and verdicts.count(False) >= 10


def test_monotone_corollary_on_nine_family():
    cols = [(p,) for p in NINE_FAMILY]
    for a, b in combinations(cols, 2):
        assert any_monotone_corollary_bijection(a, b) is not None
    # the full condition is strictly stronger: it fails when the final
    # overlap sets differ even though their maxima agree
    weak = any_monotone_corollary_bijection(cols[0], cols[2])
    strong = any_theorem13_bijection(cols[0], cols[2])
    assert weak is not None and strong is None
    report = check_monotone_corollary(
        cols[0], cols[2], PatternBijection(((NINE_FAMILY[0], NINE_FAMILY[2]),))
    )
    assert report.ok


def _ref_check(pi1, pi2, phi, overlap_test):
    """The per-pair form of the condition: lengths, then overlap lengths on
    every ordered pair, then ``overlap_test`` at each realized overlap of the
    pair against its image.  Returns whether the bijection passes."""
    pats1, f = list(pi1), dict(phi.pairs)
    if set(f) != set(pats1) or set(f.values()) != set(pi2):
        raise DomainError("bijection does not match the two collections")
    if any(len(p) != len(f[p]) for p in pats1):
        return False
    for pi in pats1:
        for pip in pats1:
            fp, fpp = f[pi], f[pip]
            ks = _ref_overlaps(pi, pip)
            if ks != _ref_overlaps(fp, fpp) or any(
                overlap_test(pi, pip, k, fp, fpp) for k in ks
            ):
                return False
    return True


@functools.cache
def _ref_overlaps(x, y):
    return graph._overlaps(x, y)


def _overlap_sets_differ(pi, pip, k, fp, fpp):
    return set(pi[-k:]) != set(fp[-k:]) or set(pip[:k]) != set(fpp[:k])


def _final_maxima_differ(pi, pip, k, fp, fpp):
    return max(pi[-k:]) != max(fp[-k:])


def ref_check_theorem13(pi1, pi2, phi):
    return _ref_check(pi1, pi2, phi, _overlap_sets_differ)


def ref_check_monotone_corollary(pi1, pi2, phi):
    for side in (pi1, pi2):
        if not graph.is_monotone(side):
            raise MonotoneError("not monotone")
    return _ref_check(pi1, pi2, phi, _final_maxima_differ)


def exhaustive_first_bijection(pi1, pi2, check):
    """Reference: run ``check`` on every ordering of sorted(pi2) against
    sorted(pi1), in lexicographic order, and return the first that passes."""
    if len(pi1) != len(pi2):
        return None
    a = sorted(pi1)
    for perm in permutations(sorted(pi2)):
        phi = PatternBijection(tuple(zip(a, perm)))
        if check(pi1, pi2, phi):
            return phi
    return None


def seeded_pattern_pairs(count, seed):
    """Pairs of 1-4 distinct patterns of length 4-6 and a shuffled, nudged
    copy; every second pair starts each pattern with 1, so that some sides
    are monotone."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        k = rng.randint(1, 4)
        a = []
        while len(a) < k:
            l = rng.randint(4, 6)
            p = tuple(rng.sample(range(1, l + 1), l))
            if len(out) % 2:
                p = (1,) + tuple(x + 1 for x in rng.sample(range(1, l), l - 1))
            if p not in a:
                a.append(p)
        b = [nudged(p, rng) for p in a]
        rng.shuffle(b)
        if len(set(b)) == k:
            out.append((a, b))
    return out


def outcome(search, *args):
    try:
        return search(*args)
    except MonotoneError:
        return MonotoneError


CHECKS = [
    (any_theorem13_bijection, check_theorem13, ref_check_theorem13),
    (any_monotone_corollary_bijection, check_monotone_corollary,
     ref_check_monotone_corollary),
]


# Paired in this order, every pattern keeps its label but not its overlaps:
# 162453 ends as 246351 starts (1342) and overlaps it at k = 4, while 162543,
# with the same final 1- and 4-sets, ends as 153246 starts (1432).  No
# bijection passes.
LABELS_WITHOUT_OVL = (
    [(1, 6, 2, 4, 5, 3), (1, 3, 2, 6, 5, 4), (2, 4, 6, 3, 5, 1), (1, 5, 3, 2, 4, 6)],
    [(1, 6, 2, 5, 4, 3), (1, 3, 2, 5, 6, 4), (2, 4, 6, 3, 5, 1), (1, 5, 3, 2, 4, 6)],
)


def test_pruned_bijection_search_matches_exhaustive_scan():
    report = check_theorem13(*LABELS_WITHOUT_OVL, PatternBijection(tuple(zip(*LABELS_WITHOUT_OVL))))
    # the labels agree: every failure is one of ovl
    assert report.failures and all(f.startswith("overlap lengths") for f in report.failures)
    found = {check_theorem13: 0, check_monotone_corollary: 0}
    # the seeded pairs, the pairs acceptance criterion 5 checks, every
    # ordered pair of the two-pattern reference collections, and the pair above
    twos = [c.patterns for c in random_two_pattern_collections(20, seed=20230815)]
    pairs = seeded_pattern_pairs(200, seed=7) + list(permutations(FOUR_COLLECTIONS, 2))
    for a, b in pairs + list(permutations(twos, 2)) + [LABELS_WITHOUT_OVL]:
        for search, check, ref in CHECKS:
            got = outcome(search, a, b)
            assert got == outcome(exhaustive_first_bijection, a, b, ref), (a, b)
            found[check] += got not in (None, MonotoneError)
    # the pairs exercise both outcomes of both searches
    assert found[check_theorem13] > 20 and found[check_monotone_corollary] > 5
    assert any_theorem13_bijection([(1, 2, 3)], [(1, 2, 3), (1, 3, 2)]) is None


# The length-7 patterns that start with 1 and end with 2 overlap one another
# only at k = 1, so every pairing of two sets of them passes the condition.
FAMILY = [p for p in permutations(range(1, 8)) if p[0] == 1 and p[-1] == 2]


def family_pairs(m):
    """m family patterns against m - 1 of them and 7654312, which every
    family pattern overlaps at k = 2 (no bijection); then the m patterns
    against m others, shuffled (a bijection)."""
    others = FAMILY[m : 2 * m]
    random.Random(m).shuffle(others)
    return [(FAMILY[:m], [*FAMILY[: m - 1], (7, 6, 5, 4, 3, 1, 2)]), (FAMILY[:m], others)]


def test_family_search_answers_exactly(monkeypatch):
    for m in range(7, 41):
        (a, b), (c, d) = family_pairs(m)
        times = []
        for _ in range(3):  # the fastest of three calls, against a loaded machine
            start = time.perf_counter()
            assert any_theorem13_bijection(a, b) is None, m
            times.append(time.perf_counter() - start)
        assert min(times) < 0.1, m
        phi = any_theorem13_bijection(c, d)
        assert phi is not None and ref_check_theorem13(c, d, phi), m
    # the root offers a's first pattern no candidate, so one node decides
    monkeypatch.setattr(equivalence, "_NODE_BUDGET", 1)
    for m in range(7, 41):
        (a, b), _ = family_pairs(m)
        assert any_theorem13_bijection(a, b) is None, m


def test_bijection_search_checks_ovl_in_both_directions(monkeypatch):
    # one label for every pattern, so only the ovl comparisons of the pairs
    # decide; x1 < x2 and y1 < y2 are the sorted patterns of each side
    x1, x2, y1, y2 = (1, 2, 3), (3, 2, 1), (1, 3, 2), (2, 3, 1)
    one, none = frozenset({1}), frozenset()

    def matrix(p, q, pq, qp):
        return {(p, p): none, (q, q): none, (p, q): pq, (q, p): qp}

    def search(ovl_a, ovl_b):
        by_side = {(x1, x2): ovl_a, (y1, y2): ovl_b}
        monkeypatch.setattr(equivalence, "_ovl_matrix", lambda pats: by_side[tuple(pats)])
        return equivalence._first_bijection([x1, x2], [y1, y2], equivalence._THEOREM13)

    monkeypatch.setattr(equivalence, "_labels", lambda ovl, kind: {x: 0 for x, _ in ovl})
    both = matrix(y1, y2, one, one)
    # ovl(x1, x2) = {1} and ovl(x2, x1) empty, against {1} both ways: only
    # ovl_a[x, y] == ovl_b[fx, fy] tells them apart, at x = x2, y = x1
    assert search(matrix(x1, x2, one, none), both) is None
    # the mirror: only ovl_a[y, x] == ovl_b[fy, fx] tells them apart
    assert search(matrix(x1, x2, none, one), both) is None
    # matching pairs, in order and crossed
    phi = search(matrix(x1, x2, one, none), matrix(y1, y2, one, none))
    assert phi.pairs == ((x1, y1), (x2, y2))
    phi = search(matrix(x1, x2, one, none), matrix(y1, y2, none, one))
    assert phi.pairs == ((x1, y2), (x2, y1))


def test_family_search_matches_the_exhaustive_scan():
    for m in range(1, 8):
        for a, b in family_pairs(m):
            want = exhaustive_first_bijection(a, b, ref_check_theorem13)
            assert any_theorem13_bijection(a, b) == want, m


def verdict(check, *args):
    r = check(*args)
    assert r.ok == (r.failures == ()), r
    return r.ok


def test_label_check_matches_the_per_pair_check():
    """ok equals the per-pair reference's verdict, and holds exactly when no
    failure is listed, on every bijection of the seeded pairs and on every
    ordered pair of singles from S_1 to S_5."""
    cases = [
        (a, b, PatternBijection(tuple(zip(a, perm))))
        for a, b in seeded_pattern_pairs(200, seed=7)
        for perm in permutations(b)
    ]
    singles = [p for l in range(1, 6) for p in perms.all_permutations(l)]
    cases += [([p], [q], PatternBijection(((p, q),))) for p in singles for q in singles]
    rows = 0
    for a, b, phi in cases:
        for _, check, ref in CHECKS:
            got = outcome(verdict, check, a, b, phi)
            assert got == outcome(ref, a, b, phi), (a, b, phi)
            rows += got is not MonotoneError
    assert rows > 20000


def test_monotone_corollary_rejects_non_monotone_sides():
    # 1324 and 2314 agree on every final overlap maximum, but neither is
    # monotone, and the S_6 scan tells them apart
    a, b = (1, 3, 2, 4), (2, 3, 1, 4)
    assert kernels.count_distribution(6, [a])[0] == 632
    assert kernels.count_distribution(6, [b])[0] == 631
    with pytest.raises(MonotoneError):
        any_monotone_corollary_bijection([a], [b])
    mono = (1, 2, 3, 4)
    for left, right in [(a, b), (mono, b), (b, mono)]:
        with pytest.raises(MonotoneError):
            check_monotone_corollary(
                [left], [right], PatternBijection(((left, right),))
            )


def test_nine_family_gf_equivalent():
    cols = [PatternCollection((p,)) for p in NINE_FAMILY]
    for a, b in combinations(cols, 2):
        assert verify_strong_equivalence(a, b, 12)


def test_graph_isomorphism():
    g1, g2 = build_graph(WILF_PAIR[0]), build_graph(WILF_PAIR[1])
    iso = graphs_isomorphic(g1, g2)
    assert iso is not None
    assert iso[(1,)] == (1,)
    assert graphs_isomorphic(g1, g1) is not None
    g3 = build_graph(PatternCollection(((1, 2, 3),)))
    g4 = build_graph(PatternCollection(((1, 3, 2),)))
    assert graphs_isomorphic(g3, g4) is None


def test_isomorphic_overlap_graphs_have_a_theorem13_bijection():
    # equiv has no graph-isomorphism step: on these collections the label
    # search finds a bijection wherever the canonical form (cache key) agrees
    colls = [PatternCollection((p,)) for l in range(1, 7) for p in perms.all_permutations(l)]
    short = [p for l in range(1, 5) for p in perms.all_permutations(l)]
    for pair in combinations(short, 2):
        try:
            colls.append(PatternCollection(pair))
        except DomainError:
            continue
    assert len(colls) == 1267
    groups = {}
    for coll in colls:
        groups.setdefault(cache_key(coll), []).append(coll)
    pairs = 0
    for group in groups.values():
        assert len({len(coll.patterns) for coll in group}) == 1
        for c1, c2 in combinations(group, 2):
            pairs += 1
            assert any_theorem13_bijection(c1, c2) is not None, (c1, c2)
    assert pairs == 2096


def separated_set(alpha, beta, l):
    """alpha on the smallest values, then the top l values in every order,
    then beta on the middle values: a family pairwise equivalent by
    construction."""
    k, kp = len(alpha), len(beta)
    return sorted(alpha + mid + tuple(x + k for x in beta)
                  for mid in permutations(range(k + kp + 1, k + kp + l + 1)))


def test_separated_set():
    assert separated_set((1,), (1,), 1) == [(1, 3, 2)]
    fam = separated_set((1,), (1,), 2)
    assert fam == [(1, 3, 4, 2), (1, 4, 3, 2)]
    assert len(separated_set((1, 2), (1,), 3)) == 6
    for a, b in combinations(fam, 2):
        assert any_theorem13_bijection([a], [b]) is not None
        assert verify_strong_equivalence(
            PatternCollection((a,)), PatternCollection((b,)), 9
        )


def single_label(p):
    return equivalence._labels(equivalence._ovl_matrix((p,)), equivalence._THEOREM13)[p]


def test_signature_decides_single_pattern_bijections():
    singles = [p for l in range(1, 6) for p in perms.all_permutations(l)]
    sig = {p: single_label(p) for p in singles}
    for a in singles:
        for b in singles:
            found = any_theorem13_bijection([a], [b]) is not None
            assert found == (sig[a] == sig[b]), (a, b)


def test_signature_decides_single_pattern_bijections_in_s6():
    s6 = list(perms.all_permutations(6))
    by_sig = {}
    for p in s6:
        by_sig.setdefault(single_label(p), []).append(p)
    equal = [(a, b) for grp in by_sig.values() for a in grp for b in grp if a != b]
    # 4,020 ordered pairs in 336 signature classes
    assert len(equal) == 4020
    for a, b in equal:
        assert any_theorem13_bijection([a], [b]) is not None, (a, b)
    rng = random.Random(6)
    unequal = 0
    while unequal < 2000:
        a, b = rng.sample(s6, 2)
        if single_label(a) != single_label(b):
            assert any_theorem13_bijection([a], [b]) is None, (a, b)
            unequal += 1


def search_classify_s5(n_max=13, q_max=3):
    """classify_s5's classes, separations and undecided pairs, with each
    pair of orbits decided by a bijection search against every member of
    the second orbit and each separation found by a scan of the totals."""
    orbits = {}
    for p in perms.all_permutations(5):
        orb = perms.symmetry_orbit(p)
        orbits[min(orb)] = sorted(orb)
    totals = {
        rep: clusters.cluster_counts_single_pattern(rep, n_max, q_max).totals
        for rep in orbits
    }

    def positive(r1, r2):
        return any(
            any_theorem13_bijection(PatternCollection((r1,)), PatternCollection((m,)))
            is not None
            for m in orbits[r2]
        )

    def separating(r1, r2):
        for q in range(1, q_max + 1):
            for n in range(1, n_max + 1):
                a, b = totals[r1].get((n, q), 0), totals[r2].get((n, q), 0)
                if a != b:
                    return (n, q, a, b)
        return None

    buckets = {}
    for rep in sorted(orbits):
        prof = [k for k in graph._overlaps(rep, rep) if k >= 2]
        buckets.setdefault(",".join(map(str, prof)) or "none", []).append(rep)
    fmt = perms._format_perm
    classes, separations, undecided = {}, [], []
    for key, members in buckets.items():
        groups = []
        for rep in members:
            grp = next((g for g in groups if positive(g[0], rep)), None)
            if grp is None:
                groups.append([rep])
            else:
                grp.append(rep)
        classes[key] = [[fmt(r) for r in grp] for grp in groups]
        for i, j in combinations(range(len(groups)), 2):
            for r1 in groups[i]:
                for r2 in groups[j]:
                    sep = separating(r1, r2)
                    if sep is None:
                        undecided.append((fmt(r1), fmt(r2)))
                    else:
                        n, q, a, b = sep
                        separations.append(
                            {"a": fmt(r1), "b": fmt(r2), "n": n, "q": q,
                             "a_count": str(a), "b_count": str(b)}
                        )
    return dict(sorted(classes.items())), separations, undecided


def test_orbit_label_sets_are_equal_or_disjoint():
    # reverse and complement carry equal singleton labels to equal labels, so
    # distinct label sets of orbits never meet
    for n in range(1, 8):
        orbits = {perms.symmetry_orbit(p) for p in perms.all_permutations(n)}
        label_sets = {frozenset(map(single_label, orbit)) for orbit in orbits}
        assert sum(map(len, label_sets)) == len(frozenset().union(*label_sets)), n
    assert len(orbits) == 1272


def assert_matches_search(report, reference):
    classes, separations, undecided = reference
    assert report["classes"] == classes
    assert report["separations"] == separations
    assert report["undecided"] == undecided


@pytest.fixture(scope="module")
def s5_report():
    return classify_s5()


def test_classify_s5_matches_search_at_n9():
    report = classify_s5(n_max=9)
    # one pair needs n_max >= 12 to separate
    assert len(report["undecided"]) == 1
    assert_matches_search(report, search_classify_s5(n_max=9))


def test_classify_s5_matches_search_at_defaults(s5_report):
    assert_matches_search(s5_report, search_classify_s5())


def test_classify_s5_runs_no_bijection_search(monkeypatch):
    calls = []
    real = equivalence._first_bijection

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(equivalence, "_first_bijection", counting)
    assert classify_s5(n_max=9)["orbit_count"] == 32
    assert calls == []
    # the wrapper is live: a direct search goes through it
    any_theorem13_bijection([(1, 2, 3)], [(3, 2, 1)])
    assert len(calls) == 1


def test_classify_s5_validates_each_permutation_a_few_times(monkeypatch):
    calls = []
    real = perms.check_permutation

    def counting(p):
        calls.append(p)
        return real(p)

    for module in (perms, graph, clusters, equivalence):
        assert module.check_permutation is real
        monkeypatch.setattr(module, "check_permutation", counting)
    graph._borders.cache_clear()
    report = classify_s5(n_max=9)
    assert report["orbit_count"] == 32
    # at most once for each of the 120 patterns of S_5 in its orbit, its
    # collection, its border table and its monotonicity test; re-validating
    # generated patterns makes about 1,950 calls
    assert 0 < len(calls) <= 4 * 120


def test_s5_orbits(s5_report):
    assert s5_report["orbit_count"] == 32
    two = [o["representative"] for o in s5_report["orbits"] if o["size"] == 2]
    assert two == ["1 2 3 4 5", "1 4 3 2 5", "2 1 3 5 4", "2 5 3 1 4"]
    assert sum(1 for o in s5_report["orbits"] if o["size"] == 4) == 28


def test_s5_buckets_follow_true_overlap_profiles(s5_report):
    # 13254 has a length-3 self-overlap and 21354 a length-2 self-overlap,
    # so the no-overlap bucket has 12 orbits, not 14.
    sizes = {k: len(v) for k, v in s5_report["buckets"].items()}
    assert sizes == {"none": 12, "2": 16, "3": 3, "2,3,4": 1}
    assert "1 3 2 5 4" in s5_report["buckets"]["3"]
    assert "2 1 3 5 4" in s5_report["buckets"]["2"]


def test_s5_no_overlap_classes(s5_report):
    classes = {frozenset(grp) for grp in s5_report["classes"]["none"]}
    assert frozenset(
        ["1 3 4 5 2", "1 3 5 4 2", "1 4 3 5 2", "1 4 5 3 2", "1 5 3 4 2", "1 5 4 3 2"]
    ) in classes
    assert frozenset(["1 2 4 5 3", "1 2 5 4 3"]) in classes
    assert frozenset(["2 4 1 5 3", "2 5 1 4 3"]) in classes
    # singletons: their would-be partners have genuine self-overlaps
    assert frozenset(["1 2 3 5 4"]) in classes
    assert frozenset(["2 1 5 3 4"]) in classes


def test_s5_everything_decided(s5_report):
    assert s5_report["undecided"] == []
    assert all(len(grp) == 1 for grp in s5_report["classes"]["2"])
    assert all(len(grp) == 1 for grp in s5_report["classes"]["3"])


def test_s5_separations_include_three_overlap_pair(s5_report):
    pair = [
        s
        for s in s5_report["separations"]
        if {s["a"], s["b"]} == {"1 4 2 5 3", "1 5 2 4 3"}
    ]
    assert pair and pair[0]["q"] == 2
