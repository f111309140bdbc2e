"""Acceptance gate: one test (and one pass/fail line) per criterion.

Criteria 5, 6 and 7 carry worked examples from the source material, some of
which are false.  Each false sub-claim is asserted as its negation, backed
inside the test by an independent check (standardization computed directly,
the occurrence DP over S_n, or the brute-force cluster oracle), so the gate
fails if the program ever agrees with the false claim.  The README section
"Acceptance criteria 5-7" gives the counterexamples and the re-derived ODE.
"""

from fractions import Fraction
from itertools import combinations, permutations
from math import factorial

import pytest

from conftest import MONO_A, MONO_B, MONO_C, MONO_D, MONO_ALL
from clusterperm import kernels
from clusterperm.clusters import (
    cluster_counts,
    cluster_counts_single_pattern,
    count_clusters_oracle,
)
from clusterperm.equivalence import (
    any_monotone_corollary_bijection,
    any_theorem13_bijection,
    classify_s5,
    verify_strong_equivalence,
)
from clusterperm.graph import NotReducedError, PatternCollection, build_graph
from clusterperm.monotone import (
    OdePolyTerm,
    emit_ode_system,
    is_monotone,
    monotone_vertex_series,
    verify_ode,
    verify_poly_ode,
)
from clusterperm.perms import occurrences, parse_perm, standardize
from clusterperm.series import (
    BiSeries,
    alpha_counts,
    avoidance_gf,
    cluster_gf,
    count_distribution_oracle,
)


def report(num: int, ok: bool, detail: str = ""):
    tail = f" ({detail})" if detail else ""
    print(f"criterion {num}: {'pass' if ok else 'FAIL'}{tail}")


# --------------------------------------------------------------------------
# criterion 1: standardization ground truth
# --------------------------------------------------------------------------


def test_criterion_1():
    ok = standardize((5, 7, 3)) == (2, 3, 1)
    report(1, ok)
    assert ok


# --------------------------------------------------------------------------
# criterion 2: oracle == recurrence on the reference corpus
# --------------------------------------------------------------------------


def test_criterion_2(reference_tables):
    checked = 0
    for coll, table in reference_tables:
        for q in range(1, 6):
            for n in range(1, 11):
                fast = table.total(n, q)
                slow = count_clusters_oracle(coll, n, q)
                assert fast == slow, (coll.patterns, n, q, fast, slow)
                checked += 1
    report(2, True, f"{len(reference_tables)} collections, {checked} cells")


# --------------------------------------------------------------------------
# criterion 3: cluster-method identity through x^12
# --------------------------------------------------------------------------


def test_criterion_3(reference_tables):
    one = BiSeries.one(12)
    for coll, table in reference_tables:
        pcl = cluster_gf(table, 12).shift_t(-1)
        gf = avoidance_gf(coll, 12, table=table)
        assert (gf * (one - pcl)).eq_through(one), coll.patterns
        for n, value in gf.subs_t(1).items():
            assert value == 1, (coll.patterns, n)
    report(3, True, f"{len(reference_tables)} collections through x^12")


# --------------------------------------------------------------------------
# criterion 4: occurrence distributions against the occurrence DP over S_n
# --------------------------------------------------------------------------


def test_criterion_4():
    collections = [
        PatternCollection(((1, 2, 3),)),
        PatternCollection(((1, 3, 2),)),
        *MONO_ALL,
    ]
    for coll in collections:
        counts = alpha_counts(avoidance_gf(coll, 9))
        for n in range(1, 10):
            dist = count_distribution_oracle(coll, n)
            assert dist == {q: c for (m, q), c in counts.items() if m == n}, (
                coll.patterns,
                n,
            )
    report(4, True, "6 collections, n <= 9")


# --------------------------------------------------------------------------
# criterion 5: equivalence families
# --------------------------------------------------------------------------

SIX_LENGTH_7 = [
    parse_perm(s)
    for s in ("1734526", "1735426", "1743526", "1745326", "1753426", "1754326")
]
WILF_PAIR = (parse_perm("143265987"), parse_perm("134265897"))
FOUR_COLLECTIONS = [
    (parse_perm("145623"), parse_perm("13452")),
    (parse_perm("145623"), parse_perm("13542")),
    (parse_perm("146523"), parse_perm("13452")),
    (parse_perm("146523"), parse_perm("13542")),
]
NINE_FAMILY = [
    parse_perm(s)
    for s in ("143265987", "134265897", "143256987", "134256897")
]
# Collections 1 and 4 of FOUR_COLLECTIONS are not reduced: index -> (divisor,
# multiple, offset of the window of the multiple that standardizes to it).
NOT_REDUCED = {
    0: (parse_perm("13452"), parse_perm("145623"), 0),  # window 14562
    3: (parse_perm("13542"), parse_perm("146523"), 0),  # window 14652
}
# alpha_{n,q} from the occurrence DP: non-reduced collections vs reduced ones.
SCAN_CLASSES = {
    6: ({0: 708, 1: 11, 2: 1}, {0: 707, 1: 13}),
    7: ({0: 4914, 1: 112, 2: 14}, {0: 4900, 1: 140}),
}
# The pairs of NINE_FAMILY for which the full Theorem-1.3 condition holds;
# for the other four only the maxima of the final overlap sets agree.
FULL_CONDITION_PAIRS = {
    frozenset(map(parse_perm, pair))
    for pair in (("143265987", "134265897"), ("143256987", "134256897"))
}


def _self_overlaps(p):
    """Proper self-overlap lengths of p, by direct standardization."""
    l = len(p)
    return [k for k in range(1, l) if standardize(p[l - k :]) == standardize(p[:k])]


def test_criterion_5():
    failures = []

    # (a) six length-7 singletons, all 15 pairs
    for a, b in combinations(SIX_LENGTH_7, 2):
        if any_theorem13_bijection([a], [b]) is None:
            failures.append(f"(a) condition fails for {a} vs {b}")
        if not verify_strong_equivalence(
            PatternCollection((a,)), PatternCollection((b,)), 15
        ):
            failures.append(f"(a) GFs differ for {a} vs {b}")

    # (b) the length-9 pair
    a, b = WILF_PAIR
    if any_theorem13_bijection([a], [b]) is None:
        failures.append("(b) condition fails")
    if not verify_strong_equivalence(
        PatternCollection((a,)), PatternCollection((b,)), 15
    ):
        failures.append("(b) GFs differ")

    # (c) four two-pattern collections.  The condition holds for all 6 pairs,
    # but it implies equivalence only for reduced collections, and collections
    # 1 and 4 are not reduced: the occurrence DP splits the four into two
    # classes.
    for pats1, pats2 in combinations(FOUR_COLLECTIONS, 2):
        if any_theorem13_bijection(pats1, pats2) is None:
            failures.append(f"(c) condition fails for {pats1} vs {pats2}")
    reduced = {}
    for i, pats in enumerate(FOUR_COLLECTIONS):
        short, long_ = sorted(pats, key=len)
        windows = [
            j
            for j in range(len(long_) - len(short) + 1)
            if standardize(long_[j : j + len(short)]) == short
        ]
        try:
            reduced[i] = PatternCollection(pats)
            raised = None
        except NotReducedError as err:
            raised = (err.divisor, err.multiple)
        if i in NOT_REDUCED:
            divisor, multiple, offset = NOT_REDUCED[i]
            if raised != (divisor, multiple) or windows != [offset]:
                failures.append(
                    f"(c) collection {i + 1} {pats}: expected NotReducedError "
                    f"naming {divisor} | {multiple} at window {offset}, got "
                    f"{raised}, windows {windows}"
                )
        elif raised is not None or windows:
            failures.append(
                f"(c) collection {i + 1} {pats} should be reduced: "
                f"raised {raised}, windows {windows}"
            )
    if sorted(reduced) == [1, 2] and not verify_strong_equivalence(
        reduced[1], reduced[2], 15
    ):
        failures.append("(c) GFs differ for the reduced collections 2 and 3")
    for n, (not_reduced_dist, reduced_dist) in SCAN_CLASSES.items():
        for i, pats in enumerate(FOUR_COLLECTIONS):
            want = not_reduced_dist if i in NOT_REDUCED else reduced_dist
            got = kernels.count_distribution(n, pats)
            if got != want:
                failures.append(
                    f"(c) alpha_{{{n},q}} of collection {i + 1} {pats}: "
                    f"{got} != {want}"
                )

    # (d) four length-9 singletons, all 6 pairs: the monotone corollary holds
    # for every pair, the full condition only for FULL_CONDITION_PAIRS.
    for a, b in combinations(NINE_FAMILY, 2):
        if any_monotone_corollary_bijection([a], [b]) is None:
            failures.append(f"(d) monotone corollary fails for {a} vs {b}")
        full = frozenset((a, b)) in FULL_CONDITION_PAIRS
        if (any_theorem13_bijection([a], [b]) is not None) != full:
            failures.append(
                f"(d) full condition for {a} vs {b} should "
                f"{'hold' if full else 'fail'}"
            )
        # direct check: the only bijection maps a to b
        l, ks = len(a), _self_overlaps(a)
        same_sets = all(
            set(a[l - k :]) == set(b[l - k :]) and set(a[:k]) == set(b[:k])
            for k in ks
        )
        same_maxima = all(max(a[l - k :]) == max(b[l - k :]) for k in ks)
        if _self_overlaps(b) != ks or same_sets != full or not same_maxima:
            failures.append(
                f"(d) direct overlap check for {a} vs {b}: overlaps {ks} vs "
                f"{_self_overlaps(b)}, equal sets {same_sets}, equal maxima "
                f"{same_maxima}"
            )
        if not verify_strong_equivalence(
            PatternCollection((a,)), PatternCollection((b,)), 15
        ):
            failures.append(f"(d) GFs differ for {a} vs {b}")

    report(5, not failures, f"{len(failures)} sub-claims failed" if failures else "")
    if failures:
        pytest.fail("criterion 5 sub-claims failed:\n" + "\n".join(failures))


# --------------------------------------------------------------------------
# criterion 6: classification of S_5
# --------------------------------------------------------------------------

ONLY_TWO_OVERLAP_15 = (
    "12435 12534 13425 13524 14325 14523 15324 15423 15234 "
    "21453 21543 23514 24513 25314 25413"
).split()
# 21354 has the length-2 self-overlap 54 ~ 21 and no longer one, so it is the
# sixteenth orbit with only a 2-overlap.
ONLY_TWO_OVERLAP = ONLY_TWO_OVERLAP_15 + ["21354"]
# 13254 has the length-3 self-overlap 254 ~ 132 and no other of length >= 2.
ONLY_THREE_OVERLAP = ["13254", "14253", "15243"]
BUCKET_SIZES = {"none": 12, "2": 16, "3": 3, "2,3,4": 1}
# (n, pattern, avoiders from the occurrence DP, cl_{n,2} from the cluster
# oracle) for the two pairs once transcribed as no-overlap classes.
SPLIT_PAIRS = [
    (7, "12354", 4914, 0),
    (7, "13254", 4915, 1),
    (8, "21534", 38976, 0),
    (8, "21354", 38977, 1),
]


def _spaced(p: str) -> str:
    return " ".join(p)


def _oracle_separated(patterns, q, failures):
    """Every pair of patterns differs in some cl_{n,q}, n <= 13, where
    ``cluster_counts_single_pattern`` and the cluster oracle agree on every
    cell."""
    totals = {}
    for p in patterns:
        coll = PatternCollection((parse_perm(p),))
        fast = cluster_counts_single_pattern(coll.patterns[0], 13, q).totals
        slow = [count_clusters_oracle(coll, n, q) for n in range(1, 14)]
        totals[p] = [fast.get((n, q), 0) for n in range(1, 14)]
        if totals[p] != slow:
            failures.append(f"{p}: cl_{{n,{q}}} engine {totals[p]} != oracle {slow}")
    for a, b in combinations(patterns, 2):
        if totals[a] == totals[b]:
            failures.append(f"{a} vs {b} not separated by any cl_{{n,{q}}}")


def test_criterion_6():
    failures = []
    rep = classify_s5()

    if rep["orbit_count"] != 32:
        failures.append(f"orbit count {rep['orbit_count']} != 32")
    two = sorted(o["representative"] for o in rep["orbits"] if o["size"] == 2)
    if two != ["1 2 3 4 5", "1 4 3 2 5", "2 1 3 5 4", "2 5 3 1 4"]:
        failures.append(f"size-2 orbit representatives {two}")
    if sum(1 for o in rep["orbits"] if o["size"] == 4) != 28:
        failures.append("expected 28 orbits of size 4")

    # buckets: self-overlap lengths >= 2, by direct standardization
    direct: dict[str, list[str]] = {}
    for o in rep["orbits"]:
        ks = [k for k in _self_overlaps(parse_perm(o["representative"])) if k >= 2]
        key = ",".join(map(str, ks)) if ks else "none"
        direct.setdefault(key, []).append(o["representative"])
    sizes = {k: len(v) for k, v in rep["buckets"].items()}
    if sizes != BUCKET_SIZES or rep["buckets"] != direct:
        failures.append(
            f"bucket sizes {sizes} != {BUCKET_SIZES}, or buckets differ from "
            f"direct standardization {direct}"
        )
    if rep["buckets"].get("3") != [_spaced(p) for p in ONLY_THREE_OVERLAP]:
        failures.append(f"bucket 3 {rep['buckets'].get('3')}: expected 13254 in it")
    if rep["buckets"].get("2") != sorted(_spaced(p) for p in ONLY_TWO_OVERLAP):
        failures.append(f"bucket 2 {rep['buckets'].get('2')}: expected 21354 in it")

    classes = {frozenset(grp) for grp in rep["classes"].get("none", [])}
    expected_classes = {
        frozenset(
            "1 3 4 5 2,1 3 5 4 2,1 4 3 5 2,1 4 5 3 2,1 5 3 4 2,1 5 4 3 2".split(",")
        ),
        frozenset(["1 2 4 5 3", "1 2 5 4 3"]),
        frozenset(["1 2 3 5 4"]),
        frozenset(["2 1 5 3 4"]),
        frozenset(["2 4 1 5 3", "2 5 1 4 3"]),
    }
    if classes != expected_classes:
        failures.append(
            f"no-overlap classes {sorted(map(sorted, classes))} != "
            f"{sorted(map(sorted, expected_classes))}"
        )
    # 12354 and 21534 are singletons: the patterns once paired with them
    # differ from them already in the number of avoiders
    for n, p, avoiders, cl2 in SPLIT_PAIRS:
        coll = PatternCollection((parse_perm(p),))
        got = (
            kernels.count_distribution(n, coll.patterns).get(0, 0),
            count_clusters_oracle(coll, n, 2),
        )
        if got != (avoiders, cl2):
            failures.append(
                f"{p} at n={n}: (avoiders, cl_{{n,2}}) {got} != {(avoiders, cl2)}"
            )

    # all 120 pairs of the 16 only-2-overlap orbits separated by some cl_{n,3}
    _oracle_separated(ONLY_TWO_OVERLAP, 3, failures)
    # the three only-3-overlap orbits separated already by 2-clusters
    _oracle_separated(ONLY_THREE_OVERLAP, 2, failures)

    report(6, not failures, f"{len(failures)} sub-claims failed" if failures else "")
    if failures:
        pytest.fail("criterion 6 sub-claims failed:\n" + "\n".join(failures))


# --------------------------------------------------------------------------
# criterion 7: ODE verification
# --------------------------------------------------------------------------

ONE = (1,)
# Hand-eliminated single equations for the two two-vertex reference systems,
# transcribed as given; each term is
# coeff * t^t_power * x^pre_degree * d^a/dx^a(x^b/b! d^c/dx^c y).
# Both are false: MONO_C has six edges, two more than the analysis behind C
# allowed for, and D carries spurious t^2 and t^3 terms.
ELIMINATED_C = [
    (6, 0, 3, 0, 0, 5),
    (-18, 0, 2, 0, 0, 4),
    (-6, 1, 3, 2, 4, 1),
    (18, 1, 2, 1, 4, 1),
    (-6, 1, 3, 1, 1, 1),
    (18, 1, 3, 0, 0, 1),
    (-1, 1, 7, 0, 0, 1),
]
ELIMINATED_D = [
    (1, 0, 0, 0, 0, 9),
    (-1, 1, 0, 5, 1, 1),
    (-1, 1, 0, 0, 0, 6),
    (-1, 1, 0, 4, 1, 1),
    (1, 2, 0, 3, 1, 1),
    (-1, 2, 0, 2, 1, 1),
    (1, 3, 0, 1, 1, 1),
    (-1, 2, 0, 1, 1, 1),
]
# First nonzero residual (n, q, value) of each transcribed equation.
REFUTED_AT = {"C": (7, 1, -1), "D": (0, 2, -1)}
# y^(9) = t(xy')^(5) + t(xy')^(4) + t y^(6), eliminated from system D.
CORRECT_D = [
    (1, 0, 0, 0, 0, 9),
    (-1, 1, 0, 5, 1, 1),
    (-1, 1, 0, 4, 1, 1),
    (-1, 1, 0, 0, 0, 6),
]
# The order-8 equation for u = y_(1) of system C, all six edges included.
# With w = y_(132)''' the second equation reads w'' = t w + t (xu')', and
# the first one minus it gives
#     u^(5) - t(x^4 u'/24)'' - t(xu')' = t[(1 + x^2/2) w + (x^3/6) w'].
# Differentiating once and substituting w'' gives a second linear relation in
# w and w'; Cramer's rule, with
#     Delta = 1 + 3x^2/2 + x^4/3 - t x^6/36,
# expresses w through u, and w'' - t w - t(xu')' = 0 with denominators
# cleared is the equation below: 115 monomials coeff * t^p * x^e * u^(c),
# leading coefficient -24 x^3 (t x^6 - 12 x^4 - 54 x^2 - 36)^2.
CORRECT_C = [
    # u^(8)
    (-31104, 0, 3, 0, 0, 8), (-93312, 0, 5, 0, 0, 8), (-90720, 0, 7, 0, 0, 8),
    (-31104, 0, 9, 0, 0, 8), (-3456, 0, 11, 0, 0, 8), (1728, 1, 9, 0, 0, 8),
    (2592, 1, 11, 0, 0, 8), (576, 1, 13, 0, 0, 8), (-24, 2, 15, 0, 0, 8),
    # u^(7)
    (186624, 0, 0, 0, 0, 7), (559872, 0, 2, 0, 0, 7), (730944, 0, 4, 0, 0, 7),
    (549504, 0, 6, 0, 0, 7), (207360, 0, 8, 0, 0, 7), (27648, 0, 10, 0, 0, 7),
    (-10368, 1, 6, 0, 0, 7), (-25920, 1, 8, 0, 0, 7), (-24192, 1, 10, 0, 0, 7),
    (-5760, 1, 12, 0, 0, 7), (144, 2, 12, 0, 0, 7), (288, 2, 14, 0, 0, 7),
    # u^(6)
    (-559872, 0, 1, 0, 0, 6), (-964224, 0, 3, 0, 0, 6),
    (-870912, 0, 5, 0, 0, 6), (-445824, 0, 7, 0, 0, 6),
    (-89856, 0, 9, 0, 0, 6), (31104, 1, 3, 0, 0, 6), (155520, 1, 5, 0, 0, 6),
    (190512, 1, 7, 0, 0, 6), (105840, 1, 9, 0, 0, 6), (29700, 1, 11, 0, 0, 6),
    (1296, 1, 13, 0, 0, 6), (144, 1, 15, 0, 0, 6), (-1728, 2, 9, 0, 0, 6),
    (-4320, 2, 11, 0, 0, 6), (-2088, 2, 13, 0, 0, 6), (-108, 2, 15, 0, 0, 6),
    (-24, 2, 17, 0, 0, 6), (24, 3, 15, 0, 0, 6), (1, 3, 19, 0, 0, 6),
    # u^(5)
    (-186624, 0, 0, 0, 0, 5), (93312, 0, 2, 0, 0, 5), (186624, 0, 4, 0, 0, 5),
    (228096, 0, 6, 0, 0, 5), (124416, 0, 8, 0, 0, 5), (-186624, 1, 0, 0, 0, 5),
    (-746496, 1, 2, 0, 0, 5), (-925344, 1, 4, 0, 0, 5),
    (-500256, 1, 6, 0, 0, 5), (-69336, 1, 8, 0, 0, 5), (31968, 1, 10, 0, 0, 5),
    (20736, 1, 12, 0, 0, 5), (1728, 1, 14, 0, 0, 5), (10368, 2, 6, 0, 0, 5),
    (25920, 2, 8, 0, 0, 5), (23760, 2, 10, 0, 0, 5), (3384, 2, 12, 0, 0, 5),
    (-1728, 2, 14, 0, 0, 5), (-240, 2, 16, 0, 0, 5), (-144, 3, 12, 0, 0, 5),
    (-144, 3, 14, 0, 0, 5), (18, 3, 16, 0, 0, 5), (8, 3, 18, 0, 0, 5),
    # u^(4)
    (-186624, 1, 1, 0, 0, 4), (-559872, 1, 3, 0, 0, 4),
    (-552096, 1, 5, 0, 0, 4), (-167184, 1, 7, 0, 0, 4), (40608, 1, 9, 0, 0, 4),
    (22032, 1, 11, 0, 0, 4), (2592, 1, 13, 0, 0, 4), (14256, 2, 7, 0, 0, 4),
    (34992, 2, 9, 0, 0, 4), (29700, 2, 11, 0, 0, 4), (7560, 2, 13, 0, 0, 4),
    (456, 2, 15, 0, 0, 4), (-360, 3, 13, 0, 0, 4), (-540, 3, 15, 0, 0, 4),
    (-84, 3, 17, 0, 0, 4), (3, 4, 19, 0, 0, 4),
    # u^(3)
    (-559872, 1, 0, 0, 0, 3), (-1679616, 1, 2, 0, 0, 3),
    (-2309472, 1, 4, 0, 0, 3), (-1559088, 1, 6, 0, 0, 3),
    (-489888, 1, 8, 0, 0, 3), (-90720, 1, 10, 0, 0, 3),
    (-8640, 1, 12, 0, 0, 3), (-23328, 2, 4, 0, 0, 3), (-31104, 2, 6, 0, 0, 3),
    (83592, 2, 8, 0, 0, 3), (127656, 2, 10, 0, 0, 3), (42336, 2, 12, 0, 0, 3),
    (4752, 2, 14, 0, 0, 3), (1296, 3, 10, 0, 0, 3), (1080, 3, 12, 0, 0, 3),
    (-1188, 3, 14, 0, 0, 3), (-360, 3, 16, 0, 0, 3), (-18, 4, 16, 0, 0, 3),
    (6, 4, 18, 0, 0, 3),
    # u^(2)
    (559872, 1, 1, 0, 0, 2), (653184, 1, 3, 0, 0, 2), (513216, 1, 5, 0, 0, 2),
    (163296, 1, 7, 0, 0, 2), (-25920, 1, 9, 0, 0, 2), (-93312, 2, 3, 0, 0, 2),
    (-326592, 2, 5, 0, 0, 2), (-272160, 2, 7, 0, 0, 2),
    (-86832, 2, 9, 0, 0, 2), (-15552, 2, 11, 0, 0, 2), (-2592, 2, 13, 0, 0, 2),
    (5184, 3, 9, 0, 0, 2), (10368, 3, 11, 0, 0, 2), (6480, 3, 13, 0, 0, 2),
    (936, 3, 15, 0, 0, 2), (-72, 4, 15, 0, 0, 2), (-36, 4, 17, 0, 0, 2),
]


def _poly_terms(data):
    return [
        OdePolyTerm(Fraction(c), tp, pd, a, b, cc, ONE)
        for c, tp, pd, a, b, cc in data
    ]


def _oracle_series(coll, order):
    """y_(1) through x^order from the brute-force cluster oracle; the x term
    is the one-entry cluster of the distinguished vertex."""
    coeffs = {(1, 0): Fraction(1)}
    for n in range(2, order + 1):
        for q in range(1, n):
            c = count_clusters_oracle(coll, n, q)
            if c:
                coeffs[(n, q)] = Fraction(c, factorial(n))
    return BiSeries(order, coeffs)


def test_criterion_7():
    failures = []

    for name, coll in zip("ABCD", MONO_ALL):
        system = emit_ode_system(coll)
        top = 20 + max(eq.order for eq in system.equations)
        ys = monotone_vertex_series(coll, top)
        rep = verify_ode(system, ys, top)
        if not rep.ok:
            failures.append(f"emitted system {name}: {rep}")
        else:
            assert all(c.checked_order >= 20 for c in rep.equations)

    # the two edges the transcribed C dropped: 13254 enters vertex 132
    # through its own length-3 overlap 254 ~ 132
    edges = build_graph(MONO_C).edges
    from_self_overlap = [
        e for e in edges if e.pattern == (1, 3, 2, 5, 4) and len(e.target) == 3
    ]
    if len(edges) != 6 or len(from_self_overlap) != 2 or 3 not in _self_overlaps(
        (1, 3, 2, 5, 4)
    ):
        failures.append(
            f"MONO_C: {len(edges)} edges, {len(from_self_overlap)} from the "
            "3-overlap of 13254; expected 6 and 2"
        )

    for name, coll, order, correct, eliminated in (
        ("C", MONO_C, 36, CORRECT_C, ELIMINATED_C),
        ("D", MONO_D, 29, CORRECT_D, ELIMINATED_D),
    ):
        y = monotone_vertex_series(coll, order)[ONE]
        ok, residual, top = verify_poly_ode(_poly_terms(correct), {ONE: y}, order)
        if not ok or top < 20:
            failures.append(
                f"re-derived equation {name}: residual {residual}, checked "
                f"through x^{top}"
            )
        y_oracle = _oracle_series(coll, 9)
        if not y_oracle.eq_through(y, 9):
            failures.append(f"{name}: oracle series differs from the recurrence")
        for label, series in (("recurrence", y), ("oracle", y_oracle)):
            ok, residual, top = verify_poly_ode(
                _poly_terms(eliminated), {ONE: series}, order
            )
            if ok or residual != REFUTED_AT[name]:
                failures.append(
                    f"transcribed equation {name} on the {label} series: first "
                    f"nonzero residual {residual} (checked through x^{top}), "
                    f"expected {REFUTED_AT[name]}"
                )

    report(7, not failures, f"{len(failures)} sub-claims failed" if failures else "")
    if failures:
        pytest.fail("criterion 7 sub-claims failed:\n" + "\n".join(failures))


# --------------------------------------------------------------------------
# criterion 8: monotonicity checks
# --------------------------------------------------------------------------


def test_criterion_8():
    ok = all(bool(is_monotone(coll)) for coll in MONO_ALL)
    res = is_monotone(PatternCollection(((2, 1, 3),)))
    ok = ok and not res
    pi, pip, k = res.witness
    ok = ok and k == 1 and max(pip[:k]) == 2
    report(8, ok)
    assert ok, res


# --------------------------------------------------------------------------
# criterion 9: symmetry of cluster counts
# --------------------------------------------------------------------------


def test_criterion_9(reference_tables):
    for coll, table in reference_tables:
        base = {
            (n, q): c for (n, q), c in dict(table.totals).items() if n <= 10 and q <= 5
        }
        for image in (coll.reversed(), coll.complemented()):
            other = dict(cluster_counts(image, 10, 5).totals)
            assert {
                (n, q): c for (n, q), c in other.items() if n <= 10 and q <= 5
            } == base, (coll.patterns, image.patterns)
    report(9, True, f"{len(reference_tables)} collections, n <= 10")
