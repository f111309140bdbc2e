"""Closed-form oracles at depth: the chain 12...m and non-overlapping patterns.

omega = 1 - Pi_cl(x, t - 1) = 1/Pi(x, t) solves a linear ODE in x for two
families: the chain 12...m (Elizalde & Noy, "Consecutive patterns in
permutations", Adv. in Appl. Math. 30, 2003) and the non-overlapping patterns
(Bona, "Non-overlapping permutation patterns", PU.M.A. 22, 2011).
``omega_rows`` solves them as recurrences on w_n = n! [x^n] omega, a
polynomial in t, and reads neither the overlap graph nor a cluster table.
The pipeline's rows are compared with it far past the depth the enumeration
oracles reach: on the collapsed monotone recurrence (the families
themselves) and on the refined engine (their reverse and complement images,
which have the same clusters).  The avoidance series times omega is 1 at
order 60, through the packed pass.  Each recurrence (one per chain
length, one per length and last entry of the non-overlapping patterns) is
checked in turn against the occurrence DP for n <= 10.
"""

from itertools import zip_longest
from math import comb

import pytest

from clusterperm import kernels
from clusterperm.clusters import cluster_counts
from clusterperm.graph import PatternCollection
from clusterperm.perms import all_permutations, standardize, symmetry_orbit
from clusterperm.series import BiSeries, avoidance_gf, cluster_gf


def omega_rows(m, b, order):
    """[w_0, ..., w_order], each a list of coefficients in t, trimmed.

    b is None for the chain 12...m: w_{n+m-1} = (t - 1)(w_n + ... + w_{n+m-2}).
    Otherwise the pattern is non-overlapping of length m, starts with 1 and
    ends with b: w_{n+b} = (t - 1) C(n, m - b) w_{n-m+b+1}.  Both start from
    w_0 = 1, w_1 = -1 and zeros up to the first term the recurrence gives.
    """
    lag = m - 1 if b is None else b
    w = [[1], [-1]] + [[] for _ in range(2, lag)]
    for n in range(order + 1 - lag):
        if b is None:
            s = [sum(c) for c in zip_longest(*w[n : n + m - 1], fillvalue=0)]
        else:
            s = [comb(n, m - b) * c for c in w[n - m + b + 1]] if n >= m - b else []
        row = [x - y for x, y in zip_longest([0, *s], s, fillvalue=0)]  # (t - 1) s
        while row and not row[-1]:
            row.pop()
        w.append(row)
    return w[: order + 1]


def pipeline_rows(pattern, order):
    """The rows of 1 - Pi_cl(x, t - 1) as the package computes them."""
    table = cluster_counts(PatternCollection((pattern,)), order, order)
    return (BiSeries.one(order) - cluster_gf(table, order)).shift_t(-1).rows


def non_overlapping(m):
    """The patterns of length m that start with 1 and overlap themselves
    only in one entry."""
    return [
        p for p in all_permutations(m)
        if p[0] == 1
        and all(standardize(p[m - k :]) != standardize(p[:k]) for k in range(2, m))
    ]


CHAINS = [tuple(range(1, m + 1)) for m in range(3, 8)]
NON_OVERLAPPING = [p for m in range(3, 7) for p in non_overlapping(m)]
# (pattern, b) with b None for a chain
FAMILY = [(p, None) for p in CHAINS] + [(p, p[-1]) for p in NON_OVERLAPPING]


def test_the_non_overlapping_family_has_63_members():
    assert [len(non_overlapping(m)) for m in range(3, 7)] == [1, 3, 9, 50]


def test_recurrences_match_the_occurrence_dp():
    # one pattern for each (m, b): the recurrence reads nothing else.
    # alpha_{n,q} = n! [x^n t^q] 1/omega, inverted here cell by cell
    top = 10
    for (m, b), pattern in {(len(p), b): p for p, b in FAMILY}.items():
        w = omega_rows(m, b, top)
        r = [[1]]
        for n in range(1, top + 1):
            acc = []
            for k in range(1, n + 1):
                for i, x in enumerate(w[k]):
                    for j, y in enumerate(r[n - k], i):
                        acc.extend([0] * (j + 1 - len(acc)))
                        acc[j] -= comb(n, k) * x * y
            r.append(acc)
            dp = kernels.count_distribution(n, [pattern])
            assert {q: a for q, a in enumerate(acc) if a} == dp, (pattern, n)


@pytest.mark.parametrize("pattern", CHAINS, ids=lambda p: "".join(map(str, p)))
def test_chains_through_order_100(pattern):
    order = 140 if len(pattern) == 5 else 100
    assert pipeline_rows(pattern, order) == omega_rows(len(pattern), None, order)


def test_non_overlapping_patterns_through_order_60():
    for p in NON_OVERLAPPING:
        assert pipeline_rows(p, 60) == omega_rows(len(p), p[-1], 60), p


def test_images_through_order_40_on_the_refined_engine():
    for p, b in FAMILY:
        ref = omega_rows(len(p), b, 40)
        for image in sorted(symmetry_orbit(p) - {p}):
            assert image[0] != 1  # so its 1-overlaps are not monotone
            assert pipeline_rows(image, 40) == ref, (p, image)


@pytest.mark.parametrize(
    "pattern, b", [((1, 2, 3, 4, 5), None), ((1, 3, 2), 2)], ids=["12345", "132"]
)
def test_avoidance_gf_times_the_closed_form_is_one(pattern, b):
    # Pi omega = 1 at order 60, where the packed pass reads 12345's dense
    # cluster rows and 132's sparse ones
    pi = avoidance_gf(PatternCollection((pattern,)), 60)
    omega = BiSeries._of_rows(60, omega_rows(len(pattern), b, 60))
    assert (pi * omega).rows == BiSeries.one(60).rows
