"""Counting kernels: the occurrence DP and the linear-extension DP against
brute force."""

import itertools
import random
from math import factorial

import pytest

from conftest import MONO_C
from clusterperm import kernels
from clusterperm.graph import PatternCollection
from clusterperm.perms import parse_perm
from clusterperm.series import alpha_counts, avoidance_gf


def brute_distribution(n, patterns):
    out = {}
    for sigma in itertools.permutations(range(1, n + 1)):
        q = 0
        for pat in patterns:
            l = len(pat)
            for i in range(n - l + 1):
                win = sigma[i : i + l]
                rank = sorted(win)
                if tuple(rank.index(v) + 1 for v in win) == tuple(pat):
                    q += 1
        out[q] = out.get(q, 0) + 1
    return out


def brute_linear_extensions(n, less):
    count = 0
    for order in itertools.permutations(range(n)):
        pos = {v: i for i, v in enumerate(order)}
        if all(
            pos[j] < pos[i]
            for i in range(n)
            for j in range(n)
            if less[i] >> j & 1
        ):
            count += 1
    return count


def test_backend_constant():
    assert kernels.BACKEND == "pure"


def random_collection(rng):
    return [
        tuple(rng.sample(range(1, l + 1), l))
        for l in (rng.randint(1, 6) for _ in range(rng.randint(1, 3)))
    ]


def test_pure_distribution_matches_bruteforce():
    # mixed lengths 1-6 at every n <= 7, so some patterns are longer than n;
    # a pattern listed twice counts twice
    rng = random.Random(23)
    collections = [random_collection(rng) for _ in range(12)]
    collections += [
        [(1, 3, 2), (2, 1)],
        [(1, 2), (1, 2)],
        [(2, 1, 3), (1, 3, 2, 4, 5, 6), (1,)],
        [(1, 2, 3, 4), (3, 2, 1), (1, 2)],
        [(1, 3, 2, 4), (1, 4, 2, 5, 3)],
    ]
    for pats in collections:
        for n in range(8):
            assert kernels.count_distribution(n, pats) == brute_distribution(
                n, pats
            ), (pats, n)


def test_distribution_edge_cases():
    assert kernels.count_distribution(0, [(1, 2)]) == {0: 1}
    assert kernels.count_distribution(0, [(1,)]) == {0: 1}
    for n in range(1, 8):
        assert kernels.count_distribution(n, [(1,)]) == {n: factorial(n)}
        # no window is long enough
        assert kernels.count_distribution(n, [(1, 3, 2, 4, 5, 6, 7, 8)]) == {
            0: factorial(n)
        }


@pytest.mark.parametrize(
    "coll",
    [
        PatternCollection((parse_perm("1324"),)),
        PatternCollection((parse_perm("13254"), parse_perm("2413"))),
        MONO_C,
    ],
    ids=["1324", "13254_2413", "MONO_C"],
)
def test_distribution_matches_gf_at_n_12(coll):
    # beyond the reach of an S_n scan: the DP against the cluster method
    dist = kernels.count_distribution(12, coll.patterns)
    alpha = alpha_counts(avoidance_gf(coll, 12))
    row = {q: a for (n, q), a in alpha.items() if n == 12}
    assert dist == row
    assert sum(dist.values()) == factorial(12)


def test_pure_linear_extensions():
    # chain 0 < 1 < 2: one extension; antichain: n!
    chain = [0b000, 0b001, 0b011]
    assert kernels.count_linear_extensions(3, chain) == 1
    assert kernels.count_linear_extensions(3, [0, 0, 0]) == 6
    # V-poset 0 < 1, 0 < 2
    assert kernels.count_linear_extensions(3, [0, 0b001, 0b001]) == 2


def test_pure_linear_extensions_matches_bruteforce():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 6)
        less = [0] * n
        for i in range(n):
            for j in range(i):
                if rng.random() < 0.3:
                    less[i] |= 1 << j
        assert kernels.count_linear_extensions(n, less) == brute_linear_extensions(
            n, less
        )


def test_linear_extensions_of_any_constraints_match_bruteforce():
    # constraints in both directions, so some are cyclic and have none
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(0, 7)
        less = [0] * n
        for i in range(n):
            for j in range(n):
                if i != j and rng.random() < 0.15:
                    less[i] |= 1 << j
        assert kernels.count_linear_extensions(n, less) == brute_linear_extensions(
            n, less
        )


def test_adjacent_pair_and_long_chain():
    assert kernels.count_distribution(3, [(1, 2)]) == {0: 1, 1: 4, 2: 1}
    big_chain = [(1 << i) - 1 for i in range(22)]
    assert kernels.count_linear_extensions(22, big_chain) == 1
