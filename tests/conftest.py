"""Shared fixtures: reference collections and the expensive cluster tables."""

import random

import pytest

from clusterperm.clusters import cluster_counts
from clusterperm.graph import NotReducedError, PatternCollection
from clusterperm.perms import DomainError, all_permutations

# The four reference monotone collections exercised throughout the suite
# (two two-pattern collections, one length-9 singleton, and two more
# two-pattern collections with overlap graphs on two vertices).
MONO_A = PatternCollection(((1, 3, 4, 2, 7, 6, 5), (1, 2, 5, 3, 6, 4)))
MONO_B = PatternCollection(((1, 3, 2, 6, 7, 9, 4, 8, 5),))
MONO_C = PatternCollection(((1, 5, 7, 6, 2, 4, 3), (1, 3, 2, 5, 4)))
MONO_D = PatternCollection(((1, 2, 3, 5, 4), (1, 3, 2, 4, 6, 5)))
MONO_ALL = (MONO_A, MONO_B, MONO_C, MONO_D)


def all_singletons(max_len: int = 5):
    """Every single-pattern collection with pattern length <= max_len."""
    out = []
    for l in range(1, max_len + 1):
        for p in all_permutations(l):
            out.append(PatternCollection((p,)))
    return out


def random_two_pattern_collections(count: int, seed: int, max_len: int = 4):
    """Seeded reduced two-pattern collections with lengths <= max_len."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        lengths = [rng.randint(2, max_len) for _ in range(2)]
        pats = tuple(
            tuple(rng.sample(range(1, l + 1), l)) for l in lengths
        )
        if pats[0] == pats[1]:
            continue
        try:
            out.append(PatternCollection(pats))
        except (NotReducedError, DomainError):
            continue
    return out


def nudged(p, rng):
    """p, or p with two adjacent values swapped where both sit inside it."""
    inside = [
        v for v in range(1, len(p))
        if 0 < p.index(v) < len(p) - 1 and 0 < p.index(v + 1) < len(p) - 1
    ]
    if not inside or rng.random() < 0.3:
        return p
    v = rng.choice(inside)
    return tuple(v + 1 if x == v else v if x == v + 1 else x for x in p)


def reference_collections():
    """The full corpus used by the oracle-vs-recurrence criteria."""
    return all_singletons(5) + random_two_pattern_collections(20, seed=20230815)


@pytest.fixture(scope="session")
def reference_tables():
    """Cluster tables through n=12, q=12 for the reference corpus."""
    return [(coll, cluster_counts(coll, 12, 12)) for coll in reference_collections()]
