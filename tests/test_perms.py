"""Word and permutation primitives."""

import pytest
from hypothesis import given, strategies as st

from clusterperm.graph import PatternCollection
from clusterperm.perms import (
    DomainError,
    InvalidPermutationError,
    InvalidWordError,
    all_permutations,
    check_permutation,
    check_word,
    divides,
    format_perm,
    occurrences,
    parse_collection_text,
    parse_perm,
    standardize,
    symmetry_orbit,
)

perm_lists = st.integers(1, 8).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
)
word_lists = st.lists(
    st.integers(1, 50), min_size=1, max_size=8, unique=True
)


def test_standardize_examples():
    assert standardize((5, 7, 3)) == (2, 3, 1)
    assert standardize((1,)) == (1,)
    assert standardize((10, 2, 7)) == (3, 1, 2)


@given(word_lists)
def test_standardize_is_a_permutation_and_idempotent(w):
    s = standardize(w)
    assert sorted(s) == list(range(1, len(w) + 1))
    assert standardize(s) == s


@given(word_lists)
def test_standardize_preserves_relative_order(w):
    s = standardize(w)
    for i in range(len(w)):
        for j in range(len(w)):
            assert (w[i] < w[j]) == (s[i] < s[j])


def test_check_word_rejects_bad_input():
    with pytest.raises(InvalidWordError):
        check_word(())
    with pytest.raises(InvalidWordError):
        check_word((1, 1))
    with pytest.raises(InvalidWordError):
        check_word((0, 2))


def test_check_permutation_rejects_gaps():
    with pytest.raises(InvalidPermutationError):
        check_permutation((1, 3))
    assert check_permutation([2, 1]) == (2, 1)


def test_input_checks():
    with pytest.raises(InvalidPermutationError, match="empty permutation"):
        check_permutation(())
    with pytest.raises(InvalidPermutationError, match="cannot parse permutation: '1 x 2'"):
        parse_perm("1 x 2")
    assert occurrences((1, 2, 3), (1, 2)) == []  # a pattern longer than its host


def test_bool_entries_are_rejected():
    # True == 1 and hash(True) == hash(1), but a bool is no int entry: it
    # would print as "True" in a pattern's text and in its cache key
    with pytest.raises(InvalidPermutationError):
        check_permutation((True, 2))
    with pytest.raises(InvalidWordError):
        check_word((True,))
    with pytest.raises(InvalidPermutationError):
        PatternCollection(((True, 3, 2),))
    with pytest.raises(InvalidPermutationError):
        format_perm((2, True))


def test_occurrences_positions_are_one_based():
    assert occurrences((1, 2), (1, 2, 3, 4)) == [1, 2, 3]
    assert occurrences((1, 2, 3), (1, 2, 3, 4)) == [1, 2]
    assert occurrences((2, 1), (1, 2, 3, 4)) == []
    assert occurrences((1, 3, 2), (2, 4, 3, 1)) == [1]


def test_divisibility():
    assert divides((1, 3, 4, 5, 2), (1, 4, 5, 6, 2, 3))
    assert not divides((1, 2, 3), (3, 2, 1))


@given(perm_lists)
def test_symmetry_orbit_size(p):
    orb = symmetry_orbit(tuple(p))
    assert len(orb) in (1, 2, 4)
    for m in orb:
        assert symmetry_orbit(m) == orb


def test_all_permutations_count():
    assert len(list(all_permutations(4))) == 24


@given(perm_lists)
def test_parse_format_round_trip(p):
    p = tuple(p)
    assert parse_perm(format_perm(p)) == p


def test_parse_perm_forms():
    assert parse_perm("231") == (2, 3, 1)
    assert parse_perm("2, 3, 1") == (2, 3, 1)
    assert parse_perm("10 2 3 4 5 6 7 8 9 1") == (10, 2, 3, 4, 5, 6, 7, 8, 9, 1)
    with pytest.raises(InvalidPermutationError):
        parse_perm("")
    with pytest.raises(InvalidPermutationError):
        parse_perm("1b2")
    with pytest.raises(InvalidPermutationError):
        parse_perm("130")


def test_parse_collection_text():
    text = "# two patterns\n123\n\n1 3 2  # a comment\n"
    assert parse_collection_text(text) == [(1, 2, 3), (1, 3, 2)]
    with pytest.raises(DomainError):
        parse_collection_text("# nothing\n")
