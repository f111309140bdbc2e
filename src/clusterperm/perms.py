"""Permutation primitives.

Permutations are tuples of ints containing each of 1..n exactly once.
All positions in the public API are 1-based, matching the usual
combinatorial indexing, so ``occurrences`` returns window start positions
counted from 1.

A *word* is any tuple of pairwise-distinct positive integers; its
standardization is the unique permutation with the same relative order.
"""

from __future__ import annotations

from itertools import permutations
from typing import Iterable, Sequence

Perm = tuple[int, ...]


class DomainError(ValueError):
    """Invalid input for one of the combinatorial operations."""


class InvalidPermutationError(DomainError):
    pass


class InvalidWordError(DomainError):
    pass


def check_word(word: Sequence[int]) -> Perm:
    """Validate a word (distinct positive integers, length >= 1)."""
    w = tuple(word)
    if not w:
        raise InvalidWordError("empty word")
    if any(type(x) is not int or x < 1 for x in w):
        raise InvalidWordError(f"word entries must be positive integers: {w}")
    if len(set(w)) != len(w):
        raise InvalidWordError(f"word has repeated entries: {w}")
    return w


def check_permutation(perm: Sequence[int]) -> Perm:
    """Validate that ``perm`` contains each of 1..n exactly once, as ints
    (``check_word``'s rule: ``1.0`` and ``True`` equal ``1`` but are no entries)."""
    p = tuple(perm)
    if not p:
        raise InvalidPermutationError("empty permutation")
    if not all(type(x) is int for x in p) or set(p) != set(range(1, len(p) + 1)):
        raise InvalidPermutationError(f"not a permutation of 1..{len(p)}: {p}")
    return p


def standardize(word: Sequence[int]) -> Perm:
    """Replace each entry by its rank within the word (smallest -> 1)."""
    w = check_word(word)
    rank = {v: i + 1 for i, v in enumerate(sorted(w))}
    return tuple(rank[v] for v in w)


def occurrences(pattern: Sequence[int], host: Sequence[int]) -> list[int]:
    """All 1-based start positions of consecutive occurrences of ``pattern``.

    A window host[i..i+l-1] is an occurrence when its standardization equals
    the pattern.
    """
    pat = check_permutation(pattern)
    h = check_permutation(host)
    l, n = len(pat), len(h)
    if l > n:
        return []
    # pos_by_rank[j] is the 0-based window position holding rank j+1; a
    # window matches iff its values increase along this position sequence.
    pos_by_rank = sorted(range(l), key=lambda i: pat[i])
    out = []
    for i in range(n - l + 1):
        win = h[i : i + l]
        if all(win[pos_by_rank[j]] < win[pos_by_rank[j + 1]] for j in range(l - 1)):
            out.append(i + 1)
    return out


def divides(pattern: Sequence[int], host: Sequence[int]) -> bool:
    return bool(occurrences(pattern, host))


def symmetry_orbit(perm: Sequence[int]) -> frozenset[Perm]:
    """Orbit under the group generated by reverse and complement."""
    p = check_permutation(perm)
    c = tuple(len(p) + 1 - x for x in p)
    return frozenset({p, p[::-1], c, c[::-1]})


def all_permutations(n: int) -> Iterable[Perm]:
    return permutations(range(1, n + 1))


# ---------------------------------------------------------------------------
# Text form: whitespace- or comma-separated entries, or a compact digit
# string when every entry is at most 9.  Emission always uses the
# space-separated form.
# ---------------------------------------------------------------------------


def parse_perm(text: str) -> Perm:
    s = text.strip()
    if not s:
        raise InvalidPermutationError("empty permutation text")
    if "," in s or any(c.isspace() for c in s):
        parts = [p for p in s.replace(",", " ").split() if p]
    elif s.isdigit():
        if "0" in s:
            raise InvalidPermutationError(f"compact form only covers entries 1..9: {s!r}")
        parts = list(s)
    else:
        raise InvalidPermutationError(f"cannot parse permutation: {text!r}")
    try:
        entries = [int(p) for p in parts]
    except ValueError:
        raise InvalidPermutationError(f"cannot parse permutation: {text!r}") from None
    return check_permutation(entries)


def format_perm(perm: Sequence[int]) -> str:
    return _format_perm(check_permutation(perm))


def _format_perm(perm: Perm) -> str:
    """``format_perm`` for a permutation already checked."""
    return " ".join(map(str, perm))


def parse_collection_text(text: str) -> list[Perm]:
    """One pattern per line; blank lines and '#' comments ignored."""
    perms = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            perms.append(parse_perm(line))
    if not perms:
        raise DomainError("no patterns found")
    return perms
