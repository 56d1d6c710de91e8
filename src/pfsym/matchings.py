"""Ordered perfect matchings of {1..2n} and their signs.

A matching is kept in its normal form: pairs (i_s, j_s) with i_s < j_s and
i_1 < i_2 < ... < i_n.  Flattening the pairs gives a permutation of {1..2n}
whose sign is the coefficient the matching contributes to the pfaffian.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

HARD_CAP = 16


def matching_count(two_n: int) -> int:
    """(2n-1)!! — the number of perfect matchings of {1..2n}."""
    if two_n < 0 or two_n % 2 != 0:
        raise ValueError(f"two_n must be even and >= 0, got {two_n}")
    count = 1
    for k in range(3, two_n, 2):
        count *= k
    return count


@dataclass(frozen=True)
class PfaffPermutation:
    """A perfect matching of {1..2n} in normal form."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        flat = [k for pair in self.pairs for k in pair]
        two_n = len(flat)
        if sorted(flat) != list(range(1, two_n + 1)):
            raise ValueError(f"pairs do not cover 1..{two_n} exactly once: {self.pairs!r}")
        firsts = [i for i, _ in self.pairs]
        if firsts != sorted(firsts):
            raise ValueError(f"first elements must increase: {self.pairs!r}")
        if any(i >= j for i, j in self.pairs):
            raise ValueError(f"each pair must be increasing: {self.pairs!r}")

    @property
    def size(self) -> int:
        return 2 * len(self.pairs)

    def flatten(self) -> tuple[int, ...]:
        return tuple(k for pair in self.pairs for k in pair)

    def to_json(self) -> list[list[int]]:
        return [list(pair) for pair in self.pairs]

    def __repr__(self) -> str:
        body = "".join(f"({i},{j})" for i, j in self.pairs)
        return f"PfaffPermutation[{body}]"


def _matchings(free: tuple[int, ...]) -> Iterator[tuple[tuple[tuple[int, int], ...], int]]:
    """Every perfect matching of the sorted indices `free` as (pairs, sign).

    Pairs the smallest free index with every larger free index in turn,
    which produces the normal form, in lexicographic order, by
    construction.  Pairing the smallest free index with the k-th remaining
    candidate flips the sign by (-1)**(k-1), because exactly k-1
    still-unmatched indices land strictly inside the new pair and each
    will cross it once or not at all.  The empty tuple has one matching.
    """
    acc: list[tuple[int, int]] = []

    def rec(free: tuple[int, ...], sgn: int):
        if not free:
            yield tuple(acc), sgn
            return
        i = free[0]
        for k in range(1, len(free)):
            acc.append((i, free[k]))
            yield from rec(free[1:k] + free[k + 1 :], sgn if k % 2 == 1 else -sgn)
            acc.pop()

    return rec(free, 1)


def enumerate_pfaff(
    two_n: int, first_partner: int | None = None
) -> Iterator[tuple[PfaffPermutation, int]]:
    """All matchings of {1..2n} with signs, lexicographic on the flattening.

    Refuses 2n above HARD_CAP; 2n = 16 already has about two million
    matchings.  `first_partner` restricts the stream to matchings whose
    first pair is (1, first_partner); the 2n-1 choices split the stream
    into disjoint blocks, in order.
    """
    if two_n < 2 or two_n % 2 != 0:
        raise ValueError(f"two_n must be even and >= 2, got {two_n}")
    if two_n > HARD_CAP:
        raise ValueError(f"two_n={two_n} exceeds the enumeration cap {HARD_CAP}")
    if first_partner is not None and not 2 <= first_partner <= two_n:
        raise ValueError(f"first_partner must lie in 2..{two_n}")
    head, flip, free = (), 1, tuple(range(1, two_n + 1))
    if first_partner is not None:
        k = first_partner - 1
        head, flip, free = ((1, first_partner),), (1 if k % 2 == 1 else -1), free[1:k] + free[k + 1 :]
    for pairs, sgn in _matchings(free):
        yield PfaffPermutation(head + pairs), flip * sgn
