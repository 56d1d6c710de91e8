"""Permutations of {1..m} in one-line notation, with dihedral machinery.

A permutation is stored as the tuple of its images: entry k-1 is the image
of k.  Everything here is 1-based to match the usual combinatorial
conventions; translation to 0-based indices happens only inside method
bodies.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

# the one cap on scans of S_m: the S_8 scan of the generic pfaffian takes
# 0.62 s (2-core VM, Python 3.11), and m = 9 would take nine times that
SYM_CAP = 8


class Permutation:
    """A permutation of {1..m}, immutable and hashable."""

    __slots__ = ("images", "_sign")

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(images)}: {images!r}")
        self.images = images
        self._sign: int | None = None

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, k: int) -> int:
        if not 1 <= k <= len(self.images):
            raise IndexError(f"point {k} outside 1..{len(self.images)}")
        return self.images[k - 1]

    @property
    def sign(self) -> int:
        """Parity of the inversion count: +1 for even, -1 for odd."""
        if self._sign is None:
            inv = 0
            im = self.images
            for i in range(len(im)):
                for j in range(i + 1, len(im)):
                    if im[i] > im[j]:
                        inv += 1
            self._sign = -1 if inv % 2 else 1
        return self._sign

    def inverse(self) -> Permutation:
        inv = [0] * len(self.images)
        for k, v in enumerate(self.images, start=1):
            inv[v - 1] = k
        return Permutation(inv)

    def to_json(self) -> list[int]:
        return list(self.images)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __lt__(self, other: "Permutation") -> bool:
        return self.images < other.images

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)})"


def identity(m: int) -> Permutation:
    return Permutation(range(1, m + 1))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """The composition p after q: (p . q)(k) = p(q(k))."""
    if p.size != q.size:
        raise ValueError(f"size mismatch: {p.size} vs {q.size}")
    return Permutation(p.images[v - 1] for v in q.images)


def sign(p: Permutation) -> int:
    return p.sign


def inverse(p: Permutation) -> Permutation:
    return p.inverse()


def enumerate_sym(m: int) -> Iterator[Permutation]:
    """All m! permutations of {1..m} in lexicographic one-line order.

    Refuses m above SYM_CAP so a typo cannot launch a factorial-sized loop.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if m > SYM_CAP:
        raise ValueError(f"m={m} exceeds the enumeration cap {SYM_CAP}")
    for images in itertools.permutations(range(1, m + 1)):
        yield Permutation(images)


def dihedral_generators(m: int) -> tuple[Permutation, Permutation]:
    """Rotation and reflection generating the dihedral subgroup of S_m.

    sigma sends k to k+1 cyclically; tau fixes 1 and sends k to m+2-k.
    Requires even m (the polygon has an even number of labelled vertices).
    """
    if m < 2 or m % 2 != 0:
        raise ValueError(f"m must be even and >= 2, got {m}")
    sigma = Permutation([*range(2, m + 1), 1])
    tau = Permutation([1, *range(m, 1, -1)])
    return sigma, tau


def close_right(reached: set, frontier: list, gens: list, inside: set | None = None):
    """Grow `reached` breadth first from `frontier` by right-multiplying by `gens`.

    Works on image tuples.  With `inside` given, the first new product
    a o g outside it stops the walk and (a, g) is returned; else None.
    """
    while frontier:
        new = []
        for a in frontier:
            for g in gens:
                b = tuple([a[v - 1] for v in g])
                if b not in reached:
                    if inside is not None and b not in inside:
                        return a, g
                    reached.add(b)
                    new.append(b)
        frontier = new
    return None


def generate_subgroup(gens: list[Permutation], size: int | None = None) -> list[Permutation]:
    """The subgroup generated by `gens`, as a lexicographically sorted list.

    A breadth-first walk from the identity, right-multiplying by the
    generators, costs O(|G| * |gens|) compositions.  `size` is only needed
    when `gens` is empty.
    """
    if gens:
        m = gens[0].size
        if any(g.size != m for g in gens):
            raise ValueError("generators must all have the same size")
    elif size is not None:
        m = size
    else:
        raise ValueError("empty generator list needs an explicit size")
    group = {identity(m).images}
    close_right(group, list(group), [g.images for g in gens])
    return [Permutation(images) for images in sorted(group)]


ONE_UP_RUN = "one-up-run"
ONE_DOWN_RUN = "one-down-run"
TWO_UP_RUNS = "two-up-runs"
TWO_DOWN_RUNS = "two-down-runs"
NOT_DIHEDRAL = "not-dihedral"


@dataclass(frozen=True)
class RunType:
    """Run-shape classification of a permutation of even size.

    `split` is the leading image s for the two-run shapes, None otherwise.
    """

    kind: str
    split: int | None = None

    @property
    def is_dihedral(self) -> bool:
        return self.kind != NOT_DIHEDRAL


def classify_runs(p: Permutation) -> RunType:
    """Match p against the four dihedral run shapes.

    The shapes, for m = 2n:
      * one up-run:    (1, 2, ..., m)
      * one down-run:  (m, m-1, ..., 1)
      * two up-runs:   (s, s+1, ..., m, 1, ..., s-1) for some 1 < s <= m
      * two down-runs: (s, s-1, ..., 1, m, m-1, ..., s+1) for some 1 <= s < m

    The one-run shapes win ties (they are the s=1 / s=m degenerations of
    the two-run shapes).  Anything else is not a dihedral permutation.
    """
    m = p.size
    if m % 2 != 0:
        raise ValueError(f"run classification needs even size, got {m}")
    im = p.images
    if im == tuple(range(1, m + 1)):
        return RunType(ONE_UP_RUN)
    if im == tuple(range(m, 0, -1)):
        return RunType(ONE_DOWN_RUN)
    s = im[0]
    up = tuple(range(s, m + 1)) + tuple(range(1, s))
    if im == up:
        return RunType(TWO_UP_RUNS, split=s)
    down = tuple(range(s, 0, -1)) + tuple(range(m, s, -1))
    if im == down:
        return RunType(TWO_DOWN_RUNS, split=s)
    return RunType(NOT_DIHEDRAL)
