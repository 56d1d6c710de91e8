"""Permutations of {1..m} in one-line notation, with dihedral machinery.

A permutation is stored as the tuple of its images: entry k-1 is the image
of k.  Everything here is 1-based to match the usual combinatorial
conventions; translation to 0-based indices happens only inside method
bodies.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator

# the one cap on m wherever S_m or a subgroup is listed element by element:
# listing and certifying all of S_8 takes 0.18-0.22 s by the polynomial
# action (Sym of a constant, or SSym of the skew generic pfaffian) and
# 0.10-0.12 s by `pfaffian_symmetry_group` (SSym of the skew pfaffian),
# medians on a shared 2-core VM with Python 3.11.7, and m = 9 has nine
# times as many elements
SYM_CAP = 8


class Permutation:
    """A permutation of {1..m}, immutable and hashable."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(images)}: {images!r}")
        self.images = images

    @classmethod
    def _of(cls, images: tuple[int, ...]) -> Permutation:
        """The Permutation with these images, without the bijection check.

        Only for a tuple that this package built as a permutation of 1..m:
        the identity, a row of itertools.permutations, a member of an
        `add_generator` closure, a product or inverse of Permutations, a
        dihedral element, the order at a `_cut_search` leaf.  Anything else
        goes through Permutation(...), which refuses a non-bijection.
        """
        p = cls.__new__(cls)
        p.images = images
        return p

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, k: int) -> int:
        if not 1 <= k <= len(self.images):
            raise IndexError(f"point {k} outside 1..{len(self.images)}")
        return self.images[k - 1]

    @property
    def sign(self) -> int:
        """+1 for even, -1 for odd: (-1)^(m - #cycles), by `images_sign` in O(m)."""
        return images_sign(self.images)

    def inverse(self) -> Permutation:
        inv = [0] * len(self.images)
        for k, v in enumerate(self.images, start=1):
            inv[v - 1] = k
        return Permutation._of(tuple(inv))

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


def images_sign(images: tuple[int, ...]) -> int:
    """The sign of the permutation of 1..m with these images, (-1)^(m - #cycles).

    One pass over the points walks each cycle once, from the first of its
    points that the pass meets, so the cost is O(m).
    """
    seen = [False] * (len(images) + 1)
    rest = len(images)  # m minus the cycles walked so far
    for j in images:
        if not seen[j]:
            rest -= 1
            while not seen[j]:
                seen[j] = True
                j = images[j - 1]
    return -1 if rest % 2 else 1


def identity(m: int) -> Permutation:
    return Permutation._of(tuple(range(1, m + 1)))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """The composition p after q: (p . q)(k) = p(q(k))."""
    if p.size != q.size:
        raise ValueError(f"size mismatch: {p.size} vs {q.size}")
    return Permutation._of(tuple([p.images[v - 1] for v in q.images]))


def sign(p: Permutation) -> int:
    return p.sign


def inverse(p: Permutation) -> Permutation:
    return p.inverse()


def check_sym_size(m: int) -> None:
    """Raise unless 1 <= m <= SYM_CAP."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if m > SYM_CAP:
        raise ValueError(f"m={m} exceeds the enumeration cap {SYM_CAP}")


def enumerate_sym(m: int) -> Iterator[Permutation]:
    """All m! permutations of {1..m} in lexicographic one-line order.

    Refuses m above SYM_CAP so a typo cannot launch a factorial-sized loop.
    """
    check_sym_size(m)
    for images in itertools.permutations(range(1, m + 1)):
        yield Permutation._of(images)


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


def add_generator(group: set, gens: list, g: tuple, inside: set | None = None) -> list:
    """Grow `group`, the group spanned by `gens`, to the group spanned by gens + [g].

    Works on image tuples, and appends g to `gens` unless g is already in
    `group`.  Dimino's algorithm: the new group is a union of right cosets
    H o r of the old group H, so it grows one coset at a time.  Its
    representatives r start with the identity, and r o s, for every
    generator s, opens a new coset when it is not yet reached.  Each
    element is composed once and each representative once per generator.
    Returns the elements added to `group` in the order added, [] when g is
    already in it.  With `inside` given, a new element a o t outside it is
    a RuntimeError naming a and t: the certificate of `make_group_report`.
    """
    if g in group:
        return []
    gens.append(g)
    old = list(group)
    # a o s is itemgetter(s - 1)(a); g is not the identity, so len(g) > 1
    # and itemgetter returns a tuple
    steps = [itemgetter(*[v - 1 for v in s]) for s in gens]
    reps = [tuple(range(1, len(g) + 1))]
    added = []
    for r in reps:
        for step in steps:
            t = step(r)
            if t in group:
                continue
            by_t = itemgetter(*[v - 1 for v in t])
            for h in old:
                b = by_t(h)
                if inside is not None and b not in inside:
                    raise RuntimeError(f"symmetry set is not closed: {h} o {t} escapes")
                group.add(b)
                added.append(b)
            reps.append(t)
    return added


def generate_subgroup(gens: list[Permutation], size: int | None = None) -> list[Permutation]:
    """The subgroup generated by `gens`, as a lexicographically sorted list.

    `add_generator` adds the generators one at a time, so each element
    is composed once.  `size` is only needed when `gens` is empty.
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
    spanning: list[tuple[int, ...]] = []
    for g in gens:
        add_generator(group, spanning, g.images)
    return [Permutation._of(images) for images in sorted(group)]


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


# the results without a split, shared: a RunType is frozen
_ONE_UP_RUN = RunType(ONE_UP_RUN)
_ONE_DOWN_RUN = RunType(ONE_DOWN_RUN)
_NOT_DIHEDRAL = RunType(NOT_DIHEDRAL)


def classify_runs(p: Permutation) -> RunType:
    """Match p against the four dihedral run shapes.

    The shapes, for m = 2n:
      * one up-run:    (1, 2, ..., m)
      * one down-run:  (m, m-1, ..., 1)
      * two up-runs:   (s, s+1, ..., m, 1, ..., s-1) for some 1 < s <= m
      * two down-runs: (s, s-1, ..., 1, m, m-1, ..., s+1) for some 1 <= s < m

    The one-run shapes win ties (they are the s=1 / s=m degenerations of
    the two-run shapes; at m = 2 each of the two permutations has both
    shapes).  Anything else is not a dihedral permutation.  The second
    image decides which run from s = p(1) can match, s % m + 1 for the
    up-run and (s - 2) % m + 1 for the down-run, so p is compared with
    at most those two, and no other tuple is built.
    """
    m = p.size
    if m % 2 != 0:
        raise ValueError(f"run classification needs even size, got {m}")
    im = p.images
    if not im:
        return _ONE_UP_RUN
    s, t = im[0], im[1]
    up = t == s % m + 1 and im == (*range(s, m + 1), *range(1, s))
    if up and s == 1:
        return _ONE_UP_RUN
    down = t == (s - 2) % m + 1 and im == (*range(s, 0, -1), *range(m, s, -1))
    if down and s == m:
        return _ONE_DOWN_RUN
    if up:
        return RunType(TWO_UP_RUNS, split=s)
    if down:
        return RunType(TWO_DOWN_RUNS, split=s)
    return _NOT_DIHEDRAL
