"""Party sets, set partitions, and the bipartitions of a party set or coarser than a partition.

Every discrimination bound is indexed by a bipartition of the party set, and
coalition analysis walks the full partition lattice.  Partitions are kept in a
canonical form (blocks ordered by their least party index, parties inside a
block in party-set order) so enumeration output is stable and duplicates are
impossible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

MAX_PARTITION_PARTIES = 10


@dataclass(frozen=True)
class PartySet:
    """Ordered, distinct party labels; at least two parties."""

    labels: tuple[str, ...]

    def __post_init__(self):
        labels = tuple(str(x) for x in self.labels)
        if len(labels) < 2:
            raise ValueError(f"a party set needs at least 2 parties, got {len(labels)}")
        if len(set(labels)) != len(labels):
            raise ValueError(f"party labels must be distinct, got {labels}")
        object.__setattr__(self, "labels", labels)

    @classmethod
    def of_size(cls, m: int) -> "PartySet":
        return cls(tuple(f"A{k}" for k in range(1, m + 1)))

    def __len__(self) -> int:
        return len(self.labels)


def _canonical_blocks(
    parties: PartySet, blocks: Iterable[Iterable[str]]
) -> tuple[tuple[str, ...], ...]:
    order = {label: k for k, label in enumerate(parties.labels)}
    seen: set[str] = set()
    cooked: list[tuple[str, ...]] = []
    for block in blocks:
        members = tuple(sorted(set(block), key=lambda x: order[x]))
        if not members:
            raise ValueError("partition blocks must be nonempty")
        for label in members:
            if label not in order:
                raise ValueError(f"unknown party {label!r}")
            if label in seen:
                raise ValueError(f"party {label!r} appears in more than one block")
            seen.add(label)
        cooked.append(members)
    if seen != set(parties.labels):
        missing = sorted(set(parties.labels) - seen, key=lambda x: order[x])
        raise ValueError(f"blocks do not cover the party set, missing {missing}")
    cooked.sort(key=lambda b: order[b[0]])
    return tuple(cooked)


@dataclass(frozen=True)
class Partition:
    """A division of the party set into disjoint nonempty covering blocks."""

    parties: PartySet
    blocks: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks", _canonical_blocks(self.parties, self.blocks))

    @property
    def is_trivial(self) -> bool:
        return len(self.blocks) == 1

    def to_string(self) -> str:
        return "|".join("".join(block) for block in self.blocks)


@dataclass(frozen=True)
class Bipartition:
    """A two-block partition; ``side_a`` is the block containing the first party."""

    parties: PartySet
    side_a: tuple[str, ...]
    side_b: tuple[str, ...]

    def __post_init__(self):
        blocks = _canonical_blocks(self.parties, (self.side_a, self.side_b))
        if len(blocks) != 2:
            raise ValueError("a bipartition needs exactly two nonempty blocks")
        object.__setattr__(self, "side_a", blocks[0])
        object.__setattr__(self, "side_b", blocks[1])

    @classmethod
    def from_side(cls, parties: PartySet, side: Iterable[str]) -> "Bipartition":
        side_set = set(side)
        other = tuple(x for x in parties.labels if x not in side_set)
        own = tuple(x for x in parties.labels if x in side_set)
        return cls(parties, own, other)

    def as_partition(self) -> Partition:
        return Partition(self.parties, (self.side_a, self.side_b))

    def to_string(self) -> str:
        return self.as_partition().to_string()


def all_bipartitions(parties: PartySet) -> list[Bipartition]:
    """All ``2**(m-1) - 1`` bipartitions, canonical and duplicate-free.

    Enumerated by the subset of the remaining parties joined to the first
    party, so the output order is stable.
    """
    first, rest = parties.labels[0], parties.labels[1:]
    out: list[Bipartition] = []
    for mask in range(2 ** len(rest) - 1):
        side_a = [first] + [p for k, p in enumerate(rest) if mask >> k & 1]
        out.append(Bipartition.from_side(parties, side_a))
    return out


def _restricted_growth_strings(m: int) -> Iterator[list[int]]:
    # a[0] = 0 and a[i] <= max(a[:i]) + 1; one string per set partition.
    string = [0] * m

    def rec(i: int, top: int) -> Iterator[list[int]]:
        if i == m:
            yield string
            return
        for value in range(top + 2):
            string[i] = value
            yield from rec(i + 1, max(top, value))

    yield from rec(1, 0)


def all_partitions(parties: PartySet) -> list[Partition]:
    """All set partitions of the party set (Bell-number many).

    Guarded for ``m <= MAX_PARTITION_PARTIES`` since the count grows
    super-exponentially.
    """
    m = len(parties)
    if m > MAX_PARTITION_PARTIES:
        raise ValueError(
            f"refusing to enumerate partitions of {m} parties (guard is {MAX_PARTITION_PARTIES})"
        )
    out: list[Partition] = []
    for string in _restricted_growth_strings(m):
        blocks: list[list[str]] = [[] for _ in range(max(string) + 1)]
        for label, block_index in zip(parties.labels, string):
            blocks[block_index].append(label)
        out.append(Partition(parties, tuple(tuple(b) for b in blocks)))
    return out


def coarser_bipartitions(x: Partition) -> list[Bipartition]:
    """All bipartitions coarser than ``x``, via 2-colorings of its blocks.

    Always nonempty for a nontrivial partition: fixing one block against the
    union of the rest is such a coloring.
    """
    if x.is_trivial:
        raise ValueError("the trivial partition has no coarser bipartition")
    first_block, rest = x.blocks[0], x.blocks[1:]
    out: list[Bipartition] = []
    for mask in range(2 ** len(rest) - 1):
        side_a = list(first_block)
        for k, block in enumerate(rest):
            if mask >> k & 1:
                side_a.extend(block)
        out.append(Bipartition.from_side(x.parties, side_a))
    return out
