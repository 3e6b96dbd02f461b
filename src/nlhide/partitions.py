"""Party sets, set partitions, and the bipartitions of a party set or coarser than a partition.

Every discrimination bound is indexed by a bipartition of the party set, and
coalition analysis walks the full partition lattice.  A bipartition is a
two-block :class:`Partition`.  Partitions are kept in a canonical form (blocks
ordered by their least party index, parties inside a block in party-set order)
so enumeration output is stable and duplicates are impossible.  A partition's orbit
under the permutations of the parties within given classes is keyed by the per-class
counts of its blocks, so a symmetric ensemble's callers decide one per orbit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

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
        members = set(block)
        if not members:
            raise ValueError("partition blocks must be nonempty")
        if not members <= order.keys():
            raise ValueError(f"unknown party {min(members - order.keys())!r}")
        if members & seen:
            shared = min(members & seen, key=order.__getitem__)
            raise ValueError(f"party {shared!r} appears in more than one block")
        seen |= members
        cooked.append(tuple(sorted(members, key=order.__getitem__)))
    if len(seen) != len(order):
        missing = [label for label in parties.labels if label not in seen]
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


class Bipartition(Partition):
    """A two-block partition.  ``side_a`` (the block holding the first party) and
    ``side_b`` are read-only views of ``blocks``, which are canonicalized once."""

    def __init__(self, parties: PartySet, side_a: Iterable[str], side_b: Iterable[str]):
        super().__init__(parties, (side_a, side_b))

    @classmethod
    def from_side(cls, parties: PartySet, side: Iterable[str]) -> "Bipartition":
        own = set(side)
        return cls(parties, own, [x for x in parties.labels if x not in own])

    @property
    def side_a(self) -> tuple[str, ...]:
        return self.blocks[0]

    @property
    def side_b(self) -> tuple[str, ...]:
        return self.blocks[1]


def _by_name(partitions: Iterable[Partition]) -> dict[str, Partition]:
    """The partitions keyed by ``to_string``, in order; two that share a name raise."""
    named: dict[str, Partition] = {}
    for x in partitions:
        key = x.to_string()
        if key in named:
            a, b = (" | ".join(",".join(block) for block in y.blocks) for y in (named[key], x))
            raise ValueError(f"the cuts {a} and {b} share the name {key!r}: relabel the parties")
        named[key] = x
    return named


def _orbit_key(x: Partition, classes: Mapping[str, int]) -> tuple[tuple[int, ...], ...]:
    """The orbit of ``x`` under the permutations of the parties that keep each party in
    its class (``classes`` maps every label to its class, ``0, 1, ...``): the sorted
    count vectors of its blocks, one count per class.  Two partitions share a key iff
    such a permutation maps one onto the other; a bipartition's key is its smaller
    side's counts against its other side's."""
    size = max(classes.values()) + 1
    vectors = []
    for block in x.blocks:
        counts = [0] * size
        for label in block:
            counts[classes[label]] += 1
        vectors.append(tuple(counts))
    return tuple(sorted(vectors))


def all_bipartitions(parties: PartySet) -> list[Bipartition]:
    """All ``2**(m-1) - 1`` bipartitions: those coarser than the finest partition,
    in :func:`coarser_bipartitions`' order."""
    return coarser_bipartitions(Partition(parties, tuple((x,) for x in parties.labels)))


def all_partitions(parties: PartySet) -> list[Partition]:
    """All set partitions of the party set (Bell-number many), canonical and in order.

    Built label by label: each partition of the first labels puts the next
    label into its block ``k``, for ``k`` in order, or else opens a new last
    block.  Guarded for ``m <= MAX_PARTITION_PARTIES`` since the count grows
    super-exponentially.
    """
    if len(parties) > MAX_PARTITION_PARTIES:
        raise ValueError(f"refusing to enumerate partitions of {len(parties)} parties "
                         f"(guard is {MAX_PARTITION_PARTIES})")
    first, *rest = parties.labels
    grown = [((first,),)]
    for label in rest:
        grown = [
            blocks[:k] + (blocks[k] + (label,),) + blocks[k + 1:]
            if k < len(blocks) else blocks + ((label,),)
            for blocks in grown
            for k in range(len(blocks) + 1)
        ]
    return [Partition(parties, blocks) for blocks in grown]


def coarser_bipartitions(x: Partition) -> list[Bipartition]:
    """All bipartitions coarser than ``x``, via 2-colorings of its blocks.

    Always nonempty for a nontrivial partition: fixing one block against the
    union of the rest is such a coloring.
    """
    if x.is_trivial:
        raise ValueError("the trivial partition has no coarser bipartition")
    first, rest = x.blocks[0], x.blocks[1:]
    sides = (sum((block for k, block in enumerate(rest) if mask >> k & 1), first)
             for mask in range(2 ** len(rest) - 1))
    return [Bipartition.from_side(x.parties, side) for side in sides]
