import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlhide import (
    Bipartition,
    Partition,
    PartySet,
    all_bipartitions,
    all_partitions,
    coarser_bipartitions,
    is_coarser,
    trivial_partition,
)

from oracles import bell_number, brute_force_bipartition_sides, brute_force_partitions


def parties(m):
    return PartySet.of_size(m)


class TestPartySet:
    def test_needs_two_parties(self):
        with pytest.raises(ValueError):
            PartySet(("A1",))

    def test_needs_distinct_labels(self):
        with pytest.raises(ValueError):
            PartySet(("A1", "A1"))


class TestCanonicalForm:
    def test_blocks_sorted_by_least_party(self):
        p = Partition(parties(4), (("A4", "A2"), ("A3", "A1")))
        assert p.blocks == (("A1", "A3"), ("A2", "A4"))
        assert p.to_string() == "A1A3|A2A4"

    def test_bipartition_side_a_contains_first_party(self):
        bp = Bipartition.from_side(parties(3), {"A2", "A3"})
        assert bp.side_a == ("A1",)
        assert bp.side_b == ("A2", "A3")
        assert bp.to_string() == "A1|A2A3"

    def test_rejects_overlapping_blocks(self):
        with pytest.raises(ValueError):
            Partition(parties(3), (("A1", "A2"), ("A2", "A3")))

    def test_rejects_non_covering_blocks(self):
        with pytest.raises(ValueError):
            Partition(parties(3), (("A1",), ("A2",)))


class TestAllBipartitions:
    @pytest.mark.parametrize("m,count", [(2, 1), (3, 3), (4, 7), (6, 31)])
    def test_counts(self, m, count):
        assert len(all_bipartitions(parties(m))) == count == 2 ** (m - 1) - 1

    def test_m2_single(self):
        (bp,) = all_bipartitions(parties(2))
        assert bp.to_string() == "A1|A2"

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_matches_two_coloring_oracle(self, m):
        got = {frozenset(bp.side_a) for bp in all_bipartitions(parties(m))}
        assert got == brute_force_bipartition_sides(parties(m).labels)
        assert len(got) == len(all_bipartitions(parties(m)))  # no duplicates


class TestAllPartitions:
    @pytest.mark.parametrize("m,count", [(2, 2), (3, 5), (4, 15)])
    def test_counts(self, m, count):
        assert len(all_partitions(parties(m))) == count

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_matches_recursive_oracle_and_bell(self, m):
        got = {p.to_string() for p in all_partitions(parties(m))}
        want = {
            Partition(parties(m), tuple(tuple(b) for b in blocks)).to_string()
            for blocks in brute_force_partitions(parties(m).labels)
        }
        assert got == want
        assert len(got) == bell_number(m)

    def test_trivial_included_once(self):
        out = [p for p in all_partitions(parties(4)) if p.is_trivial]
        assert out == [trivial_partition(parties(4))]

    def test_size_guard(self):
        with pytest.raises(ValueError, match="guard"):
            all_partitions(PartySet.of_size(11))


class TestIsCoarser:
    def test_trivial_coarser_than_all(self):
        for p in all_partitions(parties(4)):
            assert is_coarser(trivial_partition(parties(4)), p)

    def test_containment_example(self):
        x = Partition(parties(3), (("A1", "A2"), ("A3",)))
        y = Partition(parties(3), (("A1",), ("A2",), ("A3",)))
        assert is_coarser(x, y)

    def test_non_containment_example(self):
        x = Partition(parties(3), (("A1",), ("A2", "A3")))
        y = Partition(parties(3), (("A1", "A2"), ("A3",)))
        assert not is_coarser(x, y)

    def test_mismatched_party_sets(self):
        with pytest.raises(ValueError):
            is_coarser(trivial_partition(parties(2)), trivial_partition(parties(3)))

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(2, 5), data=st.data())
    def test_partial_order_properties(self, m, data):
        everything = all_partitions(parties(m))
        pick = st.integers(0, len(everything) - 1)
        x = everything[data.draw(pick)]
        y = everything[data.draw(pick)]
        z = everything[data.draw(pick)]
        assert is_coarser(x, x)
        if is_coarser(x, y) and is_coarser(y, x):
            assert x == y
        if is_coarser(x, y) and is_coarser(y, z):
            assert is_coarser(x, z)


class TestCoarserBipartitions:
    def test_two_singletons(self):
        x = Partition(parties(2), (("A1",), ("A2",)))
        assert [bp.to_string() for bp in coarser_bipartitions(x)] == ["A1|A2"]

    def test_three_singletons_give_all(self):
        x = Partition(parties(3), (("A1",), ("A2",), ("A3",)))
        got = {bp.to_string() for bp in coarser_bipartitions(x)}
        assert got == {bp.to_string() for bp in all_bipartitions(parties(3))}

    def test_three_blocks_of_four_parties(self):
        x = Partition(parties(4), (("A1", "A2"), ("A3",), ("A4",)))
        out = coarser_bipartitions(x)
        assert len(out) == 3  # 2-colorings of three blocks
        for bp in out:
            assert is_coarser(bp.as_partition(), x)

    def test_trivial_partition_rejected(self):
        with pytest.raises(ValueError, match="no coarser bipartition"):
            coarser_bipartitions(trivial_partition(parties(3)))

    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(2, 5), data=st.data())
    def test_nonempty_and_actually_coarser(self, m, data):
        everything = [p for p in all_partitions(parties(m)) if not p.is_trivial]
        x = everything[data.draw(st.integers(0, len(everything) - 1))]
        out = coarser_bipartitions(x)
        assert out
        assert len(out) == 2 ** (x.block_count - 1) - 1
        for bp in out:
            assert is_coarser(bp.as_partition(), x)
