import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concentro.partitions import (
    SetPartition,
    SplitPartition,
    enumerate_partitions,
    enumerate_splits,
    merged,
)
from oracles import refines

# Bell numbers B_0 .. B_6
BELL = (1, 1, 2, 5, 15, 52, 203)


@pytest.mark.parametrize("d,count", [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52), (6, 203)])
def test_partition_counts_match_bell_numbers(d, count):
    parts = enumerate_partitions(d)
    assert len(parts) == count == BELL[d]


def test_d1_single_partition():
    assert enumerate_partitions(1) == [SetPartition(((1,),))]


def test_partitions_cover_exactly_and_disjointly():
    for d in range(1, 7):
        for p in enumerate_partitions(d):
            seen = [i for b in p.blocks for i in b]
            assert sorted(seen) == list(range(1, d + 1))
            assert len(seen) == len(set(seen))


def test_enumeration_has_no_duplicates():
    for d in range(1, 7):
        parts = enumerate_partitions(d)
        assert len({p.blocks for p in parts}) == len(parts)


def test_canonicalization_is_idempotent():
    for p in enumerate_partitions(4):
        again = SetPartition(tuple(reversed([tuple(reversed(b)) for b in p.blocks])))
        assert again == p
        assert SetPartition(again.blocks) == again


def test_order_bounds_rejected():
    with pytest.raises(ValueError):
        enumerate_partitions(0)
    with pytest.raises(ValueError):
        enumerate_partitions(7)


def test_invalid_blocks_rejected():
    with pytest.raises(ValueError):
        SetPartition(((1, 2), (4,)))  # skips 3
    with pytest.raises(ValueError):
        SetPartition(((1, 2), (2, 3)))  # overlap
    with pytest.raises(ValueError):
        SetPartition(((1, 2), ()))  # empty block


def test_string_round_trip():
    p = SetPartition.parse("1,2|3")
    assert p == SetPartition(((1, 2), (3,)))
    assert str(p) == "1,2|3"
    for q in enumerate_partitions(4):
        assert SetPartition.parse(str(q)) == q


@pytest.mark.parametrize("d,count", [(1, 2), (2, 6), (3, 22)])
def test_split_counts(d, count):
    splits = enumerate_splits(d)
    assert len(splits) == count
    # independent count: sum over subsets I of Bell(#I) * Bell(d - #I)
    expected = sum(BELL[bin(mask).count("1")] * BELL[d - bin(mask).count("1")]
                   for mask in range(1 << d))
    assert len(splits) == expected
    assert len(set((s.inner, s.outer) for s in splits)) == count


@pytest.mark.parametrize("d,count", [(1, 1), (2, 2), (3, 3), (4, 5), (5, 7), (6, 11)])
def test_partition_shapes_are_integer_partitions(d, count):
    shapes = {part.shape for part in enumerate_partitions(d)}
    assert len(shapes) == count
    assert all(sum(s) == d and list(s) == sorted(s) for s in shapes)


@pytest.mark.parametrize("d,count", [(1, 2), (2, 5), (3, 10)])
def test_split_shape_counts(d, count):
    shapes = {split.shape for split in enumerate_splits(d)}
    assert len(shapes) == count
    assert SplitPartition.parse("1|2||3").shape == SplitPartition.parse("1|3||2").shape \
        == ((1, 1), (1,))


def test_split_d1_members():
    splits = enumerate_splits(1)
    assert SplitPartition(((1,),), ()) in splits
    assert SplitPartition((), ((1,),)) in splits


def test_splits_cover_universe():
    for d in (1, 2, 3):
        for s in enumerate_splits(d):
            seen = sorted(i for b in s.inner + s.outer for i in b)
            assert seen == list(range(1, d + 1))


def test_split_order_cap():
    with pytest.raises(ValueError):
        enumerate_splits(4)


def test_split_string_round_trip():
    s = SplitPartition.parse("1|2||3")
    assert s.inner == ((1,), (2,)) and s.outer == ((3,),)
    assert str(s) == "1|2||3"
    empty_inner = SplitPartition.parse("||1,2")
    assert empty_inner.inner == () and empty_inner.outer == ((1, 2),)
    assert str(empty_inner) == "||1,2"
    with pytest.raises(ValueError):
        SplitPartition.parse("1|2|3")


def test_partition_and_split_labels_share_one_grammar():
    # each side of a split parses and prints as a partition label does
    for text in ("1,2|3", " 1 , 3 | 2 "):
        part = SetPartition.parse(text)
        split = SplitPartition.parse(f"{text}||4")
        assert split.inner == part.blocks and str(split) == f"{part}||4"
    for bad in ("1||2|", "|1||2"):
        with pytest.raises(ValueError, match="empty block"):
            SplitPartition.parse(bad)
    with pytest.raises(ValueError, match="empty block"):
        SetPartition.parse("1||2")


def test_refines_and_merged():
    fine = SetPartition.parse("1|2|3")
    coarse = SetPartition.parse("1,3|2")
    assert refines(fine, coarse)
    assert not refines(coarse, fine)
    s = SplitPartition.parse("1||2,3")
    assert merged(s) == SetPartition.parse("1|2,3")


def test_enumeration_order_is_deterministic():
    first = enumerate_partitions(4)
    second = enumerate_partitions(4)
    assert first == second
    # restricted-growth order starts with the single block, ends with singletons
    assert first[0] == SetPartition.parse("1,2,3,4")
    assert first[-1] == SetPartition.parse("1|2|3|4")


def _restricted_growth_partitions(elements):
    """The partitions of the sorted `elements`, built from their restricted-growth
    labellings in lexicographic order: each label is at most one more than every
    label before it, and the elements of one label form a block."""
    out = []
    for labels in itertools.product(range(len(elements)), repeat=len(elements)):
        if all(lab <= 1 + max(labels[:i], default=-1) for i, lab in enumerate(labels)):
            out.append(tuple(tuple(e for e, lab in zip(elements, labels) if lab == block)
                             for block in range(max(labels, default=-1) + 1)))
    return out


@pytest.mark.parametrize("d", range(1, 7))
def test_partitions_come_in_restricted_growth_order(d):
    expect = [SetPartition(blocks)
              for blocks in _restricted_growth_partitions(tuple(range(1, d + 1)))]
    assert enumerate_partitions(d) == expect


@pytest.mark.parametrize("d", range(1, 4))
def test_splits_come_by_ascending_bitmask_then_restricted_growth_order(d):
    expect = []
    for mask in range(1 << d):
        inner = tuple(i for i in range(1, d + 1) if mask & (1 << (i - 1)))
        outer = tuple(i for i in range(1, d + 1) if not mask & (1 << (i - 1)))
        expect += [SplitPartition(inner_blocks, outer_blocks)
                   for inner_blocks in _restricted_growth_partitions(inner)
                   for outer_blocks in _restricted_growth_partitions(outer)]
    assert enumerate_splits(d) == expect


PROPERTY_SETTINGS = settings(derandomize=True, database=None, max_examples=60, deadline=None)


@st.composite
def labelled_blocks(draw, max_d=6):
    """The blocks of a random labelling of {1,..,d}, in a random block order
    and with each block's indices in a random order."""
    d = draw(st.integers(1, max_d))
    labels = draw(st.lists(st.integers(0, d - 1), min_size=d, max_size=d))
    blocks = [[i for i, lab in enumerate(labels, 1) if lab == label] for label in set(labels)]
    return d, [tuple(draw(st.permutations(b))) for b in draw(st.permutations(blocks))]


@PROPERTY_SETTINGS
@given(labelled_blocks(), st.data())
def test_canonical_form_is_idempotent_and_ignores_block_labels(case, data):
    d, blocks = case
    part = SetPartition(tuple(blocks))
    assert list(part.blocks) == sorted(part.blocks)
    assert all(list(b) == sorted(b) for b in part.blocks)
    # idempotent: the canonical blocks, and their text, give the same partition
    assert SetPartition(part.blocks) == part
    assert SetPartition.parse(str(part)) == part
    # another order of the blocks and of each block's indices
    relabelled = [tuple(data.draw(st.permutations(b))) for b in data.draw(st.permutations(blocks))]
    assert SetPartition(tuple(relabelled)) == part
    assert part in enumerate_partitions(d)


@PROPERTY_SETTINGS
@given(labelled_blocks(max_d=3), st.data())
def test_split_canonical_form_ignores_block_order(case, data):
    d, blocks = case
    outer = data.draw(st.lists(st.booleans(), min_size=len(blocks), max_size=len(blocks)))
    split = SplitPartition(tuple(b for b, o in zip(blocks, outer) if not o),
                           tuple(b for b, o in zip(blocks, outer) if o))
    assert SplitPartition(split.inner, split.outer) == split
    assert SplitPartition.parse(str(split)) == split
    assert SplitPartition(split.inner[::-1], split.outer[::-1]) == split
    assert split in enumerate_splits(d)
