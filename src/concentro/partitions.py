"""Set partitions of {1,..,d} and inner/outer splits used by the mixed norms.

Partitions are canonical: blocks sorted by minimum element, indices ascending
inside each block.  Enumeration follows restricted-growth-string order, so the
k-th partition is the same on every run and every machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

MAX_PARTITION_ORDER = 6
MAX_SPLIT_ORDER = 3


def _canonical(blocks) -> tuple[tuple[int, ...], ...]:
    cleaned = [tuple(sorted(int(i) for i in b)) for b in blocks]
    if any(len(b) == 0 for b in cleaned):
        raise ValueError("partition blocks must be nonempty")
    cleaned.sort(key=lambda b: b[0])
    return tuple(cleaned)


def _parse_blocks(text: str) -> tuple[tuple[int, ...], ...]:
    """The blocks of a label such as "1,2|3": blocks split on '|', indices on ','."""
    blocks = []
    for part in text.split("|"):
        part = part.strip()
        if not part:
            raise ValueError(f"empty block in partition string {text!r}")
        blocks.append(tuple(int(tok) for tok in part.split(",")))
    return tuple(blocks)


def _label(blocks) -> str:
    return "|".join(",".join(str(i) for i in b) for b in blocks)


def _order(blocks, what: str) -> int:
    """The order d of blocks that hold each of 1..d exactly once, d >= 1."""
    indices = sorted(i for b in blocks for i in b)
    if not indices or indices != list(range(1, len(indices) + 1)):
        raise ValueError(f"{what} blocks must hold each of 1..d exactly once, got {indices}")
    return len(indices)


@dataclass(frozen=True)
class SetPartition:
    """A partition of {1,..,d} into nonempty pairwise disjoint blocks; the
    blocks fix d."""

    blocks: tuple[tuple[int, ...], ...]
    d: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "blocks", _canonical(self.blocks))
        object.__setattr__(self, "d", _order(self.blocks, "partition"))

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def shape(self) -> tuple[int, ...]:
        """The sorted block sizes: partitions of one shape differ by a
        relabeling of {1,..,d}."""
        return tuple(sorted(len(b) for b in self.blocks))

    @classmethod
    def parse(cls, text: str) -> "SetPartition":
        """Parse "1,2|3" into a partition (1-based indices, blocks split on '|')."""
        return cls(_parse_blocks(text))

    def __str__(self) -> str:
        return _label(self.blocks)


@dataclass(frozen=True)
class SplitPartition:
    """An (inner, outer) pair of partitions of disjoint subsets covering {1,..,d}.

    Either side may be empty (zero blocks).  Inner blocks carry Euclidean
    constraints, outer blocks the mixed l_alpha(l_2) constraints.  The blocks
    fix d.
    """

    inner: tuple[tuple[int, ...], ...]
    outer: tuple[tuple[int, ...], ...]
    d: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "inner", _canonical(self.inner))
        object.__setattr__(self, "outer", _canonical(self.outer))
        object.__setattr__(self, "d", _order(self.inner + self.outer, "split"))

    @property
    def shape(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(sorted inner block sizes, sorted outer block sizes)."""
        return tuple(sorted(len(b) for b in self.inner)), tuple(sorted(len(b) for b in self.outer))

    @classmethod
    def parse(cls, text: str) -> "SplitPartition":
        """Parse "1|2||3": inner and outer separated by '||', blocks by '|'."""
        if "||" not in text:
            raise ValueError(f"split string {text!r} must contain '||'")
        return cls(*(_parse_blocks(side) if side.strip() else ()
                     for side in text.split("||", 1)))

    def __str__(self) -> str:
        return f"{_label(self.inner)}||{_label(self.outer)}"


def _partitions_of(elements: tuple[int, ...]):
    """All partitions of the given sorted elements, in restricted-growth order:
    the last element joins each block of a partition of the others in turn,
    then opens a block of its own."""
    if not elements:
        yield ()
        return
    last = elements[-1]
    for blocks in _partitions_of(elements[:-1]):
        for i in range(len(blocks)):
            yield blocks[:i] + (blocks[i] + (last,),) + blocks[i + 1:]
        yield blocks + ((last,),)


def enumerate_partitions(d: int) -> list[SetPartition]:
    """All partitions of {1,..,d} in restricted-growth-string order (Bell(d) many)."""
    if not 1 <= d <= MAX_PARTITION_ORDER:
        raise ValueError(f"partition order d={d} outside [1, {MAX_PARTITION_ORDER}]"
                         " (tensor sizes beyond order 6 are not desk scale)")
    return [SetPartition(blocks) for blocks in _partitions_of(tuple(range(1, d + 1)))]


def enumerate_splits(d: int) -> list[SplitPartition]:
    """All (I, inner partition of I, outer partition of complement) triples.

    Order: subsets I by ascending bitmask, partitions of each side in
    restricted-growth order.  Count is sum over I of Bell(#I)*Bell(d-#I).
    """
    if not 1 <= d <= MAX_SPLIT_ORDER:
        raise ValueError(f"split order d={d} outside [1, {MAX_SPLIT_ORDER}]"
                         " (mixed norms are supported for order <= 3 only)")
    out = []
    universe = tuple(range(1, d + 1))
    for mask in range(1 << d):
        inner_elems = tuple(i for i in universe if mask & (1 << (i - 1)))
        outer_elems = tuple(i for i in universe if not mask & (1 << (i - 1)))
        for inner in _partitions_of(inner_elems):
            for outer in _partitions_of(outer_elems):
                out.append(SplitPartition(inner, outer))
    return out


def merged(split: SplitPartition) -> SetPartition:
    """The plain partition obtained by forgetting the inner/outer distinction."""
    return SetPartition(split.inner + split.outer)
