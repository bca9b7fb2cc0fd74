"""Dense order-d tensors with equal axis lengths, index masks, exact
symmetrization, the row contraction kernel `contract_rows` and the JSON loader.

Storage is row-major with the last index fastest, matching the on-disk JSON
format, and capped at 4e6 entries.  Tensors are immutable after construction.
Every index predicate is an `IndexMask`: its pair rule `_equal(j, k)` says
whether coordinates j and k must be equal, must differ or are free, and
`boolean` applies it to every pair j < k (`np.indices` is read only here).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .partitions import MAX_PARTITION_ORDER, SetPartition

MAX_ENTRIES = 4_000_000


def _count(value, name: str) -> int:
    """`value` as an int when it is a whole number of at least 1 (an integer,
    or a float with no fraction part), else a ValueError naming `name`."""
    if type(value) is int and value >= 1:   # the common case, checked first
        return value
    whole = isinstance(value, np.integer) or isinstance(value, float) and value.is_integer()
    if not whole or value < 1:
        raise ValueError(f"{name} must be a whole number >= 1, got {value!r}")
    return int(value)


class Tensor:
    """Order-d array with every axis of length m, identified with a d-linear form."""

    __slots__ = ("_a",)

    def __init__(self, values):
        a = np.array(values, dtype=float, order="C")
        if a.ndim < 1 or a.ndim > MAX_PARTITION_ORDER:
            raise ValueError(f"tensor order must be in [1, {MAX_PARTITION_ORDER}], got {a.ndim}")
        m = a.shape[0]
        if any(s != m for s in a.shape):
            raise ValueError(f"all axes must have equal length, got shape {a.shape}")
        if a.size > MAX_ENTRIES:
            raise ValueError(f"tensor has {a.size} entries, cap is {MAX_ENTRIES}")
        if not np.all(np.isfinite(a)):
            raise ValueError("tensor entries must be finite")
        a.flags.writeable = False
        self._a = a

    @property
    def order(self) -> int:
        return self._a.ndim

    @property
    def dim(self) -> int:
        return self._a.shape[0]

    @property
    def values(self) -> np.ndarray:
        return self._a

    def __repr__(self) -> str:
        return f"Tensor(order={self.order}, dim={self.dim})"


@dataclass(frozen=True)
class IndexMask:
    """Index predicate: generalized diagonal, exact level set, or off-diagonal."""

    kind: str
    subset: tuple[int, ...] = ()
    partition: SetPartition | None = None

    @classmethod
    def generalized_diagonal(cls, subset) -> "IndexMask":
        subset = tuple(sorted(int(i) for i in subset))
        if len(subset) < 2:
            raise ValueError("generalized diagonal needs at least two coordinates")
        return cls("generalized-diagonal", subset=subset)

    @classmethod
    def off_diagonal(cls) -> "IndexMask":
        return cls("off-diagonal")

    def _equal(self, j: int, k: int) -> bool | None:
        """The pair rule for coordinates j < k (1-based): True when they must
        be equal, False when they must differ, None when they are free."""
        if self.kind == "generalized-diagonal":
            return True if j in self.subset and k in self.subset else None
        if self.kind == "level-set":
            return any(j in b and k in b for b in self.partition.blocks)
        return False

    def boolean(self, order: int, dim: int) -> np.ndarray:
        """Boolean array over [dim]^order where the pair rule holds for every
        coordinate pair j < k."""
        if self.kind == "generalized-diagonal":
            if any(not 1 <= k <= order for k in self.subset):
                raise ValueError(f"diagonal coordinates {self.subset} outside [1, {order}]")
        elif self.kind == "level-set":
            if self.partition is None or self.partition.d != order:
                raise ValueError("level-set mask needs a partition of the tensor order")
        elif self.kind != "off-diagonal":
            raise ValueError(f"unknown mask kind {self.kind!r}")
        idx = np.indices((dim,) * order)
        keep = np.ones((dim,) * order, dtype=bool)
        for j, k in itertools.combinations(range(order), 2):
            equal = self._equal(j + 1, k + 1)
            if equal is not None:
                keep &= (idx[j] == idx[k]) == equal
        return keep


def apply_mask(a: Tensor, mask: IndexMask) -> Tensor:
    keep = mask.boolean(a.order, a.dim)
    return Tensor(np.where(keep, a.values, 0.0))


def contract_rows(values: np.ndarray, vecs) -> np.ndarray:
    """sum_i values[i_1, .., i_k] * prod_j vecs[j][z, i_j] for each row z of the
    (rows, values.shape[j]) factors: one GEMM with the first factor, then one
    batched reduction per remaining factor; returns (rows,)."""
    rows = vecs[0].shape[0]
    w = vecs[0] @ values.reshape(values.shape[0], -1)
    for j, v in enumerate(vecs[1:], 1):
        w = np.einsum("zb...,zb->z...", w.reshape((rows,) + values.shape[j:]), v)
    return w.reshape(rows)


def symmetrize(a: Tensor) -> Tensor:
    """Average of `a` over all permutations of its axes, exactly symmetric.

    The floating-point sum of the permuted copies depends on the order in
    which an entry meets them, so every entry is then copied from its
    sorted-index representative: entries in one orbit are bit-identical.
    """
    acc = np.zeros_like(a.values)
    perms = list(itertools.permutations(range(a.order)))
    for perm in perms:
        acc += a.values.transpose(perm)
    acc /= len(perms)
    return Tensor(acc[tuple(np.sort(np.indices(acc.shape), axis=0))])


def load_tensor(path: str) -> Tensor:
    with open(path) as fh:
        doc = json.load(fh)
    try:
        order, dim, values = doc["order"], doc["dim"], np.asarray(doc["values"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:   # ValueError: ragged or text values
        raise ValueError(f"tensor file {path} needs order, dim and numeric values") from exc
    order, dim = _count(order, "tensor order"), _count(dim, "tensor dim")
    if values.size != dim**order:
        raise ValueError(f"expected {dim**order} values, got {values.size}")
    return Tensor(values.reshape((dim,) * order))
