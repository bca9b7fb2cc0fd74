"""Property tests of the alternating solver on small random tensors."""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from concentro.norms import NormOptions, norm_J
from concentro.partitions import SetPartition, enumerate_partitions
from concentro.tensor import Tensor, contract

OPTS = NormOptions(restarts=16, seed=3)
PROPERTY_SETTINGS = settings(derandomize=True, database=None, max_examples=40, deadline=None)


@st.composite
def tensor_and_partition(draw, min_blocks=1):
    d = draw(st.integers(3, 4))
    m = draw(st.integers(2, 3))
    values = draw(arrays(np.float64, (m,) * d,
                         elements=st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)))
    part = draw(st.sampled_from([p for p in enumerate_partitions(d) if p.n_blocks >= min_blocks]))
    return Tensor(values), part


def two_block_coarsenings(part):
    """Every partition that merges the blocks of `part` into two groups."""
    first, rest = part.blocks[0], part.blocks[1:]
    for mask in itertools.product((0, 1), repeat=len(rest)):
        if any(mask):
            groups = [first + tuple(i for b, bit in zip(rest, mask) if not bit for i in b),
                      tuple(i for b, bit in zip(rest, mask) if bit for i in b)]
            yield SetPartition(part.d, tuple(groups))


@PROPERTY_SETTINGS
@given(tensor_and_partition())
def test_norm_at_most_frobenius(case):
    a, part = case
    scale = np.abs(a.values).max() or 1.0
    fro = scale * float(np.linalg.norm(a.values / scale))
    assert norm_J(a, part, OPTS).value <= fro * (1 + 1e-12)


@PROPERTY_SETTINGS
@given(tensor_and_partition(min_blocks=2))
def test_als_at_most_every_two_block_coarsening(case):
    a, part = case
    als = norm_J(a, part, OPTS, method="als").value
    for coarse in two_block_coarsenings(part):
        exact = norm_J(a, coarse).value
        assert als <= exact * (1 + 1e-9)


@PROPERTY_SETTINGS
@given(tensor_and_partition(min_blocks=2))
def test_als_at_least_form_at_all_equal_start(case):
    a, part = case
    start = [np.full(a.dim ** len(b), a.dim ** (-len(b) / 2)) for b in part.blocks]
    als = norm_J(a, part, OPTS, method="als").value
    assert als >= contract(a, part, start) * (1 - 1e-12)
