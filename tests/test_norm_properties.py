"""Property tests of the alternating solver on small random tensors."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from concentro.norms import NormOptions, norm_J
from concentro.partitions import SetPartition, enumerate_partitions
from concentro.poly import Polynomial, ProductDistribution, expected_derivative_tensor
from concentro.tensor import IndexMask, Tensor, apply_mask, symmetrize
from oracles import contract, hadamard_rank_one

OPTS = NormOptions(restarts=16, seed=3)
PROPERTY_SETTINGS = settings(derandomize=True, database=None, max_examples=40, deadline=None)


@st.composite
def tensor_and_partition(draw, min_blocks=1, max_blocks=4):
    d = draw(st.integers(3, 4))
    m = draw(st.integers(2, 3))
    values = draw(arrays(np.float64, (m,) * d,
                         elements=st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)))
    part = draw(st.sampled_from([p for p in enumerate_partitions(d)
                                 if min_blocks <= p.n_blocks <= max_blocks]))
    return Tensor(values), part


def two_block_coarsenings(part):
    """Every partition that merges the blocks of `part` into two groups."""
    first, rest = part.blocks[0], part.blocks[1:]
    for mask in itertools.product((0, 1), repeat=len(rest)):
        if any(mask):
            groups = [first + tuple(i for b, bit in zip(rest, mask) if not bit for i in b),
                      tuple(i for b, bit in zip(rest, mask) if bit for i in b)]
            yield SetPartition(tuple(groups))


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


@PROPERTY_SETTINGS
@given(tensor_and_partition(max_blocks=2), st.data())
def test_hadamard_multiplier_bound(case, data):
    # |A o (v_1 x .. x v_d)|_J <= prod_k max|v_k| |A|_J, checked where norm_J is exact
    a, part = case
    vecs = [data.draw(arrays(np.float64, a.dim, elements=st.floats(-3.0, 3.0)))
            for _ in range(a.order)]
    factor = float(np.prod([np.abs(v).max() for v in vecs]))
    lhs = norm_J(hadamard_rank_one(a, *vecs), part).value
    assert lhs <= factor * norm_J(a, part).value * (1 + 1e-9)


@PROPERTY_SETTINGS
@given(tensor_and_partition(max_blocks=2), st.data())
def test_masking_factors(case, data):
    # a generalized diagonal costs nothing; a level set of K costs at most
    # 2^(#K(#K-1)/2), one factor |1 - delta| <= 2 per pair of its blocks;
    # checked where norm_J is exact
    a, part = case
    subset = data.draw(st.sets(st.integers(1, a.order), min_size=2))
    level = data.draw(st.sampled_from(enumerate_partitions(a.order)))
    bound = norm_J(a, part).value * (1 + 1e-9)
    pairs = lambda k: k * (k - 1) / 2
    for mask, factor in ((IndexMask.generalized_diagonal(subset), 1.0),
                         (IndexMask("level-set", partition=level), 2.0 ** pairs(level.n_blocks)),
                         (IndexMask.off_diagonal(), 2.0 ** pairs(a.order))):
        assert norm_J(apply_mask(a, mask), part).value <= factor * bound


# ---------------------------------------------------------------------------
# the symmetry that lets a bound report solve one partition per shape

@st.composite
def sparse_polynomial(draw):
    nvars = draw(st.integers(1, 3))
    terms = {}
    for _ in range(draw(st.integers(1, 5))):
        powers = draw(st.lists(st.integers(0, 4), min_size=nvars, max_size=nvars)
                      .filter(lambda ps: 0 < sum(ps) <= 4))
        key = tuple((v + 1, k) for v, k in enumerate(powers) if k)
        terms[key] = draw(st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False))
    return Polynomial(nvars, terms)


LAWS = [ProductDistribution("gaussian"), ProductDistribution("bernoulli", p=0.3),
        ProductDistribution("weibull", alpha=1.5)]


@PROPERTY_SETTINGS
@given(sparse_polynomial(), st.sampled_from(LAWS))
def test_expected_derivative_tensor_is_exactly_symmetric(f, dist):
    for d in range(1, f.degree + 1):
        tens = expected_derivative_tensor(f, dist, d).values
        for perm in itertools.permutations(range(d)):
            assert np.array_equal(tens, tens.transpose(perm))


@PROPERTY_SETTINGS
@given(tensor_and_partition())
def test_exact_norms_agree_across_a_shape(case):
    a, _ = case
    a = symmetrize(a)
    by_shape = {}
    for part in enumerate_partitions(a.order):
        if part.n_blocks <= 2:
            by_shape.setdefault(part.shape, []).append(norm_J(a, part).value)
    for values in by_shape.values():
        assert max(values) - min(values) <= 1e-12 * max(values)


@pytest.mark.parametrize("m", [3, 4, 5])
def test_generalized_diagonal_mask_keeps_only_the_diagonal(m):
    # A = J - (m/2) I at 1|2: |A| = m/2, its diagonal (1 - m/2) I has norm
    # m/2 - 1, and the complement J - I has norm m - 1 > m/2, so a mask that
    # kept the complement would break the factor-1 bound of test_masking_factors
    a = Tensor(np.ones((m, m)) - m / 2 * np.eye(m))
    part = SetPartition.parse("1|2")
    full = norm_J(a, part).value
    masked = norm_J(apply_mask(a, IndexMask.generalized_diagonal((1, 2))), part).value
    assert full == pytest.approx(m / 2, rel=1e-12)
    assert masked == pytest.approx(m / 2 - 1, rel=1e-12)
    assert masked <= full
