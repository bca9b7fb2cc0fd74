import itertools

import numpy as np
import pytest

from concentro import norms
from concentro.partitions import SetPartition, SplitPartition, enumerate_partitions
from concentro.norms import (
    NormOptions,
    NormResult,
    _alternating_max,
    _BlockSpec,
    _dual_step,
    _init_vectors,
    _project_ball,
    mixed_norm,
    norm_J,
    norm_J_bruteforce,
)
from concentro.tensor import IndexMask, Tensor, apply_mask, symmetrize
from oracles import contract, hadamard_rank_one, refines

OPTS = NormOptions(restarts=32, seed=0)


def diag3(values):
    m = len(values)
    a = np.zeros((m, m, m))
    for i, v in enumerate(values):
        a[i, i, i] = v
    return Tensor(a)


def check_certificate(a, part, res):
    assert all(np.linalg.norm(v) <= 1 + 1e-12 for v in res.certificate)
    reproduced = contract(a, part, res.certificate)
    assert reproduced == pytest.approx(res.value, rel=1e-9, abs=1e-12)


def test_identity_frobenius_and_spectral():
    ident = Tensor(np.eye(2))
    r1 = norm_J(ident, SetPartition.parse("1,2"))
    assert r1.method == "frobenius"
    assert r1.value == pytest.approx(np.sqrt(2), rel=1e-14)
    check_certificate(ident, SetPartition.parse("1,2"), r1)
    r2 = norm_J(ident, SetPartition.parse("1|2"))
    assert r2.method == "matricization-spectral"
    assert r2.value == pytest.approx(1.0, rel=1e-14)
    check_certificate(ident, SetPartition.parse("1|2"), r2)


def test_diagonal_tensor_norms():
    a = diag3([1.0, 2.0, 3.0])
    # one non-singleton block groups everything through the diagonal: sup |x_i|
    assert norm_J(a, SetPartition.parse("1|2,3")).value == pytest.approx(3.0, rel=1e-12)
    assert norm_J(a, SetPartition.parse("1,2,3")).value == pytest.approx(np.sqrt(14), rel=1e-14)
    r = norm_J(a, SetPartition.parse("1|2|3"), OPTS)
    assert r.method == "als"
    assert r.value == pytest.approx(3.0, rel=1e-10)
    check_certificate(a, SetPartition.parse("1|2|3"), r)


def test_zero_tensor_short_circuit():
    z = Tensor(np.zeros((3, 3, 3)))
    res = norm_J(z, SetPartition.parse("1|2|3"))
    assert res.value == 0.0
    assert all(np.all(v == 0) for v in res.certificate)
    assert norm_J_bruteforce(z, SetPartition.parse("1|2|3"), 10) == 0.0
    assert mixed_norm(z, SplitPartition.parse("1||2,3"), 1.5) == 0.0


def test_bruteforce_identity_and_rank_one():
    ident = Tensor(np.eye(2))
    val = norm_J_bruteforce(ident, SetPartition.parse("1|2"), 10_000, seed=1)
    assert val == pytest.approx(1.0, abs=1e-6)
    rng = np.random.default_rng(2)
    u, v, w = (x / np.linalg.norm(x) for x in rng.standard_normal((3, 3)))
    rank1 = Tensor(np.einsum("i,j,k->ijk", u, v, w))
    val = norm_J_bruteforce(rank1, SetPartition.parse("1|2|3"), 10_000, seed=3)
    assert val == pytest.approx(1.0, abs=1e-6)


def test_bruteforce_dimension_cap():
    big = Tensor(np.ones((5, 5, 5)))
    with pytest.raises(ValueError):
        norm_J_bruteforce(big, SetPartition.parse("1,2,3"), 10)  # dim 125 > 64


def test_als_matches_bruteforce_on_random_tensors():
    rng = np.random.default_rng(100)
    for _ in range(10):
        a = Tensor(rng.standard_normal((3, 3, 3)))
        als = norm_J(a, SetPartition.parse("1|2|3"), NormOptions(restarts=64, seed=5)).value
        brute = norm_J_bruteforce(a, SetPartition.parse("1|2|3"), 20_000, seed=7)
        assert als == pytest.approx(brute, abs=1e-6)


def test_als_agrees_with_matricization_on_two_blocks():
    rng = np.random.default_rng(101)
    parts = [p for p in enumerate_partitions(3) if p.n_blocks == 2]
    for _ in range(10):
        a = Tensor(rng.standard_normal((3, 3, 3)))
        for part in parts:
            exact = norm_J(a, part).value
            als = norm_J(a, part, NormOptions(restarts=16, seed=3), method="als").value
            assert als == pytest.approx(exact, abs=1e-8)
            assert als <= exact + 1e-8


def test_norm_dominated_by_frobenius_and_merge_monotone():
    rng = np.random.default_rng(102)
    for _ in range(20):
        a = Tensor(rng.standard_normal((3, 3, 3)))
        fro = norm_J(a, SetPartition.parse("1,2,3")).value
        for part in enumerate_partitions(3):
            val = norm_J(a, part, OPTS).value
            assert val <= fro + 1e-8
        # refinement decreases the norm (ALS lower bound on the finer side)
        for fine, coarse in itertools.permutations(enumerate_partitions(3), 2):
            if refines(fine, coarse) and coarse.n_blocks <= 2:
                vf = norm_J(a, fine, OPTS).value
                vc = norm_J(a, coarse).value
                assert vf <= vc + 1e-8


def test_rank_one_hadamard_multiplier_inequality():
    rng = np.random.default_rng(103)
    for _ in range(50):
        d = int(rng.integers(2, 4))
        m = int(rng.integers(2, 4))
        a = Tensor(rng.standard_normal((m,) * d))
        vs = [rng.standard_normal(m) for _ in range(d)]
        b = hadamard_rank_one(a, *vs)
        bound = float(np.prod([np.max(np.abs(v)) for v in vs]))
        for part in enumerate_partitions(d):
            lhs = norm_J(b, part, OPTS).value
            rhs = norm_J(a, part, OPTS).value
            assert lhs <= rhs * bound + 1e-8


def test_diagonal_selection_inequality():
    rng = np.random.default_rng(104)
    for _ in range(30):
        d = 3
        m = 3
        a = Tensor(rng.standard_normal((m,) * d))
        subsets = [(1, 2), (1, 3), (2, 3), (1, 2, 3)]
        k = subsets[int(rng.integers(len(subsets)))]
        masked = apply_mask(a, IndexMask.generalized_diagonal(k))
        for part in enumerate_partitions(d):
            assert norm_J(masked, part, OPTS).value <= norm_J(a, part, OPTS).value + 1e-8


def test_level_set_mask_inequality():
    rng = np.random.default_rng(105)
    for _ in range(30):
        d = 3
        a = Tensor(rng.standard_normal((3,) * d))
        parts = enumerate_partitions(d)
        k = parts[int(rng.integers(len(parts)))]
        masked = apply_mask(a, IndexMask("level-set", partition=k))
        factor = 2.0 ** (k.n_blocks * (k.n_blocks - 1) / 2)
        for part in parts:
            lhs = norm_J(masked, part, OPTS).value
            rhs = norm_J(a, part, OPTS).value
            assert lhs <= factor * rhs + 1e-8


def test_permutation_invariance_for_symmetric_tensors():
    rng = np.random.default_rng(106)
    a = symmetrize(Tensor(rng.standard_normal((3, 3, 3))))
    for part in enumerate_partitions(3):
        base = norm_J(a, part, OPTS).value
        for perm in itertools.permutations((1, 2, 3)):
            relabeled = SetPartition(tuple(tuple(perm[i - 1] for i in b) for b in part.blocks))
            assert norm_J(a, relabeled, OPTS).value == pytest.approx(base, abs=1e-8)


def test_als_stopping_test_is_relative():
    # a tensor with small entries sweeps to the same value as at scale 1;
    # an absolute tolerance stopped it after 9 of 47 sweeps at scale 1e-9
    a = np.random.default_rng(5).standard_normal((4, 4, 4))
    part = SetPartition.parse("1|2|3")
    opts = NormOptions(restarts=64)
    base = norm_J(Tensor(a), part, opts)
    for scale in (1e-9, 1e-30):
        small = norm_J(Tensor(scale * a), part, opts)
        assert small.value / scale == pytest.approx(base.value, rel=1e-12)


def test_norm_is_deterministic():
    rng = np.random.default_rng(107)
    a = Tensor(rng.standard_normal((3, 3, 3)))
    p = SetPartition.parse("1|2|3")
    r1 = norm_J(a, p, NormOptions(restarts=8, seed=42))
    r2 = norm_J(a, p, NormOptions(restarts=8, seed=42))
    assert r1.value == r2.value


def test_mixed_norm_vector_cases():
    a = Tensor(np.array([3.0, 4.0]))
    assert mixed_norm(a, SplitPartition.parse("1||"), 1.0) == pytest.approx(5.0, rel=1e-12)
    assert mixed_norm(a, SplitPartition.parse("||1"), 1.0) == pytest.approx(4.0, rel=1e-12)
    # generic alpha: the dual norm |a|_beta with beta = alpha/(alpha-1)
    val = mixed_norm(a, SplitPartition.parse("||1"), 1.5)
    assert val == pytest.approx((3.0**3 + 4.0**3) ** (1 / 3), rel=1e-10)
    assert mixed_norm(a, SplitPartition.parse("||1"), 2.0) == pytest.approx(5.0, rel=1e-12)


def test_mixed_norm_matrix_cases():
    ident = Tensor(np.eye(2))
    assert mixed_norm(ident, SplitPartition.parse("||1|2"), 1.0) == pytest.approx(1.0, abs=1e-10)
    rng = np.random.default_rng(108)
    a = Tensor(rng.standard_normal((4, 4)))
    # alpha=2 merges each outer block into a Euclidean ball
    two_fro = mixed_norm(a, SplitPartition.parse("||1,2"), 2.0)
    assert two_fro == pytest.approx(2 * np.linalg.norm(a.values), rel=1e-12)
    # alpha=1, inner {1} outer {2}: largest column norm
    col = mixed_norm(a, SplitPartition.parse("1||2"), 1.0, OPTS)
    assert col == pytest.approx(np.linalg.norm(a.values, axis=0).max(), rel=1e-10)


def test_mixed_norm_row_column_closed_form():
    rng = np.random.default_rng(109)
    a = Tensor(rng.standard_normal((4, 4)))
    for alpha in (1.0, 1.25, 1.5, 2.0):
        got = mixed_norm(a, SplitPartition.parse("||1,2"), alpha, OPTS)
        if alpha == 1.0:
            expect = np.linalg.norm(a.values, axis=1).max() + np.linalg.norm(a.values, axis=0).max()
        elif alpha == 2.0:
            expect = 2 * np.linalg.norm(a.values)
        else:
            beta = alpha / (alpha - 1)
            rows = np.linalg.norm(a.values, axis=1)
            cols = np.linalg.norm(a.values, axis=0)
            expect = (rows**beta).sum() ** (1 / beta) + (cols**beta).sum() ** (1 / beta)
        assert got == pytest.approx(expect, rel=1e-9)


def test_mixed_norm_alpha2_equals_merged_partition_combination():
    rng = np.random.default_rng(110)
    a = Tensor(rng.standard_normal((3, 3, 3)))
    split = SplitPartition.parse("1||2,3")
    got = mixed_norm(a, split, 2.0)
    expect = 2 * norm_J(a, SetPartition.parse("1|2,3")).value
    assert got == pytest.approx(expect, abs=1e-8)


def test_mixed_norm_validation():
    a = Tensor(np.ones((2, 2)))
    with pytest.raises(ValueError):
        mixed_norm(a, SplitPartition.parse("||1,2"), 0.5)
    with pytest.raises(ValueError):
        mixed_norm(a, SplitPartition.parse("||1,2"), 2.5)
    with pytest.raises(ValueError):
        mixed_norm(a, SplitPartition.parse("1||2,3"), 1.5)  # order mismatch
    big = Tensor(np.ones((2, 2, 2, 2)))
    with pytest.raises(ValueError):
        mixed_norm(big, SplitPartition.parse("1,2||3"), 1.5)


def test_norm_options_validation():
    with pytest.raises(ValueError):
        NormOptions(restarts=0)
    # "auto" already picks the exact solvers; they cannot be forced
    for method in ("frobenius", "matricization-spectral"):
        with pytest.raises(ValueError, match="unknown norm method"):
            norm_J(Tensor(np.eye(2)), SetPartition.parse("1|2"), method=method)


# ---------------------------------------------------------------------------
# the alternating kernel against per-block references

_AXES = "abcdefgh"

MIXED_BLOCKS = [
    [_BlockSpec((1,)), _BlockSpec((2, 3), s_pos=1, alpha=1.5)],
    [_BlockSpec((1,)), _BlockSpec((2, 3), s_pos=0, alpha=1.5),
     _BlockSpec((4,), alpha=1.5)],
    [_BlockSpec((1, 2), s_pos=1, alpha=1.0), _BlockSpec((3,), alpha=1.0)],
]


def _l2_blocks(part):
    return [_BlockSpec(b) for b in part.blocks]


def _reference_starts(blocks, m, restarts, seed):
    """Start points drawn block by block, one row per _project_ball call."""
    dims = [m ** len(b.coords) for b in blocks]
    vecs = [np.empty((dim, restarts)) for dim in dims]
    for l, (spec, dim) in enumerate(zip(blocks, dims)):
        vecs[l][:, 0] = _project_ball(spec, np.ones((1, dim)), m)[0]
    for r in range(1, restarts):
        rng = np.random.default_rng(seed + r)
        for l, (spec, dim) in enumerate(zip(blocks, dims)):
            vecs[l][:, r] = _project_ball(spec, rng.standard_normal((1, dim)), m)[0]
    return vecs


def _reference_sweep(a, blocks, vecs):
    """One Gauss-Seidel sweep, each block update one np.einsum over the tensor."""
    m, nrestarts = a.dim, vecs[0].shape[1]
    vecs = [v.copy() for v in vecs]
    for l, spec in enumerate(blocks):
        operands, subs = [a.values], [_AXES[:a.order]]
        for j, other in enumerate(blocks):
            if j != l:
                operands.append(vecs[j].reshape((m,) * len(other.coords) + (nrestarts,)))
                subs.append("".join(_AXES[i - 1] for i in other.coords) + "z")
        out = "".join(_AXES[i - 1] for i in spec.coords) + "z"
        g = np.einsum(",".join(subs) + "->" + out, *operands).reshape(-1, nrestarts)
        vals, y = _dual_step(spec, g, m)
        vecs[l] = np.where(vals > 0, y, vecs[l])
    return vals, vecs


@pytest.mark.parametrize("restarts", [1, 2, 64])
@pytest.mark.parametrize("blocks", [_l2_blocks(SetPartition.parse("1,2|3|4")),
                                    _l2_blocks(SetPartition.parse("1|2|3"))] + MIXED_BLOCKS)
def test_init_vectors_match_per_block_draws(blocks, restarts):
    got = _init_vectors(blocks, 3, restarts, seed=17)
    expect = _reference_starts(blocks, 3, restarts, seed=17)
    assert all(np.array_equal(g, e) for g, e in zip(got, expect))


FOUR_PARTS = [p for p in enumerate_partitions(4) if p.n_blocks >= 3]


@pytest.mark.parametrize("blocks", [_l2_blocks(p) for p in FOUR_PARTS] + MIXED_BLOCKS[:2],
                         ids=[str(p) for p in FOUR_PARTS] + ["mixed-2", "mixed-3"])
def test_one_sweep_matches_per_block_einsum(blocks):
    order = max(i for b in blocks for i in b.coords)
    a = Tensor(np.random.default_rng(order).standard_normal((3,) * order))
    start = _init_vectors(blocks, 3, 16, seed=5)
    vals, vecs, sweeps = _alternating_max(a, blocks, [v.copy() for v in start], 1, 1e-10)
    ref_vals, ref_vecs = _reference_sweep(a, blocks, start)
    assert sweeps == 1
    np.testing.assert_allclose(vals, ref_vals, rtol=1e-12, atol=0)
    for v, r in zip(vecs, ref_vecs):
        np.testing.assert_allclose(v, r, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("part", FOUR_PARTS + [SetPartition.parse("1|2|3")], ids=str)
def test_returned_values_are_form_values(part):
    a = Tensor(np.random.default_rng(part.n_blocks).standard_normal((3,) * part.d))
    blocks = _l2_blocks(part)
    vals, vecs, _ = _alternating_max(a, blocks, _init_vectors(blocks, 3, 8, seed=1), 500, 1e-10)
    for r in range(8):
        form = contract(a, part, [v[:, r] for v in vecs])
        assert form == pytest.approx(vals[r], rel=1e-12)


def test_dual_steps_keep_a_zero_column_zero():
    g = np.random.default_rng(3).standard_normal((9, 4))
    g[:, 2] = 0.0
    vals, y = _dual_step(_BlockSpec((1, 2)), g, 3)
    assert vals[2] == 0.0 and not y[:, 2].any()
    np.testing.assert_allclose(np.linalg.norm(y[:, [0, 1, 3]], axis=0), 1.0, rtol=1e-15)
    for spec in MIXED_BLOCKS[2]:
        vals, y = _dual_step(spec, g[: 3 ** len(spec.coords)], 3)
        assert vals[2] == 0.0 and not y[:, 2].any() and (vals[[0, 1, 3]] > 0).all()


# ---------------------------------------------------------------------------
# the start-point memo

@pytest.fixture
def cold_memo(monkeypatch):
    """An empty start-point memo for one test; the process's memo is back after it."""
    monkeypatch.setattr(norms, "_starts_memo", {})


def test_warm_memo_builds_no_generators(cold_memo, monkeypatch):
    first, second = (Tensor(np.random.default_rng(s).standard_normal((3, 3, 3))) for s in (1, 2))
    built = []
    make = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda *a: built.append(a) or make(*a))
    part = SetPartition.parse("1|2|3")
    norm_J(first, part, NormOptions(restarts=16, seed=3))
    assert len(built) == 15
    # another tensor of the same shape, restarts and seed draws nothing
    norm_J(second, part, NormOptions(restarts=16, seed=3))
    assert len(built) == 15


def test_cold_warm_and_unkept_draws_give_the_same_bits(cold_memo, monkeypatch):
    a = Tensor(np.random.default_rng(4).standard_normal((3, 3, 3)))

    def solve():
        res = norm_J(a, SetPartition.parse("1|2|3"), OPTS)
        mixed = mixed_norm(a, SplitPartition.parse("1||2,3"), 1.5, OPTS)
        return repr(res.value), [v.tobytes() for v in res.certificate], repr(mixed)

    cold = solve()
    assert len(norms._starts_memo) == 2
    assert solve() == cold
    monkeypatch.setattr(norms, "STARTS_MEMO_BYTES", 0)
    monkeypatch.setattr(norms, "_starts_memo", {})
    assert solve() == cold and not norms._starts_memo


def test_memo_arrays_are_read_only(cold_memo):
    vecs = _init_vectors(_l2_blocks(SetPartition.parse("1|2|3")), 3, 8, seed=2)
    (starts,) = norms._starts_memo.values()
    assert not starts.flags.writeable
    with pytest.raises(ValueError):
        starts[1, 0] = 0.0
    # the start points are fresh arrays, which the solver may write
    assert all(v.flags.writeable and not np.shares_memory(v, starts) for v in vecs)


def test_memo_keeps_draws_within_its_byte_cap(cold_memo, monkeypatch):
    blocks = _l2_blocks(SetPartition.parse("1|2|3"))
    # above the cap: not kept
    too_many = norms.STARTS_MEMO_BYTES // (8 * 64) + 1
    assert norms._raw_starts(too_many, 64, 0).nbytes > norms.STARTS_MEMO_BYTES
    assert not norms._starts_memo
    # room for two 8-restart draws of 9 coordinates: the oldest leaves first
    monkeypatch.setattr(norms, "STARTS_MEMO_BYTES", 2 * 8 * 9 * 8)
    for seed in (0, 1, 2):
        _init_vectors(blocks, 3, 8, seed)
    assert list(norms._starts_memo) == [(9, 8, 1), (9, 8, 2)]
    _init_vectors(blocks, 3, 64, seed=0)
    assert list(norms._starts_memo) == [(9, 8, 1), (9, 8, 2)]
