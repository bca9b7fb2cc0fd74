import itertools
import json

import numpy as np
import pytest

from concentro.montecarlo import MCConfig, chaos_moment
from concentro.partitions import SetPartition, enumerate_partitions
from concentro.tensor import IndexMask, Tensor, apply_mask, load_tensor, symmetrize
from oracles import contract, hadamard, hadamard_rank_one, save_tensor


def test_construction_checks():
    with pytest.raises(ValueError):
        Tensor(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        Tensor(np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        Tensor(np.zeros((200, 200, 200)))  # 8e6 entries over the cap
    t = Tensor(np.eye(2))
    assert t.order == 2 and t.dim == 2
    with pytest.raises(ValueError):
        t.values[0, 0] = 5.0  # immutable


def test_hadamard_identity_and_zero():
    a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    ones = Tensor(np.ones((2, 2)))
    zeros = Tensor(np.zeros((2, 2)))
    assert np.array_equal(hadamard(a, ones).values, a.values)
    assert np.array_equal(hadamard(a, zeros).values, np.zeros((2, 2)))
    assert np.array_equal(hadamard(a, a).values, np.array([[1.0, 4.0], [9.0, 16.0]]))
    with pytest.raises(ValueError):
        hadamard(a, Tensor(np.ones((3, 3))))


def test_hadamard_rank_one():
    a = Tensor(np.eye(2))
    assert np.array_equal(hadamard_rank_one(a, np.ones(2), np.ones(2)).values, np.eye(2))
    out = hadamard_rank_one(a, np.array([2.0, 2.0]), np.array([1.0, 0.0]))
    assert np.array_equal(out.values, np.diag([2.0, 0.0]))
    rng = np.random.default_rng(5)
    b = Tensor(rng.standard_normal((3, 3, 3)))
    zeroed = hadamard_rank_one(b, rng.standard_normal(3), np.zeros(3), rng.standard_normal(3))
    assert np.array_equal(zeroed.values, np.zeros((3, 3, 3)))
    with pytest.raises(ValueError):
        hadamard_rank_one(a, np.ones(2))
    with pytest.raises(ValueError):
        hadamard_rank_one(a, np.ones(2), np.ones(3))


def test_generalized_diagonal_mask():
    ones = Tensor(np.ones((3, 3)))
    out = apply_mask(ones, IndexMask.generalized_diagonal((1, 2)))
    assert np.array_equal(out.values, np.eye(3))
    with pytest.raises(ValueError):
        IndexMask.generalized_diagonal((1,))


def test_level_set_masks():
    ones2 = Tensor(np.ones((3, 3)))
    off = apply_mask(ones2, IndexMask("level-set", partition=SetPartition.parse("1|2")))
    assert np.array_equal(off.values, np.ones((3, 3)) - np.eye(3))
    ones3 = Tensor(np.ones((2, 2, 2)))
    diag = apply_mask(ones3, IndexMask("level-set", partition=SetPartition.parse("1,2,3")))
    assert diag.values.sum() == 2
    assert diag.values[0, 0, 0] == 1 and diag.values[1, 1, 1] == 1


def test_level_sets_partition_the_index_set():
    rng = np.random.default_rng(11)
    for d, m in [(2, 4), (3, 3)]:
        a = Tensor(rng.standard_normal((m,) * d))
        total = np.zeros((m,) * d)
        for part in enumerate_partitions(d):
            total += apply_mask(a, IndexMask("level-set", partition=part)).values
        assert np.allclose(total, a.values, atol=0)


def test_masks_idempotent():
    rng = np.random.default_rng(3)
    a = Tensor(rng.standard_normal((3, 3, 3)))
    masks = [
        IndexMask.generalized_diagonal((1, 3)),
        IndexMask("level-set", partition=SetPartition.parse("1,2|3")),
        IndexMask.off_diagonal(),
    ]
    for mk in masks:
        once = apply_mask(a, mk)
        twice = apply_mask(once, mk)
        assert np.array_equal(once.values, twice.values)


def test_off_diagonal_matches_singleton_level_set():
    rng = np.random.default_rng(7)
    a = Tensor(rng.standard_normal((3, 3, 3)))
    off = apply_mask(a, IndexMask.off_diagonal())
    lvl = apply_mask(a, IndexMask("level-set", partition=SetPartition.parse("1|2|3")))
    assert np.array_equal(off.values, lvl.values)


def test_contract_examples():
    ident = Tensor(np.eye(2))
    two = SetPartition.parse("1|2")
    assert contract(ident, two, [np.array([1.0, 0.0]), np.array([1.0, 0.0])]) == 1.0
    one = SetPartition.parse("1,2")
    vec = np.eye(2).ravel() / np.sqrt(2)
    assert contract(ident, one, [vec]) == pytest.approx(np.sqrt(2), rel=1e-15)
    assert contract(ident, two, [np.zeros(2), np.array([1.0, 1.0])]) == 0.0


def test_contract_is_multilinear():
    rng = np.random.default_rng(17)
    a = Tensor(rng.standard_normal((3, 3, 3)))
    part = SetPartition.parse("1|2,3")
    x1, y1 = rng.standard_normal(3), rng.standard_normal(3)
    z = rng.standard_normal(9)
    for _ in range(20):
        c1, c2 = rng.standard_normal(2)
        lhs = contract(a, part, [c1 * x1 + c2 * y1, z])
        rhs = c1 * contract(a, part, [x1, z]) + c2 * contract(a, part, [y1, z])
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_contract_matches_einsum_for_every_partition(d):
    m = 3
    rng = np.random.default_rng(40 + d)
    a = Tensor(rng.standard_normal((m,) * d))
    letters = "abcd"
    for part in enumerate_partitions(d):
        vecs = [rng.standard_normal(m ** len(b)) for b in part.blocks]
        subs = [letters[:d]] + ["".join(letters[i - 1] for i in b) for b in part.blocks]
        ref = np.einsum(",".join(subs) + "->", a.values,
                        *[v.reshape((m,) * len(b)) for v, b in zip(vecs, part.blocks)])
        assert contract(a, part, vecs) == pytest.approx(float(ref), rel=1e-12), str(part)


def test_contract_shape_errors():
    a = Tensor(np.eye(2))
    with pytest.raises(ValueError):
        contract(a, SetPartition.parse("1|2"), [np.ones(2)])
    with pytest.raises(ValueError):
        contract(a, SetPartition.parse("1|2"), [np.ones(3), np.ones(2)])
    with pytest.raises(ValueError):
        contract(a, SetPartition.parse("1|2|3"), [np.ones(2)] * 3)


def test_symmetrize():
    rng = np.random.default_rng(23)
    a = Tensor(rng.standard_normal((4, 4)))
    s = symmetrize(a)
    assert np.allclose(s.values, (a.values + a.values.T) / 2)
    b = Tensor(rng.standard_normal((3, 3, 3)))
    sb = symmetrize(b).values
    mean = sum(b.values.transpose(p) for p in itertools.permutations(range(3))) / 6
    assert np.allclose(sb, mean)
    cfg = MCConfig(N=1000, seed=0)
    for d, m in [(3, 5), (4, 4)]:
        for _ in range(5):
            sc = symmetrize(Tensor(rng.standard_normal((m,) * d)))
            for perm in itertools.permutations(range(d)):
                assert np.array_equal(sc.values, sc.values.transpose(perm))
            # the undecoupled chaos validator demands exact symmetry
            off = apply_mask(sc, IndexMask.off_diagonal())
            assert chaos_moment(off, "undecoupled", 2.0, cfg).value > 0


def test_json_round_trip(tmp_path):
    rng = np.random.default_rng(29)
    a = Tensor(rng.standard_normal((3, 3, 3)))
    path = str(tmp_path / "t.json")
    save_tensor(a, path)
    b = load_tensor(path)
    assert b.order == 3 and b.dim == 3
    assert np.array_equal(a.values, b.values)


def test_json_rejects_nonfinite(tmp_path):
    path = str(tmp_path / "bad.json")
    with open(path, "w") as fh:
        fh.write('{"order": 1, "dim": 2, "values": [1.0, NaN]}')
    with pytest.raises(ValueError):
        load_tensor(path)
    with open(path, "w") as fh:
        json.dump({"order": 1, "dim": 2, "values": [1.0]}, fh)
    with pytest.raises(ValueError):
        load_tensor(path)
