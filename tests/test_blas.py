import inspect
import threading

import numpy as np
import pytest

from concentro import blas
from concentro.norms import mixed_norm, norm_J, norm_J_bruteforce
from concentro.partitions import SetPartition
from concentro.tensor import Tensor


def _threads():
    api = blas._openblas()
    if api is None:
        pytest.skip("numpy is not linked against OpenBLAS")
    return api[0]()


def test_single_threaded_restores_the_count():
    before = _threads()
    with blas.single_threaded():
        assert _threads() == 1
        with blas.single_threaded():
            assert _threads() == 1
        assert _threads() == 1
    assert _threads() == before


def test_single_threaded_restores_after_an_error():
    before = _threads()
    with pytest.raises(ValueError):
        with blas.single_threaded():
            raise ValueError("inside")
    assert _threads() == before


def test_overlapping_blocks_in_threads_restore_the_count():
    before = _threads()
    inside, release = threading.Barrier(3), threading.Event()

    def hold():
        with blas.single_threaded():
            inside.wait()
            release.wait()

    workers = [threading.Thread(target=hold) for _ in range(2)]
    for w in workers:
        w.start()
    inside.wait()
    assert _threads() == 1
    release.set()
    for w in workers:
        w.join()
    assert _threads() == before


def test_norm_entry_points_keep_their_signatures_and_restore_the_count():
    assert list(inspect.signature(norm_J_bruteforce).parameters) == [
        "a", "part", "npoints", "seed"]
    assert "opts" in inspect.signature(norm_J).parameters
    assert "alpha" in inspect.signature(mixed_norm).parameters
    before = _threads()
    a = Tensor(np.random.default_rng(3).standard_normal((3, 3, 3)))
    norm_J(a, SetPartition.parse("1|2|3"))
    norm_J(a, SetPartition.parse("1|2,3"))
    assert _threads() == before
