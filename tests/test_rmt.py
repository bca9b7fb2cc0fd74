import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concentro import montecarlo, rmt
from concentro.montecarlo import MCConfig, chunk_rng
from concentro.poly import Polynomial
from concentro.rmt import (
    WignerSpec,
    catalan,
    eigenvalues_symmetric,
    linstat_tail_bound,
    semicircle_integral,
    sup_abs_on_interval,
    wigner_experiment,
)
from oracles import hoffman_wielandt_gap

X = Polynomial(1, {((1, 1),): 1.0})
X_SQ = Polynomial(1, {((1, 2),): 1.0})
DEG11 = Polynomial(1, {((1, k),) if k else (): (-1) ** k / (k + 1) for k in range(12)})


def test_eigenvalues_simple_cases():
    assert np.allclose(eigenvalues_symmetric(np.diag([3.0, 1.0, 2.0])), [1, 2, 3])
    assert np.allclose(eigenvalues_symmetric(np.array([[0.0, 1.0], [1.0, 0.0]])), [-1, 1])
    assert np.array_equal(eigenvalues_symmetric(np.zeros((4, 4))), np.zeros(4))


def test_eigenvalues_trace_identities_and_oracle():
    rng = chunk_rng(40, 0)
    for trial in range(5):
        m = rng.standard_normal((10, 10))
        m = (m + m.T) / 2
        eigs = eigenvalues_symmetric(m)
        assert eigs.size == 10
        assert np.all(np.diff(eigs) >= 0)
        assert eigs.sum() == pytest.approx(np.trace(m), abs=1e-9)
        assert (eigs**2).sum() == pytest.approx(np.linalg.norm(m) ** 2, abs=1e-9)
        oracle = np.linalg.eigvalsh(m)
        assert np.allclose(eigs, oracle, atol=1e-10)


def test_eigenvalues_validation():
    with pytest.raises(ValueError):
        eigenvalues_symmetric(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(ValueError):
        eigenvalues_symmetric(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        eigenvalues_symmetric(np.zeros((401, 401)))


def test_eigenvalues_of_a_stack():
    mats = WignerSpec(12).sample(chunk_rng(45, 0), 7)
    eigs = eigenvalues_symmetric(mats)
    assert eigs.shape == (7, 12)
    assert np.array_equal(eigs, np.stack([eigenvalues_symmetric(m) for m in mats]))
    assert np.array_equal(eigenvalues_symmetric(np.zeros((3, 4, 4))), np.zeros((3, 4)))
    mats[4, 0, 1] += 1e-6
    with pytest.raises(ValueError, match="asymmetric"):
        eigenvalues_symmetric(mats)
    with pytest.raises(ValueError, match="square"):
        eigenvalues_symmetric(np.zeros((2, 3, 4)))


def test_hoffman_wielandt_on_random_pairs():
    rng = chunk_rng(41, 0)
    for trial in range(30):
        b = rng.standard_normal((8, 8))
        b = (b + b.T) / 2
        c = b + 0.5 * rng.standard_normal((8, 8))
        c = (c + c.T) / 2
        lhs, rhs = hoffman_wielandt_gap(b, c)
        assert lhs <= rhs + 1e-9


def test_semicircle_moments():
    assert semicircle_integral(Polynomial(1, {(): 1.0})) == 1.0
    assert semicircle_integral(X_SQ) == 1.0
    assert semicircle_integral(Polynomial(1, {((1, 4),): 1.0})) == 2.0
    assert semicircle_integral(Polynomial(1, {((1, 6),): 1.0})) == 5.0
    assert semicircle_integral(Polynomial(1, {((1, 3),): 7.0, ((1, 1),): -1.0})) == 0.0
    assert catalan(3) == 5
    with pytest.raises(ValueError):
        semicircle_integral(Polynomial(1, {((1, 22),): 1.0}))


def test_linstat_bound_closed_form_for_square():
    # f = x^2: gradient energy 4, second derivative 2 everywhere
    n, t = 50, 3.0
    got = linstat_tail_bound(X_SQ, n, t)
    arg = min(t**2 / (4.0 + n ** (-2 / 3) * 4.0), n * t / 2.0)
    assert got == pytest.approx(2 * math.exp(-arg), rel=1e-12)
    assert sup_abs_on_interval(X_SQ.partial(1).partial(1)) == pytest.approx(2.0)
    # interior maximum 1 at x = a, midway between two nodes of a 10k-point grid
    a = -4.0 + 5000.5 * 8.0 / 9999
    shifted = X - Polynomial(1, {(): a})
    g = Polynomial(1, {(): 1.0}) - shifted * shifted * (1 / 25)
    assert sup_abs_on_interval(g) == pytest.approx(1.0, abs=1e-12)
    assert sup_abs_on_interval(Polynomial(1, {(): -3.0})) == 3.0
    assert sup_abs_on_interval(X * X * X) == pytest.approx(64.0, abs=1e-12)


def test_linstat_bound_regimes():
    ts = [0.5, 1.0, 4.0, 16.0]
    vals = [linstat_tail_bound(X_SQ, 100, t) for t in ts]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    # large t sits in the exponential regime: log-bound linear in t
    b1 = linstat_tail_bound(X_SQ, 10, 25.0)
    b2 = linstat_tail_bound(X_SQ, 10, 30.0)
    assert math.log(b1 / 2) / 25.0 == pytest.approx(math.log(b2 / 2) / 30.0, rel=1e-9)
    # linear f: no second derivative, pure sub-Gaussian shape
    lin = linstat_tail_bound(X, 10, 2.0)
    assert lin == pytest.approx(2 * math.exp(-4.0), rel=1e-12)


def test_wigner_spec_conventions():
    rng = chunk_rng(42, 0)
    paper = WignerSpec(60).sample(rng, 50)
    assert np.allclose(paper, np.transpose(paper, (0, 2, 1)))
    diag_var = paper[:, np.arange(60), np.arange(60)].var()
    assert diag_var == pytest.approx(1.0, rel=0.15)
    goe = WignerSpec(60, convention="goe").sample(chunk_rng(42, 1), 50)
    diag_var = goe[:, np.arange(60), np.arange(60)].var()
    assert diag_var == pytest.approx(2.0, rel=0.15)
    with pytest.raises(ValueError):
        WignerSpec(10, convention="hermitian")


@pytest.mark.parametrize("convention", ["paper", "goe"])
def test_wigner_sample_matches_the_scatter_build(convention, monkeypatch):
    # the scatter-then-add-the-transpose construction this replaced, same
    # draws, whether the upper triangles are gathered in one block or one
    # matrix per block
    for block_bytes in (montecarlo._STACK_BLOCK_BYTES, 1):
        monkeypatch.setattr(montecarlo, "_STACK_BLOCK_BYTES", block_bytes)
        for n in (12, 30, 200):
            got = WignerSpec(n, convention).sample(chunk_rng(46, n), 3)
            rng = chunk_rng(46, n)
            iu = np.triu_indices(n, 1)
            a = np.zeros((3, n, n))
            a[:, iu[0], iu[1]] = rng.standard_normal((3, iu[0].size))
            a += np.transpose(a, (0, 2, 1))
            diag_sd = math.sqrt(2.0) if convention == "goe" else 1.0
            a[:, np.arange(n), np.arange(n)] = diag_sd * rng.standard_normal((3, n))
            assert np.array_equal(got, a)


def test_wigner_experiment_square_statistic():
    # Z = |A|_F^2 / n has mean n under the all-variance-one convention
    spec = WignerSpec(20)
    cfg = MCConfig(N=400, seed=43, batch=100)
    res = wigner_experiment(X_SQ, spec, cfg, t_list=(0.0,))
    assert res.z_mean == pytest.approx(20.0, abs=3 * res.z_stderr)
    assert res.sobolev_limit == 4.0
    assert res.sobolev_mean == pytest.approx(4.0, abs=3 * res.sobolev_stderr)
    assert res.rows[0]["tail"] == 1.0
    goe = wigner_experiment(X_SQ, WignerSpec(20, convention="goe"),
                            MCConfig(N=400, seed=44, batch=100))
    assert goe.z_mean == pytest.approx(21.0, abs=3 * goe.z_stderr)


def test_wigner_experiment_caps():
    with pytest.raises(ValueError, match="matrix size capped at 200"):
        wigner_experiment(X_SQ, WignerSpec(300), MCConfig(N=10, seed=0))
    with pytest.raises(ValueError, match="replica count capped at 10000"):
        wigner_experiment(X_SQ, WignerSpec(10), MCConfig(N=20_000, seed=0))
    with pytest.raises(ValueError, match="one-variable polynomial"):
        wigner_experiment(Polynomial(2, {((1, 1), (2, 1)): 1.0}), WignerSpec(10),
                          MCConfig(N=10, seed=0))
    assert wigner_experiment(X_SQ, WignerSpec(10), MCConfig(N=10, seed=0)).sobolev_limit == 4.0


@pytest.mark.parametrize("coef,power", [(1e200, 2), (1e308, 2), (1e153, 6)])
def test_an_f_prime_energy_that_overflows_is_refused(coef, power):
    # a coefficient of f'^2 overflows, or one of f' itself, or the integral of
    # the finite coefficients of f'^2 (3.6e307 * Catalan(5))
    f = Polynomial(1, {((1, power),): coef})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="semicircle energy of f' .* is not finite"):
            linstat_tail_bound(f, 6, 1.0)
        with pytest.raises(ValueError, match="semicircle energy of f' .* is not finite"):
            wigner_experiment(f, WignerSpec(6), MCConfig(N=20), t_list=[1.0])


def test_a_sample_that_overflows_is_refused():
    # f' = 1e154 x has a finite semicircle energy (1e308), but f'^2 and the
    # spread of Z overflow on the sample, whose eigenvalues reach past +-2
    f = Polynomial(1, {((1, 2),): 5e153})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="standard error is not finite"):
            wigner_experiment(f, WignerSpec(6), MCConfig(N=20), t_list=[1.0])


# ---------------------------------------------------------------------------
# linear statistics from the traces of matrix powers

def test_power_chain_covers_every_trace():
    assert rmt._power_chain(2) == [1]
    assert rmt._power_chain(20) == [1, 2, 3, 5, 7, 9, 10]   # 6 GEMMs at degree 11
    for top in range(61):
        chain, h = rmt._power_chain(top), (top + 1) // 2
        assert chain == list(range(1, h + 1)) if h <= 2 else chain[-1] == h
        assert all(b - a in (1, 2) for a, b in zip(chain, chain[1:]))
        assert len(chain[1:]) == (h // 2 + 1 if h >= 3 else max(h - 1, 0))   # GEMMs
        assert all(any(k - a in chain for a in chain) for k in range(2, top + 1))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.integers(0, 11), st.sampled_from([2, 7, 30]), st.sampled_from(["paper", "goe"]),
       st.integers(0, 2**32 - 1))
def test_trace_statistics_match_the_eigenvalues(degree, n, convention, seed):
    # tr f(X) and tr f'(X)^2, X = A / sqrt(n), against f and f'^2 summed over
    # the eigenvalues of X; the tolerance is relative to the sum of the
    # absolute monomial values, the size of the terms that may cancel
    rng = chunk_rng(47, seed)
    f = Polynomial(1, {((1, k),) if k else (): c
                       for k, c in enumerate(rng.standard_normal(degree + 1))})
    fp_sq = f.partial(1) * f.partial(1)
    mats = WignerSpec(n, convention).sample(rng, 4)
    lam = eigenvalues_symmetric(mats).reshape(-1, 1) / math.sqrt(n)
    for got, g in zip(rmt._linear_statistics(mats, (f, fp_sq)), (f, fp_sq)):
        want = g.evaluate_batch(lam).reshape(4, n).sum(axis=1)
        size = Polynomial(1, {k: abs(c) for k, c in g.terms.items()}).evaluate_batch(np.abs(lam))
        assert np.all(np.abs(got - want) <= 1e-10 * size.reshape(4, n).sum(axis=1))


def test_wigner_experiment_takes_no_eigenvalues(monkeypatch):
    def refuse(m):
        raise AssertionError("the experiment computed eigenvalues")
    monkeypatch.setattr(rmt, "eigenvalues_symmetric", refuse)
    res = wigner_experiment(DEG11, WignerSpec(12), MCConfig(N=20, seed=3), t_list=[1.0])
    assert res.z_stderr > 0 and res.sobolev_stderr > 0


@pytest.mark.parametrize("f", [X_SQ, DEG11])
@pytest.mark.parametrize("n", [30, 100])
def test_wigner_experiment_does_not_depend_on_the_block_size(f, n, monkeypatch):
    # 145 matrices per block at n = 30 and 13 at n = 100, then one per block
    args = (f, WignerSpec(n), MCConfig(N=60, seed=48, batch=40), (1.0, 5.0))
    whole = wigner_experiment(*args)
    monkeypatch.setattr(montecarlo, "_STACK_BLOCK_BYTES", 1)
    assert wigner_experiment(*args) == whole


def test_wigner_chunk_memory():
    # one chunk of 256 matrices at n = 200: sampling holds the stack and one
    # block of draws (drawing the whole chunk's entries before gathering them
    # held 1.51 times the stack), and the traces add 1 MB blocks of powers;
    # the eigen path held 2.0 times the stack
    cfg = MCConfig(N=256, seed=49, batch=256)
    tracemalloc.start()
    try:
        wigner_experiment(DEG11, WignerSpec(200), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * 256 * 200 * 200 * 8
