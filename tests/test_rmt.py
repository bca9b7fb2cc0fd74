import math

import numpy as np
import pytest

from concentro.montecarlo import MCConfig, chunk_rng
from concentro.poly import Polynomial
from concentro.rmt import (
    LinStatResult,
    WignerSpec,
    catalan,
    eigenvalues_symmetric,
    hoffman_wielandt_gap,
    linear_statistic,
    linstat_tail_bound,
    semicircle_integral,
    sup_abs_on_interval,
    wigner_experiment,
)

X = Polynomial(1, {((1, 1),): 1.0})
X_SQ = Polynomial(1, {((1, 2),): 1.0})


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
    assert semicircle_integral(Polynomial.constant(1, 1.0)) == 1.0
    assert semicircle_integral(X_SQ) == 1.0
    assert semicircle_integral(Polynomial(1, {((1, 4),): 1.0})) == 2.0
    assert semicircle_integral(Polynomial(1, {((1, 6),): 1.0})) == 5.0
    assert semicircle_integral(Polynomial(1, {((1, 3),): 7.0, ((1, 1),): -1.0})) == 0.0
    assert catalan(3) == 5
    with pytest.raises(ValueError):
        semicircle_integral(Polynomial(1, {((1, 22),): 1.0}))


def test_linstat_bound_closed_form_for_square():
    # f = x^2: gradient energy 4, second derivative 2 everywhere
    n, L, t = 50, 1.0, 3.0
    got = linstat_tail_bound(X_SQ, n, L, t)
    arg = min(t**2 / (4.0 + n ** (-2 / 3) * 4.0), n * t / 2.0)
    assert got == pytest.approx(2 * math.exp(-arg), rel=1e-12)
    assert sup_abs_on_interval(X_SQ.partial(1).partial(1)) == pytest.approx(2.0)
    # interior maximum 1 at x = a, midway between two nodes of a 10k-point grid
    a = -4.0 + 5000.5 * 8.0 / 9999
    shifted = X - Polynomial.constant(1, a)
    g = Polynomial.constant(1, 1.0) - shifted * shifted * (1 / 25)
    assert sup_abs_on_interval(g) == pytest.approx(1.0, abs=1e-12)
    assert sup_abs_on_interval(Polynomial.constant(1, -3.0)) == 3.0
    assert sup_abs_on_interval(X * X * X, halfwidth=2.0) == pytest.approx(8.0, abs=1e-12)


def test_linstat_bound_regimes():
    ts = [0.5, 1.0, 4.0, 16.0]
    vals = [linstat_tail_bound(X_SQ, 100, 1.0, t) for t in ts]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    # large t sits in the exponential regime: log-bound linear in t
    b1 = linstat_tail_bound(X_SQ, 10, 1.0, 25.0)
    b2 = linstat_tail_bound(X_SQ, 10, 1.0, 30.0)
    assert math.log(b1 / 2) / 25.0 == pytest.approx(math.log(b2 / 2) / 30.0, rel=1e-9)
    # linear f: no second derivative, pure sub-Gaussian shape
    lin = linstat_tail_bound(X, 10, 1.0, 2.0)
    assert lin == pytest.approx(2 * math.exp(-4.0), rel=1e-12)


def test_linear_statistic_result():
    m = np.diag([1.0, 4.0, 9.0])
    res = linear_statistic(X_SQ, m)
    assert isinstance(res, LinStatResult)
    assert np.allclose(res.eigenvalues, [1, 4, 9])
    assert res.z == pytest.approx((1 + 16 + 81) / 3.0)
    with pytest.raises(ValueError, match="one matrix"):
        linear_statistic(X_SQ, np.stack([m, m]))


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
    assert wigner_experiment(X_SQ, WignerSpec(10), MCConfig(N=10, seed=0)).replicas == 10
