import math

import numpy as np
import pytest

from concentro.bounds import gaussian_moment_bound
from concentro.montecarlo import (
    MCConfig,
    MomentEstimate,
    chaos_moment,
    chunk_rng,
    empirical_moment,
    empirical_tail,
    hermite_tetrahedral_convergence,
    max_admissible_p,
    sample_vector,
    sandwich_check,
    sobolev_check,
    wilson_interval,
)
from concentro.norms import NormOptions
from concentro.poly import Polynomial, ProductDistribution
from concentro.tensor import Tensor

X1 = Polynomial(2, {((1, 1),): 1.0})
X1X2 = Polynomial(2, {((1, 1), (2, 1)): 1.0})
GAUSS2 = ProductDistribution.gaussian(2)


def test_sampler_statistics():
    rng = chunk_rng(11, 0)
    draws = ProductDistribution.gaussian(1).sample(rng, 1_000_000)[:, 0]
    assert abs(draws.mean()) < 4e-3  # 4 sigma CLT band
    rng = chunk_rng(11, 1)
    rade = ProductDistribution.rademacher(1).sample(rng, 10_000)[:, 0]
    assert set(np.unique(rade)) == {-1.0, 1.0}
    rng = chunk_rng(11, 2)
    weib = ProductDistribution.weibull(1, 1.0).sample(rng, 1_000_000)[:, 0]
    assert (np.abs(weib) > 2.0).mean() == pytest.approx(math.exp(-2.0), abs=2e-3)
    vec = sample_vector(GAUSS2, chunk_rng(11, 3))
    assert vec.shape == (2,)


def test_config_guard_lists_max_p():
    with pytest.raises(ValueError, match="ln\\(N\\)/1.5"):
        MCConfig(N=1000, p_list=(8.0,))
    with pytest.raises(ValueError):
        MCConfig(N=0)
    assert max_admissible_p(1_000_000) > 9.0
    # runs that take no moment are not held to the cap
    assert MCConfig(N=10).p_list == ()
    with pytest.raises(ValueError, match="ln\\(N\\)/1.5"):
        MCConfig(N=10, p_list=(2.0,))
    with pytest.raises(ValueError, match="at least one order"):
        empirical_moment(X1X2, GAUSS2, MCConfig(N=100))


def test_empirical_moment_gaussian_examples():
    cfg = MCConfig(N=200_000, seed=7, p_list=(2.0, 4.0))
    est2, est4 = empirical_moment(X1, GAUSS2, cfg)
    assert est2.value == pytest.approx(1.0, abs=3 * est2.stderr)
    assert est4.value == pytest.approx(3.0**0.25, abs=3 * est4.stderr)
    est = empirical_moment(X1X2, GAUSS2, MCConfig(N=200_000, seed=8, p_list=(2.0,)))[0]
    assert est.value == pytest.approx(1.0, abs=3 * est.stderr)


def test_empirical_moment_monotone_in_p_on_sample():
    cfg = MCConfig(N=50_000, seed=9, p_list=(2.0, 3.0, 4.0, 6.0))
    ests = empirical_moment(X1X2, GAUSS2, cfg)
    vals = [e.value for e in ests]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_determinism_across_workers():
    cfg = MCConfig(N=30_000, seed=12, p_list=(2.0, 4.0), batch=4096)
    a = empirical_moment(X1X2, GAUSS2, cfg, workers=1)
    b = empirical_moment(X1X2, GAUSS2, cfg, workers=3)
    assert [(e.value, e.stderr) for e in a] == [(e.value, e.stderr) for e in b]


def test_empirical_tail_examples():
    cfg = MCConfig(N=100_000, seed=13)
    t0 = empirical_tail(X1, GAUSS2, 0.0, cfg)
    assert t0.probability == 1.0
    huge = empirical_tail(X1, GAUSS2, 50.0, cfg)
    assert huge.probability == 0.0
    assert huge.wilson_high == pytest.approx(1.96**2 / cfg.N, rel=0.1)
    at2 = empirical_tail(X1, GAUSS2, 2.0, cfg)
    exact = math.erfc(2.0 / math.sqrt(2.0))
    assert at2.wilson_low <= exact <= at2.wilson_high
    with pytest.raises(ValueError):
        empirical_tail(X1, GAUSS2, 1.0, MCConfig(N=500))


def test_wilson_interval_basics():
    low, high = wilson_interval(50, 100)
    assert low < 0.5 < high
    assert wilson_interval(0, 1000)[0] == 0.0


def test_chaos_modes_linear_agree():
    a = Tensor(np.array([3.0, 4.0]))
    cfg = MCConfig(N=100_000, seed=14)
    dec = chaos_moment(a, "decoupled", 2.0, cfg)
    und = chaos_moment(a, "undecoupled", 2.0, cfg)
    assert dec.value == pytest.approx(5.0, abs=3 * dec.stderr)
    assert und.value == pytest.approx(5.0, abs=3 * und.stderr)


def test_chaos_undecoupled_off_diagonal():
    a = Tensor(np.array([[0.0, 1.0], [1.0, 0.0]]))
    cfg = MCConfig(N=200_000, seed=15)
    est = chaos_moment(a, "undecoupled", 2.0, cfg)
    assert est.value == pytest.approx(2.0, abs=3 * est.stderr)


def test_chaos_validation():
    cfg = MCConfig(N=2000, seed=16)
    asym = Tensor(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError, match="symmetric"):
        chaos_moment(asym, "undecoupled", 2.0, cfg)
    diag = Tensor(np.eye(2))
    with pytest.raises(ValueError, match="generalized diagonal \\{1,2\\}"):
        chaos_moment(diag, "undecoupled", 2.0, cfg)
    with pytest.raises(ValueError):
        chaos_moment(diag, "sideways", 2.0, cfg)
    with pytest.raises(ValueError):
        chaos_moment(diag, "decoupled", 30.0, cfg)


def test_sandwich_linear_ratio_is_inverse_sqrt2():
    f = Polynomial(3, {((1, 1),): 1.0, ((2, 1),): 2.0, ((3, 1),): -2.0})
    dist = ProductDistribution.gaussian(3)
    cfg = MCConfig(N=200_000, seed=17)
    opts = NormOptions(restarts=8, seed=0)
    rows = sandwich_check(f, dist, [2.0], cfg,
                          lambda g, d, p: gaussian_moment_bound(g, d, p, opts))
    row = rows[0]
    assert row["status"] == "pass"
    se_ratio = 3 * row["stderr"] / row["bound"]
    assert row["ratio"] == pytest.approx(1 / math.sqrt(2.0), abs=se_ratio)


def test_sandwich_degenerate_constant():
    f = Polynomial.constant(2, 3.0)
    rows = sandwich_check(f, GAUSS2, [2.0], MCConfig(N=5000, seed=18),
                          lambda g, d, p: gaussian_moment_bound(g, d, p))
    assert rows[0]["status"] == "degenerate"


def test_hermite_convergence_degree_one_is_exact_zero():
    cfg = MCConfig(N=4000, seed=19)
    rows = hermite_tetrahedral_convergence(1, [10, 100], cfg)
    assert all(r["mean_sq_error"] == 0.0 for r in rows)


def test_hermite_convergence_degree_two_matches_2_over_N():
    cfg = MCConfig(N=20_000, seed=20)
    rows = hermite_tetrahedral_convergence(2, [10, 100], cfg)
    for r in rows:
        assert r["mean_sq_error"] == pytest.approx(2.0 / r["N"], abs=3 * r["stderr"])
    assert rows[0]["mean_sq_error"] > rows[1]["mean_sq_error"]


def test_hermite_convergence_rejects_large_degree():
    with pytest.raises(ValueError):
        hermite_tetrahedral_convergence(5, [10], MCConfig(N=100, seed=0))


def test_sobolev_check_examples():
    cfg = MCConfig(N=100_000, seed=21)
    f_lin = Polynomial(2, {((1, 1),): 2.0, ((2, 1),): 1.0})
    rows = sobolev_check(GAUSS2, f_lin, [2.0, 4.0], cfg)
    for r in rows:
        assert r["ratio"] <= 1.0
    f_sq = Polynomial(1, {((1, 2),): 1.0})
    rows = sobolev_check(ProductDistribution.gaussian(1), f_sq, [2.0], cfg)
    assert rows[0]["ratio"] == pytest.approx(0.5, abs=0.02)
    for c in (1.0, 0.3, 7.7):
        rows = sobolev_check(GAUSS2, Polynomial.constant(2, c), [2.0], cfg)
        assert rows[0]["status"] == "degenerate" and rows[0]["ratio"] is None
    with pytest.raises(ValueError, match="Sobolev"):
        sobolev_check(ProductDistribution.bernoulli(2, 0.5), f_lin, [2.0], cfg)
