import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import concentro.montecarlo as montecarlo
from concentro.bounds import gaussian_moment_bound
from concentro.graphs import GraphSpec, er_tail_experiment
from concentro.montecarlo import (
    MCConfig,
    MomentEstimate,
    chaos_moment,
    chunk_rng,
    empirical_moment,
    empirical_tail,
    hermite_tetrahedral_convergence,
    max_admissible_p,
    sandwich_check,
    sobolev_check,
    symmetric_stack,
    wilson_interval,
)
from concentro.norms import NormOptions
from concentro.poly import Polynomial, ProductDistribution, expected_derivative_tensor
from concentro.rmt import WignerSpec, wigner_experiment
from concentro.tensor import IndexMask, Tensor, apply_mask, symmetrize

X1 = Polynomial(2, {((1, 1),): 1.0})
X1X2 = Polynomial(2, {((1, 1), (2, 1)): 1.0})
GAUSS = ProductDistribution("gaussian")


def test_sampler_statistics():
    rng = chunk_rng(11, 0)
    draws = ProductDistribution("gaussian").sample(rng, 1_000_000, 1)[:, 0]
    assert abs(draws.mean()) < 4e-3  # 4 sigma CLT band
    rng = chunk_rng(11, 1)
    rade = ProductDistribution("rademacher").sample(rng, 10_000, 1)[:, 0]
    assert set(np.unique(rade)) == {-1.0, 1.0}
    rng = chunk_rng(11, 2)
    weib = ProductDistribution("weibull", alpha=1.0).sample(rng, 1_000_000, 1)[:, 0]
    assert (np.abs(weib) > 2.0).mean() == pytest.approx(math.exp(-2.0), abs=2e-3)
    assert GAUSS.sample(chunk_rng(11, 3), 5, 2).shape == (5, 2)


def test_config_guard_lists_max_p():
    with pytest.raises(ValueError, match="ln\\(N\\)/1.5"):
        empirical_moment(X1X2, GAUSS, (8.0,), MCConfig(N=1000))
    with pytest.raises(ValueError):
        MCConfig(N=0)
    for workers in (0, -5):
        with pytest.raises(ValueError, match="workers"):
            MCConfig(N=10, workers=workers)
    assert max_admissible_p(1_000_000) > 9.0
    # runs that take no moment are not held to the cap
    assert MCConfig(N=10).N == 10
    with pytest.raises(ValueError, match="ln\\(N\\)/1.5"):
        empirical_moment(X1X2, GAUSS, (2.0,), MCConfig(N=10))
    with pytest.raises(ValueError, match="at least one order"):
        empirical_moment(X1X2, GAUSS, (), MCConfig(N=100))
    # the same check guards every estimator that takes orders
    with pytest.raises(ValueError, match="ln\\(N\\)/1.5"):
        chaos_moment(Tensor(np.eye(2)), "decoupled", 8.0, MCConfig(N=1000))
    with pytest.raises(ValueError, match="ln\\(N\\)/1.5"):
        sobolev_check(GAUSS, X1X2, (8.0,), MCConfig(N=1000))
    with pytest.raises(ValueError, match="at least one order"):
        sobolev_check(GAUSS, X1X2, (), MCConfig(N=1000))


def test_empirical_moment_gaussian_examples():
    cfg = MCConfig(N=200_000, seed=7)
    est2, est4 = empirical_moment(X1, GAUSS, (2.0, 4.0), cfg)
    assert est2.value == pytest.approx(1.0, abs=3 * est2.stderr)
    assert est4.value == pytest.approx(3.0**0.25, abs=3 * est4.stderr)
    est = empirical_moment(X1X2, GAUSS, (2.0,), MCConfig(N=200_000, seed=8))[0]
    assert est.value == pytest.approx(1.0, abs=3 * est.stderr)


def test_empirical_moment_monotone_in_p_on_sample():
    ests = empirical_moment(X1X2, GAUSS, (2.0, 3.0, 4.0, 6.0), MCConfig(N=50_000, seed=9))
    vals = [e.value for e in ests]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_determinism_across_workers():
    a = empirical_moment(X1X2, GAUSS, (2.0, 4.0), MCConfig(N=30_000, seed=12, batch=4096))
    b = empirical_moment(X1X2, GAUSS, (2.0, 4.0),
                         MCConfig(N=30_000, seed=12, batch=4096, workers=3))
    assert [(e.value, e.stderr) for e in a] == [(e.value, e.stderr) for e in b]


SQUARE = Polynomial(1, {((1, 2),): 1.0})
OFF_DIAGONAL = Tensor(np.array([[0.0, 1.0], [1.0, 0.0]]))
ENTRY_POINTS = {
    "empirical_moment": lambda cfg: empirical_moment(X1X2, GAUSS, (2.0, 4.0), cfg),
    "empirical_tail": lambda cfg: empirical_tail(X1X2, GAUSS, 1.0, cfg),
    "chaos_decoupled": lambda cfg: chaos_moment(OFF_DIAGONAL, "decoupled", 2.0, cfg),
    "chaos_undecoupled": lambda cfg: chaos_moment(OFF_DIAGONAL, "undecoupled", 2.0, cfg),
    "sandwich_check": lambda cfg: sandwich_check(X1X2, GAUSS, (2.0,), cfg,
                                                 lambda f, d, p: 1.0),
    "hermite_tetrahedral_convergence":
        lambda cfg: hermite_tetrahedral_convergence(2, [3, 50], cfg),
    "sobolev_check": lambda cfg: sobolev_check(GAUSS, X1X2, (2.0,), cfg),
    "er_tail_experiment": lambda cfg: er_tail_experiment(GraphSpec.cycle(3), 12, 0.3, cfg,
                                                         eps=0.5),
    "wigner_experiment": lambda cfg: wigner_experiment(SQUARE, WignerSpec(6), cfg,
                                                       t_list=[1.0]),
}


@pytest.mark.parametrize("run", ENTRY_POINTS.values(), ids=list(ENTRY_POINTS))
def test_every_entry_point_reads_the_worker_count_from_its_config(run, monkeypatch):
    pools = []

    class CountingPool(montecarlo.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", CountingPool)
    serial = run(MCConfig(N=1200, seed=5, batch=256))
    assert pools == []
    threaded = run(MCConfig(N=1200, seed=5, batch=256, workers=2))
    assert pools and set(pools) == {2}
    assert threaded == serial


def test_empirical_tail_examples():
    cfg = MCConfig(N=100_000, seed=13)
    t0 = empirical_tail(X1, GAUSS, 0.0, cfg)
    assert t0.probability == 1.0
    huge = empirical_tail(X1, GAUSS, 50.0, cfg)
    assert huge.probability == 0.0
    assert huge.wilson_high == pytest.approx(1.96**2 / cfg.N, rel=0.1)
    at2 = empirical_tail(X1, GAUSS, 2.0, cfg)
    exact = math.erfc(2.0 / math.sqrt(2.0))
    assert at2.wilson_low <= exact <= at2.wilson_high
    with pytest.raises(ValueError):
        empirical_tail(X1, GAUSS, 1.0, MCConfig(N=500))


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


def _undecoupled_verdict(a):
    """The exhaustive rule: every axis permutation, then every pair diagonal."""
    d, vals = a.order, a.values
    for perm in itertools.permutations(range(d)):
        if not np.array_equal(vals, vals.transpose(perm)):
            return "undecoupled chaos needs a symmetric coefficient tensor"
    for j, k in itertools.combinations(range(1, d + 1), 2):
        if np.any(vals[IndexMask.generalized_diagonal((j, k)).boolean(d, a.dim)]):
            return f"nonzero entries on the generalized diagonal {{{j},{k}}}"
    return None


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_undecoupled_validation_matches_every_permutation_and_diagonal(d):
    cfg = MCConfig(N=200, seed=17)
    raw = np.random.default_rng(40 + d).integers(0, 2, (3,) * d).astype(float)
    raw[(0,) * d] = 1.0
    sym = symmetrize(Tensor(raw)).values
    cases = [raw, sym, apply_mask(Tensor(sym), IndexMask.off_diagonal()).values]
    if d >= 3:
        # symmetric in the first two axes but not in the last two
        cases.append(raw + raw.swapaxes(0, 1))
        # symmetric and nonzero only at the permutations of (0, 1, 1, ..):
        # built from an entry whose equal indices are the 2nd and 3rd, it is
        # refused on the {1,2} diagonal all the same
        one = np.zeros((3,) * d)
        one[(0,) + (1, 1) + (2,) * (d - 3)] = 1.0
        cases.append(symmetrize(Tensor(one)).values)
    verdicts = set()
    for vals in cases:
        a = Tensor(vals)
        verdict = _undecoupled_verdict(a)
        verdicts.add(verdict)
        if verdict is None:
            chaos_moment(a, "undecoupled", 2.0, cfg)
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(verdict)}$"):
                chaos_moment(a, "undecoupled", 2.0, cfg)
    assert None in verdicts and (d == 1 or len(verdicts) == 3)


def test_sandwich_linear_ratio_is_inverse_sqrt2():
    f = Polynomial(3, {((1, 1),): 1.0, ((2, 1),): 2.0, ((3, 1),): -2.0})
    dist = ProductDistribution("gaussian")
    cfg = MCConfig(N=200_000, seed=17)
    opts = NormOptions(restarts=8, seed=0)
    rows = sandwich_check(f, dist, [2.0], cfg,
                          lambda g, d, p: gaussian_moment_bound(g, d, p, opts).total)
    row = rows[0]
    assert row["status"] == "pass"
    se_ratio = 3 * row["stderr"] / row["bound"]
    assert row["ratio"] == pytest.approx(1 / math.sqrt(2.0), abs=se_ratio)


def test_sandwich_degenerate_constant():
    f = Polynomial(2, {(): 3.0})
    rows = sandwich_check(f, GAUSS, [2.0], MCConfig(N=5000, seed=18),
                          lambda g, d, p: gaussian_moment_bound(g, d, p).total)
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


def _elementary_symmetric_loop(draws, d):
    """The column-by-column recurrence, kept as the reference."""
    rows, n = draws.shape
    e = np.zeros((rows, d + 1))
    e[:, 0] = 1.0
    for j in range(n):
        x = draws[:, j]
        for k in range(min(j + 1, d), 0, -1):
            e[:, k] += e[:, k - 1] * x
    return e


@st.composite
def draws_and_degree(draw):
    # rows on both sides of n, so both the per-column and the cumulative-sum
    # forms of the recurrence run
    shape = (draw(st.integers(1, 12)), draw(st.integers(1, 8)))
    draws = draw(arrays(np.float64, shape,
                        elements=st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)))
    return draws, draw(st.integers(1, 4))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(draws_and_degree())
def test_elementary_symmetric_matches_loop_and_subset_sums(case):
    draws, d = case
    e = montecarlo._elementary_symmetric(draws, d)
    assert np.array_equal(e, _elementary_symmetric_loop(draws, d))
    for k in range(d + 1):
        prods = [draws[:, list(c)].prod(axis=1)
                 for c in itertools.combinations(range(draws.shape[1]), k)]
        brute = np.sum(prods, axis=0) if prods else np.zeros(len(draws))
        scale = np.sum(np.abs(prods), axis=0) if prods else np.ones(len(draws))
        assert np.all(np.abs(e[:, k] - brute) <= 1e-12 * np.maximum(scale, 1e-300))


def _chaos_reference(a, mode, cfg):
    """Per-sample chaos values by one einsum over the same Philox draws."""
    d, m = a.order, a.dim
    letters = "abcd"[:d]
    expr = letters + "," + ",".join("z" + c for c in letters) + "->z"
    out = []
    for c, start in enumerate(range(0, cfg.N, cfg.batch)):
        rng = montecarlo.chunk_rng(cfg.seed, c)
        rows = min(cfg.batch, cfg.N - start)
        if mode == "decoupled":
            gs = [rng.standard_normal((rows, m)) for _ in range(d)]
        else:
            gs = [rng.standard_normal((rows, m))] * d
        out.append(np.einsum(expr, a.values, *gs))
    return np.concatenate(out)


@pytest.mark.parametrize("mode", ["decoupled", "undecoupled"])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_chaos_values_match_einsum_reference(monkeypatch, mode, d):
    m = 4
    raw = np.random.default_rng(30 + d).standard_normal((m,) * d)
    a = Tensor(raw)
    if mode == "undecoupled" and d > 1:
        a = apply_mask(symmetrize(a), IndexMask.off_diagonal())
    seen = []
    centered = montecarlo._centered_moments
    monkeypatch.setattr(montecarlo, "_centered_moments",
                        lambda values, p_list: seen.append(values) or centered(values, p_list))
    cfg = MCConfig(N=2500, seed=31, batch=1000)
    chaos_moment(a, mode, 2.0, cfg)
    ref = _chaos_reference(a, mode, cfg)
    assert seen[0].shape == (cfg.N,)
    assert np.allclose(seen[0], ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


def test_hermite_convergence_rejects_large_degree():
    with pytest.raises(ValueError):
        hermite_tetrahedral_convergence(5, [10], MCConfig(N=100, seed=0))


def test_sobolev_check_examples():
    cfg = MCConfig(N=100_000, seed=21)
    f_lin = Polynomial(2, {((1, 1),): 2.0, ((2, 1),): 1.0})
    rows = sobolev_check(GAUSS, f_lin, [2.0, 4.0], cfg)
    for r in rows:
        assert r["ratio"] <= 1.0
    f_sq = Polynomial(1, {((1, 2),): 1.0})
    rows = sobolev_check(ProductDistribution("gaussian"), f_sq, [2.0], cfg)
    assert rows[0]["ratio"] == pytest.approx(0.5, abs=0.02)
    for c in (1.0, 0.3, 7.7):
        rows = sobolev_check(GAUSS, Polynomial(2, {(): c}), [2.0], cfg)
        assert rows[0]["status"] == "degenerate" and rows[0]["ratio"] is None
    with pytest.raises(ValueError, match="Sobolev"):
        sobolev_check(ProductDistribution("bernoulli", p=0.5), f_lin, [2.0], cfg)


@pytest.mark.parametrize("size", [0, -3])
def test_hermite_convergence_rejects_inner_size_below_one(size):
    with pytest.raises(ValueError, match=f"N={size}"):
        hermite_tetrahedral_convergence(2, [10, size], MCConfig(N=100, seed=0))


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.integers(2, 9), st.integers(1, 4),
       st.sampled_from([np.bool_, np.float32, np.float64]))
def test_symmetric_stack_matches_entrywise_fill(n, rows, dtype):
    m = n * (n - 1) // 2
    upper = (np.arange(rows * m).reshape(rows, m) % 3).astype(dtype)
    got = symmetric_stack(upper, n)
    assert got.shape == (rows, n, n) and got.dtype == dtype
    for r in range(rows):
        entries = iter(upper[r])
        for i in range(n):
            for j in range(i + 1, n):
                assert got[r, i, j] == got[r, j, i] == next(entries)
        assert np.array_equal(got[r].diagonal(), np.zeros(n, dtype))
    # a given stack is filled in place, its diagonal zeroed
    out = np.full((rows, n, n), 5, dtype=dtype)
    assert symmetric_stack(upper, n, out=out) is out
    assert np.array_equal(out, symmetric_stack(upper, n))
    # a row of the old layout, upper triangle then diagonal, is refused, and so is n = 1
    for bad, size in [(np.zeros((rows, m + n), dtype), n), (upper[:, :-1], n),
                      (upper, n + 1), (np.zeros((rows, 0), dtype), 1)]:
        with pytest.raises(ValueError):
            symmetric_stack(bad, size)


# finite coefficients whose sample deviations overflow in their squares
BIG = Polynomial(2, {((1, 1),): 1e200, ((1, 2), (2, 2)): 1e200})


def test_estimators_refuse_moments_that_overflow():
    cfg = MCConfig(N=2000, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for run in (lambda: empirical_moment(BIG, GAUSS, [2.0], cfg),
                    lambda: sobolev_check(GAUSS, BIG, [2.0], cfg),
                    lambda: chaos_moment(Tensor(np.full((2, 2), 1e200)), "decoupled", 2.0, cfg),
                    lambda: montecarlo._centered_moments(np.array([0.0, np.inf]), [2.0])):
            with pytest.raises(ValueError, match="p=2 moment is not finite"):
                run()
        # at 1e60 the squares of the p = 2 powers fit and those of the p = 4 powers do not
        with pytest.raises(ValueError, match="p=4 moment is not finite"):
            empirical_moment(Polynomial(1, {((1, 1),): 1e60}), ProductDistribution("gaussian"),
                             [2.0, 4.0], cfg)


def test_sobolev_check_refuses_a_gradient_moment_that_overflows(monkeypatch):
    # modest values of f, a gradient norm whose square overflows
    values = np.stack([np.arange(2000.0), np.full(2000, 1e200)])
    monkeypatch.setattr(montecarlo, "_run_chunks", lambda fn, cfg: values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="p=2 moment is not finite"):
            sobolev_check(GAUSS, X1X2, [2.0], MCConfig(N=2000))


def test_one_law_serves_polynomials_in_any_number_of_variables():
    # the law is that of one coordinate; n is the polynomial's variable count
    cfg = MCConfig(N=20_000, seed=50)
    for n in (1, 3, 15):
        f = Polynomial(n, {((i, 1),): 1.0 for i in range(1, n + 1)})
        assert np.array_equal(expected_derivative_tensor(f, GAUSS, 1).values, np.ones(n))
        (est,) = empirical_moment(f, GAUSS, [2.0], cfg)
        assert est.value == pytest.approx(math.sqrt(n), abs=4 * est.stderr)
        (row,) = sobolev_check(GAUSS, f, [2.0], cfg)
        assert row["lhs"] == est.value   # the same (N, n) draws
        assert row["rhs"] == pytest.approx(math.sqrt(2.0 * n), rel=1e-12)


def test_tail_rows_refuse_a_sample_mean_that_is_not_finite():
    big = np.finfo(float).max
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for values in (np.full(4, 1e308), np.array([1.0, np.inf, -np.inf]),
                       np.array([np.nan, 1.0])):
            with pytest.raises(ValueError, match="sample mean is not finite"):
                montecarlo.tail_rows(values, [1.0])
        # a finite mean, -big/3, with an infinite deviation of the first value
        (row,) = montecarlo.tail_rows(np.array([big, -big, -big]), [1.0])
    assert row["tail"] == 1.0


def test_mean_stderr_refuses_a_mean_or_stderr_that_is_not_finite():
    values = np.array([1.0, 2.0, 4.0])
    assert montecarlo._mean_stderr(values, "x") == (values.mean(),
                                                    values.std() / math.sqrt(3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # the sum overflows; the mean is finite, the squared deviations overflow
        for values in (np.full(4, 1e308), np.array([1e200, -1e200]), np.array([np.nan])):
            with pytest.raises(ValueError, match="mean of x or its standard error"):
                montecarlo._mean_stderr(values, "x")


def _sandwich(window):
    bound_fn = lambda f, d, p: gaussian_moment_bound(f, d, p).total
    return lambda cfg: sandwich_check(X1X2, GAUSS, [2.0], cfg, bound_fn, window=window)


@pytest.mark.parametrize("run,message", [
    # a negative tail point, on each path that reads one
    (lambda cfg: empirical_tail(X1X2, GAUSS, -1.0, cfg), "t=-1 must be nonnegative"),
    (lambda cfg: er_tail_experiment(GraphSpec.cycle(3), 5, 0.5, cfg, eps=-1.0),
     "t=-1.25 must be nonnegative"),
    (lambda cfg: er_tail_experiment(GraphSpec.cycle(4), 6, 0.5, cfg, t_list=[1.0, -0.5]),
     "t=-0.5 must be nonnegative"),
    (lambda cfg: wigner_experiment(Polynomial(1, {((1, 2),): 1.0}), WignerSpec(5), cfg,
                                   t_list=[-1.0]), "t=-1 must be nonnegative"),
    # a ratio window that is not 0 <= low <= high would judge every row `fail`
    (_sandwich((10.0, 0.1)), "ratio window (10, 0.1) needs 0 <= low <= high"),
    (_sandwich((-0.5, 2.0)), "ratio window (-0.5, 2) needs 0 <= low <= high"),
    (_sandwich((math.nan, 1.0)), "ratio window (nan, 1) needs 0 <= low <= high")])
def test_bad_input_is_refused_before_sampling(run, message, monkeypatch):
    def refuse(fn, cfg):
        raise AssertionError("sampled before the input was checked")
    for module in ("concentro.montecarlo", "concentro.graphs", "concentro.rmt"):
        monkeypatch.setattr(f"{module}._run_chunks", refuse)
    with pytest.raises(ValueError, match=re.escape(message)):
        run(MCConfig(N=1000, seed=0))
