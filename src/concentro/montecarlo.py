"""Samplers, empirical moments and tails, chaos comparisons, and the
sandwich-ratio checks that confront every bound functional with simulation.

Randomness is counter-based: chunk c of a run with seed s draws from
Philox-4x64 keyed with (s, c).  `_run_chunks` calls the job fn(rows, rng) per
chunk on `cfg.workers` threads and joins the chunks in chunk order, so results
are bit-identical for a fixed (seed, N, batch) whatever `cfg.workers` is.
Every deviation tail comes from `tail_rows`, every replicate mean with its
standard error from `_mean_stderr`, and every stack of symmetric
matrices (Erdos-Renyi adjacency, Wigner) from `symmetric_stack`, which gathers
the n(n-1)/2 upper-triangle entries of each matrix, row by row, in one `take`
and zeros the diagonal; the samplers hand it their draws as they come.  A
stack of n x n float matrices is worked through in blocks of `_stack_block(n)`
= max(1, _STACK_BLOCK_BYTES // (8 n^2)) matrices, about 1 MB of float64 (the
Wigner draws and power traces) and half that of the float32 Erdos-Renyi
adjacency and its powers.  Moment orders are an argument of the estimators
that take them (`empirical_moment`, `chaos_moment`, `sandwich_check`,
`sobolev_check`), not of `MCConfig`, and `_moment_orders` alone checks them.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial import polynomial as P

from .poly import Polynomial, ProductDistribution, hermite
from .tensor import IndexMask, Tensor, contract_rows


def max_admissible_p(n_samples: int) -> float:
    """Heavy-tail guard: empirical p-norms are meaningless past ~log(N)."""
    return math.log(n_samples) / 1.5


def _moment_orders(p_list, n_samples: int) -> tuple:
    """The orders as floats, each in [2, ln(N)/1.5]; at least one."""
    p_list = tuple(float(p) for p in p_list)
    if not p_list:
        raise ValueError("empirical moments need at least one order in p_list")
    cap = max_admissible_p(n_samples)
    for p in p_list:
        if not 2.0 <= p <= cap:
            raise ValueError(
                f"moment order p={p} outside [2, ln(N)/1.5 = {cap:.3f}] for N={n_samples}")
    return p_list


@dataclass(frozen=True)
class MCConfig:
    """Replicas, seed, chunk size and chunk threads of a run."""

    N: int
    seed: int = 0
    batch: int = 65536
    workers: int = 1

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass(frozen=True)
class MomentEstimate:
    p: float
    value: float
    stderr: float
    N: int


@dataclass(frozen=True)
class TailEstimate:
    t: float
    probability: float
    wilson_low: float
    wilson_high: float
    N: int


def chunk_rng(seed: int, chunk: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, chunk], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _run_chunks(fn, cfg: MCConfig) -> np.ndarray:
    """fn(rows, rng) -> array per chunk; the arrays joined along the last axis,
    in chunk order."""
    sizes = [min(cfg.batch, cfg.N - start) for start in range(0, cfg.N, cfg.batch)]

    def job(c):
        return fn(sizes[c], chunk_rng(cfg.seed, c))

    if cfg.workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            return np.concatenate(list(pool.map(job, range(len(sizes)))), axis=-1)
    return np.concatenate([job(c) for c in range(len(sizes))], axis=-1)


_STACK_BLOCK_BYTES = 1 << 20


def _stack_block(n: int) -> int:
    """The matrices per block of a stack of n x n float matrices, so that a
    block holds about _STACK_BLOCK_BYTES, and at least one."""
    return max(1, _STACK_BLOCK_BYTES // (8 * n * n))


@functools.lru_cache(maxsize=8)
def _symmetric_index(n: int) -> np.ndarray:
    """Read-only flat map from entry (i, j), i != j, of an n x n matrix to the
    column of its upper-triangle entry in `symmetric_stack`'s rows; a diagonal
    entry maps to column 0, which the zero diagonal overwrites."""
    idx = np.zeros((n, n), dtype=np.intp)
    iu = np.triu_indices(n, 1)
    idx[iu] = idx[iu[::-1]] = np.arange(n * (n - 1) // 2)
    idx.flags.writeable = False
    return idx.ravel()


def symmetric_stack(upper: np.ndarray, n: int, out=None) -> np.ndarray:
    """The (rows, n, n) symmetric matrices with zero diagonals, one per row of
    `upper`, which holds the n(n-1)/2 upper-triangle entries of each matrix row
    by row, n >= 2: one gather in `upper`'s dtype, into the C-contiguous `out`
    when it is given."""
    m = n * (n - 1) // 2
    if n < 2 or upper.ndim != 2 or upper.shape[1] != m:
        raise ValueError(f"{n} x {n} matrices, n >= 2, are built from rows of {m}"
                         f" upper-triangle entries, got shape {upper.shape}")
    rows = len(upper)
    if out is None:
        out = np.empty((rows, n, n), dtype=upper.dtype)
    flat = out.reshape(rows, n * n)
    # the indices are in range by construction; "raise" would buffer `out`
    upper.take(_symmetric_index(n), axis=1, out=flat, mode="clip")
    flat[:, ::n + 1] = 0
    return out


def _sample_values(f: Polynomial, dist: ProductDistribution, cfg: MCConfig) -> np.ndarray:
    """f(X) on cfg.N draws of the product law."""
    return _run_chunks(lambda rows, rng: f.evaluate_batch(dist.sample(rng, rows, f.nvars)), cfg)


def _finite(x, p: float):
    """x when it is finite, else a ValueError naming the moment order p."""
    if not np.isfinite(x):
        raise ValueError(f"the p={p:g} moment is not finite: the sample or its powers overflow")
    return x


def _centered_moments(values: np.ndarray, p_list):
    """The centered L^p norm of `values` and its standard error per p; an
    overflow in the sample or its powers is refused (`_finite`)."""
    n = values.size
    out = []
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.abs(values - values.mean())
        for p in p_list:
            wp = w**p
            mp = wp.mean()
            value = _finite(mp ** (1.0 / p), p)
            sd = wp.std()
            stderr = _finite((value / (p * mp) * sd / math.sqrt(n)) if mp > 0 else 0.0, p)
            out.append(MomentEstimate(float(p), float(value), float(stderr), n))
    return out


def _mean_stderr(values: np.ndarray, name: str) -> tuple[float, float]:
    """The sample mean of `values` and its standard error std / sqrt(size);
    a mean or standard error that overflows is refused."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean, stderr = values.mean(), values.std() / math.sqrt(values.size)
    if not (np.isfinite(mean) and np.isfinite(stderr)):
        raise ValueError(f"the mean of {name} or its standard error is not finite:"
                         " the sample overflows")
    return float(mean), float(stderr)


def empirical_moment(f: Polynomial, dist: ProductDistribution, p_list,
                     cfg: MCConfig) -> list[MomentEstimate]:
    """Empirical L^p norms of f(X) - mean, one per p in p_list."""
    p_list = _moment_orders(p_list, cfg.N)
    return _centered_moments(_sample_values(f, dist, cfg), p_list)


def wilson_interval(k: int, n: int) -> tuple[float, float]:
    z = 1.96   # the 95% Wilson score interval
    phat = k / n
    denom = 1 + z**2 / n
    mid = (phat + z**2 / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z**2 / (4 * n**2)) / denom
    return max(0.0, mid - half), min(1.0, mid + half)


def _tail_points(t_list) -> tuple:
    """The tail points as floats, each one nonnegative: the experiments check
    them before they sample."""
    t_list = tuple(float(t) for t in t_list)
    for t in t_list:
        if not t >= 0:
            raise ValueError(f"t={t:g} must be nonnegative")
    return t_list


def tail_rows(values: np.ndarray, t_list, bound=None) -> tuple:
    """One row per t: the share of values at least t from their sample mean
    (refused when not finite), its Wilson interval, and bound(t) (None without a bound)."""
    n = values.size
    with np.errstate(over="ignore", invalid="ignore"):
        mean = values.mean()
        if not np.isfinite(mean):
            raise ValueError("the sample mean is not finite: the sample or its sum overflows")
        dev = np.abs(values - mean)
    rows = []
    for t in t_list:
        hits = int((dev >= t).sum())
        low, high = wilson_interval(hits, n)
        rows.append({"t": float(t), "tail": hits / n, "wilson_low": low,
                     "wilson_high": high, "bound": None if bound is None else bound(t)})
    return tuple(rows)


def empirical_tail(f: Polynomial, dist: ProductDistribution, t: float,
                   cfg: MCConfig) -> TailEstimate:
    """Fraction of samples with |f(X) - empirical mean| >= t, with Wilson interval."""
    if cfg.N < 1000:
        raise ValueError("tail estimation needs N >= 1000")
    t_list = _tail_points([t])
    (row,) = tail_rows(_sample_values(f, dist, cfg), t_list)
    return TailEstimate(row["t"], row["tail"], row["wilson_low"], row["wilson_high"], cfg.N)


def _validate_undecoupled(a: Tensor) -> None:
    """Refuse a coefficient tensor that is not symmetric or that is nonzero
    where two indices are equal.  The d - 1 adjacent transpositions generate
    every permutation, and in a symmetric tensor an entry with equal indices j
    and k is a permutation of one with equal indices 1 and 2, so one
    generalized diagonal, {1,2}, holds them all."""
    d, vals = a.order, a.values
    for j in range(d - 1):
        if not np.array_equal(vals, vals.swapaxes(j, j + 1)):
            raise ValueError("undecoupled chaos needs a symmetric coefficient tensor")
    if d > 1 and np.any(vals[IndexMask.generalized_diagonal((1, 2)).boolean(d, a.dim)]):
        raise ValueError("nonzero entries on the generalized diagonal {1,2}")


def chaos_moment(a: Tensor, mode: str, p: float, cfg: MCConfig) -> MomentEstimate:
    """Empirical |Z|_p for Z = <A, G_1 x..x G_d> (decoupled) or the one-vector
    form over distinct indices (undecoupled, validated); each chunk is one
    ``contract_rows`` call on the draws."""
    if mode not in ("decoupled", "undecoupled"):
        raise ValueError(f"unknown chaos mode {mode!r}")
    (p,) = _moment_orders([p], cfg.N)
    d, m = a.order, a.dim
    if mode == "undecoupled":
        _validate_undecoupled(a)

    def job(rows, rng):
        if mode == "decoupled":
            gs = [rng.standard_normal((rows, m)) for _ in range(d)]
        else:
            gs = [rng.standard_normal((rows, m))] * d
        return contract_rows(a.values, gs)

    return _centered_moments(_run_chunks(job, cfg), [p])[0]


def sandwich_check(f: Polynomial, dist: ProductDistribution, p_list, cfg: MCConfig,
                   bound_fn, window: tuple = (0.1, 10.0)) -> list[dict]:
    """Empirical moment / bound ratio per p, judged against the ratio window
    (low, high), 0 <= low <= high; `bound_fn(f, dist, p)` returns the bound as
    a number."""
    low, high = window
    if not 0 <= low <= high:
        raise ValueError(f"ratio window ({low:g}, {high:g}) needs 0 <= low <= high")
    estimates = empirical_moment(f, dist, p_list, cfg)
    rows = []
    for est in estimates:
        bound = bound_fn(f, dist, est.p)
        if bound == 0.0 and est.value == 0.0:
            rows.append({"p": est.p, "empirical": 0.0, "stderr": est.stderr,
                         "bound": 0.0, "ratio": None, "status": "degenerate"})
            continue
        ratio = est.value / bound if bound > 0 else math.inf
        ok = low <= ratio <= high
        rows.append({"p": est.p, "empirical": est.value, "stderr": est.stderr,
                     "bound": float(bound), "ratio": ratio,
                     "status": "pass" if ok else "fail"})
    return rows


def _elementary_symmetric(draws: np.ndarray, d: int) -> np.ndarray:
    """e_0..e_d of each row by the recurrence e_k += e_(k-1) * x_j over the
    columns j; returns (rows, d+1).  A chunk no wider than tall takes one update
    of e_1..e_d per column, a wider one a cumulative sum along the columns per k.
    The sums stay sequential: the values are bit-identical to the plain loop."""
    rows, n = draws.shape
    cols = np.ascontiguousarray(draws.T)
    e = np.zeros((d + 1, rows))
    e[0] = 1.0
    if n <= rows:
        for x in cols:
            e[1:] += e[:-1] * x
        return e.T
    run = np.ones((n + 1, rows))     # e_(k-1) after 0..n columns
    for k in range(1, d + 1):
        run[1:] = np.cumsum(run[:-1] * cols, axis=0)
        run[0] = 0.0
        e[k] = run[-1]
    return e.T


def hermite_tetrahedral_convergence(d: int, N_list, cfg: MCConfig) -> list[dict]:
    """Mean squared gap between h_d of a normalized sum and its distinct-index
    product approximation, for each inner size N.

    The sum over distinct index tuples equals d! times the d-th elementary
    symmetric polynomial, which is what gets evaluated.
    """
    if not 1 <= d <= 4:
        raise ValueError("tetrahedral convergence check supports d in [1, 4]")
    sizes = [int(big_n) for big_n in N_list]
    for big_n in sizes:
        if big_n < 1:
            raise ValueError(f"inner size N={big_n} must be >= 1")
    coeffs = hermite(d)
    fact = float(math.factorial(d))
    out = []
    for big_n in sizes:
        sub = replace(cfg, batch=max(1, cfg.batch // big_n))

        def job(rows, rng, big_n=big_n):
            draws = rng.standard_normal((rows, big_n))
            e = _elementary_symmetric(draws, d)
            g = e[:, 1] * big_n**-0.5
            delta = P.polyval(g, coeffs) - fact * float(big_n) ** (-d / 2.0) * e[:, d]
            sq = delta**2
            return np.array([sq.sum(), (sq**2).sum()])

        # summed down the chunk axis: a flat sum would go pairwise and move the last digits
        s2, s4 = _run_chunks(job, sub).reshape(-1, 2).sum(axis=0)
        mean = s2 / cfg.N
        var = max(s4 / cfg.N - mean**2, 0.0)
        out.append({"N": big_n, "mean_sq_error": float(mean),
                    "stderr": float(math.sqrt(var / cfg.N))})
    return out


def sobolev_check(dist: ProductDistribution, f: Polynomial, p_list,
                  cfg: MCConfig) -> list[dict]:
    """Ratio |f - Ef|_p / (L p^gamma | |grad f| |_p) per p, empirically."""
    pair = dist.sobolev
    if pair is None:
        raise ValueError(f"law {dist.law!r} has no known Sobolev (L, gamma) pair")
    L, gamma = pair
    p_list = _moment_orders(p_list, cfg.N)
    grads = f.gradient()

    def job(rows, rng):
        xs = dist.sample(rng, rows, f.nvars)
        vals = f.evaluate_batch(xs)
        gsq = np.zeros(rows)
        with np.errstate(over="ignore"):   # an overflow is refused at gnorm**p
            for gpoly in grads:
                if gpoly.terms:
                    gsq += gpoly.evaluate_batch(xs) ** 2
        return np.stack([vals, np.sqrt(gsq)])

    values, gnorm = _run_chunks(job, cfg)
    # a gradient that vanishes on every sample leaves only the rounding of the
    # empirical mean in lhs: no ratio is meaningful
    degenerate = not gnorm.any()
    rows = []
    for est in _centered_moments(values, p_list):
        p, lhs = est.p, est.value
        with np.errstate(over="ignore"):
            rhs = float(L * p**gamma * _finite(np.mean(gnorm**p), p) ** (1.0 / p))
        if degenerate:
            rows.append({"p": p, "lhs": lhs, "rhs": rhs, "ratio": None,
                         "status": "degenerate"})
        else:
            rows.append({"p": p, "lhs": lhs, "rhs": rhs,
                         "ratio": lhs / rhs if rhs > 0 else math.inf,
                         "status": "pass" if lhs <= rhs else "check"})
    return rows
