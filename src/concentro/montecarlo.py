"""Samplers, empirical moments and tails, chaos comparisons, and the
sandwich-ratio checks that confront every bound functional with simulation.

Randomness is counter-based: chunk c of a run with seed s draws from
Philox-4x64 keyed with (s, c).  Chunks are reduced in index order, so results
are bit-identical for a fixed (seed, N, batch) regardless of worker count.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial import polynomial as P

from .poly import Polynomial, ProductDistribution
from .tensor import Tensor

_LETTERS = "abcdef"


def max_admissible_p(n_samples: int) -> float:
    """Heavy-tail guard: empirical p-norms are meaningless past ~log(N)."""
    return math.log(n_samples) / 1.5


@dataclass(frozen=True)
class MCConfig:
    """Replicas, seed and chunk size of a run, and the moment orders it
    estimates; p_list stays empty for runs that take no moment, so that small
    N is not held to the ln(N)/1.5 cap."""

    N: int
    seed: int = 0
    p_list: tuple = ()
    batch: int = 65536

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")
        object.__setattr__(self, "p_list", tuple(float(p) for p in self.p_list))
        cap = max_admissible_p(self.N)
        for p in self.p_list:
            if not 2.0 <= p <= cap:
                raise ValueError(
                    f"moment order p={p} outside [2, ln(N)/1.5 = {cap:.3f}] for N={self.N}")


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


def sample_vector(dist: ProductDistribution, rng: np.random.Generator) -> np.ndarray:
    """One i.i.d. draw of the n coordinates."""
    return dist.sample(rng)


def _run_chunks(fn, cfg: MCConfig, workers: int = 1):
    """fn(chunk_index, rows, rng) -> array(s); chunks reduced in index order."""
    sizes = []
    left = cfg.N
    while left > 0:
        sizes.append(min(cfg.batch, left))
        left -= sizes[-1]

    def job(c):
        return fn(c, sizes[c], chunk_rng(cfg.seed, c))

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(job, range(len(sizes))))
    return [job(c) for c in range(len(sizes))]


def _centered_moments(values: np.ndarray, p_list, n: int):
    center = values.mean()
    w = np.abs(values - center)
    out = []
    for p in p_list:
        wp = w**p
        mp = wp.mean()
        value = mp ** (1.0 / p)
        sd = wp.std()
        stderr = (value / (p * mp) * sd / math.sqrt(n)) if mp > 0 else 0.0
        out.append(MomentEstimate(float(p), float(value), float(stderr), n))
    return out


def empirical_moment(f: Polynomial, dist: ProductDistribution, cfg: MCConfig,
                     workers: int = 1) -> list[MomentEstimate]:
    """Centered empirical L^p norms of f(X), centered at the empirical mean."""
    if dist.n != f.nvars:
        raise ValueError(f"distribution over {dist.n} coordinates, polynomial over {f.nvars}")
    if not cfg.p_list:
        raise ValueError("empirical moments need at least one order in p_list")
    chunks = _run_chunks(lambda c, rows, rng: f.evaluate_batch(dist.sample(rng, rows)),
                         cfg, workers)
    values = np.concatenate(chunks)
    return _centered_moments(values, cfg.p_list, cfg.N)


def wilson_interval(k: int, n: int, z: float = 1.96) -> tuple[float, float]:
    phat = k / n
    denom = 1 + z**2 / n
    mid = (phat + z**2 / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z**2 / (4 * n**2)) / denom
    return max(0.0, mid - half), min(1.0, mid + half)


def empirical_tail(f: Polynomial, dist: ProductDistribution, t: float, cfg: MCConfig,
                   workers: int = 1) -> TailEstimate:
    """Fraction of samples with |f(X) - empirical mean| >= t, with Wilson interval."""
    if cfg.N < 1000:
        raise ValueError("tail estimation needs N >= 1000")
    if t < 0:
        raise ValueError("t must be nonnegative")
    chunks = _run_chunks(lambda c, rows, rng: f.evaluate_batch(dist.sample(rng, rows)),
                         cfg, workers)
    values = np.concatenate(chunks)
    k = int((np.abs(values - values.mean()) >= t).sum())
    low, high = wilson_interval(k, cfg.N)
    return TailEstimate(float(t), k / cfg.N, low, high, cfg.N)


def _validate_undecoupled(a: Tensor) -> None:
    d, vals = a.order, a.values
    for perm in itertools.permutations(range(d)):
        if not np.array_equal(vals, vals.transpose(perm)):
            raise ValueError("undecoupled chaos needs a symmetric coefficient tensor")
    idx = np.indices((a.dim,) * d)
    for k in range(d - 1):
        for l in range(k + 1, d):
            if np.any(vals[idx[k] == idx[l]]):
                raise ValueError(
                    f"nonzero entries on the generalized diagonal {{{k + 1},{l + 1}}}")


def chaos_moment(a: Tensor, mode: str, p: float, cfg: MCConfig,
                 workers: int = 1) -> MomentEstimate:
    """Empirical |Z|_p for Z = <A, G_1 x..x G_d> (decoupled) or the one-vector
    form over distinct indices (undecoupled, validated)."""
    if mode not in ("decoupled", "undecoupled"):
        raise ValueError(f"unknown chaos mode {mode!r}")
    if not 2.0 <= p <= max_admissible_p(cfg.N):
        raise ValueError(f"moment order p={p} outside [2, {max_admissible_p(cfg.N):.3f}]")
    d, m = a.order, a.dim
    if mode == "undecoupled":
        _validate_undecoupled(a)
    expr = _LETTERS[:d] + "," + ",".join("z" + _LETTERS[i] for i in range(d)) + "->z"

    def job(c, rows, rng):
        if mode == "decoupled":
            gs = [rng.standard_normal((rows, m)) for _ in range(d)]
        else:
            g = rng.standard_normal((rows, m))
            gs = [g] * d
        return np.einsum(expr, a.values, *gs, optimize=True)

    values = np.concatenate(_run_chunks(job, cfg, workers))
    return _centered_moments(values, [p], cfg.N)[0]


def sandwich_check(f: Polynomial, dist: ProductDistribution, p_list, cfg: MCConfig,
                   bound_fn, window: tuple = (0.1, 10.0), workers: int = 1) -> list[dict]:
    """Empirical moment / bound ratio per p, judged against the ratio window."""
    cfg = replace(cfg, p_list=tuple(p_list))
    estimates = empirical_moment(f, dist, cfg, workers)
    rows = []
    for est in estimates:
        bound = bound_fn(f, dist, est.p)
        bound = getattr(bound, "total", bound)
        if bound == 0.0 and est.value == 0.0:
            rows.append({"p": est.p, "empirical": 0.0, "stderr": est.stderr,
                         "bound": 0.0, "ratio": None, "status": "degenerate"})
            continue
        ratio = est.value / bound if bound > 0 else math.inf
        ok = window[0] <= ratio <= window[1]
        rows.append({"p": est.p, "empirical": est.value, "stderr": est.stderr,
                     "bound": float(bound), "ratio": ratio,
                     "status": "pass" if ok else "fail"})
    return rows


def _elementary_symmetric(draws: np.ndarray, d: int) -> np.ndarray:
    """e_0..e_d of each row, by the stable O(N d) recurrence; returns (rows, d+1)."""
    rows, n = draws.shape
    e = np.zeros((rows, d + 1))
    e[:, 0] = 1.0
    for j in range(n):
        x = draws[:, j]
        for k in range(min(j + 1, d), 0, -1):
            e[:, k] += e[:, k - 1] * x
    return e


def hermite_tetrahedral_convergence(d: int, N_list, cfg: MCConfig,
                                    workers: int = 1) -> list[dict]:
    """Mean squared gap between h_d of a normalized sum and its distinct-index
    product approximation, for each inner size N.

    The sum over distinct index tuples equals d! times the d-th elementary
    symmetric polynomial, which is what gets evaluated.
    """
    from .poly import hermite

    if not 1 <= d <= 4:
        raise ValueError("tetrahedral convergence check supports d in [1, 4]")
    coeffs = hermite(d).coeffs
    fact = float(math.factorial(d))
    out = []
    for big_n in N_list:
        big_n = int(big_n)
        rows_per_chunk = max(1, cfg.batch // big_n)
        sub = MCConfig(N=cfg.N, seed=cfg.seed, batch=rows_per_chunk)

        def job(c, rows, rng, big_n=big_n):
            draws = rng.standard_normal((rows, big_n))
            e = _elementary_symmetric(draws, d)
            g = e[:, 1] * big_n**-0.5
            delta = P.polyval(g, coeffs) - fact * float(big_n) ** (-d / 2.0) * e[:, d]
            sq = delta**2
            return np.array([sq.sum(), (sq**2).sum()])

        s2, s4 = np.sum(_run_chunks(job, sub, workers), axis=0)
        mean = s2 / cfg.N
        var = max(s4 / cfg.N - mean**2, 0.0)
        out.append({"N": big_n, "mean_sq_error": float(mean),
                    "stderr": float(math.sqrt(var / cfg.N))})
    return out


def sobolev_check(dist: ProductDistribution, f: Polynomial, p_list, cfg: MCConfig,
                  workers: int = 1) -> list[dict]:
    """Ratio |f - Ef|_p / (L p^gamma | |grad f| |_p) per p, empirically."""
    pair = dist.sobolev
    if pair is None:
        raise ValueError(f"law {dist.law!r} has no Sobolev (L, gamma) pair configured")
    L, gamma = pair
    if dist.n != f.nvars:
        raise ValueError(f"distribution over {dist.n} coordinates, polynomial over {f.nvars}")
    cfg = replace(cfg, p_list=tuple(p_list))
    grads = f.gradient()

    def job(c, rows, rng):
        xs = dist.sample(rng, rows)
        vals = f.evaluate_batch(xs)
        gsq = np.zeros(rows)
        for gpoly in grads:
            if gpoly.terms:
                gsq += gpoly.evaluate_batch(xs) ** 2
        return np.stack([vals, np.sqrt(gsq)])

    stacked = np.concatenate(_run_chunks(job, cfg, workers), axis=1)
    values, gnorm = stacked[0], stacked[1]
    center = values.mean()
    # a gradient that vanishes on every sample leaves only the rounding of the
    # empirical mean in lhs: no ratio is meaningful
    degenerate = not gnorm.any()
    rows = []
    for p in cfg.p_list:
        lhs = float(np.mean(np.abs(values - center) ** p) ** (1.0 / p))
        rhs = float(L * p**gamma * np.mean(gnorm**p) ** (1.0 / p))
        if degenerate:
            rows.append({"p": p, "lhs": lhs, "rhs": rhs, "ratio": None,
                         "status": "degenerate"})
        else:
            rows.append({"p": p, "lhs": lhs, "rhs": rhs,
                         "ratio": lhs / rhs if rhs > 0 else math.inf,
                         "status": "pass" if lhs <= rhs else "check"})
    return rows
