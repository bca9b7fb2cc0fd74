"""Linear eigenvalue statistics of Wigner matrices: sampling, eigenvalues by
LAPACK (one batched call per stack of matrices), exact semicircle integrals of
polynomials, and the deviation bound for smooth linear statistics with its
Monte Carlo comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

from .bounds import two_sided_tail
from .montecarlo import MCConfig, _mean_stderr, _run_chunks, symmetric_stack, tail_rows
from .poly import Polynomial, _substitute

MAX_EIG_SIZE = 400
SUP_HALFWIDTH = 4.0   # sup |f''| is taken on [-4, 4], the semicircle support (-2, 2) doubled


def eigenvalues_symmetric(m) -> np.ndarray:
    """Eigenvalues, ascending, of a symmetric (n, n) matrix, or of each matrix
    in a (rows, n, n) stack, by LAPACK through numpy.linalg.eigvalsh.

    Every matrix must be symmetric to 1e-12 of max(1, max|a|); it is replaced
    by (a + a^T)/2 first, so the result does not depend on which triangle
    LAPACK reads.  Returns (n,) or (rows, n).  One scratch array of the
    input's size serves the checks and the symmetrised copy."""
    a = np.asarray(m, dtype=float)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    n = a.shape[-1]
    if n > MAX_EIG_SIZE:
        raise ValueError(f"matrix size {n} exceeds cap {MAX_EIG_SIZE}")
    at = np.swapaxes(a, -1, -2)
    buf = np.abs(a)
    scale = np.maximum(1.0, buf.max(axis=(-2, -1)))
    np.abs(np.subtract(a, at, out=buf), out=buf)
    if np.any(buf.max(axis=(-2, -1)) > 1e-12 * scale):
        raise ValueError("matrix is asymmetric beyond tolerance 1e-12")
    np.add(a, at, out=buf)
    buf *= 0.5
    return np.linalg.eigvalsh(buf)


def hoffman_wielandt_gap(b, c) -> tuple[float, float]:
    """(sorted-eigenvalue squared distance, squared Frobenius distance); the
    first never exceeds the second for symmetric matrices."""
    eb = eigenvalues_symmetric(b)
    ec = eigenvalues_symmetric(c)
    lhs = float(((eb - ec) ** 2).sum())
    rhs = float(np.linalg.norm(np.asarray(b, dtype=float) - np.asarray(c, dtype=float)) ** 2)
    return lhs, rhs


@dataclass(frozen=True)
class WignerSpec:
    """Symmetric random matrix with independent Gaussian entries, whose law
    satisfies the log-Sobolev inequality with constant 1.

    convention "paper": every entry has variance one.  convention "goe":
    off-diagonal variance one, diagonal variance two.
    """

    n: int
    convention: str = "paper"

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("matrix size must be >= 2")
        if self.convention not in ("paper", "goe"):
            raise ValueError(f"unknown convention {self.convention!r}")

    def sample(self, rng: np.random.Generator, rows: int = 1) -> np.ndarray:
        n = self.n
        m = n * (n - 1) // 2
        values = np.empty((rows, m + n))
        values[:, :m] = rng.standard_normal((rows, m))
        diag_sd = math.sqrt(2.0) if self.convention == "goe" else 1.0
        values[:, m:] = diag_sd * rng.standard_normal((rows, n))
        return symmetric_stack(values, n)


@dataclass(frozen=True)
class LinStatResult:
    z: float
    eigenvalues: np.ndarray


def linear_statistic(f: Polynomial, matrix) -> LinStatResult:
    """Z = sum_i f(lambda_i / sqrt(n)) with eigenvalues sorted ascending."""
    if f.nvars != 1:
        raise ValueError("linear statistics take a one-variable polynomial")
    if np.ndim(matrix) != 2:
        raise ValueError("linear statistics take one matrix")
    eigs = eigenvalues_symmetric(matrix)
    with np.errstate(over="ignore", invalid="ignore"):
        z = float(f.evaluate_batch(eigs[:, None] / math.sqrt(eigs.size)).sum())
    if not math.isfinite(z):
        raise ValueError("the linear statistic is not finite: f overflows at the eigenvalues")
    return LinStatResult(z, eigs)


def catalan(j: int) -> int:
    return math.comb(2 * j, j) // (j + 1)


def semicircle_integral(g: Polynomial) -> float:
    """Integral of a one-variable polynomial against the semicircle density on
    (-2, 2): even moments are Catalan numbers, odd moments vanish."""
    if g.nvars != 1:
        raise ValueError("semicircle integral takes a one-variable polynomial")
    if g.degree > 20:
        raise ValueError("semicircle integral supports degree <= 20")
    return float(_substitute(g, 0, lambda v, r: 0 if r % 2 else catalan(r // 2)))


def sup_abs_on_interval(g: Polynomial) -> float:
    """sup |g| on [-SUP_HALFWIDTH, SUP_HALFWIDTH] for a one-variable polynomial:
    the largest |g| over the endpoints and the critical points, the roots of g'.

    Every root contributes its real part, clipped to the interval: a point of
    the interval never exceeds the sup, so no tolerance on the imaginary part
    is needed to keep the real roots."""
    coeffs = np.zeros(g.degree + 1)
    for key, coef in g.terms.items():
        coeffs[key[0][1] if key else 0] = coef
    crit = np.clip(P.polyroots(P.polyder(coeffs)).real, -SUP_HALFWIDTH, SUP_HALFWIDTH)
    xs = np.concatenate([[-SUP_HALFWIDTH, SUP_HALFWIDTH], crit])
    return float(np.abs(g.evaluate_batch(xs[:, None])).max())


def _fprime_energy(f: Polynomial) -> float:
    """The semicircle energy of f', the integral of f'(x)^2, refused when it overflows."""
    try:
        fp = f.partial(1)
        sq = fp * fp
    except ValueError:   # a coefficient of f' or f'^2 is not finite
        energy = math.inf
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            energy = semicircle_integral(sq)
    if not math.isfinite(energy):
        raise ValueError("the semicircle energy of f' (the integral of f'(x)^2) is not finite")
    return energy


def linstat_tail_bound(f: Polynomial, n: int, L: float, t: float,
                       c_l: float = 1.0) -> float:
    """Deviation bound for Z: sub-Gaussian term driven by the semicircle energy
    of f', exponential term by sup |f''|, single explicit constant c_l."""
    if f.nvars != 1:
        raise ValueError("linear statistics take a one-variable polynomial")
    if not t > 0:
        return two_sided_tail([0.0], c_l)
    energy = _fprime_energy(f)
    fpp_sup = sup_abs_on_interval(f.partial(1).partial(1))
    args = []
    if energy > 0 or fpp_sup > 0:
        args.append(t**2 / (L**2 * (energy + n ** (-2.0 / 3.0) * fpp_sup**2)))
    if fpp_sup > 0:
        args.append(n * t / (L**2 * fpp_sup))
    return two_sided_tail(args, c_l)


@dataclass(frozen=True)
class WignerResult:
    z_mean: float
    z_stderr: float
    sobolev_mean: float
    sobolev_stderr: float
    sobolev_limit: float
    rows: tuple


def wigner_experiment(f: Polynomial, spec: WignerSpec, cfg: MCConfig,
                      t_list=(), c_l: float = 1.0) -> WignerResult:
    """Replicated linear statistics: empirical tails of Z next to the deviation
    bound, and the empirical gradient energy (1/n) sum f'(lambda_i/sqrt(n))^2
    next to its semicircle limit."""
    if f.nvars != 1:
        raise ValueError("linear statistics take a one-variable polynomial")
    if spec.n > 200:
        raise ValueError("experiment matrix size capped at 200")
    if cfg.N > 10_000:
        raise ValueError("experiment replica count capped at 10000")
    two_sided_tail((), c_l)   # a bad c_l fails here, before any sampling
    energy = _fprime_energy(f)   # so does an energy that overflows
    fp = f.partial(1)
    sqrt_n = math.sqrt(spec.n)

    def job(rows, rng):
        lam = eigenvalues_symmetric(spec.sample(rng, rows)).reshape(-1, 1) / sqrt_n
        f_lam = f.evaluate_batch(lam).reshape(rows, spec.n)
        fp_lam = fp.evaluate_batch(lam).reshape(rows, spec.n)
        with np.errstate(over="ignore", invalid="ignore"):   # refused by _mean_stderr
            return np.stack([f_lam.sum(axis=1), (fp_lam**2).mean(axis=1)])

    z, sob = _run_chunks(job, cfg)
    z_mean, z_stderr = _mean_stderr(z, "Z")
    sob_mean, sob_stderr = _mean_stderr(sob, "the gradient energy")
    # Gaussian entries: log-Sobolev constant L = 1
    rows = tail_rows(z, t_list, lambda t: linstat_tail_bound(f, spec.n, 1.0, t, c_l))
    return WignerResult(z_mean, z_stderr, sob_mean, sob_stderr, energy, rows)

