"""Linear eigenvalue statistics of Wigner matrices: sampling, eigenvalues by
LAPACK (one batched call per stack of matrices), exact semicircle integrals of
polynomials, and the deviation bound for smooth linear statistics with its
Monte Carlo comparison.

A linear statistic of a one-variable polynomial g needs no eigenvalues
(Wigner's moment method).  With X = A / sqrt(n),

    sum_i g(lambda_i / sqrt(n)) = tr g(X) = sum_k g_k n^(-k/2) tr A^k,

the coefficients of g(x / sqrt(n)) dotted with the traces of the powers of A.
`_power_traces` computes tr A^k for k = 0..K: tr A^0 = n, tr A^1 is the
diagonal sum, and every higher tr A^(a+b) is the entrywise inner product
<A^a, A^b>, since the powers of a symmetric matrix are symmetric.  So only the
powers up to h = ceil(K/2) are formed, along the chain 1, 2, the numbers of
the other parity than h from 3 to h - 1, and h (`_power_chain`).  Each step
adds 1 or 2 to the exponent and is one matrix product (GEMM) per matrix:
floor(h/2) + 1 of them for h >= 3, one for h = 2 and none for h = 1.  The
`wigner_experiment` statistic f = x^2 (K = 2) needs no GEMM; degree 11, the
cap that `semicircle_integral` sets on f'^2, has K = 20 and needs 6, where the
consecutive powers 2..10 would need 9.

The stack is sampled and worked through in blocks of
`montecarlo._stack_block(n)` matrices: `WignerSpec.sample` draws the upper
triangles of a block and gathers them into the stack, and each formed power
stays near 1 MB whatever the chunk size.  Neither depends on the block size:
the blocks draw in sequence from one stream, and every product and inner
product is taken one matrix at a time.

`eigenvalues_symmetric` is the one eigen path, for checks that compare a
statistic with its eigenvalues; the experiment never needs them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

from .bounds import two_sided_tail
from .montecarlo import (
    MCConfig,
    _mean_stderr,
    _run_chunks,
    _stack_block,
    _tail_points,
    symmetric_stack,
    tail_rows,
)
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
        """`rows` matrices as a (rows, n, n) stack.  The draws are the upper
        triangles of all the matrices, each row by row, then their diagonals.
        The upper triangles of `_stack_block(n)` matrices at a time are drawn
        and gathered straight into the stack (`symmetric_stack`), so no draw
        array of the whole stack is held next to it; the diagonals are then
        written over its zero diagonals."""
        n = self.n
        stack = np.empty((rows, n, n))
        block = _stack_block(n)
        for start in range(0, rows, block):
            upper = rng.standard_normal((min(block, rows - start), n * (n - 1) // 2))
            symmetric_stack(upper, n, out=stack[start:start + block])
        diag_sd = math.sqrt(2.0) if self.convention == "goe" else 1.0
        i = np.arange(n)
        stack[:, i, i] = diag_sd * rng.standard_normal((rows, n))
        return stack


def _power_chain(top: int) -> list[int]:
    """The exponents 1 < .. < h = ceil(top/2) of the powers that
    `_power_traces` forms, each 1 or 2 above the one before it, so that every
    k = 2..top is the sum of two of them (module docstring)."""
    h = (top + 1) // 2
    if h <= 2:
        return list(range(1, h + 1))
    return [1, 2, *range(3 + h % 2, h, 2), h]


def _power_traces(mats: np.ndarray, top: int) -> np.ndarray:
    """tr A^k for k = 0..top of each symmetric matrix A of a (rows, n, n)
    stack, as a (top + 1, rows) array: the diagonal sum at k = 1, and at
    k = a + b >= 2 the inner product <A^a, A^b> of two powers of
    `_power_chain`, taken in blocks of `_stack_block(n)` matrices (module
    docstring)."""
    rows, n = len(mats), mats.shape[-1]
    chain = _power_chain(top)
    halves = [max(a for a in chain if a <= k - a and k - a in chain) for k in range(2, top + 1)]
    out = np.empty((top + 1, rows))
    out[0] = n
    if top >= 1:
        out[1] = np.trace(mats, axis1=1, axis2=2)
    block = _stack_block(n)
    for start in range(0, rows, block):
        powers = {1: mats[start:start + block]}
        for prev, p in zip(chain, chain[1:]):
            powers[p] = powers[prev] @ powers[p - prev]
        flat = {p: m.reshape(len(m), -1) for p, m in powers.items()}
        for k, a in enumerate(halves, start=2):
            out[k, start:start + block] = np.vecdot(flat[a], flat[k - a])
    return out


def _coefficients(g: Polynomial, size: int) -> np.ndarray:
    """(g_0, .., g_(size-1)), the coefficients of a one-variable polynomial
    of degree below `size`."""
    coeffs = np.zeros(size)
    for key, coef in g.terms.items():
        coeffs[key[0][1] if key else 0] = coef
    return coeffs


def _linear_statistics(mats: np.ndarray, polys) -> np.ndarray:
    """sum_i g(lambda_i / sqrt(n)) = tr g(A / sqrt(n)) for each one-variable
    polynomial g of `polys` (rows) and each matrix A of a symmetric
    (rows, n, n) stack (columns), from one set of power traces (module
    docstring).  A value that overflows is inf or nan, without a warning."""
    n = mats.shape[-1]
    top = max(g.degree for g in polys)
    scaled = np.stack([_coefficients(g, top + 1) for g in polys]) * n ** (-0.5 * np.arange(top + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        return (scaled[:, :, None] * _power_traces(mats, top)).sum(axis=1)


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
    coeffs = _coefficients(g, g.degree + 1)
    crit = np.clip(P.polyroots(P.polyder(coeffs)).real, -SUP_HALFWIDTH, SUP_HALFWIDTH)
    xs = np.concatenate([[-SUP_HALFWIDTH, SUP_HALFWIDTH], crit])
    return float(np.abs(g.evaluate_batch(xs[:, None])).max())


def _fprime_energy(f: Polynomial) -> tuple[float, Polynomial]:
    """The semicircle energy of f', the integral of f'(x)^2, refused when it
    overflows, and f'^2 itself."""
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
    return energy, sq


def linstat_tail_bound(f: Polynomial, n: int, t: float, c_l: float = 1.0) -> float:
    """Deviation bound for Z: sub-Gaussian term driven by the semicircle energy
    of f', exponential term by sup |f''|, single explicit constant c_l.  The
    entries are Gaussian (`WignerSpec`), so the log-Sobolev constant L is 1
    and the exponents carry no L^2."""
    if f.nvars != 1:
        raise ValueError("linear statistics take a one-variable polynomial")
    if not t > 0:
        return two_sided_tail([0.0], c_l)
    energy, _ = _fprime_energy(f)
    fpp_sup = sup_abs_on_interval(f.partial(1).partial(1))
    args = []
    if energy > 0 or fpp_sup > 0:
        args.append(t**2 / (energy + n ** (-2.0 / 3.0) * fpp_sup**2))
    if fpp_sup > 0:
        args.append(n * t / fpp_sup)
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
    """Replicated linear statistics: empirical tails of Z = tr f(X), X = A/sqrt(n),
    next to the deviation bound, and the empirical gradient energy
    (1/n) tr f'(X)^2 = (1/n) sum f'(lambda_i/sqrt(n))^2 next to its semicircle
    limit.

    No eigenvalue is computed (module docstring).  Each chunk of sampled
    matrices takes one set of traces tr A^k, k = 0..K with
    K = max(deg f, 2 deg f - 2), dotted with the coefficients of f and of f'^2.
    The powers are formed in blocks of `_stack_block(n)` matrices (145 at
    n = 30, 3 at n = 200), and the result is the same for every
    block size.  At K = 2 (f = x^2) no power is formed; at K = 20 (degree 11)
    six GEMMs form A^2, A^3, A^5, A^7, A^9 and A^10."""
    if f.nvars != 1:
        raise ValueError("linear statistics take a one-variable polynomial")
    if spec.n > 200:
        raise ValueError("experiment matrix size capped at 200")
    if cfg.N > 10_000:
        raise ValueError("experiment replica count capped at 10000")
    two_sided_tail((), c_l)   # a bad c_l fails here, before any sampling
    energy, fp_sq = _fprime_energy(f)   # so does an energy that overflows
    t_list = _tail_points(t_list)       # and a negative tail point

    def job(rows, rng):
        # a value that overflows is refused by _mean_stderr
        z, fp_sq_trace = _linear_statistics(spec.sample(rng, rows), (f, fp_sq))
        return np.stack([z, fp_sq_trace / spec.n])

    z, sob = _run_chunks(job, cfg)
    z_mean, z_stderr = _mean_stderr(z, "Z")
    sob_mean, sob_stderr = _mean_stderr(sob, "the gradient energy")
    rows = tail_rows(z, t_list, lambda t: linstat_tail_bound(f, spec.n, t, c_l))
    return WignerResult(z_mean, z_stderr, sob_mean, sob_stderr, energy, rows)

