"""Partition-indexed injective tensor norms and their mixed-constraint variants.

``norm_J`` is exact for one block (Frobenius) and two blocks (largest singular
value of the matricization).  For three or more blocks it runs alternating
maximization from many restarts and reports the best value, which is always a
certified lower bound on the true norm.  ``mixed_norm`` handles the variant
where some blocks carry an l_alpha-of-l_2 constraint with a distinguished
coordinate, summed over all choices of that coordinate.

The alternating solver splits the blocks, in update order, into a prefix and
a suffix of about d/2 coordinates each.  A sweep is one GEMM per side with the
prefix x suffix matricization, then one small contraction per block.  It runs
on the tensor scaled by an exact power of two, so tiny entries do not
underflow.  The three entry points run on one BLAS thread (see ``blas``)."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .blas import single_threaded
from .partitions import SetPartition, SplitPartition, merged
from .tensor import Tensor

BRUTEFORCE_DIM_CAP = 64
_BRUTE_CHUNK = 8192


@dataclass(frozen=True)
class NormOptions:
    restarts: int = 64
    tol: float = 1e-10
    max_sweeps: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if not self.tol > 0:
            raise ValueError("tol must be positive")


@dataclass(frozen=True)
class NormResult:
    value: float
    certificate: tuple
    method: str
    sweeps_used: int = 0
    restarts_used: int = 0


@dataclass(frozen=True)
class _BlockSpec:
    """One constraint block of the alternating solver."""

    coords: tuple[int, ...]          # 1-based tensor coordinates, ascending
    kind: str = "l2"                 # "l2" or "mixed"
    s_pos: int = 0                   # position of the distinguished coordinate
    alpha: float = 2.0


def _dual_step(spec: _BlockSpec, g: np.ndarray, m: int):
    """Maximize <g, y> over the block's unit ball; returns (values, maximizer)."""
    if spec.kind == "l2":
        r = np.linalg.norm(g, axis=1)
        safe = np.where(r > 0, r, 1.0)
        return r, g / safe[:, None]
    # mixed l_alpha(l_2) ball with distinguished coordinate spec.s_pos
    nb = len(spec.coords)
    R = g.shape[0]
    G = np.moveaxis(g.reshape((R,) + (m,) * nb), 1 + spec.s_pos, 1).reshape(R, m, -1)
    r = np.linalg.norm(G, axis=2)                      # (R, m) slice norms
    rsafe = np.where(r > 0, r, 1.0)
    dirs = G / rsafe[:, :, None]
    if spec.alpha == 1.0:
        # degenerate dual: all mass on the best slice, ties to the lowest index
        vals = r.max(axis=1)
        pick = r.argmax(axis=1)
        y = np.zeros_like(G)
        y[np.arange(R), pick, :] = dirs[np.arange(R), pick, :]
    else:
        beta = spec.alpha / (spec.alpha - 1.0)
        rmax = r.max(axis=1)
        rmax_safe = np.where(rmax > 0, rmax, 1.0)
        rn = r / rmax_safe[:, None]
        vals = rmax * (rn**beta).sum(axis=1) ** (1.0 / beta)
        w = rn ** (beta - 1.0)
        denom = (w**spec.alpha).sum(axis=1) ** (1.0 / spec.alpha)
        rho = w / np.where(denom > 0, denom, 1.0)[:, None]
        y = rho[:, :, None] * dirs
    y = np.moveaxis(y.reshape((R,) + (m,) * nb), 1, 1 + spec.s_pos).reshape(R, -1)
    vals = np.where(r.max(axis=1) > 0, vals, 0.0)
    return vals, y


def _project_ball(spec: _BlockSpec, v: np.ndarray, m: int) -> np.ndarray:
    """Scale rows of v onto the block's unit sphere."""
    if spec.kind == "l2":
        r = np.linalg.norm(v, axis=1)
    else:
        nb = len(spec.coords)
        V = np.moveaxis(v.reshape((v.shape[0],) + (m,) * nb), 1 + spec.s_pos, 1)
        slice_norms = np.linalg.norm(V.reshape(v.shape[0], m, -1), axis=2)
        if spec.alpha == 1.0:
            r = slice_norms.sum(axis=1)
        else:
            r = (slice_norms**spec.alpha).sum(axis=1) ** (1.0 / spec.alpha)
    return v / np.where(r > 0, r, 1.0)[:, None]


def _khatri_rao(vecs: list[np.ndarray]) -> np.ndarray:
    """Column-wise Kronecker product of block-major (dim_j, restarts) arrays."""
    out = vecs[0]
    for v in vecs[1:]:
        out = (out[:, None, :] * v[None, :, :]).reshape(-1, out.shape[1])
    return out


def _alternating_max(a: Tensor, blocks: list[_BlockSpec], vecs: list[np.ndarray],
                     max_sweeps: int, tol: float):
    """Batched block-wise ascent; returns (values, vecs, sweeps_used).

    Vectors are block-major, one column per restart, and blocks are updated in
    order 1..k.  The blocks split into a prefix and a suffix with balanced
    coordinate counts, and the tensor is matricized once as prefix x suffix.
    Each half-sweep is one GEMM, the matricization (or its transpose) times
    the Khatri-Rao product of the other side's vectors, giving W over the
    side's block indices.  Each block of the side then contracts W with the
    side's other, already-updated vectors and takes its dual step, so this is
    plain Gauss-Seidel with the sums grouped differently.  The objective is
    nondecreasing in every update, so the reported value per restart is the
    form value at the returned vectors.
    """
    m = a.dim
    nrestarts = vecs[0].shape[1]
    dims = [m ** len(b.coords) for b in blocks]
    # the solver runs on `a` scaled by a power of two, so that max|a| lies in
    # [1/2, 1) and no sum of squares underflows; the scaling is exact, and the
    # stopping test and the returned values are in the units of `a`
    exponent = int(np.frexp(np.abs(a.values).max())[1])
    counts = np.cumsum([0] + [len(b.coords) for b in blocks])
    split = int(np.argmin(np.abs(2 * counts - counts[-1])))
    sides = (range(split), range(split, len(blocks)))
    rows, cols = ([i - 1 for l in side for i in blocks[l].coords] for side in sides)
    mat = np.ldexp(a.values, -exponent).transpose(rows + cols).reshape(m ** len(rows), -1)
    mats = (np.ascontiguousarray(mat), np.ascontiguousarray(mat.T))
    vals = np.full(nrestarts, -np.inf)
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        for side, other, side_mat in zip(sides, sides[::-1], mats):
            if not side:
                continue
            w = side_mat @ _khatri_rao([vecs[j] for j in other] or [np.ones((1, nrestarts))])
            for l in side:
                partners = [vecs[j] for j in side if j != l]
                if partners:
                    pre = math.prod(dims[j] for j in side if j < l)
                    g = np.einsum("aibr,abr->ir", w.reshape(pre, dims[l], -1, nrestarts),
                                  _khatri_rao(partners).reshape(pre, -1, nrestarts))
                else:
                    g = w
                new_vals, new_vec = _dual_step(blocks[l], g.T, m)
                keep = new_vals > 0
                vecs[l] = np.where(keep[None, :], new_vec.T, vecs[l])
                del g, new_vec  # batch-sized: free them before the next allocation
            del w
        new_vals = np.ldexp(new_vals, exponent)
        improved = new_vals - vals > tol * np.maximum(1.0, new_vals)
        vals = new_vals
        if not improved.any():
            break
    return vals, vecs, sweeps


def _init_vectors(blocks: list[_BlockSpec], m: int, restarts: int, seed: int):
    """Block-major start points: column #0 is the all-equal tuple, column #r
    is a standard normal draw from `default_rng(seed + r)`, blocks in order,
    each projected onto its block's unit sphere."""
    dims = [m ** len(b.coords) for b in blocks]
    starts = np.ones((restarts, sum(dims)))
    for r in range(1, restarts):
        starts[r] = np.random.default_rng(seed + r).standard_normal(sum(dims))
    edges = np.cumsum([0] + dims)
    return [np.ascontiguousarray(_project_ball(spec, starts[:, lo:hi], m).T)
            for spec, lo, hi in zip(blocks, edges, edges[1:])]


def _zero_result(a: Tensor, part: SetPartition, method: str) -> NormResult:
    certs = tuple(np.zeros(a.dim ** len(b)) for b in part.blocks)
    return NormResult(0.0, certs, method)


@single_threaded()
def norm_J(a: Tensor, part: SetPartition, opts: NormOptions | None = None,
           method: str = "auto") -> NormResult:
    """The injective norm of `a` indexed by the partition `part`.

    One block: exact Frobenius norm.  Two blocks: exact top singular value of
    the matricization grouping the first block as rows.  Three or more blocks
    (or method="als"): best of `opts.restarts` alternating-maximization runs,
    a lower bound on the true norm.
    """
    opts = opts or NormOptions()
    d, m = a.order, a.dim
    if part.d != d:
        raise ValueError(f"partition of [{part.d}] does not match tensor order {d}")
    if method == "auto":
        method = {1: "frobenius", 2: "matricization-spectral"}.get(part.n_blocks, "als")
    if not np.any(a.values):
        return _zero_result(a, part, method)

    if method == "frobenius":
        if part.n_blocks != 1:
            raise ValueError("frobenius method needs a single-block partition")
        # scaling by a power of two is exact and keeps the sum of squares
        # from underflowing or overflowing
        exponent = int(np.frexp(np.abs(a.values).max())[1])
        unit = np.ldexp(a.values.ravel(), -exponent)
        value = np.linalg.norm(unit)
        return NormResult(float(np.ldexp(value, exponent)), (unit / value,), "frobenius")

    if method == "matricization-spectral":
        if part.n_blocks != 2:
            raise ValueError("matricization method needs a two-block partition")
        b1, b2 = part.blocks
        perm = [i - 1 for i in b1] + [i - 1 for i in b2]
        mat = a.values.transpose(perm).reshape(m ** len(b1), m ** len(b2))
        u, s, vt = np.linalg.svd(mat, full_matrices=False)
        return NormResult(float(s[0]), (u[:, 0].copy(), vt[0].copy()), "matricization-spectral")

    if method != "als":
        raise ValueError(f"unknown norm method {method!r}")
    blocks = [_BlockSpec(b) for b in part.blocks]
    vecs = _init_vectors(blocks, m, opts.restarts, opts.seed)
    vals, vecs, sweeps = _alternating_max(a, blocks, vecs, opts.max_sweeps, opts.tol)
    best = int(np.argmax(vals))
    cert = tuple(v[:, best].copy() for v in vecs)
    return NormResult(float(vals[best]), cert, "als", sweeps, opts.restarts)


@single_threaded()
def norm_J_bruteforce(a: Tensor, part: SetPartition, npoints: int, seed: int = 0) -> float:
    """Random-restart lower bound: `npoints` sphere tuples, 50 polish sweeps each.

    Converges to the norm as npoints grows; intended as an oracle for the
    alternating solver on tiny instances.
    """
    d, m = a.order, a.dim
    if part.d != d:
        raise ValueError(f"partition of [{part.d}] does not match tensor order {d}")
    dims = [m ** len(b) for b in part.blocks]
    if sum(dims) > BRUTEFORCE_DIM_CAP:
        raise ValueError(f"total search dimension {sum(dims)} exceeds cap {BRUTEFORCE_DIM_CAP}")
    if not np.any(a.values):
        return 0.0
    blocks = [_BlockSpec(b) for b in part.blocks]
    rng = np.random.default_rng(seed)
    best = 0.0
    done = 0
    while done < npoints:
        r = min(_BRUTE_CHUNK, npoints - done)
        vecs = []
        for dim in dims:
            v = rng.standard_normal((r, dim))
            vecs.append(np.ascontiguousarray((v / np.linalg.norm(v, axis=1)[:, None]).T))
        # tiny tol: extra sweeps past a fixed point cannot change the value
        vals, _, _ = _alternating_max(a, blocks, vecs, 50, 1e-15)
        best = max(best, float(vals.max()))
        done += r
    return best


@single_threaded()
def mixed_norm(a: Tensor, split: SplitPartition, alpha: float,
               opts: NormOptions | None = None) -> float:
    """Mixed-constraint norm: inner blocks on Euclidean spheres, outer blocks
    on l_alpha(l_2) balls, summed over every choice of distinguished coordinate.

    At alpha=2 the mixed ball is the Euclidean ball of the whole block, so each
    summand is computed by the exact merged-partition solver.
    """
    opts = opts or NormOptions()
    d, m = a.order, a.dim
    if split.d != d:
        raise ValueError(f"split of [{split.d}] does not match tensor order {d}")
    if d > 3:
        raise ValueError("mixed norms are supported for order <= 3 only")
    if not 1.0 <= alpha <= 2.0:
        raise ValueError(f"alpha={alpha} outside [1, 2]")
    if not np.any(a.values):
        return 0.0

    n_choices = 1
    for b in split.outer:
        n_choices *= len(b)

    if alpha == 2.0:
        return n_choices * norm_J(a, merged(split), opts).value

    total = 0.0
    for s_choice in itertools.product(*split.outer):
        blocks = [_BlockSpec(b, "l2") for b in split.inner]
        for b, s in zip(split.outer, s_choice):
            blocks.append(_BlockSpec(b, "mixed", s_pos=b.index(s), alpha=alpha))
        blocks.sort(key=lambda sp: sp.coords[0])
        vecs = _init_vectors(blocks, m, opts.restarts, opts.seed)
        vals, _, _ = _alternating_max(a, blocks, vecs, opts.max_sweeps, opts.tol)
        total += float(vals.max())
    return total
