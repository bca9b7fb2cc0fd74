"""Partition-indexed injective tensor norms and their mixed-constraint variants.

``norm_J`` is exact for one block (Frobenius) and two blocks (largest singular
value of the matricization).  For three or more blocks, or method="als", it
runs alternating maximization from `NormOptions.restarts` start points until
no value rises by more than ALS_TOL relative to it in a sweep, or for
ALS_MAX_SWEEPS sweeps, and reports the best value, which is always a certified
lower bound on the true norm.  ``mixed_norm`` handles the variant where some
blocks carry an l_alpha-of-l_2 constraint with a distinguished coordinate,
summed over all choices of that coordinate.

The alternating solver splits the blocks, in update order, into a prefix and
a suffix of about d/2 coordinates each.  A sweep is one GEMM per side with the
prefix x suffix matricization, then one small contraction per block.  It runs
on the tensor scaled by an exact power of two, so tiny entries do not
underflow.  Its vectors are block-major, one column per restart, and every
dual step works on that layout.  The three entry points run on one BLAS thread
(see ``blas``).

The solver's raw start draw for a (total dim, restarts, seed) key is made once
per process and kept in a memo of at most STARTS_MEMO_BYTES: the oldest draws
leave first, and a larger draw is not kept.  The kept arrays are read-only, and
the start points built from them are bit-identical to a fresh draw."""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .blas import single_threaded
from .partitions import MAX_SPLIT_ORDER, SetPartition, SplitPartition, merged
from .tensor import Tensor

BRUTEFORCE_DIM_CAP = 64
_BRUTE_CHUNK = 8192
ALS_TOL = 1e-10
ALS_MAX_SWEEPS = 500
# raw start draws of the alternating solver, by (total dim, restarts, seed)
STARTS_MEMO_BYTES = 1 << 20
_starts_memo: dict[tuple[int, int, int], np.ndarray] = {}
_starts_lock = threading.Lock()


@dataclass(frozen=True)
class NormOptions:
    """How many start points the alternating solver takes, and their seed."""

    restarts: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass(frozen=True)
class NormResult:
    value: float
    certificate: tuple
    method: str
    sweeps_used: int = 0
    restarts_used: int = 0


@dataclass(frozen=True)
class _BlockSpec:
    """One constraint block of the alternating solver: the Euclidean sphere at
    alpha = 2, else the l_alpha(l_2) ball with a distinguished coordinate."""

    coords: tuple[int, ...]          # 1-based tensor coordinates, ascending
    s_pos: int = 0                   # position of the distinguished coordinate
    alpha: float = 2.0


def _dual_step(spec: _BlockSpec, g: np.ndarray, m: int):
    """Maximize <g[:, r], y> over the block's unit ball for every column r of
    the block-major (dim, restarts) g; returns (values, maximizers).  A zero
    column has value 0 and a zero maximizer."""
    if spec.alpha == 2.0:
        r = np.sqrt(np.add.reduce(g * g, axis=0))
        return r, g / (r if r.all() else np.where(r > 0, r, 1.0))
    # mixed l_alpha(l_2) ball with distinguished coordinate spec.s_pos
    nb = len(spec.coords)
    R = g.shape[1]
    G = np.moveaxis(g.reshape((m,) * nb + (R,)), spec.s_pos, 0).reshape(m, -1, R)
    r = np.sqrt(np.add.reduce(G * G, axis=1))          # (m, R) slice norms
    rmax = r.max(axis=0)
    dirs = G / np.where(r > 0, r, 1.0)[:, None, :]
    if spec.alpha == 1.0:
        # degenerate dual: all mass on the best slice, ties to the lowest index
        vals = rmax
        pick = r.argmax(axis=0)
        y = np.zeros_like(G)
        y[pick, :, np.arange(R)] = dirs[pick, :, np.arange(R)]
    else:
        beta = spec.alpha / (spec.alpha - 1.0)
        rn = r / np.where(rmax > 0, rmax, 1.0)
        vals = rmax * np.add.reduce(rn**beta, axis=0) ** (1.0 / beta)
        w = rn ** (beta - 1.0)
        denom = np.add.reduce(w**spec.alpha, axis=0) ** (1.0 / spec.alpha)
        y = (w / np.where(denom > 0, denom, 1.0))[:, None, :] * dirs
    y = np.moveaxis(y.reshape((m,) * nb + (R,)), 0, spec.s_pos).reshape(-1, R)
    return np.where(rmax > 0, vals, 0.0), y


def _project_ball(spec: _BlockSpec, v: np.ndarray, m: int) -> np.ndarray:
    """Scale rows of v onto the block's unit sphere."""
    if spec.alpha == 2.0:
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
    form value at the returned vectors.  The batch stops after the first sweep
    in which no restart's value rose by more than `tol` relative to it, so a
    tensor with small entries is not stopped early.
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
                new_vals, new_vec = _dual_step(blocks[l], g, m)
                keep = new_vals > 0   # a zero column keeps its vector
                vecs[l] = new_vec if keep.all() else np.where(keep, new_vec, vecs[l])
                del g, new_vec  # batch-sized: free them before the next allocation
            del w
        new_vals = np.ldexp(new_vals, exponent)
        improved = new_vals - vals > tol * new_vals
        vals = new_vals
        if not improved.any():
            break
    return vals, vecs, sweeps


def _raw_starts(total: int, restarts: int, seed: int) -> np.ndarray:
    """The read-only (restarts, total) start draw: row 0 all ones, row r a
    standard normal draw from `default_rng(seed + r)`.  Drawn once per key
    while the memo holds it."""
    key = (total, restarts, seed)
    starts = _starts_memo.get(key)
    if starts is not None:
        return starts
    starts = np.ones((restarts, total))
    for r in range(1, restarts):
        starts[r] = np.random.default_rng(seed + r).standard_normal(total)
    starts.flags.writeable = False
    if starts.nbytes <= STARTS_MEMO_BYTES:
        with _starts_lock:
            _starts_memo[key] = starts
            held = sum(a.nbytes for a in _starts_memo.values())
            while held > STARTS_MEMO_BYTES:   # the oldest draws leave first
                held -= _starts_memo.pop(next(iter(_starts_memo))).nbytes
    return starts


def _init_vectors(blocks: list[_BlockSpec], m: int, restarts: int, seed: int):
    """Block-major start points: column #0 is the all-equal tuple, column #r
    is a standard normal draw from `default_rng(seed + r)`, blocks in order,
    each projected onto its block's unit sphere.

    The raw draw comes from the process-wide memo of `_raw_starts`, which is
    read-only; the projection makes fresh arrays, so the solver never writes
    into it, and the start points are bit-identical to a fresh draw."""
    dims = [m ** len(b.coords) for b in blocks]
    starts = _raw_starts(sum(dims), restarts, seed)
    edges = np.cumsum([0] + dims)
    return [np.ascontiguousarray(_project_ball(spec, starts[:, lo:hi], m).T)
            for spec, lo, hi in zip(blocks, edges, edges[1:])]


def _solve(a: Tensor, blocks: list[_BlockSpec], opts: NormOptions):
    """(best value, its vectors, sweeps) of `opts.restarts` alternating runs on
    `blocks` from the start points of `_init_vectors`."""
    vecs = _init_vectors(blocks, a.dim, opts.restarts, opts.seed)
    vals, vecs, sweeps = _alternating_max(a, blocks, vecs, ALS_MAX_SWEEPS, ALS_TOL)
    best = int(np.argmax(vals))
    return float(vals[best]), tuple(v[:, best].copy() for v in vecs), sweeps


@single_threaded()
def norm_J(a: Tensor, part: SetPartition, opts: NormOptions = NormOptions(),
           method: str = "auto") -> NormResult:
    """The injective norm of `a` indexed by the partition `part`.

    `method` is "auto" or "als".  Under "auto", one block: exact Frobenius
    norm; two blocks: exact top singular value of the matricization grouping
    the first block as rows.  Three or more blocks, or "als": best of
    `opts.restarts` alternating-maximization runs, a lower bound on the true
    norm.  The result's `method` names the solver that ran.
    """
    d, m = a.order, a.dim
    if part.d != d:
        raise ValueError(f"partition of [{part.d}] does not match tensor order {d}")
    if method not in ("auto", "als"):
        raise ValueError(f"unknown norm method {method!r}")
    if method == "auto":
        method = {1: "frobenius", 2: "matricization-spectral"}.get(part.n_blocks, "als")
    if not np.any(a.values):
        return NormResult(0.0, tuple(np.zeros(m ** len(b)) for b in part.blocks), method)

    if method == "frobenius":
        # scaling by a power of two is exact and keeps the sum of squares
        # from underflowing or overflowing
        exponent = int(np.frexp(np.abs(a.values).max())[1])
        unit = np.ldexp(a.values.ravel(), -exponent)
        value = np.linalg.norm(unit)
        return NormResult(float(np.ldexp(value, exponent)), (unit / value,), "frobenius")

    if method == "matricization-spectral":
        b1, b2 = part.blocks
        perm = [i - 1 for i in b1] + [i - 1 for i in b2]
        mat = a.values.transpose(perm).reshape(m ** len(b1), m ** len(b2))
        u, s, vt = np.linalg.svd(mat, full_matrices=False)
        return NormResult(float(s[0]), (u[:, 0].copy(), vt[0].copy()), "matricization-spectral")

    value, cert, sweeps = _solve(a, [_BlockSpec(b) for b in part.blocks], opts)
    return NormResult(value, cert, "als", sweeps, opts.restarts)


@single_threaded()
def norm_J_bruteforce(a: Tensor, part: SetPartition, npoints: int, seed: int = 0) -> float:
    """Random-restart lower bound: `npoints` sphere tuples, 50 polish sweeps each.

    Converges to the norm as npoints grows; intended as an oracle for the
    alternating solver on tiny instances.
    """
    d, m = a.order, a.dim
    if part.d != d:
        raise ValueError(f"partition of [{part.d}] does not match tensor order {d}")
    total = sum(m ** len(b) for b in part.blocks)
    if total > BRUTEFORCE_DIM_CAP:
        raise ValueError(f"total search dimension {total} exceeds cap {BRUTEFORCE_DIM_CAP}")
    if not np.any(a.values):
        return 0.0
    blocks = [_BlockSpec(b) for b in part.blocks]
    rng = np.random.default_rng(seed)
    best = 0.0
    done = 0
    while done < npoints:
        r = min(_BRUTE_CHUNK, npoints - done)
        vecs = [np.ascontiguousarray(_project_ball(
            spec, rng.standard_normal((r, m ** len(spec.coords))), m).T) for spec in blocks]
        # tiny tol: extra sweeps past a fixed point cannot change the value
        vals, _, _ = _alternating_max(a, blocks, vecs, 50, 1e-15)
        best = max(best, float(vals.max()))
        done += r
    return best


@single_threaded()
def mixed_norm(a: Tensor, split: SplitPartition, alpha: float,
               opts: NormOptions = NormOptions()) -> float:
    """Mixed-constraint norm: inner blocks on Euclidean spheres, outer blocks
    on l_alpha(l_2) balls, summed over every choice of distinguished coordinate.

    At alpha=2 the mixed ball is the Euclidean ball of the whole block, so each
    summand is computed by the exact merged-partition solver.
    """
    d = a.order
    if split.d != d:
        raise ValueError(f"split of [{split.d}] does not match tensor order {d}")
    if d > MAX_SPLIT_ORDER:
        raise ValueError(f"mixed norms are supported for order <= {MAX_SPLIT_ORDER} only")
    if not 1.0 <= alpha <= 2.0:
        raise ValueError(f"alpha={alpha} outside [1, 2]")
    if not np.any(a.values):
        return 0.0

    if alpha == 2.0:
        return math.prod(len(b) for b in split.outer) * norm_J(a, merged(split), opts).value

    total = 0.0
    for s_choice in itertools.product(*split.outer):
        blocks = [_BlockSpec(b) for b in split.inner]
        blocks += [_BlockSpec(b, b.index(s), alpha) for b, s in zip(split.outer, s_choice)]
        blocks.sort(key=lambda sp: sp.coords[0])
        total += _solve(a, blocks, opts)[0]
    return total
