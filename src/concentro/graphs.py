"""Subgraph counting over Erdos-Renyi graphs: counting polynomials in edge
variables, one combinatorial norm bound for every pattern, and the cycle tail
experiment against the bounds.  A pattern graph is its edge set: its
automorphism count, and whether it is a cycle, are computed from its edges.
The counting polynomial is one (monomial, 1) pair per injective map of the
pattern, summed by the `Polynomial` constructor, and an adjacency stack is
the edge bits handed to `symmetric_stack` as drawn.  Both read one edge order:
the variable of edge (i, j) is one plus its column in `symmetric_stack`'s
rows, so the sampled edge bits are the counting polynomial's point.

The experiment samples and counts each Monte Carlo chunk in blocks of
`montecarlo._stack_block(n)` graphs, so that a block's adjacency stack and its
matrix powers stay near the size of a core's L2 cache whatever the chunk size:
the rule sizes a block for 1 MB of float64 matrices, and the float32 stacks
take half of that (36 graphs of about 512 KB at n = 60).  The counts do not
depend on the block size: the blocks draw in sequence from the chunk's
generator, the same bits as one whole-chunk draw, and every count is an exact
integer, the float32 matrix powers included (`count_cycles_trace`).
"""

from __future__ import annotations

import collections
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import two_sided_tail
from .montecarlo import (
    MCConfig,
    _mean_stderr,
    _run_chunks,
    _stack_block,
    _symmetric_index,
    _tail_points,
    symmetric_stack,
    tail_rows,
)
from .partitions import SetPartition
from .poly import Polynomial, bernoulli_bits

MAX_TRACE_CYCLE = 5   # the longest cycle `count_cycles_trace` counts
# the most ordered edge tuples `subgraph_norm_bound` enumerates: at 1.5-3 us a
# tuple, the slowest accepted call (C_12 at 1|2|3|4|5, 95040 tuples) took
# 0.14-0.29 s on one core of a 2-core x86-64 machine
MAX_BOUND_TUPLES = 100_000


@dataclass(frozen=True)
class GraphSpec:
    """Small pattern graph whose edges cover its vertices 1..k, so the edges fix
    k; equality compares the sorted edges."""

    edges: tuple
    k: int = field(init=False)

    def __post_init__(self):
        edges = sorted(tuple(sorted(int(x) for x in e)) for e in self.edges)
        for i, (u, v) in enumerate(edges):
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if i and edges[i - 1] == (u, v):
                raise ValueError(f"duplicate edge ({u},{v})")
        vertices = sorted({v for e in edges for v in e})
        if not vertices or vertices != list(range(1, len(vertices) + 1)):
            raise ValueError(f"pattern graph edges must cover the vertices 1..k, got {vertices}")
        object.__setattr__(self, "edges", tuple(edges))
        object.__setattr__(self, "k", len(vertices))

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @classmethod
    def cycle(cls, k: int) -> "GraphSpec":
        if k < 3:
            raise ValueError("cycles need k >= 3")
        return cls(tuple((i, i % k + 1) for i in range(1, k + 1)))

    @property
    def aut_size(self) -> int:
        """The number of vertex permutations that map the edge set onto itself,
        as the product of orbit sizes along a stabiliser chain: in a vertex
        order (next the vertex with the most placed neighbours), level i counts
        the images of order[i] under the automorphisms fixing order[:i].  An
        image counts when a depth-first search, on an explicit stack, completes
        one such map.  A vertex with a placed neighbour takes its images from
        the neighbours of that neighbour's image, and an image fits when its
        degree and its used neighbours match the vertex's placed neighbours."""
        adj = {v: {u for e in self.edges if v in e for u in e if u != v}
               for v in range(1, self.k + 1)}
        order = []
        for _ in range(self.k):
            placed = set(order)
            order.append(max((v for v in adj if v not in placed),
                             key=lambda v: len(adj[v] & placed)))
        pos = {v: i for i, v in enumerate(order)}
        back = [[pos[u] for u in adj[v] if pos[u] < i] for i, v in enumerate(order)]

        def candidates(image, used):
            """The images of order[len(image)] that fit the partial map `image`,
            whose image set is `used`; read lazily, at that map."""
            i = len(image)
            v = order[i]
            for w in adj[image[back[i][0]]] if back[i] else adj:
                if (w not in used and len(adj[w]) == len(adj[v])
                        and all(image[j] in adj[w] for j in back[i])
                        and len(adj[w] & used) == len(back[i])):
                    yield w

        def extends(image):
            used = set(image)
            stack = [candidates(image, used)]
            while len(image) < self.k:
                w = next(stack[-1], None)
                if w is None:
                    stack.pop()
                    if not stack:
                        return False
                    used.discard(image.pop())
                else:
                    image.append(w)
                    used.add(w)
                    stack.append(candidates(image, used))
            return True

        return math.prod(sum(extends(order[:i] + [w])
                             for w in candidates(order[:i], set(order[:i])))
                         for i in range(self.k))


def _check_vertex_count(h: GraphSpec, n: int) -> None:
    if n < h.k:
        raise ValueError(f"ambient vertex count {n} below pattern size {h.k}")


def counting_polynomial(h: GraphSpec, n: int) -> Polynomial:
    """Ordered-copy polynomial X_H over edge variables of the n-vertex clique,
    edge (i, j) being the variable one plus its column in `symmetric_stack`'s
    rows (the upper triangle row by row).

    The unordered count is X_H / aut_size; evaluation at the all-ones point
    gives the falling factorial n(n-1)..(n-k+1).
    """
    _check_vertex_count(h, n)
    var = (_symmetric_index(n) + 1).reshape(n, n).tolist()
    # one pair per injective map of the pattern's vertices; the constructor sums them
    return Polynomial(n * (n - 1) // 2, (
        ([(var[image[u - 1]][image[v - 1]], 1) for u, v in h.edges], 1.0)
        for image in itertools.permutations(range(n), h.k)))


# ---------------------------------------------------------------------------
# combinatorial bounds

def _block_exponents(seq, blocks) -> tuple[int, int, int]:
    """(the isolated-edge counts of the blocks' edge groups, summed; the
    vertices the tuple covers; those covered by exactly one block) for an edge
    tuple `seq` of vertex bit masks, each block a tuple of 0-based positions in
    it.  An edge of a block is isolated when neither endpoint lies on another
    edge of the block, the edges being distinct."""
    isolated = covered = shared = 0
    for block in blocks:
        once = more = 0   # the block's vertices, and those on two or more of its edges
        for j in block:
            more |= once & seq[j]
            once |= seq[j]
        for j in block:
            isolated += not seq[j] & more
        shared |= covered & once
        covered |= once
    return isolated, covered.bit_count(), (covered & ~shared).bit_count()


def subgraph_norm_bound(h: GraphSpec, part: SetPartition, n: int, p: float) -> float:
    """Edge-enumeration upper bound on |E D^d f|_J, d = part.d, for the
    ordered-copy polynomial X_H of any pattern without isolated vertices; at
    d = e = #edges with one block the norm itself: D^e X_H is aut(H) on each of
    the e! (n)_k / aut(H) edge e-tuples forming a copy, so sqrt(aut(H) e! (n)_k).
    Any other order sums over the perm(e, d) ordered d-tuples of distinct
    edges, refused past MAX_BOUND_TUPLES before the first; a bound whose
    arithmetic leaves the float range is refused."""
    d = part.d
    if d > h.n_edges:
        raise ValueError(f"derivative order {d} outside [1, {h.n_edges}]")
    _check_vertex_count(h, n)
    if not 0 < p <= 1:
        raise ValueError("edge probability p must be in (0, 1]")
    exact = d == h.n_edges and part.n_blocks == 1
    if not exact and (tuples := math.perm(h.n_edges, d)) > MAX_BOUND_TUPLES:
        raise ValueError(f"the norm bound at k = {h.k}, d = {d} sums over {tuples} ordered"
                         f" edge tuples, cap is {MAX_BOUND_TUPLES}")
    try:
        if exact:
            value = math.sqrt(h.aut_size * math.factorial(d) * math.perm(n, h.k))
        else:
            masks = [1 << u | 1 << v for u, v in h.edges]
            blocks = [tuple(j - 1 for j in block) for block in part.blocks]
            total = 0.0   # summed in tuple order
            for seq in itertools.permutations(masks, d):
                isolated, covered, singly = _block_exponents(seq, blocks)
                total += 2.0 ** (0.5 * isolated) * float(n) ** (h.k - covered + 0.5 * singly)
            value = p ** (h.n_edges - d) * total
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"the norm bound overflows a float at k = {h.k}, n = {n}")
    return value


# ---------------------------------------------------------------------------
# tail bounds from the cycle propositions

def _subgauss_coeff(p: float) -> float:
    return 1.0 / math.sqrt(math.log(2.0 / p))


def triangle_tail_bound(n: int, p: float, t: float, c: float = 1.0) -> float:
    """Three-regime triangle deviation bound with one explicit constant c."""
    if not t > 0:
        return two_sided_tail([0.0], c)
    L = _subgauss_coeff(p)
    args = [
        t**2 / (L**6 * n**3 + L**4 * p**2 * n**3 + L**2 * p**4 * n**4),
        t / (L**3 * math.sqrt(n) + L**2 * p * n),
        t ** (2.0 / 3.0) / L**2,
    ]
    return two_sided_tail(args, c)


def cycle_tail_bound(k: int, n: int, p: float, t: float, c: float = 1.0) -> float:
    """Deviation bound for counts of k-cycles with one explicit constant c."""
    if k < 3:
        raise ValueError("cycles need k >= 3")
    if not t > 0:
        return two_sided_tail([0.0], c)
    L = _subgauss_coeff(p)
    args = [t**2 / (L ** (2 * k) * float(n) ** k)]
    for d in range(1, k + 1):
        for l in range(1, d + 1):
            if d == k and l == 1:
                continue
            args.append(t ** (2.0 / l) / (L ** (2.0 * d / l) * p ** (2.0 * (k - d) / l)
                                          * float(n) ** ((2.0 * k - d - l) / l)))
    return two_sided_tail(args, c)


# ---------------------------------------------------------------------------
# Erdos-Renyi experiment

def sample_adjacency(n: int, p: float, rng: np.random.Generator, rows: int) -> np.ndarray:
    """rows symmetric 0/1 adjacency matrices, as float32, with i.i.d.
    upper-triangle edges drawn graph after graph, each upper triangle row by
    row: the edge bits of `rng.random((rows, n(n-1)/2)) < p`, read from the
    raw generator words (`bernoulli_bits`) and gathered by `symmetric_stack`
    with its zero diagonal, no staging array between them."""
    bits = bernoulli_bits(rng, p, (rows, n * (n - 1) // 2))
    return symmetric_stack(bits, n).astype(np.float32)


def count_cycles_trace(a: np.ndarray, k: int) -> np.ndarray:
    """Cycle counts per stacked 0/1 adjacency matrix via closed-walk
    corrections, exact.

    The powers are float32 products: k = 3 and 4 take A^2 (tr A^3 is the
    entrywise sum of A^2 * A, and the degrees are diag(A^2)), k = 5 also A^3.
    An entry of A^2 is at most n-1 and one of A^3 at most (n-1)^2, and the
    terms are nonnegative, so every partial sum is an integer of at most
    (n-1)^2 <= 2**24 and exact in float32 while n <= 4097.  At k = 3 the row
    sums of A^2 * A are taken in float32 too: row i sums A^2[i, j] <= n-1 over
    the at most n-1 neighbours j of i, so each partial sum is such an integer.
    The traces and corrections are summed in float64, where a closed-walk
    total is at most n (n-1)^(k-1): exact while that is at most 2**53
    (n <= 1552 at k = 5).  Past either bound the input is refused before any
    product."""
    if not 3 <= k <= MAX_TRACE_CYCLE:
        raise ValueError(f"trace-based counting covers cycle lengths 3..{MAX_TRACE_CYCLE} only")
    n = a.shape[-1]
    if (n - 1) ** 2 > 2**24 or n * (n - 1) ** (k - 1) > 2**53:
        raise ValueError(f"the {k}-cycle trace count is exact up to (n-1)^2 = 2^24 and"
                         f" n (n-1)^(k-1) = 2^53, got n = {n}")
    a = np.asarray(a, dtype=np.float32)
    if a.ndim == 2:
        a = a[None]
    a2 = np.matmul(a, a)
    if k == 3:
        return np.einsum("bij,bij->bi", a2, a).sum(axis=1, dtype=np.float64) / 6.0
    deg = np.diagonal(a2, axis1=1, axis2=2)
    if k == 4:
        tr4 = np.einsum("bij,bij->b", a2, a2, dtype=np.float64)
        deg_squares = np.einsum("bi,bi->b", deg, deg, dtype=np.float64)
        return (tr4 - 2.0 * deg_squares + deg.sum(axis=1, dtype=np.float64)) / 8.0
    a3 = np.matmul(a2, a)
    diag3 = np.diagonal(a3, axis1=1, axis2=2)
    tr5 = np.einsum("bij,bij->b", a2, a3, dtype=np.float64)
    return (tr5 - 5.0 * diag3.sum(axis=1, dtype=np.float64)
            - 5.0 * np.einsum("bi,bi->b", deg - 2.0, diag3, dtype=np.float64)) / 10.0


def expected_cycle_count(k: int, n: int, p: float) -> float:
    return math.perm(n, k) * p**k / (2 * k)


@dataclass(frozen=True)
class ERResult:
    expected_mean: float
    mean: float
    mean_stderr: float
    rows: tuple


def er_tail_experiment(h: GraphSpec, n: int, p: float, cfg: MCConfig,
                       t_list=None, eps: float | None = None, c: float = 1.0) -> ERResult:
    """Empirical deviation tails of the unordered cycle count against the
    proposition-style bound (constant c explicit).

    Each chunk of cfg.batch graphs is sampled and counted in blocks of
    `_stack_block(n)` graphs (36 at n = 60, 3 at n = 200), so
    memory does not grow with the batch; the result is the same for every
    block size (see the module docstring)."""
    # the trace counts patterns on at most 5 vertices, and there a 2-regular
    # pattern is one cycle: a union of two cycles needs 6 vertices
    degrees = collections.Counter(v for e in h.edges for v in e)
    if h.k > MAX_TRACE_CYCLE or set(degrees.values()) != {2}:
        raise ValueError("the tail experiment supports the cycle patterns"
                         f" C_3..C_{MAX_TRACE_CYCLE}, in any labelling")
    _check_vertex_count(h, n)
    if n > 200:
        raise ValueError("experiment vertex count capped at 200")
    if not 0 < p < 1:
        raise ValueError("edge probability must be in (0, 1)")
    two_sided_tail((), c)   # a bad c fails here, before any sampling
    if t_list is None:
        if eps is None:
            raise ValueError("provide t_list or eps")
        t_list = [eps * expected_cycle_count(h.k, n, p)]
    t_list = _tail_points(t_list)

    block = _stack_block(n)

    def job(rows, rng):
        return np.concatenate([
            count_cycles_trace(sample_adjacency(n, p, rng, min(block, rows - start)), h.k)
            for start in range(0, rows, block)])

    counts = _run_chunks(job, cfg)
    if h.k == 3:
        bound = lambda t: triangle_tail_bound(n, p, t, c)
    else:
        bound = lambda t: cycle_tail_bound(h.k, n, p, t, c)
    return ERResult(expected_cycle_count(h.k, n, p), *_mean_stderr(counts, "the counts"),
                    tail_rows(counts, t_list, bound))
