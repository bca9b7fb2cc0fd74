"""Reference implementations that the tests compare the package against:
brute-force counts, the inverse of the Hermite expansion, the edge-index
inverse and a dense indicator-tensor norm beside its combinatorial cap; and
the test inputs that several test files build: a clique's edges and a Hermite
polynomial.  No code of the package reads them."""

import itertools

import numpy as np

from concentro.graphs import EdgeIndex, GraphSpec, _block_exponents, _isolated_edge_count
from concentro.norms import NormOptions, NormResult, norm_J
from concentro.partitions import SetPartition
from concentro.poly import Polynomial, hermite
from concentro.tensor import MAX_ENTRIES, Tensor


def edge_pair(eidx: EdgeIndex, idx: int) -> tuple[int, int]:
    """The pair (u, v), u < v, whose lexicographic index in `eidx` is idx."""
    if not 1 <= idx <= eidx.count:
        raise ValueError(f"edge index {idx} outside [1,{eidx.count}]")
    u = 1
    while (u - 1) * eidx.n - u * (u + 1) // 2 + eidx.n < idx:
        u += 1
    v = idx - ((u - 1) * eidx.n - u * (u + 1) // 2)
    return (u, v)


def count_cycles_embedding(adj: np.ndarray, k: int) -> int:
    """Direct embedding enumeration oracle: n!/(n-k)! vertex sequences, so
    small n only."""
    n = adj.shape[0]
    cyc = GraphSpec.cycle(k)
    hits = 0
    for image in itertools.permutations(range(n), k):
        if all(adj[image[u - 1], image[v - 1]] for u, v in cyc.edges):
            hits += 1
    return hits // (2 * k)


def indicator_norm_bound(e_seq, part: SetPartition, n: int) -> float:
    """Combinatorial cap on the pattern-indicator tensor norm: powers of 2 from
    isolated edges and sqrt(n) per singly covered vertex."""
    half_isolated, singly = _block_exponents(e_seq, part)
    return 2.0 ** (half_isolated - _isolated_edge_count(list(e_seq))) * float(n) ** (0.5 * singly)


def indicator_norm_check(h: GraphSpec, e_seq, part: SetPartition, n: int,
                         opts: NormOptions = NormOptions()) -> tuple[NormResult, float]:
    """Norm of the indicator tensor of edge tuples matching e_seq, next to its
    combinatorial cap; callers assert lhs <= cap * (1 + tol)."""
    e_seq = [tuple(sorted(e)) for e in e_seq]
    if len(set(e_seq)) != len(e_seq):
        raise ValueError("edge sequence must consist of distinct edges")
    for e in e_seq:
        if e not in h.edges:
            raise ValueError(f"edge {e} not in the pattern graph")
    d = len(e_seq)
    if part.d != d:
        raise ValueError("partition order must equal the edge sequence length")
    eidx = EdgeIndex(n)
    if eidx.count**d > MAX_ENTRIES:
        raise ValueError(f"indicator tensor would have {eidx.count**d} entries,"
                         f" cap is {MAX_ENTRIES}")
    verts = sorted({v for e in e_seq for v in e})
    vals = np.zeros((eidx.count,) * d)
    for image in itertools.permutations(range(1, n + 1), len(verts)):
        vmap = dict(zip(verts, image))
        pos = tuple(eidx.index((vmap[u], vmap[v])) - 1 for u, v in e_seq)
        vals[pos] = 1.0
    lhs = norm_J(Tensor(vals), part, opts)
    return lhs, indicator_norm_bound(e_seq, part, n)


def clique_edges(k: int) -> tuple:
    """The edges of the complete graph on vertices 1..k, for `GraphSpec`."""
    return tuple(itertools.combinations(range(1, k + 1), 2))


def hermite_polynomial(k: int, nvars: int = 1, var: int = 1) -> Polynomial:
    """h_k(x_var) as a polynomial in `nvars` variables."""
    return Polynomial(nvars, {((var, p),) if p else (): c for p, c in enumerate(hermite(k)) if c})


def hermite_combination(coeffs: dict, nvars: int) -> Polynomial:
    """Inverse of hermite_expansion: rebuild the polynomial from a_d coefficients,
    multiplying out the Hermite polynomials of the recurrence."""
    total = Polynomial(nvars)
    for degrees, a in coeffs.items():
        term = Polynomial(nvars, {(): a})
        for i, deg in enumerate(degrees):
            term = term * hermite_polynomial(deg, nvars, i + 1)
        total = total + term
    return total
