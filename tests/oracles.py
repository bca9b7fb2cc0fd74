"""Reference implementations that the tests compare the package against:
brute-force counts, the inverse of the Hermite expansion, the lexicographic
edge order of K_n and its inverse, a dense indicator-tensor norm beside its
combinatorial cap, the closed-form triangle norms, partition refinement, the
block multilinear form, the Hadamard products of the multiplier inequality,
the Hoffman-Wielandt gap and the expected value E f(X); the writers of the two
file formats the CLI reads; and the test inputs that several test files
build: a clique's edges and a Hermite polynomial.  No code of the package
reads them."""

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from concentro.graphs import GraphSpec, _block_exponents, _isolated_edge_count
from concentro.norms import NormOptions, NormResult, norm_J
from concentro.partitions import SetPartition
from concentro.poly import Polynomial, ProductDistribution, _substitute, hermite
from concentro.rmt import eigenvalues_symmetric
from concentro.tensor import MAX_ENTRIES, Tensor, contract_rows


def edge_index(n: int, pair) -> int:
    """The lexicographic number, 1..n(n-1)/2, of the edge `pair` of K_n:
    (u - 1) n - u (u + 1) / 2 + v for u < v."""
    u, v = sorted(pair)
    if not 1 <= u < v <= n:
        raise ValueError(f"pair ({u},{v}) outside [1,{n}]")
    return (u - 1) * n - u * (u + 1) // 2 + v


def edge_pair(n: int, idx: int) -> tuple[int, int]:
    """The pair (u, v), u < v, whose `edge_index` in K_n is idx."""
    if not 1 <= idx <= n * (n - 1) // 2:
        raise ValueError(f"edge index {idx} outside [1,{n * (n - 1) // 2}]")
    u = 1
    while edge_index(n, (u, n)) < idx:
        u += 1
    return (u, idx - edge_index(n, (u, n)) + n)


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
    m = n * (n - 1) // 2
    if m**d > MAX_ENTRIES:
        raise ValueError(f"indicator tensor would have {m**d} entries, cap is {MAX_ENTRIES}")
    verts = sorted({v for e in e_seq for v in e})
    vals = np.zeros((m,) * d)
    for image in itertools.permutations(range(1, n + 1), len(verts)):
        vmap = dict(zip(verts, image))
        pos = tuple(edge_index(n, (vmap[u], vmap[v])) - 1 for u, v in e_seq)
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


def save_tensor(a: Tensor, path: str) -> None:
    """Write `a` in the tensor file format that `load_tensor` reads."""
    doc = {"order": a.order, "dim": a.dim, "values": a.values.ravel().tolist()}
    with open(path, "w") as fh:
        json.dump(doc, fh)


def polynomial_to_dict(f: Polynomial) -> dict:
    """The polynomial document that `poly.polynomial_from_dict` reads."""
    return {"nvars": f.nvars,
            "terms": [{"exps": [[v, p] for v, p in key], "coef": c}
                      for key, c in sorted(f.terms.items())]}


def save_polynomial(f: Polynomial, path: str) -> None:
    """Write `f` in the polynomial file format that `load_polynomial` reads."""
    with open(path, "w") as fh:
        json.dump(polynomial_to_dict(f), fh)


def expected_value(f: Polynomial, dist: ProductDistribution) -> float:
    """E f(X) under the product law, by termwise moment substitution."""
    return float(_substitute(f, 0, lambda v, r: dist.moment(r)))


def refines(fine: SetPartition, coarse: SetPartition) -> bool:
    """True when every block of `fine` is contained in some block of `coarse`."""
    if fine.d != coarse.d:
        raise ValueError("partitions of different orders")
    coarse_sets = [set(b) for b in coarse.blocks]
    return all(any(set(b) <= c for c in coarse_sets) for b in fine.blocks)


def contract(a: Tensor, part: SetPartition, vectors) -> float:
    """Value of the multilinear form: sum_i a_i * prod_l x^(l)[i restricted to block l].

    Block vectors are flat arrays of length m^(#block), row-major over the
    block's coordinates in ascending order.  The axes of `a` are transposed
    into block order and the form is one row of ``contract_rows``.
    """
    d, m = a.order, a.dim
    if part.d != d:
        raise ValueError(f"partition of [{part.d}] does not match tensor order {d}")
    vectors = [np.asarray(v, dtype=float) for v in vectors]
    if len(vectors) != part.n_blocks:
        raise ValueError(f"expected {part.n_blocks} block vectors, got {len(vectors)}")
    for block, v in zip(part.blocks, vectors):
        if v.size != m ** len(block):
            raise ValueError(f"block {block} vector has {v.size} entries, expected {m ** len(block)}")
    perm = [i - 1 for block in part.blocks for i in block]
    values = a.values.transpose(perm).reshape([v.size for v in vectors])
    return float(contract_rows(values, [v.reshape(1, -1) for v in vectors])[0])


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    if a.order != b.order or a.dim != b.dim:
        raise ValueError(f"shape mismatch: {a!r} vs {b!r}")
    return Tensor(a.values * b.values)


def hadamard_rank_one(a: Tensor, *vectors) -> Tensor:
    """Entrywise product of `a` with the rank-one tensor v_1 x ... x v_d."""
    if len(vectors) != a.order:
        raise ValueError(f"expected {a.order} vectors, got {len(vectors)}")
    out = np.array(a.values)
    d, m = a.order, a.dim
    for k, v in enumerate(vectors):
        v = np.asarray(v, dtype=float)
        if v.shape != (m,):
            raise ValueError(f"vector {k + 1} has length {v.size}, expected {m}")
        out *= v.reshape((1,) * k + (m,) + (1,) * (d - k - 1))
    return Tensor(out)


def hoffman_wielandt_gap(b, c) -> tuple[float, float]:
    """(sorted-eigenvalue squared distance, squared Frobenius distance); the
    first never exceeds the second for symmetric matrices."""
    eb = eigenvalues_symmetric(b)
    ec = eigenvalues_symmetric(c)
    lhs = float(((eb - ec) ** 2).sum())
    rhs = float(np.linalg.norm(np.asarray(b, dtype=float) - np.asarray(c, dtype=float)) ** 2)
    return lhs, rhs


@dataclass(frozen=True)
class TriangleNorms:
    """Exact derivative-tensor norms for the unordered triangle count, plus the
    two upper caps for the mixed third-order partitions."""

    d1: float
    d2_operator: float
    d2_hs: float
    d3_hs: float
    d3_two_block_cap: float
    d3_singleton_cap: float


def triangle_norms_exact(n: int, p: float) -> TriangleNorms:
    if n < 3:
        raise ValueError("triangle norms need n >= 3")
    if not 0 < p <= 1:
        raise ValueError("edge probability p must be in (0, 1]")
    return TriangleNorms(
        d1=(n - 2) * p**2 * math.sqrt(n * (n - 1) / 2.0),
        d2_operator=2.0 * p * (n - 2),
        d2_hs=p * math.sqrt(n * (n - 1) * (n - 2)),
        d3_hs=math.sqrt(n * (n - 1) * (n - 2)),
        d3_two_block_cap=math.sqrt(2.0 * n),
        d3_singleton_cap=2.0**1.5,
    )
