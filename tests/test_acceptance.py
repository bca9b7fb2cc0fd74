"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Tolerances are pinned here and match the package contract.
"""

import itertools
import math
import time

import numpy as np
import pytest

from concentro.bounds import gaussian_moment_bound, weibull_moment_bound
from concentro.graphs import (
    GraphSpec,
    count_cycles_trace,
    counting_polynomial,
    er_tail_experiment,
    sample_adjacency,
)
from concentro.montecarlo import (
    MCConfig,
    chaos_moment,
    chunk_rng,
    hermite_tetrahedral_convergence,
    sandwich_check,
)
from concentro.norms import NormOptions, mixed_norm, norm_J, norm_J_bruteforce
from concentro.partitions import SetPartition, enumerate_partitions
from concentro.poly import Polynomial, ProductDistribution, expected_derivative_tensor
from concentro.rmt import WignerSpec, eigenvalues_symmetric, wigner_experiment
from concentro.tensor import IndexMask, Tensor, apply_mask, symmetrize
from oracles import (
    clique_edges,
    expected_value,
    hadamard_rank_one,
    hermite_polynomial,
    hoffman_wielandt_gap,
    triangle_norms_exact,
)


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} [{status}] {name}{detail}")
    assert ok, f"criterion {num} failed: {name}{detail}"


def test_criterion_01_norm_oracle_equivalence():
    start = time.perf_counter()
    part = SetPartition.parse("1|2|3")
    worst = 0.0
    for i in range(100):
        rng = np.random.default_rng(1000 + i)
        a = Tensor(rng.standard_normal((3, 3, 3)))
        als = norm_J(a, part, NormOptions(restarts=64, seed=0)).value
        brute = norm_J_bruteforce(a, part, 100_000, seed=i)
        worst = max(worst, abs(als - brute))
    elapsed = time.perf_counter() - start
    _verdict(1, "norm oracle equivalence", worst <= 1e-6 and elapsed < 120.0,
             f" (max gap {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_02_matricization_exactness():
    two_block = [p for p in enumerate_partitions(4) if p.n_blocks == 2]
    assert len(two_block) == 7
    worst = 0.0
    for i in range(100):
        rng = np.random.default_rng(2000 + i)
        a = Tensor(rng.standard_normal((3, 3, 3, 3)))
        for part in two_block:
            exact = norm_J(a, part).value
            als = norm_J(a, part, NormOptions(restarts=16, seed=1), method="als").value
            worst = max(worst, abs(als - exact))
    _verdict(2, "matricization exactness", worst <= 1e-8, f" (max gap {worst:.2e})")


def test_criterion_03_norm_property_suite():
    opts = NormOptions(restarts=16, seed=0)
    failures = 0

    rng = np.random.default_rng(30)
    for _ in range(1000):  # rank-one Hadamard multiplier
        d = int(rng.integers(2, 4))
        m = int(rng.integers(2, 5))
        a = Tensor(rng.standard_normal((m,) * d))
        vs = [rng.standard_normal(m) for _ in range(d)]
        parts = enumerate_partitions(d)
        part = parts[int(rng.integers(len(parts)))]
        lhs = norm_J(hadamard_rank_one(a, *vs), part, opts).value
        rhs = norm_J(a, part, opts).value * float(np.prod([np.abs(v).max() for v in vs]))
        failures += lhs > rhs + 1e-8

    rng = np.random.default_rng(31)
    for _ in range(1000):  # generalized-diagonal selection
        d = int(rng.integers(2, 4))
        m = int(rng.integers(2, 5))
        a = Tensor(rng.standard_normal((m,) * d))
        size = int(rng.integers(2, d + 1))
        subset = tuple(sorted(rng.choice(d, size=size, replace=False) + 1))
        parts = enumerate_partitions(d)
        part = parts[int(rng.integers(len(parts)))]
        lhs = norm_J(apply_mask(a, IndexMask.generalized_diagonal(subset)), part, opts).value
        failures += lhs > norm_J(a, part, opts).value + 1e-8

    rng = np.random.default_rng(32)
    for _ in range(1000):  # exact level-set selection
        d = int(rng.integers(2, 4))
        m = int(rng.integers(2, 5))
        a = Tensor(rng.standard_normal((m,) * d))
        parts = enumerate_partitions(d)
        k = parts[int(rng.integers(len(parts)))]
        part = parts[int(rng.integers(len(parts)))]
        lhs = norm_J(apply_mask(a, IndexMask("level-set", partition=k)), part, opts).value
        factor = 2.0 ** (k.n_blocks * (k.n_blocks - 1) / 2)
        failures += lhs > factor * norm_J(a, part, opts).value + 1e-8

    _verdict(3, "masking/multiplier property suite (3x1000 instances)",
             failures == 0, f" ({failures} failures)")


def test_criterion_04_triangle_closed_forms():
    ok = True
    detail = []
    triangle = GraphSpec(clique_edges(3))
    for n in range(4, 9):
        y_poly = counting_polynomial(triangle, n) * (1.0 / triangle.aut_size)
        d3 = None
        for p in (0.1, 0.5, 0.9):
            dist = ProductDistribution("bernoulli", p=p)
            expect = triangle_norms_exact(n, p)
            d1 = norm_J(expected_derivative_tensor(y_poly, dist, 1),
                        SetPartition.parse("1")).value
            t2 = expected_derivative_tensor(y_poly, dist, 2)
            d2_op = norm_J(t2, SetPartition.parse("1|2")).value
            d2_hs = norm_J(t2, SetPartition.parse("1,2")).value
            if d3 is None:
                t3 = expected_derivative_tensor(y_poly, dist, 3)
                d3 = norm_J(t3, SetPartition.parse("1,2,3")).value
                d3_als = norm_J(t3, SetPartition.parse("1|2|3"),
                                NormOptions(restarts=24, seed=0)).value
            checks = [
                abs(d1 - expect.d1) <= 1e-6 * expect.d1,
                abs(d2_op - expect.d2_operator) <= 1e-6 * expect.d2_operator,
                abs(d2_hs - expect.d2_hs) <= 1e-6 * expect.d2_hs,
                abs(d3 - expect.d3_hs) <= 1e-6 * expect.d3_hs,
                d3_als <= expect.d3_singleton_cap * (1 + 1e-6),
            ]
            if not all(checks):
                ok = False
                detail.append(f"n={n} p={p}: {checks}")
    _verdict(4, "triangle closed forms (n=4..8, p in {0.1,0.5,0.9})", ok,
             f" {detail}" if detail else "")


def test_criterion_05_gaussian_sandwich():
    polys = [
        ("x1*x2", Polynomial(2, {((1, 1), (2, 1)): 1.0})),
        ("x1*x2*x3", Polynomial(3, {((1, 1), (2, 1), (3, 1)): 1.0})),
        ("x1^2+x1*x2", Polynomial(2, {((1, 2),): 1.0, ((1, 1), (2, 1)): 1.0})),
        ("sum_offdiag", Polynomial(10, {((i, 1), (j, 1)): 2.0
                                        for i in range(1, 11) for j in range(i + 1, 11)})),
    ]
    opts = NormOptions(restarts=32, seed=0)
    # Latala's two-sided estimate is stated for the chaos coefficients E D^d f / d!
    bound_fn = lambda f, d, p: gaussian_moment_bound(f, d, p, opts).meta["chaos_total"]
    ok = True
    detail = []
    for idx, (name, f) in enumerate(polys):
        dist = ProductDistribution("gaussian")
        cfg = MCConfig(N=1_000_000, seed=500 + idx)
        rows = sandwich_check(f, dist, (2.0, 4.0, 6.0), cfg, bound_fn, window=(0.1, 10.0))
        for r in rows:
            if r["status"] != "pass":
                ok = False
            detail.append(f"{name} p={r['p']:g} ratio={r['ratio']:.3f}")
    _verdict(5, "two-sided gaussian sandwich in [1/10, 10]", ok,
             " (" + "; ".join(detail) + ")")


def test_criterion_06_decoupling_comparability():
    ok = True
    worst = (1.0, 1.0)
    inst = 0
    for d in (2, 3):
        for i in range(10):
            rng = np.random.default_rng(600 + 10 * d + i)
            a = symmetrize(Tensor(rng.standard_normal((5,) * d)))
            a = apply_mask(a, IndexMask.off_diagonal())
            cfg = MCConfig(N=100_000, seed=700 + inst)
            dec = chaos_moment(a, "decoupled", 4.0, cfg)
            und = chaos_moment(a, "undecoupled", 4.0, cfg)
            ratio = dec.value / und.value
            if not (1 / 8 <= ratio <= 8):
                ok = False
            worst = min(worst[0], ratio), max(worst[1], ratio)
            inst += 1
    _verdict(6, "decoupled/undecoupled moment comparability",
             ok and inst == 20, f" (ratios in [{worst[0]:.3f}, {worst[1]:.3f}])")


def test_criterion_07_hermite_tetrahedral_convergence():
    cfg = MCConfig(N=30_000, seed=77)
    rows2 = hermite_tetrahedral_convergence(2, [10, 100, 1000], cfg)
    ok = all(abs(r["mean_sq_error"] - 2.0 / r["N"]) <= 3 * r["stderr"] for r in rows2)
    rows3 = hermite_tetrahedral_convergence(3, [10, 50, 250], cfg)
    for a, b in zip(rows3, rows3[1:]):
        gap = a["mean_sq_error"] - b["mean_sq_error"]
        ok = ok and gap > 3 * math.hypot(a["stderr"], b["stderr"])
    detail = "; ".join(f"d=2 N={r['N']}: {r['mean_sq_error']:.4g}" for r in rows2)
    _verdict(7, "tetrahedral approximation convergence", ok, f" ({detail})")


def test_criterion_08_hermite_moment_identities():
    dist = ProductDistribution("gaussian")
    ok = True
    for k in range(6):
        f = hermite_polynomial(k)
        got0 = expected_value(f, dist)
        if got0 != (1.0 if k == 0 else 0.0):
            ok = False
        for l in range(1, 6):
            got = expected_derivative_tensor(f, dist, l).values.ravel()[0]
            expect = float(math.factorial(k)) if k == l else 0.0
            if got != expect:
                ok = False
    _verdict(8, "E h_k^(l)(g) = k! delta_kl, exact for k,l <= 5", ok)


def _random_poly_deg3(rng) -> Polynomial:
    n = int(rng.integers(2, 4))
    terms = {}
    for _ in range(int(rng.integers(2, 5))):
        deg = int(rng.integers(1, 4))
        vs = rng.choice(n, size=deg, replace=True) + 1
        powers: dict = {}
        for v in vs:
            powers[int(v)] = powers.get(int(v), 0) + 1
        key = tuple(sorted(powers.items()))
        terms[key] = terms.get(key, 0.0) + float(rng.standard_normal())
    return Polynomial(n, terms)


def test_criterion_09_weibull_consistency():
    opts = NormOptions(restarts=16, seed=0)
    worst = 0.0
    for i in range(50):
        rng = np.random.default_rng(900 + i)
        f = _random_poly_deg3(rng)
        dist = ProductDistribution("weibull", alpha=2.0)
        p = 4.0
        total = weibull_moment_bound(f, dist, p, opts=opts).total
        recombined = 0.0
        for d in range(1, f.degree + 1):
            tens = expected_derivative_tensor(f, dist, d)
            for part in enumerate_partitions(d):
                mult = 1.0
                for b in part.blocks:
                    mult *= 1 + len(b)
                recombined += p ** (part.n_blocks / 2.0) * mult * norm_J(tens, part, opts).value
        worst = max(worst, abs(total - recombined) / max(1.0, recombined))
    ok = worst <= 1e-8

    for i in range(10):  # alpha=1, degree 1: exact closed form
        rng = np.random.default_rng(950 + i)
        a = rng.standard_normal(4)
        f = Polynomial(4, {((j + 1, 1),): float(a[j]) for j in range(4)})
        dist = ProductDistribution("weibull", alpha=1.0)
        p = float(rng.integers(2, 7))
        total = weibull_moment_bound(f, dist, p, opts=opts).total
        expect = math.sqrt(p) * float(np.linalg.norm(a)) + p * float(np.abs(a).max())
        if not math.isclose(total, expect, rel_tol=1e-12):
            ok = False
    _verdict(9, "split-bound consistency (alpha=2 recombination, alpha=1 closed form)",
             ok, f" (max rel gap {worst:.2e})")


def test_criterion_10_rmt_pipeline():
    rng = chunk_rng(101, 0)
    hw_ok = True
    for _ in range(200):
        b = rng.standard_normal((10, 10))
        b = (b + b.T) / 2
        c = b + rng.standard_normal((10, 10)) * 0.3
        c = (c + c.T) / 2
        lhs, rhs = hoffman_wielandt_gap(b, c)
        hw_ok = hw_ok and lhs <= rhs * (1 + 1e-12) + 1e-12

    trace_ok = True
    for _ in range(20):
        m = rng.standard_normal((30, 30))
        m = (m + m.T) / 2
        eigs = eigenvalues_symmetric(m)
        scale = max(1.0, float(np.abs(m).sum()))
        trace_ok = trace_ok and abs(eigs.sum() - np.trace(m)) <= 1e-9 * scale
        trace_ok = trace_ok and abs((eigs**2).sum() - np.linalg.norm(m) ** 2) <= 1e-9 * scale

    f = Polynomial(1, {((1, 2),): 1.0})
    reps = {20: 400, 50: 300, 100: 200, 200: 100}
    results = []
    for n, r in reps.items():
        res = wigner_experiment(f, WignerSpec(n), MCConfig(N=r, seed=1010 + n, batch=64))
        results.append(res)
    mono_ok = all(r.sobolev_limit == 4.0 for r in results)
    for a, b in zip(results, results[1:]):
        dev_a = abs(a.sobolev_mean - 4.0)
        dev_b = abs(b.sobolev_mean - 4.0)
        mono_ok = mono_ok and dev_b <= dev_a + 3 * (a.sobolev_stderr + b.sobolev_stderr)
    detail = "; ".join(f"n={n}: {r.sobolev_mean:.4f}+-{r.sobolev_stderr:.4f}"
                       for n, r in zip(reps, results))
    _verdict(10, "random-matrix pipeline", hw_ok and trace_ok and mono_ok, f" ({detail})")


def test_criterion_11_er_experiment_sanity():
    n, p = 30, 0.5
    triangle = GraphSpec(clique_edges(3))
    y_poly = counting_polynomial(triangle, n) * (1.0 / triangle.aut_size)
    iu = np.triu_indices(n, 1)
    adjs = sample_adjacency(n, p, chunk_rng(111, 0), 100)
    via_poly = y_poly.evaluate_batch(adjs[:, iu[0], iu[1]])
    via_trace = count_cycles_trace(adjs, 3)
    exact_ok = bool(np.array_equal(via_poly, via_trace))

    cfg = MCConfig(N=3000, seed=112, batch=512)
    res = er_tail_experiment(GraphSpec.cycle(3), n, p, cfg, t_list=[100.0])
    mean_ok = abs(res.mean - math.comb(30, 3) / 8.0) <= 3 * res.mean_stderr
    _verdict(11, "Erdos-Renyi triangle sanity", exact_ok and mean_ok,
             f" (mean {res.mean:.2f} vs {math.comb(30, 3) / 8.0}, "
             f"stderr {res.mean_stderr:.2f})")
