import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concentro import montecarlo
from concentro.graphs import (
    ERResult,
    GraphSpec,
    count_cycles_trace,
    counting_polynomial,
    cycle_tail_bound,
    er_tail_experiment,
    expected_cycle_count,
    sample_adjacency,
    subgraph_norm_bound,
    triangle_tail_bound,
)
from concentro.montecarlo import MCConfig, chunk_rng
from concentro.norms import NormOptions, norm_J
from concentro.partitions import SetPartition, enumerate_partitions
from concentro.poly import ProductDistribution, expected_derivative_tensor
from oracles import (
    clique_edges,
    count_cycles_embedding,
    edge_index,
    edge_pair,
    indicator_norm_bound,
    indicator_norm_check,
    triangle_norms_exact,
)

OPTS = NormOptions(restarts=16, seed=0)


def test_graph_spec_validation():
    with pytest.raises(ValueError):
        GraphSpec(((1, 1),))
    with pytest.raises(ValueError):
        GraphSpec(((1, 2), (2, 1), (2, 3), (1, 3)))
    with pytest.raises(ValueError):
        GraphSpec(((1, 2), (2, 4), (1, 4)))  # vertex 3 isolated
    assert GraphSpec.cycle(4).n_edges == 4
    assert GraphSpec(clique_edges(4)).n_edges == 6
    assert GraphSpec.cycle(5).aut_size == 10
    assert GraphSpec(clique_edges(4)).aut_size == 24
    assert GraphSpec(clique_edges(2)).aut_size == 2
    assert GraphSpec.cycle(3).aut_size == GraphSpec(clique_edges(3)).aut_size == 6
    assert GraphSpec(((1, 2), (2, 3), (1, 3))).aut_size == 6
    assert GraphSpec(((1, 2), (2, 3), (1, 3))).n_edges == 3


def test_edge_index_round_trip():
    for n in (2, 3, 5, 8):
        seen = set()
        for u, v in itertools.combinations(range(1, n + 1), 2):
            i = edge_index(n, (u, v))
            assert edge_pair(n, i) == (u, v)
            seen.add(i)
        assert seen == set(range(1, n * (n - 1) // 2 + 1))
    assert edge_index(5, (3, 1)) == edge_index(5, (1, 3))


def test_counting_polynomial_numbers_edges_in_the_reference_order():
    # the single-edge pattern has one term per edge, first met in the
    # lexicographic order of the edges, so term i is the variable of edge i
    for n in range(2, 10):
        f = counting_polynomial(GraphSpec(((1, 2),)), n)
        assert list(f.terms.items()) == [(((edge_index(n, e), 1),), 2.0)
                                         for e in itertools.combinations(range(1, n + 1), 2)]


def test_counting_polynomial_triangle_n3():
    f = counting_polynomial(GraphSpec(clique_edges(3)), 3)
    assert f.nvars == 3
    assert f.terms == {((1, 1), (2, 1), (3, 1)): 6.0}


def test_counting_polynomial_single_edge():
    f = counting_polynomial(GraphSpec(clique_edges(2)), 3)
    assert f.terms == {((1, 1),): 2.0, ((2, 1),): 2.0, ((3, 1),): 2.0}


@pytest.mark.parametrize("h,n", [(GraphSpec(clique_edges(3)), 5), (GraphSpec.cycle(4), 6),
                                 (GraphSpec(clique_edges(2)), 4)])
def test_counting_polynomial_at_ones_is_falling_factorial(h, n):
    f = counting_polynomial(h, n)
    expect = 1.0
    for j in range(h.k):
        expect *= n - j
    assert f.evaluate_batch(np.ones((1, f.nvars)))[0] == pytest.approx(expect, rel=1e-12)


def test_triangle_second_derivative_is_p_times_shared_vertex_indicator():
    n, p = 4, 0.3
    h = GraphSpec(clique_edges(3))
    y_poly = counting_polynomial(h, n) * (1.0 / h.aut_size)
    dist = ProductDistribution("bernoulli", p=p)
    d2 = expected_derivative_tensor(y_poly, dist, 2).values
    m = n * (n - 1) // 2
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            shared = len(set(edge_pair(n, i)) & set(edge_pair(n, j)))
            expect = p if shared == 1 else 0.0
            assert d2[i - 1, j - 1] == pytest.approx(expect, abs=1e-12)


def test_triangle_closed_forms_match_derivative_tensors():
    n, p = 5, 0.5
    h = GraphSpec(clique_edges(3))
    y_poly = counting_polynomial(h, n) * (1.0 / h.aut_size)
    dist = ProductDistribution("bernoulli", p=p)
    expect = triangle_norms_exact(n, p)
    d1 = expected_derivative_tensor(y_poly, dist, 1)
    assert norm_J(d1, SetPartition.parse("1")).value == pytest.approx(expect.d1, rel=1e-12)
    d2 = expected_derivative_tensor(y_poly, dist, 2)
    assert norm_J(d2, SetPartition.parse("1|2")).value == pytest.approx(
        expect.d2_operator, rel=1e-12)
    assert norm_J(d2, SetPartition.parse("1,2")).value == pytest.approx(
        expect.d2_hs, rel=1e-12)
    d3 = expected_derivative_tensor(y_poly, dist, 3)
    assert norm_J(d3, SetPartition.parse("1,2,3")).value == pytest.approx(
        expect.d3_hs, rel=1e-12)
    assert norm_J(d3, SetPartition.parse("1,2|3")).value <= expect.d3_two_block_cap
    als = norm_J(d3, SetPartition.parse("1|2|3"), OPTS).value
    assert als <= expect.d3_singleton_cap * (1 + 1e-6)


def test_cycle_norm_bound_cases():
    h = GraphSpec.cycle(3)
    # top order: the exact norm sqrt(2k * k! * (n)_k) of the constant tensor D^k X
    assert subgraph_norm_bound(h, SetPartition.parse("1,2,3"), 10, 0.5) == \
        pytest.approx(math.sqrt(6 * 6 * 720), rel=1e-12)
    # order 2, singleton blocks: six ordered edge pairs, each contributing 2n
    n, p = 20, 0.3
    got = subgraph_norm_bound(h, SetPartition.parse("1|2"), n, p)
    assert got == pytest.approx(12.0 * p * n, rel=1e-12)
    # order 1: three edges, isolated-edge weight sqrt(2), two singly covered vertices
    got = subgraph_norm_bound(h, SetPartition.parse("1"), n, p)
    assert got == pytest.approx(3.0 * math.sqrt(2.0) * p**2 * n**2, rel=1e-12)
    k4 = GraphSpec.cycle(4)
    assert subgraph_norm_bound(k4, SetPartition.parse("1,2,3,4"), 9, 0.2) == \
        pytest.approx(math.sqrt(8 * 24 * 3024), rel=1e-12)


@pytest.mark.parametrize("h,part,n,p,message", [
    (GraphSpec.cycle(3), SetPartition.parse("1,2"), 10, -1.0, r"p must be in \(0, 1\]"),
    (GraphSpec.cycle(3), SetPartition.parse("1,2"), 10, 1.5, r"p must be in \(0, 1\]"),
    (GraphSpec.cycle(3), SetPartition.parse("1,2"), 10, math.nan, r"p must be in \(0, 1\]"),
    (GraphSpec.cycle(3), SetPartition.parse("1,2"), -5, 0.5,
     "ambient vertex count -5 below pattern size 3"),
    (GraphSpec.cycle(300), SetPartition.parse("1"), 30, 0.5,
     "ambient vertex count 30 below pattern size 300"),
    # the edge sum: n^(k - 1) = 300^299 at d = 1
    (GraphSpec.cycle(300), SetPartition.parse("1"), 300, 0.5, "overflows a float at k = 300"),
    # the top order: 190! alone exceeds the float range
    (GraphSpec(clique_edges(20)), SetPartition([range(1, 191)]), 20, 0.5,
     "overflows a float at k = 20"),
    # perm(30, 6) ordered edge tuples to enumerate
    (GraphSpec.cycle(30), SetPartition.parse("1|2|3|4|5|6"), 30, 0.5,
     "at k = 30, d = 6 sums over 427518000 ordered edge tuples, cap is 100000")])
def test_subgraph_norm_bound_refuses_bad_input(h, part, n, p, message):
    with pytest.raises(ValueError, match=message):
        subgraph_norm_bound(h, part, n, p)


def test_cycle_norm_bound_dominates_actual_norms():
    # the bound caps the true derivative-tensor norm at every order and shape,
    # and is the norm itself at the top order with one block
    n, p = 6, 0.4
    for k in (3, 4):
        h = GraphSpec.cycle(k)
        f = counting_polynomial(h, n)
        dist = ProductDistribution("bernoulli", p=p)
        for d in range(1, k + 1):
            tens = expected_derivative_tensor(f, dist, d)
            for part in enumerate_partitions(d):
                true_norm = norm_J(tens, part, OPTS).value
                bound = subgraph_norm_bound(h, part, n, p)
                assert true_norm <= bound * (1 + 1e-9), (k, d, str(part))
        top = SetPartition([range(1, k + 1)])
        assert norm_J(tens, top).value == pytest.approx(subgraph_norm_bound(h, top, n, p),
                                                        rel=1e-12)


PAW = GraphSpec(((1, 2), (2, 3), (1, 3), (3, 4)))   # a triangle with a pendant edge


def test_a_pattern_is_its_edge_set():
    triangle = GraphSpec(((2, 3), (1, 3), (2, 1)))
    assert triangle == GraphSpec.cycle(3) == GraphSpec(clique_edges(3))
    assert hash(triangle) == hash(GraphSpec(clique_edges(3)))
    assert GraphSpec(((1, 2), (2, 3), (3, 4), (4, 1))) == GraphSpec.cycle(4)
    assert GraphSpec(((1, 3), (3, 2), (2, 4), (4, 1))) != GraphSpec.cycle(4)
    assert PAW != GraphSpec.cycle(4)


def _brute_aut_size(h):
    edges = set(h.edges)
    return sum({tuple(sorted((perm[u - 1], perm[v - 1]))) for u, v in h.edges} == edges
               for perm in itertools.permutations(range(1, h.k + 1)))


def test_aut_size_is_computed_from_the_edges():
    assert PAW.aut_size == 2
    relabelled_c4 = GraphSpec(((1, 3), (3, 2), (2, 4), (4, 1)))
    assert relabelled_c4.aut_size == 8
    assert GraphSpec(((1, 2), (3, 4), (1, 3))).aut_size == 2   # the path 2-1-3-4
    assert GraphSpec(((1, 2), (3, 4))).aut_size == 8           # two disjoint edges
    assert GraphSpec(((1, 2), (1, 3), (1, 4))).aut_size == 6   # the star
    rng = np.random.default_rng(5)
    for _ in range(60):
        k = int(rng.integers(2, 7))
        pairs = list(itertools.combinations(range(1, k + 1), 2))
        edges = tuple(e for e in pairs if rng.random() < 0.5)
        if {v for e in edges for v in e} == set(range(1, k + 1)):
            h = GraphSpec(edges)
            assert h.aut_size == _brute_aut_size(h), h


def test_aut_size_of_a_long_cycle_does_not_enumerate_permutations():
    # C_12 relabelled by i -> 5(i - 1) mod 12 + 1; its 12! permutations take minutes
    relabel = lambda i: 5 * (i - 1) % 12 + 1
    c12 = GraphSpec(tuple((relabel(u), relabel(v)) for u, v in GraphSpec.cycle(12).edges))
    start = time.perf_counter()
    assert c12.aut_size == GraphSpec.cycle(12).aut_size == 24
    assert time.perf_counter() - start < 0.5
    # the completion search runs on an explicit stack, 600 levels deep here
    assert GraphSpec.cycle(600).aut_size == 1200


def test_aut_size_of_a_clique_does_not_visit_every_automorphism():
    # a stabiliser chain multiplies orbit sizes; visiting all 10! maps takes a minute
    start = time.perf_counter()
    assert GraphSpec(clique_edges(10)).aut_size == math.factorial(10)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("h,n,expect", [(GraphSpec(clique_edges(4)), 4, 643.98757752),
                                        (PAW, 5, 75.8946638)])
def test_subgraph_norm_bound_is_the_norm_at_the_top_order(h, n, expect):
    # D^e X_H is aut(H) on each edge e-tuple forming a copy: norm sqrt(aut * e! * (n)_k)
    e = h.n_edges
    tens = expected_derivative_tensor(counting_polynomial(h, n),
                                      ProductDistribution("bernoulli", p=0.3), e)
    top = SetPartition([range(1, e + 1)])
    assert subgraph_norm_bound(h, top, n, 0.3) == pytest.approx(norm_J(tens, top).value,
                                                                rel=1e-12)
    assert subgraph_norm_bound(h, top, n, 0.3) == pytest.approx(expect, rel=1e-9)


def _k4_cases():
    """(n, d, partitions): every partition at n = 4, d <= 4 and at n = 5, d <= 3;
    the partitions with at most two blocks at n = 4, d = 5, 6 and n = 5, d = 4."""
    for n, d in [(4, 1), (4, 2), (4, 3), (4, 4), (5, 1), (5, 2), (5, 3)]:
        yield n, d, enumerate_partitions(d)
    for n, d in [(4, 5), (4, 6), (5, 4)]:
        yield n, d, [part for part in enumerate_partitions(d) if part.n_blocks <= 2]


@pytest.mark.parametrize("p", [0.2, 0.7])
def test_subgraph_norm_bound_caps_k4_norms(p):
    h = GraphSpec(clique_edges(4))
    worst = 0.0
    for n, d, parts in _k4_cases():
        f = counting_polynomial(h, n)
        tens = expected_derivative_tensor(f, ProductDistribution("bernoulli", p=p), d)
        for part in parts:
            ratio = norm_J(tens, part, OPTS).value / subgraph_norm_bound(h, part, n, p)
            assert ratio <= 1 + 1e-9, (n, d, str(part))
            worst = max(worst, ratio)
    assert worst > 0.0


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.integers(2, 40))
def test_edge_index_is_a_bijection(n):
    m = n * (n - 1) // 2
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    assert sorted(edge_index(n, e) for e in pairs) == list(range(1, m + 1))
    assert all(edge_pair(n, edge_index(n, e)) == e for e in pairs)
    # the reference is the order in which `symmetric_stack` lays out a row
    stack = montecarlo.symmetric_stack(np.arange(1, m + 1)[None], n)[0]
    assert [stack[u - 1, v - 1] for u, v in pairs] == [edge_index(n, e) for e in pairs]


def test_indicator_norm_check_single_edge():
    h = GraphSpec(clique_edges(3))
    n = 6
    res, cap = indicator_norm_check(h, [(1, 2)], SetPartition.parse("1"), n)
    assert res.value == pytest.approx(math.sqrt(n * (n - 1) / 2.0), rel=1e-12)
    assert cap == pytest.approx(n / math.sqrt(2.0), rel=1e-12)
    assert res.value <= cap * (1 + 1e-8)


def test_indicator_norm_check_adjacent_edges():
    h = GraphSpec(clique_edges(3))
    n = 6
    res, cap = indicator_norm_check(h, [(1, 2), (2, 3)], SetPartition.parse("1|2"), n, OPTS)
    assert res.value <= cap * (1 + 1e-8)
    # single block: exact Frobenius value against the cap and the lower construction
    res2, cap2 = indicator_norm_check(h, [(1, 2), (2, 3)], SetPartition.parse("1,2"), n)
    assert res2.value == pytest.approx(math.sqrt(n * (n - 1) * (n - 2)), rel=1e-12)
    assert cap2 == pytest.approx(n**1.5, rel=1e-12)
    # near-tightness: value at least 2^-3 n^(3/2) once n >= 2k
    assert res2.value >= 2.0**-3 * n**1.5


def test_indicator_norm_check_validation():
    h = GraphSpec(clique_edges(3))
    with pytest.raises(ValueError):
        indicator_norm_check(h, [(1, 2), (1, 2)], SetPartition.parse("1|2"), 5)
    with pytest.raises(ValueError):
        indicator_norm_check(h, [(1, 4)], SetPartition.parse("1"), 5)


def test_trace_counts_match_embedding_oracle():
    rng = chunk_rng(31, 0)
    for trial in range(5):
        adj = sample_adjacency(7, 0.6, rng, 1)[0]
        for k in (3, 4, 5):
            got = count_cycles_trace(adj, k)[0]
            assert got == count_cycles_embedding(adj, k)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.integers(1, 7), st.integers(1, 4), st.floats(0.0, 1.0), st.integers(0, 2**32))
def test_trace_counts_equal_embedding_counts(n, rows, p, seed):
    # a stack mixing `rows` graphs at edge density p, the empty and full graphs included
    iu = np.triu_indices(n, 1)
    stack = np.zeros((rows, n, n))
    stack[:, iu[0], iu[1]] = np.random.default_rng(seed).random((rows, iu[0].size)) < p
    stack += np.transpose(stack, (0, 2, 1))
    for k in (3, 4, 5):
        assert count_cycles_trace(stack, k).tolist() == \
            [count_cycles_embedding(a, k) for a in stack]


def test_sample_adjacency_matches_the_scatter_build():
    # the scatter-then-add-the-transpose construction this replaced, same draws
    for n, rows in [(2, 3), (9, 5), (60, 4)]:
        got = sample_adjacency(n, 0.3, chunk_rng(35, n), rows)
        iu = np.triu_indices(n, 1)
        a = np.zeros((rows, n, n))
        a[:, iu[0], iu[1]] = (chunk_rng(35, n).random((rows, iu[0].size)) < 0.3).astype(float)
        a += np.transpose(a, (0, 2, 1))
        assert got.dtype == np.float32 and np.array_equal(got, a)


def test_trace_counts_known_graphs_k5():
    full5 = np.ones((5, 5)) - np.eye(5)
    assert count_cycles_trace(full5, 5)[0] == pytest.approx(12.0)
    ring = np.zeros((5, 5))
    for i in range(5):
        ring[i, (i + 1) % 5] = ring[(i + 1) % 5, i] = 1.0
    assert count_cycles_trace(ring, 5)[0] == pytest.approx(1.0)
    full6 = np.ones((6, 6)) - np.eye(6)
    assert count_cycles_trace(full6, 5)[0] == pytest.approx(72.0)
    with pytest.raises(ValueError):
        count_cycles_trace(full6, 6)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_trace_counts_of_the_largest_experiment_graph_are_exact(k):
    # K_200, the experiment's cap, holds the largest value of every intermediate
    full = np.ones((200, 200), dtype=np.float32) - np.eye(200, dtype=np.float32)
    assert count_cycles_trace(full, k)[0] == math.perm(200, k) / (2 * k)


def test_trace_counts_do_not_depend_on_the_input_precision():
    stack = sample_adjacency(40, 0.5, chunk_rng(37, 0), 6)
    for k in (3, 4, 5):
        assert np.array_equal(count_cycles_trace(stack.astype(np.float64), k),
                              count_cycles_trace(stack.astype(np.float32), k))


@pytest.mark.parametrize("k,n", [(3, 4098), (4, 4098), (5, 4098), (5, 1553)])
def test_trace_counts_refuse_graphs_past_the_exact_range(k, n):
    # a (1, n, n) view of one zero row: refused from its shape, before any product
    a = np.broadcast_to(np.zeros(1, dtype=np.float32), (1, n, n))
    with pytest.raises(ValueError, match=f"got n = {n}"):
        count_cycles_trace(a, k)


def test_polynomial_count_equals_trace_count():
    n, p = 8, 0.5
    h = GraphSpec(clique_edges(3))
    y_poly = counting_polynomial(h, n) * (1.0 / h.aut_size)
    rng = chunk_rng(32, 0)
    adjs = sample_adjacency(n, p, rng, 20)
    iu = np.triu_indices(n, 1)
    for a in adjs:
        edge_vec = a[iu]
        via_poly = y_poly.evaluate_batch(edge_vec[None])[0]
        via_trace = count_cycles_trace(a, 3)[0]
        assert via_poly == via_trace  # exact integer equality


def test_expected_cycle_count_triangle():
    assert expected_cycle_count(3, 30, 0.5) == pytest.approx(math.comb(30, 3) / 8.0)


def test_tail_bounds_shapes():
    assert triangle_tail_bound(30, 0.5, 0.0) == 2.0
    ts = [10.0, 50.0, 250.0]
    vals = [triangle_tail_bound(30, 0.5, t) for t in ts]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    vals_k4 = [cycle_tail_bound(4, 30, 0.5, t) for t in ts]
    assert all(b < a for a, b in zip(vals_k4, vals_k4[1:]))
    with pytest.raises(ValueError):
        cycle_tail_bound(2, 30, 0.5, 1.0)


def test_er_tail_experiment_triangles():
    cfg = MCConfig(N=4000, seed=33, batch=512)
    res = er_tail_experiment(GraphSpec.cycle(3), 30, 0.5, cfg, eps=0.5)
    assert res.expected_mean == pytest.approx(507.5)
    assert res.mean == pytest.approx(res.expected_mean, abs=3 * res.mean_stderr)
    row = res.rows[0]
    assert row["t"] == pytest.approx(0.5 * 507.5)
    assert 0.0 <= row["tail"] <= 1.0
    assert row["tail"] <= row["bound"]  # documented c=1 window
    with pytest.raises(ValueError):
        er_tail_experiment(GraphSpec(clique_edges(4)), 20, 0.5, cfg, eps=0.5)
    with pytest.raises(ValueError):
        er_tail_experiment(GraphSpec.cycle(6), 20, 0.5, cfg, eps=0.5)


def test_er_tail_experiment_judges_its_pattern_by_its_edges(monkeypatch):
    import concentro.graphs as graphs

    cfg = MCConfig(N=200, seed=3, batch=64)
    c4_from_edges = GraphSpec(((1, 2), (2, 3), (3, 4), (4, 1)))
    assert er_tail_experiment(c4_from_edges, 12, 0.3, cfg, eps=0.5) == \
        er_tail_experiment(GraphSpec.cycle(4), 12, 0.3, cfg, eps=0.5)
    # any labelling of C_4 counts the same 4-cycles
    relabelled_c4 = GraphSpec(((1, 3), (3, 2), (2, 4), (4, 1)))
    assert er_tail_experiment(relabelled_c4, 12, 0.3, cfg, eps=0.5) == \
        er_tail_experiment(GraphSpec.cycle(4), 12, 0.3, cfg, eps=0.5)

    def no_sampling(*args):
        raise AssertionError("sampled")

    monkeypatch.setattr(graphs, "_run_chunks", no_sampling)
    with pytest.raises(ValueError, match="cycle patterns"):
        er_tail_experiment(PAW, 20, 0.5, cfg, eps=0.5)
    # 2-regular, but two components
    two_triangles = GraphSpec(((1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)))
    with pytest.raises(ValueError, match="cycle patterns"):
        er_tail_experiment(two_triangles, 20, 0.5, cfg, eps=0.5)
    with pytest.raises(ValueError, match="ambient vertex count 2 below pattern size 3"):
        er_tail_experiment(GraphSpec.cycle(3), 2, 0.5, cfg, eps=0.5)


# printed by the whole-chunk sampler and counter this replaced; each chunk of
# 1024 (then 452) graphs at n = 60 spans 29 (then 13) blocks, the last partial
ER_PINNED = {
    3: ("34.3728", "0.18872309891478573",
        "({'t': 17.110000000000003, 'tail': 0.066, 'wilson_low': 0.056917919985929495,"
        " 'wilson_high': 0.07641383710285758, 'bound': 1.9338767122548606},)"),
    4: ("146.5268", "0.9356465319253847",
        "({'t': 73.14525000000002, 'tail': 0.1016, 'wilson_low': 0.09036140566519384,"
        " 'wilson_high': 0.11406111051953603, 'bound': 1.9345952471436054},)"),
    5: ("657.9336", "5.1811580323723",
        "({'t': 327.6907200000001, 'tail': 0.18, 'wilson_low': 0.16543437285527968,"
        " 'wilson_high': 0.19554756785534666, 'bound': 1.934460660330824},)"),
}


@pytest.mark.parametrize("k", [3, 4, 5])
def test_er_tail_experiment_pinned(k):
    for workers in (1, 2):
        cfg = MCConfig(N=2500, seed=77, batch=1024, workers=workers)
        res = er_tail_experiment(GraphSpec.cycle(k), 60, 0.1, cfg, eps=0.5)
        assert (repr(res.mean), repr(res.mean_stderr), repr(res.rows)) == ER_PINNED[k]


def test_er_counts_do_not_depend_on_the_block_size(monkeypatch):
    # one graph per block gives the output pinned with 36-graph blocks
    monkeypatch.setattr(montecarlo, "_STACK_BLOCK_BYTES", 1)
    cfg = MCConfig(N=2500, seed=77, batch=1024)
    res = er_tail_experiment(GraphSpec.cycle(4), 60, 0.1, cfg, eps=0.5)
    assert (repr(res.mean), repr(res.mean_stderr), repr(res.rows)) == ER_PINNED[4]


@pytest.mark.parametrize("k,n,N", [(4, 60, 1024), (5, 200, 64)])
def test_er_chunk_memory(k, n, N):
    # one chunk of N graphs, counted block by block; the whole-chunk build
    # peaked at 113 MB (C_4, n = 60) and about 80 MB (C_5, n = 200)
    cfg = MCConfig(N=N, seed=36, batch=1024)
    tracemalloc.start()
    try:
        er_tail_experiment(GraphSpec.cycle(k), n, 0.1, cfg, eps=0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def test_er_tail_experiment_four_cycles():
    cfg = MCConfig(N=2000, seed=34, batch=512)
    res = er_tail_experiment(GraphSpec.cycle(4), 20, 0.4, cfg, t_list=[0.0, 1e9])
    assert res.mean == pytest.approx(res.expected_mean, abs=3 * res.mean_stderr)
    assert res.rows[0]["tail"] == 1.0
    assert res.rows[1]["tail"] == 0.0


@pytest.mark.parametrize("e_seq,label,expect", [
    # two edges at vertex 2: one isolated edge per block, ends 1 and 3 singly covered
    ([(1, 2), (2, 3)], "1|2", 2.0 * 9),
    ([(1, 2), (2, 3)], "1,2", 9.0**1.5),
    # disjoint edges: 2^(1 - 2) from isolated edges, all four vertices singly covered
    ([(1, 2), (3, 4)], "1|2", 0.5 * 81),
    ([(1, 2), (3, 4)], "1,2", 0.5 * 81),
])
def test_indicator_norm_bound_cases(e_seq, label, expect):
    assert indicator_norm_bound(e_seq, SetPartition.parse(label), 9) == expect
