import itertools
import math
import re
import warnings

import numpy as np
import pytest

from concentro import bounds, graphs, rmt
from concentro.bounds import (
    BoundReport,
    BoundTerm,
    additive_functional_tail,
    eta_tail,
    gaussian_moment_bound,
    sobolev_moment_bound,
    two_sided_tail,
    weibull_moment_bound,
)
from concentro.montecarlo import MCConfig
from concentro.norms import NormOptions
from concentro.poly import Polynomial, ProductDistribution

X1X2 = Polynomial(2, {((1, 1), (2, 1)): 1.0})
X1X2X3 = Polynomial(3, {((1, 1), (2, 1), (3, 1)): 1.0})
GAUSS = ProductDistribution("gaussian")
OPTS = NormOptions(restarts=16, seed=0)


def test_gaussian_bound_hand_example():
    rep = gaussian_moment_bound(X1X2, GAUSS, 2.0, OPTS)
    # E D^2 f has ones at (1,2) and (2,1): HS norm sqrt(2), operator norm 1
    nonzero = {t.label: t for t in rep.terms if t.value != 0}
    assert nonzero["1,2"].value == pytest.approx(2.0, rel=1e-12)
    assert nonzero["1|2"].value == pytest.approx(2.0, rel=1e-12)
    assert rep.total == pytest.approx(4.0, rel=1e-12)


def test_gaussian_bound_chaos_total_hand_example():
    # chaos_total divides each order-d term by d!; total keeps the raw terms
    rep = gaussian_moment_bound(X1X2, GAUSS, 2.0, OPTS)
    assert rep.meta["chaos_total"] == pytest.approx(2.0, rel=1e-12)
    assert rep.total == pytest.approx(4.0, rel=1e-12)
    x1x2x3 = Polynomial(3, {((1, 1), (2, 1), (3, 1)): 1.0})
    rep = gaussian_moment_bound(x1x2x3, ProductDistribution("gaussian"), 2.0, OPTS)
    # E D^3 f = sum over permutations of e1 x e2 x e3: HS sqrt(6), three
    # one-vs-two matricizations of norm sqrt(2), injective norm 2/sqrt(3)
    expect = (math.sqrt(12) + 6 * math.sqrt(2) + 2**1.5 * 2 / math.sqrt(3)) / 6
    assert rep.meta["chaos_total"] == pytest.approx(expect, rel=1e-9)
    assert rep.meta["chaos_total"] == pytest.approx(2.5359, abs=1e-4)


def test_a_report_total_that_overflows_is_refused():
    # two finite terms whose sum leaves the float range; their minimum does not
    big = BoundTerm(1, "1", 0.5, 1.0, False, 1e308)
    with pytest.raises(ValueError, match="report total, a sum of finite terms, overflows"):
        BoundReport("sum", (big, big)).total
    assert BoundReport("min", (big, big)).total == 1e308


def test_gaussian_bound_linear_and_constant():
    a = (3.0, 4.0)
    f = Polynomial(2, {((1, 1),): a[0], ((2, 1),): a[1]})
    for p in (2.0, 4.0, 9.0):
        rep = gaussian_moment_bound(f, GAUSS, p, OPTS)
        assert rep.total == pytest.approx(math.sqrt(p) * 5.0, rel=1e-12)
    rep = gaussian_moment_bound(Polynomial(2, {(): 7.0}), GAUSS, 2.0)
    assert rep.terms == () and rep.total == 0.0


def test_gaussian_bound_validations_and_monotonicity():
    with pytest.raises(ValueError):
        gaussian_moment_bound(X1X2, GAUSS, 1.5)
    totals = [gaussian_moment_bound(X1X2, GAUSS, p, OPTS).total for p in (2, 3, 4, 6)]
    assert all(b >= a for a, b in zip(totals, totals[1:]))


def test_gaussian_bound_relabeling_invariance():
    f = Polynomial(3, {((1, 2), (2, 1)): 1.0, ((3, 1),): 2.0})
    g = Polynomial(3, {((2, 2), (3, 1)): 1.0, ((1, 1),): 2.0})  # relabeled 1->2,2->3,3->1
    dist = ProductDistribution("gaussian")
    for p in (2.0, 4.0):
        assert gaussian_moment_bound(f, dist, p, OPTS).total == pytest.approx(
            gaussian_moment_bound(g, dist, p, OPTS).total, rel=1e-8)


def test_eta_tail_hand_example():
    rep = eta_tail(X1X2, GAUSS, t=8.0, L=1.0, opts=OPTS)
    assert rep.kind == "min"
    vals = {t.label: t.value for t in rep.terms}
    assert vals["1,2"] == pytest.approx((8 / math.sqrt(2)) ** 2, rel=1e-12)
    assert vals["1|2"] == pytest.approx(8.0, rel=1e-12)
    assert rep.total == pytest.approx(8.0, rel=1e-12)
    assert rep.meta["tail_estimate"] == pytest.approx(2 * math.exp(-8.0), rel=1e-12)


def test_eta_tail_linear_single_partition():
    f = Polynomial(2, {((1, 1),): 3.0, ((2, 1),): 4.0})
    for t, L in [(2.0, 1.0), (5.0, 0.5)]:
        rep = eta_tail(f, GAUSS, t, L, opts=OPTS)
        assert len(rep.terms) == 1
        assert rep.total == pytest.approx((t / (L * 5.0)) ** 2, rel=1e-12)


def test_eta_tail_scaling_invariance():
    # eta_{cf}(ct) = eta_f(t): every term is homogeneous of degree zero
    for c in (0.5, 3.0):
        base = eta_tail(X1X2, GAUSS, 2.0, 1.0, opts=OPTS).total
        scaled = eta_tail(c * X1X2, GAUSS, c * 2.0, 1.0, opts=OPTS).total
        assert scaled == pytest.approx(base, rel=1e-10)


def test_eta_tail_monotone_in_t_and_L():
    totals_t = [eta_tail(X1X2, GAUSS, t, 1.0, opts=OPTS).total for t in (1, 2, 4, 8)]
    assert all(b >= a for a, b in zip(totals_t, totals_t[1:]))
    totals_L = [eta_tail(X1X2, GAUSS, 4.0, L, opts=OPTS).total for L in (0.5, 1.0, 2.0)]
    assert all(b <= a for a, b in zip(totals_L, totals_L[1:]))


def test_eta_tail_degenerate():
    with pytest.raises(ValueError):
        eta_tail(Polynomial(2, {(): 1.0}), GAUSS, 1.0, 1.0)
    with pytest.raises(ValueError):
        eta_tail(X1X2, GAUSS, 0.0, 1.0)
    # t = inf made every term inf and a tail estimate of 0
    with pytest.raises(ValueError, match="t=inf must be positive and finite"):
        eta_tail(X1X2, GAUSS, math.inf, 1.0)


def test_sobolev_bound_reduces_to_gaussian_at_half():
    for p in (2.0, 4.0):
        a = sobolev_moment_bound(X1X2, GAUSS, p, L=1.0, gamma=0.5, opts=OPTS).total
        b = gaussian_moment_bound(X1X2, GAUSS, p, OPTS).total
        assert a == pytest.approx(b, rel=1e-12)


def test_sobolev_bound_hand_example():
    rep = sobolev_moment_bound(X1X2, GAUSS, p=4.0, L=1.0, gamma=1.0, opts=OPTS)
    assert rep.total == pytest.approx(4.0**1.5 * math.sqrt(2) + 16.0, rel=1e-12)
    with pytest.raises(ValueError):
        sobolev_moment_bound(X1X2, GAUSS, 4.0, 1.0, gamma=0.4)


def test_additive_tail_shapes():
    # D = 1: single sub-Gaussian group 2 exp(-t^2 / (c n L^2 a^2))
    n, L, a = 50, 1.3, 0.7
    for t in (0.5, 2.0, 8.0):
        got = additive_functional_tail([], a, n, L, t)
        assert got == pytest.approx(2 * math.exp(-min(t**2 / (L**2 * n * a**2),
                                                      t**2 / (L**2 * a**2))), rel=1e-12)
    # t -> 0+ gives the trivial bound 2 per nonempty group
    assert additive_functional_tail([], a, n, L, 1e-12) == pytest.approx(2.0, rel=1e-6)
    # doubling t in the sub-Gaussian regime quarters the exponent argument
    t = 1e-3
    b1 = additive_functional_tail([], a, n, L, t)
    b2 = additive_functional_tail([], a, n, L, 2 * t)
    assert math.log(b1 / 2) * 4 == pytest.approx(math.log(b2 / 2), rel=1e-6)


def test_additive_tail_three_groups():
    # D = 3 with nonzero first and second moment rows
    n, L, t = 20, 1.0, 3.0
    m1 = np.full(n, 0.5)
    m2 = np.full(n, 0.25)
    got = additive_functional_tail([m1, m2], 2.0, n, L, t)
    g1 = 2 * math.exp(-min(t**2 / (L**6 * n * 4.0), t ** (2 / 3) / (L**2 * 2.0 ** (2 / 3))))
    g2 = 2 * math.exp(-min(t**2 / (L**2 * n * 0.25), t**2 / (L**4 * n * 0.0625)))
    g3 = 2 * math.exp(-(t / (L**2 * 0.25)))
    assert got == pytest.approx(g1 + g2 + g3, rel=1e-12)
    with pytest.raises(ValueError):
        additive_functional_tail([m1], 1.0, n, L, 0.0)


def test_weibull_bound_linear_alpha_one():
    f = Polynomial(2, {((1, 1),): 3.0, ((2, 1),): 4.0})
    rep = weibull_moment_bound(f, ProductDistribution("weibull", alpha=1.0), p=4.0)
    assert rep.total == pytest.approx(math.sqrt(4.0) * 5.0 + 4.0 * 4.0, rel=1e-10)
    labels = {t.label for t in rep.terms}
    assert labels == {"1||", "||1"}


def test_weibull_bound_alpha2_matches_merged_recombination():
    from concentro.norms import norm_J
    from concentro.partitions import enumerate_partitions
    from concentro.poly import expected_derivative_tensor

    rng = np.random.default_rng(9)
    dist = ProductDistribution("weibull", alpha=2.0)
    f = Polynomial(3, {((1, 1), (2, 1)): rng.standard_normal(),
                       ((1, 1), (2, 1), (3, 1)): rng.standard_normal(),
                       ((3, 2),): rng.standard_normal()})
    p = 4.0
    rep = weibull_moment_bound(f, dist, p, opts=OPTS)
    expect = 0.0
    for d in range(1, f.degree + 1):
        tens = expected_derivative_tensor(f, dist, d)
        for part in enumerate_partitions(d):
            mult = 1.0
            for b in part.blocks:
                mult *= 1 + len(b)
            expect += p ** (part.n_blocks / 2.0) * mult * norm_J(tens, part, OPTS).value
    assert rep.total == pytest.approx(expect, abs=1e-8)


def test_weibull_bound_constant_and_caps():
    rep = weibull_moment_bound(Polynomial(2, {(): 5.0}),
                               ProductDistribution("weibull", alpha=1.5), 2.0)
    assert rep.total == 0.0
    quartic = Polynomial(1, {((1, 4),): 1.0})
    with pytest.raises(ValueError):
        weibull_moment_bound(quartic, ProductDistribution("weibull", alpha=1.0), 2.0)


def test_weibull_bound_takes_alpha_from_its_law():
    with pytest.raises(ValueError, match="'gaussian'"):
        weibull_moment_bound(X1X2, GAUSS, 2.0, OPTS)


def test_report_consistency_guard():
    term = BoundTerm(1, "1", 0.5, 1.0, False, 2.0)
    with pytest.raises(ValueError):
        BoundReport("max", (term,))
    rep = BoundReport("sum", (term,))
    rows = list(rep.csv_rows())
    assert rows[0] == ("d", "partition", "exponent", "norm", "flag", "term")
    assert rows[1][1] == "1" and rows[1][4] == "exact"


# ---------------------------------------------------------------------------
# one norm solve per block-size shape

def _counting(monkeypatch, name):
    """Count the calls a report makes to bounds.<name>."""
    calls = []
    inner = getattr(bounds, name)

    def counted(*args, **kwargs):
        calls.append(args[1])
        return inner(*args, **kwargs)

    monkeypatch.setattr(bounds, name, counted)
    return calls


def test_gaussian_report_solves_once_per_shape(monkeypatch):
    calls = _counting(monkeypatch, "norm_J")
    f = Polynomial(2, {((1, 5),): 1.0, ((1, 2), (2, 3)): -0.5, ((2, 1),): 2.0})
    rep = gaussian_moment_bound(f, GAUSS, 2.0, OPTS)
    # sum of p(d) for d <= 5 solves, against sum of Bell(d) = 75 rows
    assert len(calls) == 1 + 2 + 3 + 5 + 7
    assert len(rep.terms) == 1 + 2 + 5 + 15 + 52
    assert len({(part.d, part.shape) for part in calls}) == len(calls)


def test_weibull_report_solves_once_per_split_shape(monkeypatch):
    calls = _counting(monkeypatch, "mixed_norm")
    f = Polynomial(2, {((1, 3),): 1.0, ((1, 1), (2, 1)): 0.5, ((2, 1),): -1.0})
    rep = weibull_moment_bound(f, ProductDistribution("weibull", alpha=1.5), 4.0, OPTS)
    assert len(calls) == 2 + 5 + 10
    assert len(rep.terms) == 2 + 6 + 22


def test_weibull_alpha2_report_solves_once_per_merged_shape(monkeypatch):
    from concentro.norms import mixed_norm
    from concentro.partitions import SplitPartition
    from concentro.poly import expected_derivative_tensor

    f = Polynomial(3, {((1, 1), (2, 1), (3, 1)): 1.0, ((1, 2),): 0.5, ((2, 1),): 1.0})
    dist = ProductDistribution("weibull", alpha=2.0)
    norm_calls = _counting(monkeypatch, "norm_J")
    mixed_calls = _counting(monkeypatch, "mixed_norm")
    rep = weibull_moment_bound(f, dist, 4.0, OPTS)
    # p(1) + p(2) + p(3) merged shapes, against 17 mixed_norm solves per split shape
    assert len(norm_calls) == 1 + 2 + 3 and not mixed_calls
    assert len({(part.d, part.shape) for part in norm_calls}) == len(norm_calls)
    assert len(rep.terms) == 2 + 6 + 22
    for t in rep.terms:
        own = mixed_norm(expected_derivative_tensor(f, dist, t.d),
                         SplitPartition.parse(t.label), 2.0, OPTS)
        assert t.norm == pytest.approx(own, rel=1e-9 if t.flagged else 1e-12)


@pytest.mark.parametrize("case", ["degree-4", "k6-4-cycle"])
def test_every_row_equals_its_own_partition_norm(case):
    from concentro.graphs import GraphSpec, counting_polynomial
    from concentro.norms import norm_J
    from concentro.partitions import SetPartition
    from concentro.poly import expected_derivative_tensor

    if case == "degree-4":
        f = Polynomial(3, {((1, 2), (2, 2)): 1.3, ((1, 1), (2, 1), (3, 2)): -0.7,
                           ((3, 4),): 0.4, ((2, 3),): 2.0, ((1, 1), (3, 1)): 0.5})
        dist = ProductDistribution("gaussian")
    else:
        h = GraphSpec.cycle(4)
        f = counting_polynomial(h, 6) * (1.0 / h.aut_size)
        dist = ProductDistribution("bernoulli", p=0.3)
    rep = gaussian_moment_bound(f, dist, 2.0, OPTS)
    tensors = {d: expected_derivative_tensor(f, dist, d) for d in range(1, f.degree + 1)}
    for t in rep.terms:
        part = SetPartition.parse(t.label)
        own = norm_J(tensors[t.d], part, OPTS)
        assert t.flagged == (own.method == "als")
        assert t.norm == pytest.approx(own.value, rel=1e-9 if t.flagged else 1e-12)


def test_two_sided_tail():
    assert two_sided_tail([], 1.0) == 0.0
    assert two_sided_tail(iter([3.0, 1.0]), 2.0) == 2.0 * math.exp(-0.5)
    for c in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="tail constant"):
            two_sided_tail([1.0], c)
        with pytest.raises(ValueError, match="tail constant"):
            two_sided_tail([], c)


def test_tail_reports_reject_a_constant_that_is_not_positive(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved a norm before checking the tail constant")

    dist = ProductDistribution("gaussian")
    # eta_tail refuses the constant before it solves any norm
    monkeypatch.setattr(bounds, "norm_J", no_solve)
    for c_d in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="tail constant"):
            eta_tail(X1X2X3, dist, 1.0, 1.0, c_d=c_d, opts=OPTS)
    with pytest.raises(ValueError, match="tail constant"):
        additive_functional_tail([0.5], 1.0, 10, 1.0, 2.0, c_d=-1.0)
    # t <= 0 gives the trivial bound 2, but only after the constant is checked
    square = Polynomial(1, {((1, 2),): 1.0})
    for t in (0.0, -1.0):
        with pytest.raises(ValueError, match="tail constant"):
            graphs.triangle_tail_bound(30, 0.5, t, c=0.0)
        with pytest.raises(ValueError, match="tail constant"):
            graphs.cycle_tail_bound(4, 30, 0.5, t, c=-1.0)
        with pytest.raises(ValueError, match="tail constant"):
            rmt.linstat_tail_bound(square, 30, t, c_l=0.0)
        assert graphs.triangle_tail_bound(30, 0.5, t, c=1.0) == 2.0
        assert graphs.cycle_tail_bound(4, 30, 0.5, t, c=3.0) == 2.0
        assert rmt.linstat_tail_bound(square, 30, t, c_l=0.5) == 2.0


def test_experiments_reject_the_tail_constant_before_sampling(monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before checking the tail constant")

    monkeypatch.setattr(graphs, "_run_chunks", no_sampling)
    monkeypatch.setattr(rmt, "_run_chunks", no_sampling)
    cfg = MCConfig(N=20, seed=0, batch=8)
    with pytest.raises(ValueError, match="tail constant"):
        graphs.er_tail_experiment(graphs.GraphSpec.cycle(3), 10, 0.5, cfg, eps=0.5, c=0.0)
    with pytest.raises(ValueError, match="tail constant"):
        rmt.wigner_experiment(Polynomial(1, {((1, 2),): 1.0}), rmt.WignerSpec(6), cfg,
                              t_list=[1.0], c_l=-1.0)


@pytest.mark.parametrize("report", [
    lambda p: gaussian_moment_bound(X1X2, GAUSS, p, OPTS),
    lambda p: sobolev_moment_bound(X1X2, GAUSS, p, 1.0, 0.5, OPTS),
    lambda p: weibull_moment_bound(X1X2, ProductDistribution("weibull", alpha=1.5), p, OPTS)],
    ids=["gaussian", "sobolev", "weibull"])
@pytest.mark.parametrize("p", [math.inf, math.nan, 1.5])
def test_moment_reports_need_a_finite_order_of_at_least_two(report, p):
    # p = inf made a 0 * inf = nan term and a nan total
    with pytest.raises(ValueError, match=f"p={p} must be finite and >= 2"):
        report(p)


@pytest.mark.parametrize("L, gamma, message", [
    (math.inf, 0.5, "L=inf"), (math.nan, 0.5, "L=nan"), (0.0, 0.5, "L=0.0"),
    (1.0, math.inf, "gamma=inf"), (1.0, math.nan, "gamma=nan"), (1.0, 0.4, "gamma=0.4")])
def test_sobolev_bound_needs_a_finite_L_and_gamma(L, gamma, message):
    with pytest.raises(ValueError, match=message):
        sobolev_moment_bound(X1X2, GAUSS, 4.0, L, gamma, OPTS)


@pytest.mark.parametrize("report, where", [
    (lambda: eta_tail(X1X2, ProductDistribution("rademacher"), 2.0, 1e308, opts=OPTS),
     "d = 2, J = 1,2"),
    (lambda: sobolev_moment_bound(X1X2, GAUSS, 2.0, 1e308, 1.0, OPTS), "d = 1, J = 1"),
    (lambda: gaussian_moment_bound(X1X2X3, GAUSS, 1e300, OPTS), "d = 3, J = 1|2|3"),
    (lambda: weibull_moment_bound(X1X2X3, ProductDistribution("weibull", alpha=1.5), 1e300, OPTS),
     "d = 2, J = ||1|2")],
    ids=["tail-L^d", "sobolev-product", "gaussian-p^expo", "weibull-p^expo"])
def test_a_bound_term_that_overflows_is_refused(report, where):
    # a float power that overflows raised OverflowError, and a product that
    # overflows gave an inf term
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message = re.escape(f"term at order {where} overflows a float")
        with pytest.raises(ValueError, match=message):
            report()
