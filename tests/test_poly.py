import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concentro.poly import (
    Polynomial,
    ProductDistribution,
    _substitute,
    bernoulli_bits,
    expected_derivative_tensor,
    hermite,
    hermite_expansion,
    load_polynomial,
    polynomial_from_dict,
)
from oracles import (
    expected_value,
    hermite_combination,
    hermite_polynomial,
    polynomial_to_dict,
    save_polynomial,
)

X1X2 = Polynomial(2, {((1, 1), (2, 1)): 1.0})


def test_evaluate_examples():
    assert X1X2.evaluate_batch([[2.0, 3.0]])[0] == 6.0
    assert Polynomial(3).evaluate_batch([[1.0, 2.0, 3.0]])[0] == 0.0
    f = Polynomial(2, {((1, 2),): 1.0, ((2, 1),): 2.0})
    assert f.evaluate_batch([[1.0, 1.0]])[0] == 3.0
    with pytest.raises(ValueError):
        f.evaluate_batch([[1.0]])


def test_evaluate_batch_matches_pointwise():
    rng = np.random.default_rng(0)
    f = Polynomial(3, {((1, 2), (2, 1)): 0.5, ((3, 3),): -2.0, (): 1.5})
    xs = rng.standard_normal((40, 3))
    batch = f.evaluate_batch(xs)
    for i in range(40):
        assert batch[i] == pytest.approx(f.evaluate_batch(xs[i:i + 1])[0], rel=1e-13)


def _evaluate_reference(f, xs):
    """The term loop with each product filled with its coefficient first, then
    multiplied by the factors in order."""
    total = np.zeros(len(xs))
    for key, coef in f.terms.items():
        prod = np.full(len(xs), coef)
        for v, p in key:
            col = xs[:, v - 1]
            prod *= col if p == 1 else col**p
        total += prod
    return total


@pytest.mark.parametrize("f", [
    # a constant term, powers 2-5, negative coefficients, a zero coefficient
    # (dropped), and x4 in no term
    Polynomial(4, [((), 1.25), (((1, 2),), -0.75), (((2, 3), (1, 1)), 3.5),
                   (((3, 4),), -1.0 / 3.0), (((1, 5), (3, 1)), 0.0),
                   (((2, 5), (3, 2), (1, 1)), -2.0), (((3, 1),), 7.0)]),
    Polynomial(4, {(): -3.0}),
    Polynomial(4)])
def test_evaluate_batch_is_bit_identical_to_the_fill_then_multiply_loop(f):
    rng = np.random.default_rng(3)
    xs = 2.0 * rng.standard_normal((257, 4))
    xs[::7, 1] = 0.0
    xs[::11, 2] = -0.0
    assert f.evaluate_batch(xs).tobytes() == _evaluate_reference(f, xs).tobytes()


def test_term_normalization():
    f = Polynomial(2, {((2, 1), (1, 1)): 1.0, ((1, 1), (2, 1)): 2.0})
    assert f.terms == {((1, 1), (2, 1)): 3.0}
    g = Polynomial(2, {((1, 1),): 1.0}) - Polynomial(2, {((1, 1),): 1.0})
    assert g.terms == {} and g.degree == 0
    with pytest.raises(ValueError):
        Polynomial(2, {((1, 0),): 1.0})
    with pytest.raises(ValueError):
        Polynomial(1, {((2, 1),): 1.0})
    for coef in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="not finite"):
            Polynomial(1, {((1, 1),): coef})
    # two finite coefficients of one term whose sum overflows
    with pytest.raises(ValueError, match="not finite"):
        Polynomial(2, {((1, 1), (2, 1)): 1e308, ((2, 1), (1, 1)): 1e308})


def test_terms_given_as_pairs():
    x, x2 = ((1, 1),), ((1, 2),)
    xy, yx = ((1, 1), (2, 1)), ((2, 1), (1, 1))
    # repeats are summed, one monomial in two variable orders merged
    f = Polynomial(2, [(xy, 1.0), (x, 2.0), (yx, 0.5), (xy, 0.25)])
    assert list(f.terms.items()) == [(xy, 1.75), (x, 2.0)]
    # in the order given: 1e16 - 1e16 + 1 is 1, 1e16 + 1 - 1e16 is 0
    assert Polynomial(1, [(x, 1e16), (x, -1e16), (x, 1.0)]).terms == {x: 1.0}
    assert Polynomial(1, [(x, 1e16), (x, 1.0), (x, -1e16)]).terms == {}
    # a partial sum through 0 keeps the term's first position
    g = Polynomial(1, [(x2, 1.0), (x, 1.0), (x2, -1.0), (x2, 2.0)])
    assert list(g.terms.items()) == [(x2, 2.0), (x, 1.0)]
    assert Polynomial(1, [(x2, 1.0), (x, 1.0), (x2, -1.0)]).terms == {x: 1.0}
    with pytest.raises(ValueError, match=re.escape("term ((1, 1), (2, 1)) has a coefficient"
                                                   " that is not finite")):
        Polynomial(2, [(x, 1.0), (xy, 1e308), (yx, 1e308)])
    # a generator is read once, like a list
    assert Polynomial(2, ((k, 1.0) for k in (xy, yx))).terms == {xy: 2.0}


def test_counts_are_whole_numbers():
    f = Polynomial(2.0, {((1.0, 2.0), (2, 1)): 1.0})
    assert f.nvars == 2 and f.terms == {((1, 2), (2, 1)): 1.0}
    assert all(type(i) is int for key in f.terms for pair in key for i in pair)
    for nvars, key, name in [(2.7, ((1, 1),), "nvars"), (0, ((1, 1),), "nvars"),
                             (2, ((1, 1.5),), "a power"), (2, ((1, 0),), "a power"),
                             (2, ((1.5, 1),), "a variable"), (2, ((0, 1),), "a variable"),
                             (2, (("1", 1),), "a variable"), (2, ((1, math.nan),), "a power")]:
        with pytest.raises(ValueError, match=f"^{name} must be a whole number >= 1"):
            Polynomial(nvars, {key: 1.0})


def test_every_term_pair_is_checked():
    # True == 1 and both hash alike, yet a bool is refused after the equal
    # valid count as well as before it
    x, x_bool = ((1, 1),), ((True, 1),)
    for pairs in ([(x, 1.0), (x_bool, 1.0)], [(x_bool, 1.0), (x, 1.0)]):
        with pytest.raises(ValueError, match="^a variable must be a whole number >= 1, got True"):
            Polynomial(2, pairs)
    with pytest.raises(ValueError, match="^a power must be a whole number >= 1, got True"):
        Polynomial(2, [(((2, 1),), 1.0), (((2, True),), 1.0)])
    for key in ([[1, 1, 1]], "x", [1]):
        with pytest.raises(ValueError, match="that is not a \\(variable, power\\) pair"):
            Polynomial(2, [(key, 1.0)])
    for coef in (True, "1.5"):
        with pytest.raises(ValueError, match=re.escape(
                f"term ((1, 1),) has a coefficient {coef!r} that is not a number")):
            Polynomial(2, [(x, coef)])


def test_partial_derivatives():
    f = Polynomial(2, {((1, 2),): 1.0, ((1, 1), (2, 1)): 3.0})
    fx = f.partial(1)
    assert fx.terms == {((1, 1),): 2.0, ((2, 1),): 3.0}
    fy = f.partial(2)
    assert fy.terms == {((1, 1),): 3.0}
    assert f.partial(2).partial(2).terms == {}


def test_expected_derivative_examples():
    gauss = ProductDistribution("gaussian")
    f = Polynomial(2, {((1, 1),): 3.0, ((2, 2),): 1.0})
    d1 = expected_derivative_tensor(f, gauss, 1)
    assert np.array_equal(d1.values, np.array([3.0, 0.0]))
    d2 = expected_derivative_tensor(Polynomial(2, {((2, 2),): 1.0}), gauss, 2)
    expect = np.zeros((2, 2))
    expect[1, 1] = 2.0
    assert np.array_equal(d2.values, expect)
    # beyond the degree: zero tensor, not an error
    d3 = expected_derivative_tensor(f, gauss, 3)
    assert not np.any(d3.values)


def test_expected_derivative_symmetry_and_linearity():
    rng = np.random.default_rng(1)
    dist = ProductDistribution("gaussian")
    f = Polynomial(3, {((1, 2), (2, 1)): 1.5, ((2, 1), (3, 2)): -0.5, ((1, 1),): 2.0})
    g = Polynomial(3, {((1, 1), (2, 1), (3, 1)): 1.0, ((3, 4),): 0.25})
    for d in (1, 2, 3):
        tf = expected_derivative_tensor(f, dist, d).values
        for perm in itertools.permutations(range(d)):
            assert np.array_equal(tf, tf.transpose(perm))
        a, b = rng.standard_normal(2)
        lhs = expected_derivative_tensor(a * f + b * g, dist, d).values
        rhs = a * tf + b * expected_derivative_tensor(g, dist, d).values
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_tetrahedral_top_derivative_is_factorial_times_coefficients():
    # tetrahedral homogeneous degree 3 over 4 vars with symmetric zero-diagonal A
    rng = np.random.default_rng(2)
    n, D = 4, 3
    a = np.zeros((n,) * D)
    for combo in itertools.combinations(range(n), D):
        val = rng.standard_normal()
        for perm in itertools.permutations(combo):
            a[perm] = val
    terms = {}
    for combo in itertools.combinations(range(n), D):
        terms[tuple((v + 1, 1) for v in combo)] = a[combo] * math.factorial(D)
    f = Polynomial(n, terms)
    for dist in (ProductDistribution("gaussian"), ProductDistribution("rademacher")):
        top = expected_derivative_tensor(f, dist, D).values
        assert np.allclose(top, math.factorial(D) * a, atol=1e-12)
        # lower-order expected derivatives vanish under centered laws
        assert not np.any(expected_derivative_tensor(f, dist, 1).values)
        assert not np.any(expected_derivative_tensor(f, dist, 2).values)


def _fd_derivative(f, x, dirs, h):
    if not dirs:
        return f.evaluate_batch(x[None])[0]
    step = np.zeros(len(x))
    step[dirs[0]] = h
    return (_fd_derivative(f, x + step, dirs[1:], h)
            - _fd_derivative(f, x - step, dirs[1:], h)) / (2 * h)


def test_finite_difference_cross_check():
    rng = np.random.default_rng(3)
    cubic = Polynomial(3, {((1, 2), (2, 1)): 0.7, ((2, 1), (3, 2)): -1.2,
                           ((1, 1), (2, 1), (3, 1)): 0.9, ((3, 3),): 0.4, ((1, 1),): 2.0})
    quartic = cubic + Polynomial(3, {((1, 2), (3, 2)): 0.6})
    x = rng.standard_normal(3)
    for f, d, h in [(quartic, 1, 1e-4), (quartic, 2, 1e-3), (cubic, 3, 0.05)]:
        tens = _substitute(f, d, lambda v, r: x[v - 1] ** r)
        scale = max(1.0, np.abs(tens).max())
        for idx in itertools.product(range(3), repeat=d):
            fd = _fd_derivative(f, x, list(idx), h)
            assert abs(fd - tens[idx]) <= 1e-6 * scale


def test_moments_by_law():
    g = ProductDistribution("gaussian")
    assert [g.moment(k) for k in range(7)] == [1, 0, 1, 0, 3, 0, 15]
    r = ProductDistribution("rademacher")
    assert [r.moment(k) for k in range(5)] == [1, 0, 1, 0, 1]
    b = ProductDistribution("bernoulli", p=0.3)
    assert [b.moment(k) for k in range(4)] == [1.0, 0.3, 0.3, 0.3]
    w = ProductDistribution("weibull", alpha=1.0)
    assert w.moment(2) == pytest.approx(math.gamma(3.0))
    w2 = ProductDistribution("weibull", alpha=2.0)
    assert w2.moment(2) == pytest.approx(1.0)
    assert w2.moment(3) == 0.0


def test_psi2_and_sobolev_defaults():
    assert ProductDistribution("gaussian").psi2 == pytest.approx(math.sqrt(8 / 3))
    assert ProductDistribution("bernoulli", p=0.5).psi2 == pytest.approx(
        math.sqrt(2) / math.sqrt(math.log(4.0)))
    assert ProductDistribution("gaussian").sobolev == (1.0, 0.5)
    assert ProductDistribution("bernoulli", p=0.5).sobolev is None
    assert ProductDistribution("weibull", alpha=1.5).psi2 is None


def test_expected_value():
    dist = ProductDistribution("gaussian")
    f = Polynomial(2, {((1, 2),): 1.0, ((2, 1),): 5.0, (): 2.0})
    assert expected_value(f, dist) == pytest.approx(3.0)
    b = ProductDistribution("bernoulli", p=0.25)
    assert expected_value(X1X2, b) == pytest.approx(0.0625)


def test_hermite_coefficients():
    assert hermite(0) == (1,)
    assert hermite(1) == (0, 1)
    assert hermite(2) == (-1, 0, 1)
    assert hermite(3) == (0, -3, 0, 1)
    # recurrence invariant and leading coefficient one
    for k in range(2, 13):
        hk, hk1, hk2 = hermite(k), hermite(k - 1), hermite(k - 2)
        assert hk[-1] == 1
        shifted = (0,) + hk1
        expect = [shifted[i] - (k - 1) * (hk2[i] if i < len(hk2) else 0)
                  for i in range(k + 1)]
        assert list(hk) == expect
    with pytest.raises(ValueError):
        hermite(13)


def test_hermite_derivative_moment_identity_small():
    # E h_k^(l)(g) = k! when l = k and 0 otherwise, through the symbolic pipeline
    dist = ProductDistribution("gaussian")
    for k in range(0, 4):
        f = hermite_polynomial(k)
        assert expected_value(f, dist) == pytest.approx(1.0 if k == 0 else 0.0, abs=0)
        for l in range(1, 4):
            got = expected_derivative_tensor(f, dist, l).values.ravel()[0]
            assert got == (math.factorial(k) if k == l else 0.0)


def test_hermite_expansion_examples():
    x_sq = Polynomial(1, {((1, 2),): 1.0})
    assert hermite_expansion(x_sq) == {(2,): 1.0, (0,): 1.0}
    assert hermite_expansion(X1X2) == {(1, 1): 1.0}
    x_cubed = Polynomial(1, {((1, 3),): 1.0})
    assert hermite_expansion(x_cubed) == {(3,): 1.0, (1,): 3.0}


def test_hermite_expansion_round_trip_exact():
    rng = np.random.default_rng(4)
    for _ in range(10):
        terms = {}
        for _ in range(6):
            nv = 3
            vs = sorted(rng.choice(nv, size=rng.integers(1, 3), replace=False) + 1)
            key = tuple((int(v), int(rng.integers(1, 4))) for v in vs)
            if sum(p for _, p in key) <= 6:
                # dyadic coefficients keep the arithmetic exact
                terms[key] = float(rng.integers(-8, 9)) / 4.0
        f = Polynomial(3, terms)
        coeffs = hermite_expansion(f)
        back = hermite_combination(coeffs, 3)
        diff = f - back
        assert diff.terms == {}


def test_hermite_expansion_is_exact_for_non_dyadic_coefficients():
    # summing the coefficients in floats would give 3.8999999999999995 for the
    # constant and -1.2000000000000006 for h_1(x_2)
    f = Polynomial(3, {((1, 6),): 0.1, ((1, 4), (2, 1)): 0.7, ((1, 2), (2, 2), (3, 1)): 0.3,
                       ((2, 3),): -1.1, ((1, 2),): 0.3, ((1, 4),): 0.7})
    assert hermite_expansion(f) == {
        (0, 0, 0): 3.9, (0, 0, 1): 0.3, (0, 1, 0): -1.2000000000000004, (0, 2, 1): 0.3,
        (0, 3, 0): -1.1, (2, 0, 0): 9.0, (2, 0, 1): 0.3, (2, 1, 0): 4.199999999999999,
        (2, 2, 1): 0.3, (4, 0, 0): 2.2, (4, 1, 0): 0.7, (6, 0, 0): 0.1}


@pytest.mark.parametrize("k", range(7))
def test_hermite_expansion_of_a_hermite_polynomial_is_itself(k):
    assert hermite_expansion(hermite_polynomial(k)) == {(k,): 1.0}


@st.composite
def small_polynomial(draw):
    """At most six terms of degree at most 6 in one to three variables, with
    dyadic coefficients, so that the expansion's arithmetic is exact."""
    nvars = draw(st.integers(1, 3))
    terms = {}
    for _ in range(draw(st.integers(1, 6))):
        powers = draw(st.lists(st.integers(0, 6), min_size=nvars, max_size=nvars)
                      .filter(lambda ps: sum(ps) <= 6))
        key = tuple((v + 1, k) for v, k in enumerate(powers) if k)
        terms[key] = draw(st.integers(-64, 64)) / 8.0
    return Polynomial(nvars, terms)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(small_polynomial())
def test_hermite_expansion_round_trips(f):
    coeffs = hermite_expansion(f)
    assert all(len(degrees) == f.nvars and sum(degrees) <= 6 for degrees in coeffs)
    assert (f - hermite_combination(coeffs, f.nvars)).terms == {}


def test_json_round_trip(tmp_path):
    f = Polynomial(3, {((1, 1), (3, 2)): -2.5, ((2, 1),): 1.0, (): 0.5})
    doc = polynomial_to_dict(f)
    assert polynomial_from_dict(doc) == f
    path = str(tmp_path / "f.json")
    save_polynomial(f, path)
    assert load_polynomial(path) == f


def test_distribution_config_round_trip():
    d = ProductDistribution("bernoulli", p=0.5)
    assert d.law == "bernoulli" and d.p == 0.5
    with pytest.raises(ValueError):
        ProductDistribution("cauchy")
    with pytest.raises(ValueError):
        ProductDistribution("bernoulli", p=0.0)
    with pytest.raises(ValueError):
        ProductDistribution("weibull", alpha=3.0)


def test_distribution_config_without_law_parameter_is_a_value_error():
    with pytest.raises(ValueError, match="bernoulli"):
        ProductDistribution("bernoulli")
    with pytest.raises(ValueError, match="weibull"):
        ProductDistribution("weibull")


@pytest.mark.parametrize("law,kwargs,name", [("gaussian", {"alpha": 1.5}, "alpha"),
                                             ("rademacher", {"p": 0.3}, "p"),
                                             ("weibull", {"alpha": 1.5, "p": 0.3}, "p")])
def test_law_parameter_of_another_law_is_rejected(law, kwargs, name):
    with pytest.raises(ValueError, match=f"{law} law takes no {name}"):
        ProductDistribution(law, **kwargs)


@pytest.mark.parametrize("bitgen", [np.random.Philox, np.random.PCG64, np.random.PCG64DXSM,
                                    np.random.SFC64])
@pytest.mark.parametrize("p", [0.0, 2.0**-53, 0.1, 0.3, 0.5, 1.0 - 2.0**-53, 1.0])
def test_bernoulli_bits_are_the_bits_of_uniform_doubles(bitgen, p):
    # 7 x 33 words: not a multiple of Philox's four words per block
    ours, theirs = np.random.Generator(bitgen(5)), np.random.Generator(bitgen(5))
    bits = bernoulli_bits(ours, p, (7, 33))
    assert bits.dtype == bool
    assert np.array_equal(bits, theirs.random((7, 33)) < p)
    assert np.array_equal(ours.random(5), theirs.random(5))


def test_bernoulli_bits_refuse_a_bad_p_or_generator():
    rng = np.random.Generator(np.random.Philox(5))
    for p in (-0.1, 1.1, math.nan):
        with pytest.raises(ValueError, match="must be in \\[0, 1\\]"):
            bernoulli_bits(rng, p, 3)
    with pytest.raises(ValueError, match="MT19937"):
        bernoulli_bits(np.random.Generator(np.random.MT19937(5)), 0.5, 3)
