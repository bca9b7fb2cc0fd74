"""Sparse multivariate polynomials over product measures.

Provides evaluation at a batch of points, symbolic differentiation, expected
derivative tensors built by coordinatewise moment substitution, and the
probabilists' Hermite polynomials (`hermite(k)` is the tuple of h_k's
coefficients).  Each value has one constructor: a polynomial is
`Polynomial(nvars, terms)`, a constant c being the term {(): c}, and a law is
`ProductDistribution(law, p=.., alpha=..)`, each parameter refused for a law
that does not take it.  Terms combine only in the `Polynomial` constructor:
sums, products, derivatives, the file loader and the Erdos-Renyi counting
polynomial pass it (monomial, coefficient) pairs unchecked, and
`_normalize_terms` checks every pair and sums each monomial's coefficients in
order.
A Bernoulli bit is one `bernoulli_bits` call, which reads the generator's raw
words.  One routine, `_substitute`, puts a moment of
the law or of the semicircle in place of each remaining power of every
monomial: each expected derivative tensor and semicircle integral is one call
of it, order 0 giving the substituted value of f.  Any polynomial expands
exactly in the Hermite basis: each monomial factors over its coordinates, and
each power has the closed form x^p = sum_k p!/(2^k k! (p-2k)!) h_{p-2k}(x).
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .tensor import MAX_ENTRIES, Tensor, _count


def _normalize_terms(terms, nvars: int) -> dict:
    """{monomial: coefficient} from a mapping or an iterable of (monomial,
    coefficient) pairs, a monomial being a sequence of (variable, power) pairs.
    Every pair is checked: each factor is a (variable, power) pair of whole
    numbers (`_count`), a variable appears once and none exceeds nvars, and the
    coefficient is a number, not a bool or a string; the monomial is then
    sorted by variable.  The coefficients of one monomial are summed in the
    order given, and a zero sum is dropped only after every pair is in, so
    each term keeps the position of its first pair; a sum that is not finite
    is refused."""
    out: dict = {}   # the sorted monomial -> its running sum, in the order of first pairs
    for key, coef in terms.items() if isinstance(terms, Mapping) else terms:
        factors = []
        for factor in key:
            if not isinstance(factor, (tuple, list)) or len(factor) != 2:
                raise ValueError(f"term {key!r} has a factor {factor!r}"
                                 " that is not a (variable, power) pair")
            v, p = factor
            factors.append((_count(v, "a variable"), _count(p, "a power")))
        mono = tuple(sorted(factors))
        if len({v for v, _ in mono}) != len(mono):
            raise ValueError(f"term {mono} repeats a variable")
        if mono and mono[-1][0] > nvars:   # the largest variable
            raise ValueError(f"variable {mono[-1][0]} outside [1, {nvars}]")
        if isinstance(coef, (bool, str)):
            raise ValueError(f"term {mono} has a coefficient {coef!r} that is not a number")
        out[mono] = out.get(mono, 0.0) + float(coef)
    for mono, c in out.items():
        if not math.isfinite(c):
            raise ValueError(f"term {mono} has a coefficient that is not finite")
    return {mono: c for mono, c in out.items() if c != 0.0}


@dataclass(frozen=True)
class Polynomial:
    """Polynomial in `nvars` variables, stored as {monomial: coefficient}; the
    terms may be given as a mapping or as (monomial, coefficient) pairs, and
    the constructor alone combines them (`_normalize_terms`)."""

    nvars: int
    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        nvars = _count(self.nvars, "nvars")
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", _normalize_terms(self.terms, nvars))

    @property
    def degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(p for _, p in key) for key in self.terms)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if self.nvars != other.nvars:
            raise ValueError("polynomials over different variable counts")
        return Polynomial(self.nvars, itertools.chain(self.terms.items(), other.terms.items()))

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.nvars, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Polynomial(self.nvars, {k: c * other for k, c in self.terms.items()})
        if self.nvars != other.nvars:
            raise ValueError("polynomials over different variable counts")
        pairs = []
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                powers = dict(k1)
                for v, p in k2:
                    powers[v] = powers.get(v, 0) + p
                pairs.append((tuple(powers.items()), c1 * c2))
        return Polynomial(self.nvars, pairs)

    __rmul__ = __mul__

    def evaluate_batch(self, xs: np.ndarray) -> np.ndarray:
        """Evaluate at every row of xs (N, nvars); returns (N,).  The batch is
        read as contiguous columns, a view when xs is Fortran-ordered, so a
        caller that evaluates several polynomials at one batch copies it once.
        Each term's product starts as its first factor times the coefficient (a
        constant term is its coefficient), bit for bit the coefficient times the
        factors in order, and the terms are added in order.  A value that
        overflows is inf or nan, without a warning: the callers refuse it."""
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.nvars:
            raise ValueError(f"batch must have shape (N, {self.nvars})")
        cols = np.ascontiguousarray(xs.T)

        def power(v, p):
            col = cols[v - 1]
            return col if p == 1 else col**p

        total = np.zeros(xs.shape[0])
        prod = np.empty(xs.shape[0])
        with np.errstate(over="ignore", invalid="ignore"):
            for key, coef in self.terms.items():
                if key:
                    np.multiply(power(*key[0]), coef, out=prod)
                    for v, p in key[1:]:
                        prod *= power(v, p)
                else:
                    prod.fill(coef)
                total += prod
        return total

    def partial(self, var: int) -> "Polynomial":
        """Symbolic partial derivative with respect to x_var."""
        pairs = []
        for key, coef in self.terms.items():
            for i, (v, p) in enumerate(key):
                if v == var:
                    lowered = ((v, p - 1),) if p > 1 else ()
                    pairs.append((key[:i] + lowered + key[i + 1:], coef * p))
        return Polynomial(self.nvars, pairs)

    def gradient(self) -> list["Polynomial"]:
        return [self.partial(v) for v in range(1, self.nvars + 1)]


# ---------------------------------------------------------------------------
# product distributions

_LAWS = ("gaussian", "rademacher", "bernoulli", "weibull")

# the bit generators whose double is the top 53 bits of one raw 64-bit word
# times 2**-53 (MT19937 builds its double from two 32-bit words)
_WORD_DOUBLE_GENERATORS = (np.random.Philox, np.random.PCG64, np.random.PCG64DXSM,
                           np.random.SFC64)


def bernoulli_bits(rng: np.random.Generator, p: float, shape) -> np.ndarray:
    """The bool array `rng.random(shape) < p`, bit for bit and leaving `rng` in
    the same state, read from the raw words without forming the doubles: a
    double is (w >> 11) * 2**-53 for one 64-bit word w, so it is below p exactly
    when w >> 11 < ceil(p * 2**53).  p must lie in [0, 1], where that bound is a
    uint64, and the generator's doubles must be built that way."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"a Bernoulli probability must be in [0, 1], got p={p}")
    bitgen = rng.bit_generator
    if not isinstance(bitgen, _WORD_DOUBLE_GENERATORS):
        raise ValueError(f"{type(bitgen).__name__} doubles are not the top 53 bits of one"
                         " 64-bit word, so its raw words give no Bernoulli bits")
    words = bitgen.random_raw(shape)
    words >>= np.uint64(11)
    return words < np.uint64(math.ceil(p * 2.0**53))


@dataclass(frozen=True)
class ProductDistribution:
    """The law of one coordinate, with its moments, sampler and tail parameters:
    X = (X_1, .., X_n) has i.i.d. coordinates of it, n being f's variable count."""

    law: str
    p: float | None = None
    alpha: float | None = None

    def __post_init__(self):
        if self.law not in _LAWS:
            raise ValueError(f"unknown law {self.law!r}")
        if self.law == "bernoulli" and not (self.p is not None and 0 < self.p <= 1):
            raise ValueError("bernoulli law needs p in (0, 1]")
        if self.law == "weibull" and not (self.alpha is not None and 1 <= self.alpha <= 2):
            raise ValueError("weibull law needs alpha in [1, 2]")
        if self.p is not None and self.law != "bernoulli":
            raise ValueError(f"{self.law} law takes no p (bernoulli only)")
        if self.alpha is not None and self.law != "weibull":
            raise ValueError(f"{self.law} law takes no alpha (weibull only)")

    def moment(self, k: int) -> float:
        """E X^k for one coordinate."""
        if k < 0:
            raise ValueError("moment order must be >= 0")
        if k == 0:
            return 1.0
        if self.law == "gaussian":
            if k % 2:
                return 0.0
            return float(math.prod(range(1, k, 2)))  # (k-1)!!
        if self.law == "rademacher":
            return 0.0 if k % 2 else 1.0
        if self.law == "bernoulli":
            return float(self.p)
        # weibull
        if k % 2:
            return 0.0
        return math.gamma(k / self.alpha + 1.0)

    @property
    def psi2(self) -> float | None:
        """Sub-Gaussian norm bound for one coordinate, when finite."""
        if self.law == "gaussian":
            return math.sqrt(8.0 / 3.0)
        if self.law == "rademacher":
            return 1.0 / math.sqrt(math.log(2.0))
        if self.law == "bernoulli":
            return math.sqrt(2.0) / math.sqrt(math.log(2.0 / self.p))
        if self.law == "weibull" and self.alpha == 2.0:
            return math.sqrt(2.0)
        return None

    @property
    def sobolev(self) -> tuple[float, float] | None:
        """(L, gamma) pair of the moment-gradient inequality, when known."""
        if self.law == "gaussian":
            return (1.0, 0.5)
        return None

    def sample(self, rng: np.random.Generator, size: int, n: int) -> np.ndarray:
        """`size` draws of X = (X_1, .., X_n), as a (size, n) array."""
        shape = (size, n)
        if self.law == "gaussian":
            return rng.standard_normal(shape)
        if self.law == "rademacher":
            return 2.0 * rng.integers(0, 2, size=shape) - 1.0
        if self.law == "bernoulli":
            return bernoulli_bits(rng, self.p, shape).astype(float)
        # weibull
        u = rng.random(shape)
        mag = (-np.log1p(-u)) ** (1.0 / self.alpha)
        sign = 2.0 * rng.integers(0, 2, size=shape) - 1.0
        return sign * mag


# ---------------------------------------------------------------------------
# derivative tensors

def _substitute(f: Polynomial, d: int, power_value) -> np.ndarray:
    """The order-d array of d-th partial derivatives of f, each remaining power
    x_v^r replaced by `power_value(v, r)` (a moment of the law or of the
    semicircle); at d = 0 the 0-d array of f's substituted value."""
    m = f.nvars
    if m**d > MAX_ENTRIES:
        raise ValueError(f"derivative tensor would have {m**d} entries, cap is {MAX_ENTRIES}")
    out = np.zeros((m,) * d)
    if d > f.degree:
        return out
    for key, coef in f.terms.items():
        vars_ = [v for v, _ in key]
        ks = [p for _, p in key]
        # every (l_1..l_t) with 0 <= l_i <= k_i and sum d, in lexicographic order
        for ls in itertools.product(*(range(min(k, d) + 1) for k in ks)):
            if sum(ls) != d:
                continue
            weight = coef
            seq = []
            for v, k, l in zip(vars_, ks, ls):
                weight *= math.perm(k, l)
                if l < k:
                    weight *= power_value(v, k - l)
                seq.extend([v - 1] * l)
            if weight == 0.0:
                continue
            for pos in set(itertools.permutations(seq)):
                out[pos] += weight
    return out


def expected_derivative_tensor(f: Polynomial, dist: ProductDistribution, d: int) -> Tensor:
    """The symmetric order-d tensor with entries E d^d f / dx_{i_1}..dx_{i_d} (X)."""
    if d < 1:
        raise ValueError("derivative order must be >= 1")
    return Tensor(_substitute(f, d, lambda v, r: dist.moment(r)))


# ---------------------------------------------------------------------------
# Hermite polynomials (probabilists' convention, leading coefficient 1)

MAX_HERMITE_DEGREE = 12


def hermite(k: int) -> tuple:
    """The coefficients of h_k, exact integers in ascending powers, by the
    recurrence h_{k+1}(x) = x h_k(x) - k h_{k-1}(x)."""
    if not 0 <= k <= MAX_HERMITE_DEGREE:
        raise ValueError(f"hermite degree {k} outside [0, {MAX_HERMITE_DEGREE}]")
    prev, cur = [], [1]   # h_(-1) = 0, h_0 = 1
    for deg in range(k):
        nxt = [0] + cur  # x * h_deg
        for i, c in enumerate(prev):
            nxt[i] -= deg * c
        prev, cur = cur, nxt
    return tuple(cur)


MAX_EXPANSION_DEGREE = 6
MAX_EXPANSION_VARS = 12


def _monomial_in_hermite(p: int) -> dict:
    """x^p = sum_k p!/(2^k k! (p-2k)!) h_{p-2k}(x), as {degree: integer coefficient}."""
    return {p - 2 * k: math.factorial(p) // (2**k * math.factorial(k) * math.factorial(p - 2 * k))
            for k in range(p // 2 + 1)}


def hermite_expansion(f: Polynomial) -> dict:
    """Coefficients a_d with f = sum_d a_d prod_i h_{d_i}(x_i), exact arithmetic.

    Keys are dense degree tuples of length nvars.  Each monomial expands
    coordinate by coordinate through the closed form for x^p, and the
    products of the coordinate coefficients are summed as fractions, so every
    a_d is the float nearest its exact value.  With dyadic coefficients,
    multiplying the Hermite polynomials back out (the test oracle
    `hermite_combination` in tests/oracles.py) reproduces f exactly.
    """
    n = f.nvars
    if f.degree > MAX_EXPANSION_DEGREE:
        raise ValueError(f"degree {f.degree} exceeds expansion cap {MAX_EXPANSION_DEGREE}")
    if n > MAX_EXPANSION_VARS:
        raise ValueError(f"{n} variables exceed expansion cap {MAX_EXPANSION_VARS}")
    out: dict = {}
    for key, coef in f.terms.items():
        powers = [0] * n
        for v, p in key:
            powers[v - 1] = p
        for factors in itertools.product(*(_monomial_in_hermite(p).items() for p in powers)):
            degrees = tuple(deg for deg, _ in factors)
            c = Fraction(coef) * math.prod(m for _, m in factors)
            out[degrees] = out.get(degrees, Fraction(0)) + c
    return {k: float(v) for k, v in out.items() if v != 0}


# ---------------------------------------------------------------------------
# JSON formats

def polynomial_from_dict(doc: dict) -> Polynomial:
    try:
        return Polynomial(doc["nvars"], ((t["exps"], t["coef"]) for t in doc["terms"]))
    except (KeyError, TypeError) as exc:
        raise ValueError("polynomial document needs nvars and a list of terms,"
                         " each with exps and coef") from exc


def load_polynomial(path: str) -> Polynomial:
    with open(path) as fh:
        return polynomial_from_dict(json.load(fh))
