"""Moment-bound and tail-exponent functionals for polynomials in independent
coordinates.

Every report itemizes one row per (derivative order, partition) or (order,
split) term.  Unspecified universal constants are set to 1, so totals are
exact functionals of the inputs, honest up to those constants; only the tail
functionals ``eta_tail`` and ``additive_functional_tail`` take theirs as a
parameter ``c_d``, which ``two_sided_tail`` requires to be positive.  Rows
whose norm came from the alternating solver carry a lower-bound flag.
``_norm_rows`` alone builds derivative tensors and solves norms, for every
report here.

One norm solve per block-size shape: E D^d f is a symmetric tensor (mixed
partials commute, and ``expected_derivative_tensor`` builds it exactly
symmetric), so |A|_J = |A|_(sigma J) for every relabeling sigma of {1,..,d},
and a partition's or split's norm depends only on its ``shape``.  Within one
derivative order of one report, the first partition (or split) of each shape
in enumeration order is solved (at alpha = 2, of each merged shape), and every
later one reuses its value and flag.  A reused alternating-solver value is
still a lower bound on its own row's norm, since that norm is the same number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .norms import NormOptions, mixed_norm, norm_J
from .partitions import MAX_SPLIT_ORDER, enumerate_partitions, enumerate_splits, merged
from .poly import Polynomial, ProductDistribution, expected_derivative_tensor


@dataclass(frozen=True)
class BoundTerm:
    d: int
    label: str
    exponent: float      # power of p (moment bounds) or of t (eta terms)
    norm: float
    flagged: bool        # norm is an alternating-maximization lower bound
    value: float


@dataclass(frozen=True)
class BoundReport:
    kind: str            # "sum" or "min"
    terms: tuple
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("sum", "min"):
            raise ValueError(f"unknown report kind {self.kind!r}")
        for t in self.terms:
            if t.norm < 0:
                raise ValueError("negative norm in report term")

    @property
    def total(self) -> float:
        """The sum of the term values, refused when it overflows, or their minimum."""
        values = (t.value for t in self.terms)
        return _finite_sum(values, "report total") if self.kind == "sum" else min(values)

    def csv_rows(self):
        yield ("d", "partition", "exponent", "norm", "flag", "term")
        for t in self.terms:
            yield (t.d, t.label, t.exponent, t.norm, "lower-bound" if t.flagged else "exact",
                   t.value)


def _finite_sum(values, name: str) -> float:
    """The sum of finite `values`, refused, naming it, when it overflows a float."""
    total = sum(values)
    if not math.isfinite(total):
        raise ValueError(f"the {name}, a sum of finite terms, overflows a float")
    return total


def two_sided_tail(args, c: float) -> float:
    """The two-sided tail estimate 2 exp(-min(args)/c) of the exponents
    `args`, 0 when there are none; the constant c must be positive."""
    if not c > 0:
        raise ValueError(f"tail constant {c} must be positive")
    args = list(args)
    return 2.0 * math.exp(-min(args) / c) if args else 0.0


def _norm_rows(f: Polynomial, dist: ProductDistribution, opts: NormOptions,
               alpha: float | None = None):
    """Yield (d, J, norm, flagged) over d = 1..deg(f) in enumeration order, J
    over the partitions of [d], or over its splits when `alpha` is given.  Only
    the first J of each shape is solved (module docstring); at alpha = 2 a
    split's mixed norm is prod |outer block| * |A|_merged(split)."""
    for d in range(1, f.degree + 1):
        tens = expected_derivative_tensor(f, dist, d)
        by_shape = {}
        for J in enumerate_partitions(d) if alpha is None else enumerate_splits(d):
            scale, part = 1, J
            if alpha == 2.0:
                scale, part = math.prod(len(b) for b in J.outer), merged(J)
            if part.shape not in by_shape:
                if alpha in (None, 2.0):
                    res = norm_J(tens, part, opts)
                    by_shape[part.shape] = (res.value, res.method == "als")
                else:
                    by_shape[part.shape] = (mixed_norm(tens, part, alpha, opts),
                                            len(part.inner) + len(part.outer) > 1)
            norm, flagged = by_shape[part.shape]
            yield d, J, scale * norm, flagged


def _terms(rows, term) -> list[BoundTerm]:
    """A BoundTerm for each (d, J, norm, flagged) row of `_norm_rows`, its
    exponent and value given by term(d, J, norm).  A value that overflows a
    float is refused, naming its order and partition."""
    terms = []
    for d, J, norm, flagged in rows:
        try:
            expo, value = term(d, J, norm)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise ValueError(f"the bound term at order d = {d}, J = {J} overflows a float")
        terms.append(BoundTerm(d, str(J), expo, norm, flagged, value))
    return terms


def _moment_terms(f: Polynomial, dist: ProductDistribution, p: float, L: float,
                  gamma: float, opts: NormOptions,
                  alpha: float | None = None) -> list[BoundTerm]:
    """The rows L^d p^((gamma-1/2)d + #J/2) |E D^d f|_J of the Sobolev-type
    moment functional, for p >= 2.  With `alpha`, J runs over splits and #J/2
    becomes #inner/2 + #outer/alpha."""
    if not 2 <= p < math.inf:
        raise ValueError(f"moment order p={p} must be finite and >= 2")

    def term(d, J, norm):
        blocks = J.n_blocks / 2.0 if alpha is None else len(J.inner) / 2.0 + len(J.outer) / alpha
        expo = (gamma - 0.5) * d + blocks
        return expo, L**d * p**expo * norm
    return _terms(_norm_rows(f, dist, opts, alpha), term)


def gaussian_moment_bound(f: Polynomial, dist: ProductDistribution, p: float,
                          opts: NormOptions = NormOptions()) -> BoundReport:
    """Two-sided moment functional sum_d sum_J p^(#J/2) |E D^d f|_J: the
    Sobolev-type functional at the Gaussian pair (L, gamma) = (1, 1/2).

    For Gaussian f the total bounds |f - Ef|_p above and below only up to a
    constant C_D depending on the degree D.  meta["chaos_total"] is the same
    sum with each order-d term divided by d!: by Stroock's formula
    f - Ef = sum_d <E D^d f, :G^(x d):> / d!, so that is Latala's two-sided
    chaos estimate with the Wick-product coefficient tensors E D^d f / d!.
    """
    terms = _moment_terms(f, dist, p, 1.0, 0.5, opts)
    chaos_total = _finite_sum((t.value / math.factorial(t.d) for t in terms), "chaos total")
    return BoundReport("sum", tuple(terms), {"chaos_total": chaos_total})


def eta_tail(f: Polynomial, dist: ProductDistribution, t: float, L: float,
             c_d: float = 1.0, opts: NormOptions = NormOptions()) -> BoundReport:
    """Tail exponent min_(d,J) (t / (L^d |E D^d f|_J))^(2/#J), zero norms dropped.

    meta carries the two-sided tail estimate 2 exp(-eta/c_d).
    """
    if not 0 < t < math.inf:
        raise ValueError(f"t={t} must be positive and finite")
    if not 0 < L < math.inf:
        raise ValueError(f"L={L} must be positive and finite")
    two_sided_tail((), c_d)   # a bad c_d fails here, before any norm is solved

    def term(d, J, norm):
        expo = 2.0 / J.n_blocks
        return expo, (t / (L**d * norm)) ** expo
    terms = _terms((row for row in _norm_rows(f, dist, opts) if row[2] != 0.0), term)
    if not terms:
        raise ValueError("degenerate polynomial: every derivative norm is zero")
    return BoundReport("min", tuple(terms),
                       {"tail_estimate": two_sided_tail((t.value for t in terms), c_d)})


def sobolev_moment_bound(f: Polynomial, dist: ProductDistribution, p: float,
                         L: float, gamma: float,
                         opts: NormOptions = NormOptions()) -> BoundReport:
    """Moment functional sum_d sum_J L^d p^((gamma-1/2)d + #J/2) |E D^d f|_J."""
    if not 0.5 <= gamma < math.inf:
        raise ValueError(f"gamma={gamma} must be finite and >= 1/2")
    if not 0 < L < math.inf:
        raise ValueError(f"L={L} must be positive and finite")
    return BoundReport("sum", tuple(_moment_terms(f, dist, p, L, gamma, opts)))


def additive_functional_tail(fmoments, fD_sup: float, n: int, L: float, t: float,
                             c_d: float = 1.0) -> float:
    """Tail bound for Z = f(X_1)+..+f(X_n) with |f^(D)| bounded by fD_sup.

    fmoments[d-1] holds E f^(d)(X_i) for d = 1..D-1, as a scalar (i.i.d.) or a
    length-n array.  All three exponential groups share the single constant
    c_d; empty groups contribute zero.
    """
    if not t > 0:
        raise ValueError("t must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    if not L > 0:
        raise ValueError("L must be positive")
    if fD_sup < 0:
        raise ValueError("sup |f^(D)| must be nonnegative")
    D = len(fmoments) + 1
    rows = [np.broadcast_to(np.asarray(m, dtype=float), (n,)) for m in fmoments]

    top_args = []
    if fD_sup > 0:
        top_args.append(t**2 / (L ** (2 * D) * n * fD_sup**2))
        top_args.append(t ** (2.0 / D) / (L**2 * fD_sup ** (2.0 / D)))
    term1 = two_sided_tail(top_args, c_d)

    sq_args = [t**2 / (L ** (2 * d) * s) for d, s in
               ((d, float((rows[d - 1] ** 2).sum())) for d in range(1, D)) if s > 0]
    term2 = two_sided_tail(sq_args, c_d)

    max_args = [t ** (2.0 / d) / (L**2 * mx ** (2.0 / d)) for d, mx in
                ((d, float(np.abs(rows[d - 1]).max())) for d in range(2, D)) if mx > 0]
    term3 = two_sided_tail(max_args, c_d)

    return term1 + term2 + term3


def weibull_moment_bound(f: Polynomial, dist: ProductDistribution, p: float,
                         opts: NormOptions = NormOptions()) -> BoundReport:
    """Split-indexed functional sum_d sum_splits p^(#J/2 + #K/alpha) |E D^d f|_(J|K)
    for the Weibull-alpha law `dist`, which alone gives alpha."""
    if dist.law != "weibull":
        raise ValueError(f"the split bound needs a weibull law, got {dist.law!r}")
    if f.degree > MAX_SPLIT_ORDER:
        raise ValueError(f"degree {f.degree} unsupported:"
                         f" split bounds cover degree <= {MAX_SPLIT_ORDER}")
    return BoundReport("sum", tuple(_moment_terms(f, dist, p, 1.0, 0.5, opts, dist.alpha)))
