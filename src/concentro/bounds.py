"""Moment-bound and tail-exponent functionals for polynomials in independent
coordinates.

Every report itemizes one row per (derivative order, partition) or (order,
split) term.  Unspecified universal constants are set to 1, so totals are
exact functionals of the inputs, honest up to those constants; only the tail
functionals ``eta_tail`` and ``additive_functional_tail`` take theirs as a
parameter ``c_d``.  Rows whose norm came from the alternating solver carry a
lower-bound flag.

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
from .partitions import enumerate_partitions, enumerate_splits, merged
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
        """The sum of the term values, or their minimum."""
        values = (t.value for t in self.terms)
        return sum(values) if self.kind == "sum" else min(values)

    def csv_rows(self):
        yield ("d", "partition", "exponent", "norm", "flag", "term")
        for t in self.terms:
            yield (t.d, t.label, t.exponent, t.norm, "lower-bound" if t.flagged else "exact",
                   t.value)


def _norm_rows(f: Polynomial, dist: ProductDistribution, opts: NormOptions):
    """Yield (d, partition, norm, flagged) over d = 1..deg(f), in enumeration order.

    The symmetric E D^d f cannot tell apart partitions of one shape, so only
    the first of each shape calls ``norm_J``; the later ones reuse its row.
    """
    for d in range(1, f.degree + 1):
        tens = expected_derivative_tensor(f, dist, d)
        by_shape = {}
        for part in enumerate_partitions(d):
            if part.shape not in by_shape:
                res = norm_J(tens, part, opts)
                by_shape[part.shape] = (res.value, res.method == "als")
            yield (d, part) + by_shape[part.shape]


def _moment_terms(f: Polynomial, dist: ProductDistribution, p: float, L: float,
                  gamma: float, opts: NormOptions | None) -> list[BoundTerm]:
    """The rows L^d p^((gamma-1/2)d + #J/2) |E D^d f|_J of the Sobolev-type
    moment functional, for p >= 2."""
    if p < 2:
        raise ValueError(f"moment order p={p} must be >= 2")
    terms = []
    for d, part, norm, flagged in _norm_rows(f, dist, opts or NormOptions()):
        expo = (gamma - 0.5) * d + part.n_blocks / 2.0
        terms.append(BoundTerm(d, str(part), expo, norm, flagged, L**d * p**expo * norm))
    return terms


def gaussian_moment_bound(f: Polynomial, dist: ProductDistribution, p: float,
                          opts: NormOptions | None = None) -> BoundReport:
    """Two-sided moment functional sum_d sum_J p^(#J/2) |E D^d f|_J: the
    Sobolev-type functional at the Gaussian pair (L, gamma) = (1, 1/2).

    For Gaussian f the total bounds |f - Ef|_p above and below only up to a
    constant C_D depending on the degree D.  meta["chaos_total"] is the same
    sum with each order-d term divided by d!: by Stroock's formula
    f - Ef = sum_d <E D^d f, :G^(x d):> / d!, so that is Latala's two-sided
    chaos estimate with the Wick-product coefficient tensors E D^d f / d!.
    """
    terms = _moment_terms(f, dist, p, 1.0, 0.5, opts)
    chaos_total = sum(t.value / math.factorial(t.d) for t in terms)
    return BoundReport("sum", tuple(terms), {"chaos_total": chaos_total})


def eta_tail(f: Polynomial, dist: ProductDistribution, t: float, L: float,
             c_d: float = 1.0, opts: NormOptions | None = None) -> BoundReport:
    """Tail exponent min_(d,J) (t / (L^d |E D^d f|_J))^(2/#J), zero norms dropped.

    meta carries the two-sided tail estimate 2 exp(-eta/c_d).
    """
    if not t > 0:
        raise ValueError("t must be positive")
    if not L > 0:
        raise ValueError("L must be positive")
    opts = opts or NormOptions()
    terms = []
    for d, part, norm, flagged in _norm_rows(f, dist, opts):
        if norm == 0.0:
            continue
        expo = 2.0 / part.n_blocks
        value = (t / (L**d * norm)) ** expo
        terms.append(BoundTerm(d, str(part), expo, norm, flagged, value))
    if not terms:
        raise ValueError("degenerate polynomial: every derivative norm is zero")
    eta = min(t.value for t in terms)
    return BoundReport("min", tuple(terms), {"tail_estimate": 2.0 * math.exp(-eta / c_d)})


def sobolev_moment_bound(f: Polynomial, dist: ProductDistribution, p: float,
                         L: float, gamma: float,
                         opts: NormOptions | None = None) -> BoundReport:
    """Moment functional sum_d sum_J L^d p^((gamma-1/2)d + #J/2) |E D^d f|_J."""
    if gamma < 0.5:
        raise ValueError(f"gamma={gamma} must be >= 1/2")
    if not L > 0:
        raise ValueError("L must be positive")
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
    term1 = 2.0 * math.exp(-min(top_args) / c_d) if top_args else 0.0

    sq_args = [t**2 / (L ** (2 * d) * s) for d, s in
               ((d, float((rows[d - 1] ** 2).sum())) for d in range(1, D)) if s > 0]
    term2 = 2.0 * math.exp(-min(sq_args) / c_d) if sq_args else 0.0

    max_args = [t ** (2.0 / d) / (L**2 * mx ** (2.0 / d)) for d, mx in
                ((d, float(np.abs(rows[d - 1]).max())) for d in range(2, D)) if mx > 0]
    term3 = 2.0 * math.exp(-min(max_args) / c_d) if max_args else 0.0

    return term1 + term2 + term3


def weibull_moment_bound(f: Polynomial, dist: ProductDistribution, p: float,
                         alpha: float, opts: NormOptions | None = None) -> BoundReport:
    """Split-indexed functional sum_d sum_splits p^(#J/2 + #K/alpha) |E D^d f|_(J|K)."""
    if p < 2:
        raise ValueError(f"moment order p={p} must be >= 2")
    if not 1.0 <= alpha <= 2.0:
        raise ValueError(f"alpha={alpha} outside [1, 2]")
    if f.degree > 3:
        raise ValueError(f"degree {f.degree} unsupported: split bounds cover degree <= 3")
    opts = opts or NormOptions()
    terms = []
    for d in range(1, f.degree + 1):
        tens = expected_derivative_tensor(f, dist, d)
        by_shape = {}   # one solve per split shape, as in _norm_rows
        for split in enumerate_splits(d):
            if alpha == 2.0:
                # mixed_norm at alpha=2: prod |outer block| * |A|_merged(split)
                key = merged(split).shape
                if key not in by_shape:
                    by_shape[key] = norm_J(tens, merged(split), opts).value
                norm = math.prod(len(b) for b in split.outer) * by_shape[key]
            else:
                if split.shape not in by_shape:
                    by_shape[split.shape] = mixed_norm(tens, split, alpha, opts)
                norm = by_shape[split.shape]
            expo = len(split.inner) / 2.0 + len(split.outer) / alpha
            exact = (alpha == 2.0 and merged(split).n_blocks <= 2) or \
                    (len(split.inner) + len(split.outer)) <= 1
            terms.append(BoundTerm(d, str(split), expo, norm, not exact, p**expo * norm))
    return BoundReport("sum", tuple(terms))
