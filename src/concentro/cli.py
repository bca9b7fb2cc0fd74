"""Command line surface: one binary, subcommand style, JSON inputs and CSV
reports.

Each runnable command (`norm`, `mixednorm`, `bounds`, `tail`, `rmt`, `hermite`
and the modes of `mc` and `graphs`) is a leaf parser that declares exactly the
options its function reads, so an option a run would not read is an
unrecognized argument; options match by their full name only.  Only the leaves
that run Monte Carlo chunks take --workers, a positive integer whose default
`CONCENTRO_WORKERS` is read once per process, when the parsers are built; it
becomes the run's `MCConfig.workers`, and results are bit-identical for a
fixed (seed, N, batch) whatever `cfg.workers` is.  A float option takes any
float but NaN (`real`), and `tail --L` that or `auto`.  The norm solvers'
tolerance and sweep cap are the constants `norms.ALS_TOL` and
`norms.ALS_MAX_SWEEPS`.  A JSON config file
(--config) holds values of the leaf's options, required ones too, and is read
as those options' flags placed before the given ones: argparse
checks each value as it checks its flag (`{"N": 3000.0}` fails as `--N=3000.0`
does; null keeps the default), and a given flag overrides the config.  A key
that names no option of the leaf is an error.  Every report embeds the version,
the seed, and the full parameter echo in '#' comment lines, and is
byte-reproducible for a fixed config.  A table of records prints under a header
of the records' own keys (`_table`).  Exit code 2 signals a parse or validation
failure with a one-line diagnostic.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

from . import __version__
from .bounds import eta_tail, gaussian_moment_bound, sobolev_moment_bound, weibull_moment_bound
from .graphs import GraphSpec, er_tail_experiment, subgraph_norm_bound
from .montecarlo import (
    MCConfig,
    chaos_moment,
    empirical_moment,
    empirical_tail,
    hermite_tetrahedral_convergence,
    sandwich_check,
    sobolev_check,
)
from .norms import NormOptions, mixed_norm, norm_J
from .partitions import SetPartition, SplitPartition
from .poly import ProductDistribution, hermite, hermite_expansion, load_polynomial
from .rmt import WignerSpec, wigner_experiment
from .tensor import load_tensor


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _csv(header: str, rows) -> list[str]:
    """The header line, then one line per row of cells formatted by `_fmt`."""
    return [header] + [",".join(_fmt(c) for c in row) for row in rows]


def _table(records) -> list[str]:
    """Dict or dataclass records as CSV under a header of their own keys;
    None prints as `degenerate`."""
    rows = [r if isinstance(r, dict) else dataclasses.asdict(r) for r in records]
    return _csv(",".join(rows[0]), (["degenerate" if v is None else v for v in r.values()]
                                    for r in rows))


def _header(args: argparse.Namespace) -> list[str]:
    skip = {"func", "config"}
    echo = " ".join(f"{k}={v}" for k, v in sorted(vars(args).items())
                    if k not in skip and v is not None)
    return [f"# concentro {__version__}", f"# {echo}"]


def _emit(args, lines: list[str]) -> None:
    text = "\n".join(_header(args) + lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"report written to {args.out}")
    else:
        sys.stdout.write(text)


def _norm_opts(args) -> NormOptions:
    return NormOptions(restarts=args.restarts, seed=args.seed)


def _report_lines(report) -> list[str]:
    header, *rows = report.csv_rows()
    lines = _csv(",".join(header), rows)
    lines.append(f"# total={_fmt(report.total)}")
    if "tail_estimate" in report.meta:
        lines.append(f"# tail_estimate={_fmt(report.meta['tail_estimate'])}")
    return lines


# ---------------------------------------------------------------------------
# runnable commands: each returns its report lines

def _poly_law(args):
    """The polynomial and the law of its variables."""
    poly = load_polynomial(args.poly)
    return poly, ProductDistribution(args.law, p=args.pp, alpha=args.alpha)


def _mc_config(args) -> MCConfig:
    return MCConfig(N=args.N, seed=args.seed, batch=args.batch, workers=args.workers)


def _cmd_norm(args) -> list[str]:
    tens = load_tensor(args.tensor)
    part = SetPartition.parse(args.partition)
    res = norm_J(tens, part, _norm_opts(args), method=args.method)
    if args.cert_out:
        with open(args.cert_out, "w") as fh:
            json.dump({"partition": str(part), "value": res.value,
                       "blocks": [v.tolist() for v in res.certificate]}, fh)
    return _csv("value,method,certificate", [(res.value, res.method, args.cert_out or "-")])


def _cmd_mixednorm(args) -> list[str]:
    tens = load_tensor(args.tensor)
    split = SplitPartition.parse(args.split)
    return _csv("value", [(mixed_norm(tens, split, args.alpha, _norm_opts(args)),)])


def _cmd_bounds(args) -> list[str]:
    if args.law == "weibull" and (args.gamma is not None or args.L is not None):
        raise ValueError("the weibull report takes no --gamma or --L")
    if (args.gamma is None) != (args.L is None):
        raise ValueError("the Sobolev-form bound needs both --gamma and --L")
    poly, dist = _poly_law(args)
    opts = _norm_opts(args)
    if args.law == "weibull":
        report = weibull_moment_bound(poly, dist, args.p, opts)
    elif args.gamma is not None:
        report = sobolev_moment_bound(poly, dist, args.p, args.L, args.gamma, opts)
    else:
        report = gaussian_moment_bound(poly, dist, args.p, opts)
    return _report_lines(report)


def _cmd_tail(args) -> list[str]:
    poly, dist = _poly_law(args)
    if args.L == "auto":
        L = dist.psi2
        if L is None:
            raise ValueError(f"law {args.law!r} has no psi2 bound; give --L explicitly")
    else:
        L = args.L
    return _report_lines(eta_tail(poly, dist, args.t, L, c_d=args.CD, opts=_norm_opts(args)))


def _mc_moments(args) -> list[str]:
    poly, dist = _poly_law(args)
    return _table(empirical_moment(poly, dist, args.p, _mc_config(args)))


def _mc_tail(args) -> list[str]:
    poly, dist = _poly_law(args)
    return _table([empirical_tail(poly, dist, args.t, _mc_config(args))])


def _mc_chaos(args) -> list[str]:
    est = chaos_moment(load_tensor(args.tensor), args.chaos_mode, args.p, _mc_config(args))
    return _table([{"mode": args.chaos_mode, **dataclasses.asdict(est)}])


def _mc_sandwich(args) -> list[str]:
    poly, dist = _poly_law(args)
    opts = _norm_opts(args)
    bound_fn = lambda f, d, p: gaussian_moment_bound(f, d, p, opts).total
    return _table(sandwich_check(poly, dist, args.p, _mc_config(args), bound_fn,
                                 window=tuple(args.window)))


def _mc_hermite(args) -> list[str]:
    return _table(hermite_tetrahedral_convergence(args.d, args.Nlist, _mc_config(args)))


def _mc_sobolev(args) -> list[str]:
    poly, dist = _poly_law(args)
    return _table(sobolev_check(dist, poly, args.p, _mc_config(args)))


def _graphs_triangles(args) -> list[str]:
    res = er_tail_experiment(GraphSpec.cycle(3), args.n, args.p, _mc_config(args),
                             t_list=args.t or None, eps=args.eps, c=args.C)
    return [f"# expected_mean={_fmt(res.expected_mean)}",
            f"# empirical_mean={_fmt(res.mean)} stderr={_fmt(res.mean_stderr)}",
            *_table(res.rows)]


def _graphs_cyclebound(args) -> list[str]:
    part = SetPartition.parse(args.partition)
    value = subgraph_norm_bound(GraphSpec.cycle(args.k), part, args.n, args.p)
    return _csv("k,n,p,d,partition,bound", [(args.k, args.n, args.p, part.d, part, value)])


def _cmd_rmt(args) -> list[str]:
    poly = load_polynomial(args.f)
    spec = WignerSpec(args.n, convention=args.convention)
    cfg = MCConfig(N=args.replicas, seed=args.seed, batch=args.batch, workers=args.workers)
    res = wigner_experiment(poly, spec, cfg, t_list=args.t, c_l=args.CL)
    return [f"# z_mean={_fmt(res.z_mean)} z_stderr={_fmt(res.z_stderr)}",
            f"# sobolev_term={_fmt(res.sobolev_mean)} stderr={_fmt(res.sobolev_stderr)}"
            f" limit={_fmt(res.sobolev_limit)}",
            *_table(res.rows)]


def _cmd_hermite(args) -> list[str]:
    if args.poly:
        coeffs = hermite_expansion(load_polynomial(args.poly))
        return _csv("degrees,coefficient", [("|".join(str(d) for d in degrees), a)
                                            for degrees, a in sorted(coeffs.items())])
    return _csv("power,coefficient", enumerate(hermite(args.k)))


# ---------------------------------------------------------------------------
# parsers

class _Parser(argparse.ArgumentParser):
    """Matches an option by its full name only, and raises a parse error as a
    ValueError, which `dispatch` reports on one line with exit code 2."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ValueError(message)


def _add_poly_law(p: argparse.ArgumentParser) -> None:
    p.add_argument("--poly", required=True)
    p.add_argument("--law", default="gaussian",
                   choices=["gaussian", "rademacher", "bernoulli", "weibull"])
    p.add_argument("--pp", type=real, help="bernoulli coordinate probability")
    p.add_argument("--alpha", type=real, help="weibull exponent")


def _add_norm_opts(p: argparse.ArgumentParser, seed: bool = True) -> None:
    p.add_argument("--restarts", type=int, default=64)
    if seed:
        p.add_argument("--seed", type=int, default=0)


def positive_int(text: str) -> int:
    """An integer of at least 1, as --workers takes."""
    value = int(text)
    if value < 1:
        raise ValueError(text)
    return value


def real(text: str) -> float:
    """A float that is not NaN, as every float option takes; inf stays, since
    a bound such as `--window 0.1 inf` is meaningful."""
    value = float(text)
    if math.isnan(value):
        raise ValueError(text)
    return value


real.__name__ = "float"   # argparse's message keeps saying "invalid float value"


def real_or_auto(text: str):
    """`auto`, or a float that is not NaN (`real`), as `tail --L` takes."""
    return text if text == "auto" else real(text)


real_or_auto.__name__ = "float or 'auto'"


def _add_workers(p: argparse.ArgumentParser) -> None:
    # a string default goes through the type too, so a bad environment value
    # is a parse error
    p.add_argument("--workers", type=positive_int,
                   default=os.environ.get("CONCENTRO_WORKERS", "1"),
                   help="threads running Monte Carlo chunks (default $CONCENTRO_WORKERS or 1)")


def _add_chunks(p: argparse.ArgumentParser, N: int, batch: int) -> None:
    p.add_argument("--N", type=int, default=N)
    p.add_argument("--batch", type=int, default=batch)
    p.add_argument("--seed", type=int, default=0)
    _add_workers(p)


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser, and each runnable command's function mapped to
    its leaf parser and that parser's required options, built once."""
    parser = _Parser(prog="concentro")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    leaves = {}

    def leaf(group, name, func, help):
        p = group.add_parser(name, help=help)
        p.set_defaults(func=func)
        leaves[func] = p
        return p

    p = leaf(sub, "norm", _cmd_norm, "partition-indexed tensor norm")
    p.add_argument("--tensor", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--method", default="auto", choices=["auto", "als"])
    p.add_argument("--cert-out", dest="cert_out")
    _add_norm_opts(p)

    p = leaf(sub, "mixednorm", _cmd_mixednorm, "mixed-constraint norm")
    p.add_argument("--tensor", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--alpha", type=real, required=True)
    _add_norm_opts(p)

    p = leaf(sub, "bounds", _cmd_bounds, "moment-bound report")
    _add_poly_law(p)
    p.add_argument("--p", type=real, required=True)
    p.add_argument("--gamma", type=real, help="Sobolev exponent (gamma form)")
    p.add_argument("--L", type=real, help="Sobolev constant for the gamma form")
    _add_norm_opts(p)

    p = leaf(sub, "tail", _cmd_tail, "tail-exponent report")
    _add_poly_law(p)
    p.add_argument("--t", type=real, required=True)
    p.add_argument("--L", type=real_or_auto, default="auto")
    p.add_argument("--CD", type=real, default=1.0)
    _add_norm_opts(p)

    modes = sub.add_parser("mc", help="Monte Carlo estimators and checks").add_subparsers(
        dest="mode", required=True)

    def mc(name, func, help):
        p = leaf(modes, name, func, help)
        _add_chunks(p, N=100_000, batch=65536)
        return p

    p = mc("moments", _mc_moments, "moments ||f - Ef||_p")
    _add_poly_law(p)
    p.add_argument("--p", type=real, nargs="+", default=[2.0])
    p = mc("tail", _mc_tail, "tail P(|f - Ef| >= t) with a Wilson interval")
    _add_poly_law(p)
    p.add_argument("--t", type=real, default=1.0)
    p = mc("chaos", _mc_chaos, "moment of a Gaussian chaos")
    p.add_argument("--tensor", required=True)
    p.add_argument("--chaos-mode", dest="chaos_mode", default="decoupled",
                   choices=["decoupled", "undecoupled"])
    p.add_argument("--p", type=real, default=2.0)
    p = mc("sandwich", _mc_sandwich, "moments against the Gaussian bound")
    _add_poly_law(p)
    p.add_argument("--p", type=real, nargs="+", default=[2.0])
    p.add_argument("--window", type=real, nargs=2, default=[0.1, 10.0])
    _add_norm_opts(p, seed=False)   # the sampler's --seed seeds the solver too
    p = mc("hermite", _mc_hermite, "Hermite tetrahedral convergence")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--Nlist", type=int, nargs="+", default=[10, 100, 1000])
    p = mc("sobolev", _mc_sobolev, "the Sobolev moment inequality")
    _add_poly_law(p)
    p.add_argument("--p", type=real, nargs="+", default=[2.0])

    modes = sub.add_parser("graphs", help="subgraph counting experiments").add_subparsers(
        dest="mode", required=True)
    p = leaf(modes, "triangles", _graphs_triangles, "Erdős–Rényi triangle-count tails")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=real, required=True)
    p.add_argument("--eps", type=real)
    p.add_argument("--t", type=real, nargs="+")
    p.add_argument("--C", type=real, default=1.0)
    _add_chunks(p, N=10_000, batch=1024)
    p = leaf(modes, "cyclebound", _graphs_cyclebound, "norm bound for k-cycle counts")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=real, required=True)
    p.add_argument("--partition", default="1", help="its order is the derivative order d")

    p = leaf(sub, "rmt", _cmd_rmt, "Wigner linear-statistics experiment")
    p.add_argument("--f", required=True, help="one-variable polynomial JSON")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--replicas", type=int, default=1000)
    p.add_argument("--batch", type=int, default=256)
    p.add_argument("--t", type=real, nargs="+", default=[1.0])
    p.add_argument("--CL", type=real, default=1.0)
    p.add_argument("--convention", default="paper", choices=["paper", "goe"])
    p.add_argument("--seed", type=int, default=0)
    _add_workers(p)

    p = leaf(sub, "hermite", _cmd_hermite, "Hermite coefficients or expansion")
    g = p.add_mutually_exclusive_group()
    # a string default goes through the type too, so an explicit --k 3 is not
    # the default object, which the exclusion check would let pass
    g.add_argument("--k", type=int, default="3")
    g.add_argument("--poly", help="expand this polynomial instead")

    for p in leaves.values():
        p.add_argument("--config", help="JSON file of option values; flags override")
        p.add_argument("--out", help="write the report here instead of stdout")
    # --config may supply a required option, so dispatch checks them after reading it
    required = {func: [a for a in p._actions if a.required] for func, p in leaves.items()}
    for action in sum(required.values(), []):
        action.required = False
    return parser, {func: (p, required[func]) for func, p in leaves.items()}


def _config_argv(path: str, leaf: argparse.ArgumentParser) -> list[str]:
    """The config file's values written as the leaf's own flags: `--opt=text`
    for a single value, `--opt item ...` for a list given to an option that
    takes several; null keeps the default.  The leaf parses them once alone, so
    that a bad value's error names the file."""
    with open(path) as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    actions = {a.dest: a for a in leaf._actions if a.dest not in ("help", "config")}
    unknown = sorted(set(config) - set(actions))
    if unknown:
        raise ValueError(f"config {path}: unknown key {', '.join(unknown)}"
                         f" for {leaf.prog.split(maxsplit=1)[1]}")
    argv = []
    for key, value in config.items():
        flag = actions[key].option_strings[0]
        if isinstance(value, list) and actions[key].nargs is not None:
            argv += [flag, *map(str, value)]
        elif value is not None:
            argv.append(f"{flag}={value}")
    try:
        leaf.parse_args(argv)
    except ValueError as exc:
        raise ValueError(f"config {path}: {exc}") from None
    return argv


def dispatch(argv) -> int:
    parser, leaves = _parsers()
    try:
        args = parser.parse_args(argv)
        leaf, required = leaves[args.func]
        if args.config:
            # the command words precede the leaf's flags; a given flag comes
            # after the config's and so overrides it
            words = len(leaf.prog.split()) - 1
            args = parser.parse_args(argv[:words] + _config_argv(args.config, leaf) + argv[words:])
        missing = ["/".join(a.option_strings) for a in required if getattr(args, a.dest) is None]
        if missing:
            raise ValueError(f"the following arguments are required: {', '.join(missing)}")
        _emit(args, args.func(args))
        return 0
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return dispatch(sys.argv[1:] if argv is None else list(argv))


if __name__ == "__main__":
    sys.exit(main())
