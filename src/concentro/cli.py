"""Command line surface: one binary, subcommand style, JSON inputs and CSV
reports.

Every option a subcommand declares is read, and an `mc` mode rejects a value
off the default for an option that only other modes read.  Only `mc`, `graphs`
and `rmt` run Monte Carlo chunks, so only they take --workers, whose default
`CONCENTRO_WORKERS` is read once per process, when the parser is built.  The
norm solvers take --restarts and --seed; their tolerance and sweep cap are the
constants `norms.ALS_TOL` and `norms.ALS_MAX_SWEEPS`.  A JSON config file
(--config) sets defaults for the subcommand's options, required ones too.  Each
value is parsed as its text would be on the command line (`{"N": 3000.0}`
fails as `--N 3000.0` does; null keeps the option's default), then installed
on a copy of the subcommand's parser, which parses the command line again, so
flags given there override the config and no run's config reaches the next
run.  A key that names no option of the subcommand is an error.  Every report
embeds the version, the seed, and the full parameter echo in '#' comment
lines, and is byte-reproducible for a fixed config.  Exit code 2 signals a
validation failure with a one-line diagnostic.
"""

from __future__ import annotations

import argparse
import copy
import functools
import json
import os
import sys

from . import __version__
from .bounds import eta_tail, gaussian_moment_bound, sobolev_moment_bound, weibull_moment_bound
from .graphs import GraphSpec, cycle_norm_bound, er_tail_experiment
from .montecarlo import (
    TAIL_COLUMNS,
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


def _tail_lines(rows) -> list[str]:
    return _csv(",".join(TAIL_COLUMNS), ([r[k] for k in TAIL_COLUMNS] for r in rows))


def _default_workers() -> int:
    try:
        return max(1, int(os.environ.get("CONCENTRO_WORKERS", "1")))
    except ValueError:
        return 1


def _header(args: argparse.Namespace) -> list[str]:
    skip = {"func", "config"}
    echo = " ".join(f"{k}={v}" for k, v in sorted(vars(args).items())
                    if k not in skip and v is not None)
    return [f"# concentro {__version__}", f"# {echo}"]


def _emit(args, lines: list[str]) -> None:
    text = "\n".join(_header(args) + lines) + "\n"
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        print(f"report written to {out}")
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
# subcommands

def _cmd_norm(args) -> int:
    tens = load_tensor(args.tensor)
    part = SetPartition.parse(args.partition, d=tens.order)
    res = norm_J(tens, part, _norm_opts(args), method=args.method)
    if args.cert_out:
        with open(args.cert_out, "w") as fh:
            json.dump({"partition": str(part), "value": res.value,
                       "blocks": [v.tolist() for v in res.certificate]}, fh)
    _emit(args, _csv("value,method,certificate",
                     [(res.value, res.method, args.cert_out or "-")]))
    return 0


def _cmd_mixednorm(args) -> int:
    tens = load_tensor(args.tensor)
    split = SplitPartition.parse(args.split, d=tens.order)
    _emit(args, _csv("value", [(mixed_norm(tens, split, args.alpha, _norm_opts(args)),)]))
    return 0


def _cmd_bounds(args) -> int:
    if args.law == "weibull" and (args.gamma is not None or args.L is not None):
        raise ValueError("the weibull report takes no --gamma or --L")
    if (args.gamma is None) != (args.L is None):
        raise ValueError("the Sobolev-form bound needs both --gamma and --L")
    poly = load_polynomial(args.poly)
    dist = ProductDistribution(args.law, poly.nvars, p=args.pp, alpha=args.alpha)
    opts = _norm_opts(args)
    if args.law == "weibull":
        report = weibull_moment_bound(poly, dist, args.p, args.alpha, opts)
    elif args.gamma is not None:
        report = sobolev_moment_bound(poly, dist, args.p, float(args.L), args.gamma, opts)
    else:
        report = gaussian_moment_bound(poly, dist, args.p, opts)
    _emit(args, _report_lines(report))
    return 0


def _cmd_tail(args) -> int:
    poly = load_polynomial(args.poly)
    dist = ProductDistribution(args.law, poly.nvars, p=args.pp, alpha=args.alpha)
    if args.L == "auto":
        L = dist.psi2
        if L is None:
            raise ValueError(f"law {args.law!r} has no psi2 bound; give --L explicitly")
    else:
        L = float(args.L)
    report = eta_tail(poly, dist, args.t, L, c_d=args.CD, opts=_norm_opts(args))
    _emit(args, _report_lines(report))
    return 0


def _mc_law(args):
    """The polynomial and its law, for the modes that sample one."""
    if args.poly is None:
        raise ValueError(f"mc {args.mode} needs --poly")
    poly = load_polynomial(args.poly)
    return poly, ProductDistribution(args.law, poly.nvars, p=args.pp, alpha=args.alpha)


def _mc_moments(args, cfg) -> list[str]:
    poly, dist = _mc_law(args)
    ests = empirical_moment(poly, dist, args.p, cfg, args.workers)
    return _csv("p,value,stderr,N", [(e.p, e.value, e.stderr, e.N) for e in ests])


def _mc_tail(args, cfg) -> list[str]:
    poly, dist = _mc_law(args)
    est = empirical_tail(poly, dist, args.t, cfg, args.workers)
    return _csv("t,probability,wilson_low,wilson_high,N",
                [(est.t, est.probability, est.wilson_low, est.wilson_high, est.N)])


def _mc_chaos(args, cfg) -> list[str]:
    if args.tensor is None:
        raise ValueError("mc chaos needs --tensor")
    if len(args.p) != 1:
        raise ValueError("mc chaos takes one --p")
    est = chaos_moment(load_tensor(args.tensor), args.chaos_mode, args.p[0], cfg, args.workers)
    return _csv("mode,p,value,stderr,N", [(args.chaos_mode, est.p, est.value, est.stderr, est.N)])


def _mc_sandwich(args, cfg) -> list[str]:
    poly, dist = _mc_law(args)
    opts = _norm_opts(args)
    bound_fn = lambda f, d, p: gaussian_moment_bound(f, d, p, opts)
    rows = sandwich_check(poly, dist, args.p, cfg, bound_fn,
                          window=tuple(args.window), workers=args.workers)
    return _csv("p,empirical,stderr,bound,ratio,status",
                [(r["p"], r["empirical"], r["stderr"], r["bound"],
                  "degenerate" if r["ratio"] is None else r["ratio"], r["status"])
                 for r in rows])


def _mc_hermite(args, cfg) -> list[str]:
    rows = hermite_tetrahedral_convergence(args.d, args.Nlist, cfg, args.workers)
    return _csv("N,mean_sq_error,stderr", [(r["N"], r["mean_sq_error"], r["stderr"]) for r in rows])


def _mc_sobolev(args, cfg) -> list[str]:
    poly, dist = _mc_law(args)
    rows = sobolev_check(dist, poly, args.p, cfg, args.workers)
    return _csv("p,lhs,rhs,ratio,status",
                [(r["p"], r["lhs"], r["rhs"],
                  "degenerate" if r["ratio"] is None else r["ratio"], r["status"])
                 for r in rows])


# each mode's function, and the options of `mc` that it reads and some other
# mode does not (tests/test_hygiene.py checks them); every mode reads the rest
_MC_MODES = {
    "moments": (_mc_moments, ("poly", "law", "pp", "alpha", "p")),
    "tail": (_mc_tail, ("poly", "law", "pp", "alpha", "t")),
    "chaos": (_mc_chaos, ("tensor", "chaos_mode", "p")),
    "sandwich": (_mc_sandwich, ("poly", "law", "pp", "alpha", "p", "window", "restarts")),
    "hermite": (_mc_hermite, ("d", "Nlist")),
    "sobolev": (_mc_sobolev, ("poly", "law", "pp", "alpha", "p")),
}


def _cmd_mc(args) -> int:
    run, reads = _MC_MODES[args.mode]
    others = set().union(*(r for _, r in _MC_MODES.values())) - set(reads)
    ignored = ["/".join(a.option_strings) for a in _parsers()[1]["mc"]._actions
               if a.dest in others and getattr(args, a.dest) != a.default]
    if ignored:
        raise ValueError(f"mc {args.mode} does not read {', '.join(ignored)}")
    cfg = MCConfig(N=args.N, seed=args.seed, batch=args.batch)
    _emit(args, run(args, cfg))
    return 0


def _cmd_graphs(args) -> int:
    if args.mode == "triangles":
        cfg = MCConfig(N=args.N, seed=args.seed, batch=args.batch)
        res = er_tail_experiment(GraphSpec.cycle(3), args.n, args.p, cfg,
                                 t_list=args.t or None, eps=args.eps, c=args.C,
                                 workers=args.workers)
        lines = [f"# expected_mean={_fmt(res.expected_mean)}",
                 f"# empirical_mean={_fmt(res.mean)} stderr={_fmt(res.mean_stderr)}",
                 *_tail_lines(res.rows)]
    else:
        part = SetPartition.parse(args.partition, d=args.d)
        value = cycle_norm_bound(GraphSpec.cycle(args.k), args.d, part, args.n, args.p)
        lines = _csv("k,n,p,d,partition,bound", [(args.k, args.n, args.p, args.d, part, value)])
    _emit(args, lines)
    return 0


def _cmd_rmt(args) -> int:
    poly = load_polynomial(args.f)
    spec = WignerSpec(args.n, convention=args.convention)
    cfg = MCConfig(N=args.replicas, seed=args.seed, batch=args.batch)
    res = wigner_experiment(poly, spec, cfg, t_list=args.t, c_l=args.CL,
                            workers=args.workers)
    lines = [f"# z_mean={_fmt(res.z_mean)} z_stderr={_fmt(res.z_stderr)}",
             f"# sobolev_term={_fmt(res.sobolev_mean)} stderr={_fmt(res.sobolev_stderr)}"
             f" limit={_fmt(res.sobolev_limit)}",
             *_tail_lines(res.rows)]
    _emit(args, lines)
    return 0


def _cmd_hermite(args) -> int:
    if args.poly:
        coeffs = hermite_expansion(load_polynomial(args.poly))
        lines = _csv("degrees,coefficient", [("|".join(str(d) for d in degrees), a)
                                             for degrees, a in sorted(coeffs.items())])
    else:
        lines = _csv("power,coefficient", enumerate(hermite(args.k).coeffs))
    _emit(args, lines)
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_law(p: argparse.ArgumentParser) -> None:
    p.add_argument("--law", default="gaussian",
                   choices=["gaussian", "rademacher", "bernoulli", "weibull"])
    p.add_argument("--pp", type=float, help="bernoulli coordinate probability")
    p.add_argument("--alpha", type=float, help="weibull exponent")


def _add_norm_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--restarts", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file of defaults; flags override")
    p.add_argument("--out", help="write the report here instead of stdout")


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict, dict]:
    """The top-level parser, and the subcommand parsers and their required
    options by name, built once."""
    parser = argparse.ArgumentParser(prog="concentro")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("norm", help="partition-indexed tensor norm")
    p.add_argument("--tensor", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--method", default="auto", choices=["auto", "als"])
    p.add_argument("--cert-out", dest="cert_out")
    _add_norm_opts(p)
    _add_common(p)
    p.set_defaults(func=_cmd_norm)

    p = sub.add_parser("mixednorm", help="mixed-constraint norm")
    p.add_argument("--tensor", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--alpha", type=float, required=True)
    _add_norm_opts(p)
    _add_common(p)
    p.set_defaults(func=_cmd_mixednorm)

    p = sub.add_parser("bounds", help="moment-bound report")
    p.add_argument("--poly", required=True)
    _add_law(p)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--gamma", type=float, help="Sobolev exponent (gamma form)")
    p.add_argument("--L", help="Sobolev constant for the gamma form")
    _add_norm_opts(p)
    _add_common(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("tail", help="tail-exponent report")
    p.add_argument("--poly", required=True)
    _add_law(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--L", default="auto")
    p.add_argument("--CD", type=float, default=1.0)
    _add_norm_opts(p)
    _add_common(p)
    p.set_defaults(func=_cmd_tail)

    p = sub.add_parser("mc", help="Monte Carlo estimators and checks")
    p.add_argument("mode", choices=["moments", "tail", "chaos", "sandwich",
                                    "hermite", "sobolev"])
    p.add_argument("--poly")
    p.add_argument("--tensor")
    _add_law(p)
    p.add_argument("--N", type=int, default=100_000)
    p.add_argument("--batch", type=int, default=65536)
    p.add_argument("--p", type=float, nargs="+", default=[2.0])
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--chaos-mode", dest="chaos_mode", default="decoupled",
                   choices=["decoupled", "undecoupled"])
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--Nlist", type=int, nargs="+", default=[10, 100, 1000])
    p.add_argument("--window", type=float, nargs=2, default=[0.1, 10.0])
    _add_norm_opts(p)
    p.add_argument("--workers", type=int, default=_default_workers())
    _add_common(p)
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("graphs", help="subgraph counting experiments")
    p.add_argument("mode", choices=["triangles", "cyclebound"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--N", type=int, default=10_000)
    p.add_argument("--batch", type=int, default=1024)
    p.add_argument("--eps", type=float)
    p.add_argument("--t", type=float, nargs="+")
    p.add_argument("--C", type=float, default=1.0)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--partition", default="1")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=_default_workers())
    _add_common(p)
    p.set_defaults(func=_cmd_graphs)

    p = sub.add_parser("rmt", help="Wigner linear-statistics experiment")
    p.add_argument("--f", required=True, help="one-variable polynomial JSON")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--replicas", type=int, default=1000)
    p.add_argument("--batch", type=int, default=256)
    p.add_argument("--t", type=float, nargs="+", default=[1.0])
    p.add_argument("--CL", type=float, default=1.0)
    p.add_argument("--convention", default="paper", choices=["paper", "goe"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=_default_workers())
    _add_common(p)
    p.set_defaults(func=_cmd_rmt)

    p = sub.add_parser("hermite", help="Hermite coefficients or expansion")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--poly", help="expand this polynomial instead")
    _add_common(p)
    p.set_defaults(func=_cmd_hermite)

    # --config may supply a required option, so dispatch checks them after reading it
    required = {name: [a for a in p._actions if a.required and a.option_strings]
                for name, p in sub.choices.items()}
    for action in sum(required.values(), []):
        action.required = False
    return parser, sub.choices, required


def _config_value(action: argparse.Action, value, where: str):
    """A config value parsed as its text would be on the command line: each
    element through the option's type and choices, and a list, of the declared
    length, where the option takes several values."""
    convert = action.type or str

    def parse(item):
        try:
            parsed = convert(str(item))
        except ValueError:
            raise ValueError(f"{where}: invalid {convert.__name__} value {item!r}") from None
        if action.choices is not None and parsed not in action.choices:
            raise ValueError(f"{where}: {item!r} is not one of {', '.join(action.choices)}")
        return parsed

    if action.nargs is None:
        return parse(value)
    items = value if isinstance(value, list) else [value]
    if not items or isinstance(action.nargs, int) and len(items) != action.nargs:
        wanted = "one or more" if action.nargs == "+" else action.nargs
        raise ValueError(f"{where}: takes {wanted} values, got {len(items)}")
    return [parse(item) for item in items]


def dispatch(argv) -> int:
    parser, commands, required = _parsers()
    try:
        args = parser.parse_args(argv)
        command = commands[args.command]
        if args.config:
            with open(args.config) as fh:
                config = json.load(fh)
            if not isinstance(config, dict):
                raise ValueError(f"config {args.config} must hold a JSON object")
            unknown = sorted(set(config) - (set(vars(args)) - {"command", "func", "config"}))
            if unknown:
                raise ValueError(f"config {args.config}: unknown key {', '.join(unknown)}"
                                 f" for {args.command}")
            actions = {a.dest: a for a in command._actions}
            config = {key: _config_value(actions[key], value, f"config {args.config}: {key}")
                      for key, value in config.items() if value is not None}
            # a copy, so that the cached parser keeps its own defaults
            command = copy.deepcopy(command)
            command.set_defaults(**config)
            args = command.parse_args(argv[1:], argparse.Namespace(command=args.command))
        missing = ["/".join(a.option_strings) for a in required[args.command]
                   if getattr(args, a.dest) is None]
        if missing:
            command.error(f"the following arguments are required: {', '.join(missing)}")
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return dispatch(sys.argv[1:] if argv is None else list(argv))


if __name__ == "__main__":
    sys.exit(main())
