"""Command line surface: one binary, subcommand style, JSON inputs and CSV
reports.

A JSON config file (--config) sets defaults for the subcommand's options;
flags given on the command line override them, and a key that names no
option of the subcommand is an error.  Every report embeds the version, the
seed, and the full parameter echo in '#' comment lines, and is
byte-reproducible for a fixed config.  Exit code 2 signals a validation
failure with a one-line diagnostic.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .bounds import eta_tail, gaussian_moment_bound, sobolev_moment_bound, weibull_moment_bound
from .graphs import GraphSpec, cycle_norm_bound, er_tail_experiment
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
from .poly import (
    Polynomial,
    ProductDistribution,
    hermite,
    hermite_expansion,
    load_polynomial,
)
from .rmt import WignerSpec, wigner_experiment
from .tensor import load_tensor


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


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


def _dist(args, n: int) -> ProductDistribution:
    law = args.law
    if law == "gaussian":
        return ProductDistribution.gaussian(n)
    if law == "rademacher":
        return ProductDistribution.rademacher(n)
    if law == "bernoulli":
        if args.pp is None:
            raise ValueError("bernoulli law needs --pp")
        return ProductDistribution.bernoulli(n, args.pp)
    if law == "weibull":
        if args.alpha is None:
            raise ValueError("weibull law needs --alpha")
        return ProductDistribution.weibull(n, args.alpha)
    raise ValueError(f"unknown law {law!r}")


def _norm_opts(args) -> NormOptions:
    return NormOptions(restarts=args.restarts, tol=args.tol,
                       max_sweeps=args.max_sweeps, seed=args.seed)


def _report_lines(report) -> list[str]:
    rows = report.csv_rows()
    lines = [",".join(str(c) for c in next(rows))]
    for row in rows:
        lines.append(",".join(_fmt(c) for c in row))
    lines.append(f"# total={_fmt(report.total)}")
    for key in ("tail_estimate",):
        if key in report.meta:
            lines.append(f"# {key}={_fmt(report.meta[key])}")
    return lines


# ---------------------------------------------------------------------------
# subcommands

def _cmd_norm(args) -> int:
    tens = load_tensor(args.tensor)
    part = SetPartition.parse(args.partition, d=tens.order)
    res = norm_J(tens, part, _norm_opts(args), method=args.method)
    cert_path = args.cert_out or args.tensor + ".cert.json"
    with open(cert_path, "w") as fh:
        json.dump({"partition": str(part), "value": res.value,
                   "blocks": [v.tolist() for v in res.certificate]}, fh)
    _emit(args, ["value,method,certificate",
                 f"{_fmt(res.value)},{res.method},{cert_path}"])
    return 0


def _cmd_mixednorm(args) -> int:
    tens = load_tensor(args.tensor)
    split = SplitPartition.parse(args.split, d=tens.order)
    value = mixed_norm(tens, split, args.alpha, _norm_opts(args))
    _emit(args, ["value", _fmt(value)])
    return 0


def _cmd_bounds(args) -> int:
    poly = load_polynomial(args.poly)
    dist = _dist(args, poly.nvars)
    opts = _norm_opts(args)
    if args.alpha is not None and args.law == "weibull":
        report = weibull_moment_bound(poly, dist, args.p, args.alpha, opts)
    elif args.gamma is not None:
        if args.L is None:
            raise ValueError("the Sobolev-form bound needs --L")
        report = sobolev_moment_bound(poly, dist, args.p, float(args.L), args.gamma, opts)
    else:
        report = gaussian_moment_bound(poly, dist, args.p, opts)
    _emit(args, _report_lines(report))
    return 0


def _cmd_tail(args) -> int:
    poly = load_polynomial(args.poly)
    dist = _dist(args, poly.nvars)
    if args.L == "auto":
        L = dist.psi2
        if L is None:
            raise ValueError(f"law {args.law!r} has no psi2 bound; give --L explicitly")
    else:
        L = float(args.L)
    report = eta_tail(poly, dist, args.t, L, c_d=args.CD, opts=_norm_opts(args))
    _emit(args, _report_lines(report))
    return 0


def _cmd_mc(args) -> int:
    workers = args.workers
    if args.mode in ("moments", "tail", "sandwich", "sobolev"):
        poly = load_polynomial(args.poly)
        dist = _dist(args, poly.nvars)
    if args.mode == "moments":
        cfg = MCConfig(N=args.N, seed=args.seed, p_list=tuple(args.p), batch=args.batch)
        ests = empirical_moment(poly, dist, cfg, workers)
        lines = ["p,value,stderr,N"]
        lines += [f"{_fmt(e.p)},{_fmt(e.value)},{_fmt(e.stderr)},{e.N}" for e in ests]
    elif args.mode == "tail":
        cfg = MCConfig(N=args.N, seed=args.seed, batch=args.batch)
        est = empirical_tail(poly, dist, args.t, cfg, workers)
        lines = ["t,probability,wilson_low,wilson_high,N",
                 ",".join(_fmt(v) for v in (est.t, est.probability, est.wilson_low,
                                            est.wilson_high)) + f",{est.N}"]
    elif args.mode == "chaos":
        tens = load_tensor(args.tensor)
        cfg = MCConfig(N=args.N, seed=args.seed, batch=args.batch)
        est = chaos_moment(tens, args.chaos_mode, args.p[0], cfg, workers)
        lines = ["mode,p,value,stderr,N",
                 f"{args.chaos_mode},{_fmt(est.p)},{_fmt(est.value)},{_fmt(est.stderr)},{est.N}"]
    elif args.mode == "sandwich":
        cfg = MCConfig(N=args.N, seed=args.seed, p_list=tuple(args.p), batch=args.batch)
        opts = _norm_opts(args)
        bound_fn = lambda f, d, p: gaussian_moment_bound(f, d, p, opts)
        rows = sandwich_check(poly, dist, args.p, cfg, bound_fn,
                              window=(args.window[0], args.window[1]), workers=workers)
        lines = ["p,empirical,stderr,bound,ratio,status"]
        for r in rows:
            ratio = "degenerate" if r["ratio"] is None else _fmt(r["ratio"])
            lines.append(f"{_fmt(r['p'])},{_fmt(r['empirical'])},{_fmt(r['stderr'])},"
                         f"{_fmt(r['bound'])},{ratio},{r['status']}")
    elif args.mode == "hermite":
        cfg = MCConfig(N=args.N, seed=args.seed, batch=args.batch)
        rows = hermite_tetrahedral_convergence(args.d, args.Nlist, cfg, workers)
        lines = ["N,mean_sq_error,stderr"]
        lines += [f"{r['N']},{_fmt(r['mean_sq_error'])},{_fmt(r['stderr'])}" for r in rows]
    elif args.mode == "sobolev":
        cfg = MCConfig(N=args.N, seed=args.seed, p_list=tuple(args.p), batch=args.batch)
        rows = sobolev_check(dist, poly, args.p, cfg, workers)
        lines = ["p,lhs,rhs,ratio,status"]
        for r in rows:
            ratio = "degenerate" if r["ratio"] is None else _fmt(r["ratio"])
            lines.append(f"{_fmt(r['p'])},{_fmt(r['lhs'])},{_fmt(r['rhs'])},"
                         f"{ratio},{r['status']}")
    else:
        raise ValueError(f"unknown mc mode {args.mode!r}")
    _emit(args, lines)
    return 0


def _cmd_graphs(args) -> int:
    if args.mode == "triangles":
        cfg = MCConfig(N=args.N, seed=args.seed, batch=args.batch)
        t_list = args.t if args.t else None
        res = er_tail_experiment(GraphSpec.cycle(3), args.n, args.p, cfg,
                                 t_list=t_list, eps=args.eps, c=args.C,
                                 workers=args.workers)
        lines = [f"# expected_mean={_fmt(res.expected_mean)}",
                 f"# empirical_mean={_fmt(res.mean)} stderr={_fmt(res.mean_stderr)}",
                 "t,tail,wilson_low,wilson_high,bound"]
        for r in res.rows:
            lines.append(",".join(_fmt(r[k]) for k in
                                  ("t", "tail", "wilson_low", "wilson_high", "bound")))
    elif args.mode == "cyclebound":
        part = SetPartition.parse(args.partition, d=args.d)
        value = cycle_norm_bound(GraphSpec.cycle(args.k), args.d, part, args.n, args.p)
        lines = ["k,n,p,d,partition,bound",
                 f"{args.k},{args.n},{_fmt(args.p)},{args.d},{part},{_fmt(value)}"]
    else:
        raise ValueError(f"unknown graphs mode {args.mode!r}")
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
             "t,tail,wilson_low,wilson_high,bound"]
    for r in res.rows:
        lines.append(",".join(_fmt(r[k]) for k in
                              ("t", "tail", "wilson_low", "wilson_high", "bound")))
    _emit(args, lines)
    return 0


def _cmd_hermite(args) -> int:
    if args.poly:
        poly = load_polynomial(args.poly)
        coeffs = hermite_expansion(poly)
        lines = ["degrees,coefficient"]
        for degrees, a in sorted(coeffs.items()):
            lines.append(f"{'|'.join(str(d) for d in degrees)},{_fmt(a)}")
    else:
        h = hermite(args.k)
        lines = ["power,coefficient"]
        lines += [f"{p},{c}" for p, c in enumerate(h.coeffs)]
    _emit(args, lines)
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_norm_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--restarts", type=int, default=64)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-sweeps", dest="max_sweeps", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file of defaults; flags override")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--workers", type=int, default=_default_workers())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="concentro")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("norm", help="partition-indexed tensor norm")
    p.add_argument("--tensor", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--method", default="auto",
                   choices=["auto", "frobenius", "matricization-spectral", "als"])
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
    p.add_argument("--law", default="gaussian",
                   choices=["gaussian", "rademacher", "bernoulli", "weibull"])
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--pp", type=float, help="bernoulli coordinate probability")
    p.add_argument("--alpha", type=float, help="weibull exponent (split bound)")
    p.add_argument("--gamma", type=float, help="Sobolev exponent (gamma form)")
    p.add_argument("--L", help="Sobolev constant for the gamma form")
    _add_norm_opts(p)
    _add_common(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("tail", help="tail-exponent report")
    p.add_argument("--poly", required=True)
    p.add_argument("--law", default="gaussian",
                   choices=["gaussian", "rademacher", "bernoulli", "weibull"])
    p.add_argument("--pp", type=float)
    p.add_argument("--alpha", type=float)
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
    p.add_argument("--law", default="gaussian",
                   choices=["gaussian", "rademacher", "bernoulli", "weibull"])
    p.add_argument("--pp", type=float)
    p.add_argument("--alpha", type=float)
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
    _add_common(p)
    p.set_defaults(func=_cmd_rmt)

    p = sub.add_parser("hermite", help="Hermite coefficients or expansion")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--poly", help="expand this polynomial instead")
    _add_common(p)
    p.set_defaults(func=_cmd_hermite)

    return parser


def _command_parser(parser: argparse.ArgumentParser, command: str) -> argparse.ArgumentParser:
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]


def _apply_config(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Install the JSON config of `args.config` as the subcommand's defaults,
    so that flags given on the command line still override it."""
    with open(args.config) as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError(f"config {args.config} must hold a JSON object")
    command = _command_parser(parser, args.command)
    known = {a.dest for a in command._actions} - {"help", "config"}
    unknown = sorted(set(config) - known)
    if unknown:
        raise ValueError(f"config {args.config}: unknown key {', '.join(unknown)}"
                         f" for {args.command}")
    command.set_defaults(**config)


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            _apply_config(parser, args)
            args = parser.parse_args(argv)
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
