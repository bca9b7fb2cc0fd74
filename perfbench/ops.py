"""Workload inputs and operations.

A workload is a fixed round of operations, cycled in a closed loop: one
operation at a time, the next only after the previous one returned.  Every
input is generated from the workload seed at set-up and written as the JSON
files the CLI reads; the program receives only those inputs.

An operation has a kind, and each kind feeds one throughput metric:

    report  -> reports_per_s          oracle -> oracle_tensors_per_s
    mc      -> mc_samples_per_s       er     -> er_graphs_per_s
    rmt     -> wigner_replicas_per_s

Each run reports every metric, so a workload whose own round has no
operation of some kind carries a few small operations of that kind per round
(`_side_ops`).  Its metric is measured on those alone; the main metric of
the workload is unaffected, since every throughput divides by the time spent
in its own kind only.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks

KINDS = ("report", "oracle", "mc", "er", "rmt")


class OpFailed(Exception):
    pass


@dataclass
class Op:
    name: str
    kind: str
    units: int                       # reports, tensors, samples, graphs or replicas
    run: Callable[[], object]
    check: Callable[[object], list]  # output -> problems
    output: object = None            # the first measured output, kept for the checks
    warm: Callable[[], object] | None = None   # a smaller run of the same code, for set-up


class Workspace:
    """Input files of one run and the program's modules, looked up at call
    time so that tracing wrappers installed later are used."""

    def __init__(self, root: str, seed: int):
        import concentro.cli
        import concentro.graphs
        import concentro.montecarlo
        import concentro.norms
        import concentro.partitions
        import concentro.rmt
        import concentro.tensor

        self.root = root
        self.seed = seed
        self.cli = concentro.cli
        self.graphs = concentro.graphs
        self.mc = concentro.montecarlo
        self.norms = concentro.norms
        self.partitions = concentro.partitions
        self.rmt = concentro.rmt
        self.tensor = concentro.tensor
        self.problems: list[str] = []    # input-generation checks
        os.makedirs(root, exist_ok=True)

    def rng(self, *salt: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *salt])

    def path(self, name: str) -> str:
        return os.path.join(self.root, name)

    def write_poly(self, name: str, nvars: int, terms: dict) -> str:
        doc = {"nvars": nvars, "terms": [{"exps": [list(vp) for vp in key], "coef": c}
                                         for key, c in sorted(terms.items())]}
        path = self.path(name + ".poly.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return path

    def write_tensor(self, name: str, values: np.ndarray) -> str:
        path = self.path(name + ".tensor.json")
        with open(path, "w") as fh:
            json.dump({"order": values.ndim, "dim": values.shape[0],
                       "values": values.ravel().tolist()}, fh)
        return path

    def counting_poly(self, k: int, n: int, own: dict) -> dict:
        """The program's cycle-count polynomial (ordered copies over 2k), which
        must equal the benchmark's own cycle enumeration."""
        h = self.graphs.GraphSpec.cycle(k)
        poly = self.graphs.counting_polynomial(h, n) * (1.0 / h.aut_size)
        if poly.terms != own:
            self.problems.append(f"counting_polynomial({k}-cycle, n={n}) differs from"
                                 " the own cycle enumeration")
        return poly.terms

    def build_offdiagonal_symmetric(self, raw: np.ndarray) -> np.ndarray:
        t = self.tensor.symmetrize(self.tensor.Tensor(raw))
        return self.tensor.apply_mask(t, self.tensor.IndexMask.off_diagonal()).values

    def run_cli(self, argv: list) -> str:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.cli.main(argv)
        if rc != 0:
            raise OpFailed(f"concentro {' '.join(argv)} exited {rc}")
        return buf.getvalue()

    def cli_op(self, name: str, kind: str, argv: list, check, units: int = 1) -> Op:
        small = [_shrink(prev, a) for prev, a in zip([None] + argv, argv)]
        warm = (lambda: self.run_cli(small)) if small != argv else None
        return Op(name, kind, units, lambda: self.run_cli(argv), check, warm=warm)


def _shrink(flag, value):
    """The warm-up size of a flag's value: the same code on less work."""
    return {"--N": lambda v: str(min(int(v), 2000)), "--replicas": lambda v: "21",
            "--n": lambda v: str(min(int(v), 12))}.get(flag, lambda v: v)(value)


# ---------------------------------------------------------------------------
# polynomials

def monomials(nvars: int, degree: int) -> list[tuple]:
    out = []
    for d in range(1, degree + 1):
        for c in itertools.combinations_with_replacement(range(1, nvars + 1), d):
            out.append(tuple(sorted((v, c.count(v)) for v in set(c))))
    return out


def random_poly(rng, nvars: int, degree: int, nterms: int) -> dict:
    """`nterms` distinct monomials of degree 1..degree (at least one of top
    degree) with standard normal coefficients."""
    ms = monomials(nvars, degree)
    top = [m for m in ms if sum(p for _, p in m) == degree]
    pick = rng.choice(len(ms), size=min(nterms, len(ms)), replace=False)
    terms = {ms[i]: float(rng.standard_normal()) for i in pick}
    terms[top[int(rng.integers(len(top)))]] = float(rng.standard_normal())
    return terms


def quadratic_form(rng, nvars: int):
    """b.x + sum_{i<j} a_ij x_i x_j; returns (terms, b, symmetric A)."""
    b = rng.standard_normal(nvars)
    a = np.zeros((nvars, nvars))
    terms = {((i + 1, 1),): float(b[i]) for i in range(nvars)}
    for i, j in itertools.combinations(range(nvars), 2):
        a[i, j] = a[j, i] = rng.standard_normal()
        terms[((i + 1, 1), (j + 1, 1))] = float(a[i, j])
    return terms, b, a


def multilinear(rng, nvars: int, degree: int) -> dict:
    """Every square-free monomial up to `degree`: for a mean-zero law its
    expected derivative tensors hold the coefficients and no moments."""
    return {tuple((v, 1) for v in c): float(rng.standard_normal())
            for d in range(1, degree + 1)
            for c in itertools.combinations(range(1, nvars + 1), d)}


def cycle_terms(k: int, n: int) -> dict:
    """Unordered k-cycle count over the edges of K_n, edges indexed
    lexicographically: one square-free monomial per cycle."""
    index = {e: i + 1 for i, e in enumerate(itertools.combinations(range(1, n + 1), 2))}
    terms = {}
    for seq in itertools.permutations(range(1, n + 1), k):
        if seq[0] != min(seq) or seq[1] > seq[-1]:
            continue
        edges = sorted(index[tuple(sorted((seq[i], seq[(i + 1) % k])))] for i in range(k))
        terms[tuple((e, 1) for e in edges)] = 1.0
    return terms


def offdiagonal_symmetric(raw: np.ndarray) -> np.ndarray:
    """Mean over axis permutations, zeroed wherever two indices coincide."""
    d = raw.ndim
    sym = sum(raw.transpose(p) for p in itertools.permutations(range(d))) / math.factorial(d)
    idx = np.indices(raw.shape)
    for j, k in itertools.combinations(range(d), 2):
        sym[idx[j] == idx[k]] = 0.0
    return sym


def tensors_of(terms: dict, nvars: int, degree: int, moment):
    """The own E D^d f, d = 1..degree, computed when the check runs so that
    the benchmark's own work stays out of the set-up time."""
    return lambda: {d: checks.derivative_tensor(terms, nvars, d, moment)
                    for d in range(1, degree + 1)}


# ---------------------------------------------------------------------------
# bound-reports

def _report(ws: Workspace, name: str, terms: dict, nvars: int, law: list, cmd: list,
            spec: dict) -> Op:
    path = ws.write_poly(name, nvars, terms)
    argv = [cmd[0], "--poly", path] + law + cmd[1:]
    check = checks.check_split_report if spec["form"] == "split" else checks.check_partition_report
    return ws.cli_op(f"{cmd[0]}/{name}", "report", argv,
                     lambda out: check(out, {k: v() if callable(v) else v
                                             for k, v in spec.items()}))


def bound_report_ops(ws: Workspace) -> list[Op]:
    """The CLI's `bounds`, `tail`, `norm` and `mixednorm` on seeded inputs.

    Subgraph counts under Bernoulli(p) take the largest share: p is seeded,
    and since every derivative tensor of a square-free count only scales
    with p, their cost does not depend on the seed.  The random polynomials'
    cost does (the slowest of the 64 restarts sets the sweeps), so they are
    kept to a share that leaves the per-seed spread small.
    """
    gauss = lambda k: checks.law_moment("gaussian", k)
    bern = lambda pp: lambda k: checks.law_moment("bernoulli", k, pp=pp)
    ops = []

    for i, n in enumerate((10, 6)):                      # Gaussian quadratic forms
        terms, b, a = quadratic_form(ws.rng(1, i), n)
        p = (4.0, 2.0)[i]
        spec = {"form": "gaussian", "p": p, "tensors": tensors_of(terms, n, 2, gauss),
                "closed": {(1, "1"): float(np.linalg.norm(b)),
                           (2, "1,2"): float(np.linalg.norm(a)),
                           (2, "1|2"): float(np.linalg.norm(a, 2))}}
        ops.append(_report(ws, f"quad{n}", terms, n, ["--law", "gaussian"],
                           ["bounds", "--p", str(p)], spec))

    # random polynomials of degree 3 to 5
    for name, n, deg, nterms, cmd, spec in (
            ("deg5", 3, 5, 56, ["bounds", "--p", "4.0"], {"form": "gaussian", "p": 4.0}),
            ("deg4", 6, 4, 60, ["bounds", "--p", "3.0"], {"form": "gaussian", "p": 3.0}),
            ("deg4-sobolev", 4, 4, 30, ["bounds", "--p", "4.0", "--gamma", "1.0", "--L", "1.5"],
             {"form": "sobolev", "p": 4.0, "L": 1.5, "gamma": 1.0}),
            ("deg3-sobolev", 8, 3, 30, ["bounds", "--p", "4.0", "--gamma", "0.75", "--L", "1.0"],
             {"form": "sobolev", "p": 4.0, "L": 1.0, "gamma": 0.75}),
            ("deg3-tail", 8, 3, 30, ["tail", "--t", "3.0"],
             {"form": "tail", "t": 3.0, "L": math.sqrt(8.0 / 3.0)})):
        terms = random_poly(ws.rng(2, deg, n), n, deg, nterms)
        spec = dict(spec, tensors=tensors_of(terms, n, deg, gauss))
        ops.append(_report(ws, name, terms, n, ["--law", "gaussian"], cmd, spec))

    # Bernoulli(p) cycle counts: triangles (paper closed forms) and 4-cycles
    rng = ws.rng(3)
    for i, (k, n) in enumerate(((3, 5), (3, 8), (4, 6), (4, 6), (4, 6))):
        pp = round(float(rng.uniform(0.1, 0.9)), 3)
        terms = cycle_terms(k, n)
        nv = n * (n - 1) // 2
        spec = {"form": "gaussian", "p": 4.0, "tensors": tensors_of(terms, nv, k, bern(pp))}
        if k == 3:
            spec["closed"] = {(1, "1"): (n - 2) * pp**2 * math.sqrt(n * (n - 1) / 2.0),
                              (2, "1|2"): 2.0 * pp * (n - 2),
                              (2, "1,2"): pp * math.sqrt(n * (n - 1) * (n - 2)),
                              (3, "1,2,3"): math.sqrt(n * (n - 1) * (n - 2))}
            spec["caps"] = {(3, "1|2|3"): 2.0**1.5}
        law = ["--law", "bernoulli", "--pp", str(pp)]
        name = f"{k}cycle-n{n}-{i}"
        ops.append(_report(ws, name, ws.counting_poly(k, n, terms), nv, law,
                           ["bounds", "--p", "4.0"], spec))
        if i in (0, 2):
            L = math.sqrt(2.0) / math.sqrt(math.log(2.0 / pp))
            ops.append(_report(ws, name + "-tail", terms, nv, law, ["tail", "--t", "2.0"],
                               dict(spec, form="tail", t=2.0, L=L)))

    # Weibull split forms: alpha=1.5, the alpha=2 recombination, the alpha=1 closed form
    wmom = lambda k: checks.law_moment("weibull", k, alpha=1.5)
    for n, deg in ((6, 2), (3, 3)):
        terms = random_poly(ws.rng(4, deg), n, deg, 12)
        ops.append(_report(ws, f"weibull15-deg{deg}", terms, n,
                           ["--law", "weibull", "--alpha", "1.5"], ["bounds", "--p", "3.0"],
                           {"form": "split", "p": 3.0, "alpha": 1.5,
                            "tensors": tensors_of(terms, n, deg, wmom)}))
    ml = multilinear(ws.rng(4, 0), 5, 3)
    ml_tensors = tensors_of(ml, 5, 3, gauss)
    gauss_op = _report(ws, "multilinear", ml, 5, ["--law", "gaussian"], ["bounds", "--p", "4.0"],
                       {"form": "gaussian", "p": 4.0, "tensors": ml_tensors})
    split_spec = {"form": "split", "p": 4.0, "alpha": 2.0, "tensors": ml_tensors}
    w2 = _report(ws, "multilinear-w2", ml, 5, ["--law", "weibull", "--alpha", "2"],
                 ["bounds", "--p", "4.0"], split_spec)
    w2.check = lambda out: checks.check_split_report(
        out, dict(split_spec, tensors=ml_tensors(),
                  gauss_norms=checks.gauss_norms_of(gauss_op.output)))
    ops += [gauss_op, w2]
    a = ws.rng(4, 1).standard_normal(6)
    lin = {((j + 1, 1),): float(a[j]) for j in range(6)}
    ops.append(_report(ws, "linear-w1", lin, 6, ["--law", "weibull", "--alpha", "1"],
                       ["bounds", "--p", "3.0"],
                       {"form": "split", "p": 3.0, "alpha": 1.0, "tensors": {1: a},
                        "closed_total": math.sqrt(3.0) * float(np.linalg.norm(a))
                        + 3.0 * float(np.abs(a).max())}))

    # single norms: alternating maximization with certificates
    for i, (order, m, part) in enumerate(((3, 4, "1|2|3"), (4, 3, "1|2|3|4"),
                                          (4, 3, "1,2|3|4"), (3, 5, "1|2|3"))):
        t = ws.rng(6, i).standard_normal((m,) * order)
        tpath = ws.write_tensor(f"norm{i}", t)
        cert = ws.path(f"norm{i}.cert.json")
        argv = ["norm", "--tensor", tpath, "--partition", part, "--method", "als",
                "--cert-out", cert]

        def check(out, t=t, cert=cert, part=part):
            with open(cert) as fh:
                return checks.check_norm_output(out, json.load(fh), t, part)
        ops.append(ws.cli_op(f"norm/{order}x{m}/{part}", "report", argv, check))

    # mixed norms: order 1 against the dual l_beta norm, order 3 under its bound
    v = ws.rng(7, 0).standard_normal(6)
    t3 = ws.rng(7, 1).standard_normal((3, 3, 3))
    for i, (t, split, alpha) in enumerate(((v, "||1", 1.5), (v, "||1", 1.0),
                                           (t3, "1||2|3", 1.5), (t3, "||1,2|3", 1.5))):
        tpath = ws.write_tensor(f"mixed{i}", t)
        argv = ["mixednorm", "--tensor", tpath, "--split", split, "--alpha", str(alpha)]
        ops.append(ws.cli_op(f"mixednorm/{t.ndim}/{split}/{alpha}", "report", argv,
                             lambda out, t=t, s=split, a=alpha:
                             checks.check_mixednorm_output(out, t, s, a)))
    return ops


# ---------------------------------------------------------------------------
# norm-oracle

def oracle_op(ws: Workspace, i: int, rng=None) -> Op:
    """A 3x3x3 tensor at 1|2|3: the 64-restart value and 100k-point brute force."""
    t = (rng or ws.rng(10, i)).standard_normal((3, 3, 3))

    def run(points=100_000):
        tens = ws.tensor.Tensor(t)
        part = ws.partitions.SetPartition.parse("1|2|3")
        res = ws.norms.norm_J(tens, part, ws.norms.NormOptions(restarts=64, seed=0))
        brute = ws.norms.norm_J_bruteforce(tens, part, points, seed=i)
        return res, brute

    def check(out):
        res, brute = out
        return checks.check_oracle(t, "1|2|3", res.value, res.certificate, brute)
    return Op(f"oracle/{i}", "oracle", 1, run, check, warm=lambda: run(2000))


def norm_oracle_ops(ws: Workspace, count: int = 10) -> list[Op]:
    return [oracle_op(ws, i) for i in range(count)]


# ---------------------------------------------------------------------------
# simulation

def mc_moments_op(ws: Workspace, name: str, terms: dict, nvars: int, ps, exact: dict,
                  n: int, seed: int) -> Op:
    path = ws.write_poly(name, nvars, terms)
    argv = ["mc", "moments", "--poly", path, "--N", str(n), "--seed", str(seed),
            "--p"] + [str(p) for p in ps]
    return ws.cli_op(f"mc/moments/{name}", "mc", argv,
                     lambda out: checks.check_mc_moments(out, exact), units=n)


def er_op(ws: Workspace, k: int, n: int, p: float, graphs: int, seed: int) -> Op:
    def run(graphs=graphs):
        cfg = ws.mc.MCConfig(N=graphs, seed=seed, batch=1024)
        return ws.graphs.er_tail_experiment(ws.graphs.GraphSpec.cycle(k), n, p, cfg, eps=0.5)

    def check(res):
        return checks.check_cycle_mean(res.mean, res.mean_stderr, res.expected_mean, k, n, p)
    return Op(f"er/{k}-cycles/n{n}", "er", graphs, run, check, warm=lambda: run(50))


def rmt_op(ws: Workspace, n: int, replicas: int, seed: int) -> Op:
    path = ws.write_poly("x2", 1, {((1, 2),): 1.0})
    argv = ["rmt", "--f", path, "--n", str(n), "--replicas", str(replicas),
            "--seed", str(seed), "--t", "5.0"]
    return ws.cli_op(f"rmt/n{n}/seed{seed}", "rmt", argv,
                     lambda out: checks.check_wigner_output(out, n), units=replicas)


def simulation_ops(ws: Workspace) -> list[Op]:
    s = str(ws.seed)
    ops = []
    # moments: x1*x2 at p=2,4; a 45-term quadratic at p=2; a linear tail
    ops.append(mc_moments_op(ws, "x1x2", {((1, 1), (2, 1)): 1.0}, 2, (2.0, 4.0),
                             {2.0: 1.0, 4.0: math.sqrt(3.0)}, 200_000, ws.seed))
    terms, _, a = quadratic_form(ws.rng(20, 0), 10)
    pure = {k: c for k, c in terms.items() if len(k) == 2}
    frob = math.sqrt(float((np.triu(a, 1) ** 2).sum()))
    ops.append(mc_moments_op(ws, "quad45", pure, 10, (2.0,), {2.0: frob}, 400_000, ws.seed))
    lin = ws.rng(20, 1).standard_normal(5)
    lpath = ws.write_poly("lin5", 5, {((j + 1, 1),): float(lin[j]) for j in range(5)})
    tail_t = 1.5 * float(np.linalg.norm(lin))
    ops.append(ws.cli_op("mc/tail/lin5", "mc",
                         ["mc", "tail", "--poly", lpath, "--t", repr(tail_t), "--N", "200000",
                          "--seed", s],
                         lambda out: checks.check_mc_tail(out, float(np.linalg.norm(lin)),
                                                          tail_t, 200_000), units=200_000))
    # chaos: a decoupled order-3 form and an undecoupled symmetric off-diagonal one
    raw = ws.rng(20, 2).standard_normal((4, 4, 4))
    dpath = ws.write_tensor("chaos-dec", raw)
    ops.append(ws.cli_op("mc/chaos/decoupled", "mc",
                         ["mc", "chaos", "--tensor", dpath, "--chaos-mode", "decoupled",
                          "--N", "200000", "--seed", s],
                         lambda out: checks.check_mc_chaos(out, float(np.linalg.norm(raw))),
                         units=200_000))
    built = ws.build_offdiagonal_symmetric(raw)
    upath = ws.write_tensor("chaos-undec", built)
    own = offdiagonal_symmetric(raw)

    def check_undec(out):
        problems = [] if np.allclose(built, own, rtol=0, atol=1e-12) else \
            ["symmetrize/apply_mask output differs from the own construction"]
        return problems + checks.check_mc_chaos(out, math.sqrt(6.0) * float(np.linalg.norm(own)))
    ops.append(ws.cli_op("mc/chaos/undecoupled", "mc",
                         ["mc", "chaos", "--tensor", upath, "--chaos-mode", "undecoupled",
                          "--N", "200000", "--seed", s], check_undec, units=200_000))
    # sandwich on x1*x2: ||.||_p exact, bound sqrt(2p) + p in closed form
    xpath = ws.path("x1x2.poly.json")
    ops.append(ws.cli_op("mc/sandwich/x1x2", "mc",
                         ["mc", "sandwich", "--poly", xpath, "--p", "2", "4", "--N", "200000",
                          "--seed", s],
                         lambda out: checks.check_mc_sandwich(
                             out, {2.0: 1.0, 4.0: math.sqrt(3.0)},
                             {p: math.sqrt(2.0 * p) + p for p in (2.0, 4.0)}),
                         units=200_000))
    # Hermite tetrahedral gap at d=2: exactly 2/N
    n_list = (10, 100, 1000)
    ops.append(ws.cli_op("mc/hermite/d2", "mc",
                         ["mc", "hermite", "--d", "2", "--Nlist"] + [str(x) for x in n_list]
                         + ["--N", "5000", "--seed", s],
                         lambda out: checks.check_mc_hermite(out, 2, n_list),
                         units=5_000 * len(n_list)))
    # Sobolev at p=2 on the pure quadratic (Gaussian Poincare)
    qpath = ws.path("quad45.poly.json")
    ops.append(ws.cli_op("mc/sobolev/quad45", "mc",
                         ["mc", "sobolev", "--poly", qpath, "--p", "2", "--N", "100000",
                          "--seed", s], checks.check_mc_sobolev, units=100_000))
    # Erdos-Renyi: triangles through the CLI, 4- and 5-cycles through the library
    tri_n, tri_p, tri_graphs = 60, 0.1, 4000
    ops.append(ws.cli_op("graphs/triangles", "er",
                         ["graphs", "triangles", "--n", str(tri_n), "--p", str(tri_p),
                          "--N", str(tri_graphs), "--eps", "0.5", "--seed", s],
                         lambda out: checks.check_triangles_output(out, tri_n, tri_p),
                         units=tri_graphs))
    ops.append(er_op(ws, 4, 60, 0.1, 4000, ws.seed + 4))
    ops.append(er_op(ws, 5, 60, 0.1, 4000, ws.seed + 5))
    # Wigner linear statistic of f(x) = x^2; the Jacobi cost per matrix varies,
    # so enough replicas keep the per-seed spread small
    ops += [rmt_op(ws, 30, 24, ws.seed + 30), rmt_op(ws, 40, 24, ws.seed + 40),
            rmt_op(ws, 30, 24, ws.seed + 31)]
    return alternate(ops)


# ---------------------------------------------------------------------------
# small operations of the kinds a workload's own round lacks

def _side_ops(ws: Workspace, kinds: set) -> list[Op]:
    """Fixed inputs, the same for every seed: these operations only supply
    the metrics of kinds the workload does not exercise, so a seed-dependent
    cost would add spread and nothing else.  Several short instances per
    round, spread through it, sample more moments of a noisy machine than
    one long one."""
    fixed = lambda *salt: np.random.default_rng([0, *salt])
    ops = []
    if "report" not in kinds:
        terms, pp = cycle_terms(4, 6), 0.5
        spec = {"form": "tail", "t": 2.0, "L": math.sqrt(2.0 / math.log(2.0 / pp)),
                "tensors": tensors_of(terms, 15, 4, lambda k: checks.law_moment(
                    "bernoulli", k, pp=pp))}
        ops += [_report(ws, f"side-4cycle-n6-{i}", terms, 15,
                        ["--law", "bernoulli", "--pp", str(pp)], ["tail", "--t", "2.0"], spec)
                for i in range(3)]
    if "oracle" not in kinds:
        ops += [oracle_op(ws, 100 + i, fixed(10, 100 + i)) for i in range(2)]
    if "mc" not in kinds:
        terms, _, a = quadratic_form(fixed(31, 0), 10)
        pure = {k: c for k, c in terms.items() if len(k) == 2}
        frob = math.sqrt(float((np.triu(a, 1) ** 2).sum()))
        ops += [mc_moments_op(ws, f"side-quad45-{i}", pure, 10, (2.0,), {2.0: frob}, 100_000, i)
                for i in range(4)]
    if "er" not in kinds:
        ops += [er_op(ws, 4, 30, 0.2, 2000, i) for i in range(4)]
    if "rmt" not in kinds:
        ops += [rmt_op(ws, 12, 24, i) for i in range(4)]
    return ops


def interleave(main: list, side: list) -> list:
    """`side` spread evenly through `main`."""
    out, j = [], 0
    for i, op in enumerate(main):
        out.append(op)
        while j < len(side) and (j + 1) * len(main) <= (i + 1) * len(side):
            out.append(side[j])
            j += 1
    return out + side[j:]


WORKLOADS = {
    "bound-reports": bound_report_ops,
    "norm-oracle": norm_oracle_ops,
    "simulation": simulation_ops,
}


def build_round(name: str, ws: Workspace) -> list[Op]:
    ops = WORKLOADS[name](ws)
    return interleave(ops, alternate(_side_ops(ws, {op.kind for op in ops})))


def alternate(ops: list) -> list:
    """Round-robin over the kinds, so that each is sampled across the round."""
    by_kind = [[op for op in ops if op.kind == k] for k in KINDS]
    return [op for group in itertools.zip_longest(*by_kind) for op in group if op]
