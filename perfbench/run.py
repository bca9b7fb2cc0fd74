"""Benchmark of the `concentro` calculator: one closed-loop workload per run.

    python3 perfbench/run.py --workload bound-reports --seed 1 --seconds 20 --trace 0

Run from the repository root.  The program is imported from `src/` in this
process.  With --trace 0 the run prints every end-to-end metric, with
--trace 1 every per-layer metric; either way the last line of standard output
is one JSON object {"correct", "attempted", "failed", "metrics"}.  The
workloads, metrics and reference figures are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
SETUP_SAMPLES = 3

END_TO_END = {   # kind -> (metric, unit)
    "report": ("reports_per_s", "reports/s"),
    "oracle": ("oracle_tensors_per_s", "tensors/s"),
    "mc": ("mc_samples_per_s", "samples/s"),
    "er": ("er_graphs_per_s", "graphs/s"),
    "rmt": ("wigner_replicas_per_s", "replicas/s"),
}

# per-layer metric -> (unit, summary key); all but the set-up ones are per round
PER_LAYER = {
    "cli.self_s": ("s", "cli.self_s"),
    "bounds.self_s": ("s", "bounds.self_s"),
    "bounds.terms": ("count", "bounds.terms"),
    "partitions.enumerate_s": ("s", "partitions.enumerate.self_s"),
    "partitions.enumerate_calls": ("count", "partitions.enumerate.calls"),
    "poly.derivative_tensor_s": ("s", "poly.derivative_tensor.self_s"),
    "poly.derivative_tensor_calls": ("count", "poly.derivative_tensor.calls"),
    "poly.load_s": ("s", "poly.load.self_s"),
    "poly.sample_s": ("s", "poly.sample.self_s"),
    "poly.sample_draws": ("count", "poly.sample.draws"),
    "poly.evaluate_batch_s": ("s", "poly.evaluate_batch.self_s"),
    "poly.evaluate_batch_rows": ("count", "poly.evaluate_batch.rows"),
    "norms.exact_s": ("s", "norms.exact.self_s"),
    "norms.exact_calls": ("count", "norms.exact.calls"),
    "norms.mixed_s": ("s", "norms.mixed.self_s"),
    "norms.mixed_calls": ("count", "norms.mixed.calls"),
    "norms.als_s": ("s", "norms.als.self_s"),
    "norms.als_calls": ("count", "norms.als.calls"),
    "norms.als_sweeps": ("count", "norms.als.sweeps"),
    "norms.als_restarts": ("count", "norms.als.restarts"),
    "norms.bruteforce_s": ("s", "norms.bruteforce.self_s"),
    "norms.bruteforce_points": ("count", "norms.bruteforce.points"),
    "tensor.load_s": ("s", "tensor.load.self_s"),
    "montecarlo.moment_s": ("s", "montecarlo.moment.self_s"),
    "montecarlo.tail_s": ("s", "montecarlo.tail.self_s"),
    "montecarlo.chaos_s": ("s", "montecarlo.chaos.self_s"),
    "montecarlo.sandwich_s": ("s", "montecarlo.sandwich.self_s"),
    "montecarlo.hermite_s": ("s", "montecarlo.hermite.self_s"),
    "montecarlo.sobolev_s": ("s", "montecarlo.sobolev.self_s"),
    "montecarlo.samples": ("count", "montecarlo.samples"),   # summed over the entry points
    "graphs.self_s": ("s", "graphs.self.self_s"),
    "graphs.sample_adjacency_s": ("s", "graphs.sample_adjacency.self_s"),
    "graphs.count_cycles_s": ("s", "graphs.count_cycles.self_s"),
    "graphs.count_cycles_calls": ("count", "graphs.count_cycles.calls"),
    "rmt.eigen_s": ("s", "rmt.eigen.self_s"),
    "rmt.eigen_calls": ("count", "rmt.eigen.calls"),
    "rmt.sample_s": ("s", "rmt.sample.self_s"),
    "rmt.self_s": ("s", "rmt.self.self_s"),
    "rmt.runtime_warnings": ("count", "rmt.runtime_warnings"),
}
SETUP_LAYER = {   # measured over input generation, once per run
    "tensor.build_s": ("s", "tensor.build.self_s"),
    "graphs.counting_polynomial_s": ("s", "graphs.counting_polynomial.self_s"),
}


def log(msg: str) -> None:
    print(f"# {msg}", flush=True)


def environment() -> dict:
    import numpy as np

    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": np.__version__, "platform": platform.platform()}
    try:
        env["openblas"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        env["openblas"] = "unknown"
    env["blas_threads"] = _blas_threads()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "CONCENTRO_WORKERS"):
        env[var] = os.environ.get(var, "unset")
    return env


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, when it can be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return "unknown"
    for lib in sorted(libs):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(lib), sym)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            return fn()
    return "unknown"


# ---------------------------------------------------------------------------
# set-up: import, input generation, one warm-up operation of each family

def family(op) -> str:
    parts = op.name.split("/")
    return "/".join(parts[:2]) if op.kind == "mc" else parts[0]


def setup(workload: str, seed: int, workdir: str, trace: bool):
    """Returns (seconds, workspace, round, set-up layer summary)."""
    start = time.perf_counter()
    import ops
    import tracing

    ws = ops.Workspace(workdir, seed)
    tracer = tracing.Tracer() if trace else None
    if tracer:
        tracer.install()
    try:
        round_ops = ops.build_round(workload, ws)
    finally:
        if tracer:
            tracer.uninstall()
    seen = set()
    for op in round_ops:
        if family(op) not in seen:
            seen.add(family(op))
            (op.warm or op.run)()
    elapsed = time.perf_counter() - start
    return elapsed, ws, round_ops, tracer.summary() if tracer else {}


def setup_in_child(workload: str, seed: int, index: int) -> float:
    workdir = os.path.join(OUT, f"setup-{workload}-{seed}-{os.getpid()}-{index}")
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed",
           str(seed), "--setup-only", workdir]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


# ---------------------------------------------------------------------------
# the closed loop

class Tally:
    def __init__(self, round_ops):
        self.round_ops = round_ops
        self.times = [[] for _ in round_ops]   # per operation, seconds of each success
        self.attempted = 0
        self.failed = 0
        self.errors: dict[str, str] = {}

    def throughput(self, kind: str) -> float | None:
        """Units of one round over the sum of each operation's median time:
        the median drops a round that a burst of machine noise slowed."""
        busy = units = 0.0
        for op, times in zip(self.round_ops, self.times):
            if op.kind == kind and times:
                busy += statistics.median(times)
                units += op.units
        return units / busy if busy else None

    def run_rounds(self, seconds: float | None = None,
                   rounds: int | None = None) -> tuple[int, float]:
        """Whole rounds until `seconds` have passed or `rounds` are done."""
        start = time.perf_counter()
        done = 0
        while True:
            for op, times in zip(self.round_ops, self.times):
                self.attempted += 1
                t0 = time.perf_counter()
                try:
                    out = op.run()
                except Exception:  # one failed operation must not end the run
                    self.failed += 1
                    self.errors.setdefault(op.name, traceback.format_exc(limit=3))
                    continue
                times.append(time.perf_counter() - t0)
                if op.output is None:
                    op.output = out
            done += 1
            elapsed = time.perf_counter() - start
            if (rounds is not None and done >= rounds) or \
                    (rounds is None and elapsed >= seconds):
                return done, elapsed


def verify(ws, round_ops) -> list[str]:
    """Every first output against its check, plus the counting and eigen
    kernels against the benchmark's own brute force and numpy."""
    import numpy as np

    import checks

    problems = list(ws.problems)
    for op in round_ops:
        if op.output is not None:
            problems += [f"{op.name}: {p}" for p in op.check(op.output)]
    kinds = {op.kind for op in round_ops}
    if "er" in kinds:
        adjs = ws.graphs.sample_adjacency(7, 0.5, ws.rng(40), 4)
        for k in (3, 4, 5):
            problems += checks.check_cycle_counts(adjs, k, ws.graphs.count_cycles_trace(adjs, k))
    if "rmt" in kinds:
        for i, n in enumerate(sorted({int(op.name.split("/")[1][1:]) for op in round_ops
                                      if op.kind == "rmt"})):
            m = ws.rng(41, i).standard_normal((n, n))
            m = (m + m.T) / 2.0
            problems += checks.check_eigenvalues(m, ws.rmt.eigenvalues_symmetric(m))
    return problems


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["bound-reports", "norm-oracle", "simulation"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", metavar="WORKDIR",
                        help="time one set-up in WORKDIR and print it (used internally)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "concentro", "__init__.py")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]

    if args.setup_only:
        try:
            elapsed, _, _, _ = setup(args.workload, args.seed, args.setup_only, False)
        finally:
            shutil.rmtree(args.setup_only, ignore_errors=True)
        print(json.dumps({"setup_s": elapsed}))
        return 0

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir: str) -> int:
    trace = bool(args.trace)
    setup_s, ws, round_ops, setup_layer = setup(args.workload, args.seed, workdir, trace)
    log("env " + json.dumps(environment(), sort_keys=True))
    log(f"workload {args.workload} seed {args.seed}: {len(round_ops)} operations per round, "
        + ", ".join(f"{k}={sum(op.kind == k for op in round_ops)}" for k in END_TO_END))

    tally = Tally(round_ops)
    metrics = {}
    if not trace:
        samples = [setup_s] + [setup_in_child(args.workload, args.seed, i)
                               for i in range(1, SETUP_SAMPLES)]
        rounds, wall = tally.run_rounds(seconds=args.seconds)
        for kind, (name, unit) in END_TO_END.items():
            if tally.throughput(kind):
                metrics[name] = (tally.throughput(kind), unit)
        metrics["setup_s"] = (statistics.median(samples), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                  "MB")
        log(f"{rounds} rounds in {wall:.2f} s; set-up samples "
            + " ".join(f"{s:.3f}" for s in samples))
    else:
        import tracing

        rounds, untraced = tally.run_rounds(seconds=args.seconds / 2.0)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            _, traced = tally.run_rounds(rounds=rounds)
        finally:
            tracer.uninstall()
        summary = tracer.summary()
        summary["rmt.runtime_warnings"] = tracer.runtime_warnings
        summary["montecarlo.samples"] = sum(v for k, v in summary.items()
                                            if k.startswith("montecarlo.")
                                            and k.endswith(".samples"))
        for name, (unit, key) in PER_LAYER.items():
            metrics[name] = (summary.get(key, 0) / rounds, unit)
        for name, (unit, key) in SETUP_LAYER.items():
            metrics[name] = (setup_layer.get(key, 0.0), unit)
        metrics["trace.overhead_pct"] = (100.0 * (traced - untraced) / untraced, "%")
        metrics["trace.rounds"] = (rounds, "count")
        metrics["trace.spans"] = (len(tracer.spans) / rounds, "count")
        trace_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.dump(trace_path)
        log(f"{rounds} untraced rounds in {untraced:.2f} s, traced in {traced:.2f} s; "
            f"spans in {trace_path}")

    problems = verify(ws, round_ops)
    for name, err in tally.errors.items():
        print(f"perfbench: operation {name} failed:\n{err}", file=sys.stderr)
    for p in problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        log(f"{name} = {value:.6g} {unit}")
    print(json.dumps({"correct": not problems, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
