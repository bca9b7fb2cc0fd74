"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs one operation of each checked sort on small seeded inputs, confirms
that its real output passes its check, then feeds the check corrupted copies
and confirms that each is rejected: a norm scaled by 1+1e-6, a dropped
report row, a Monte Carlo mean shifted by six standard errors, and an
eigenvalue moved by 1e-6.  Exits 0 when every case behaves so, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _rows(text: str) -> list[int]:
    """Indices of the CSV data lines (after the header)."""
    body = [i for i, line in enumerate(text.splitlines()) if line and not line.startswith("#")]
    return body[1:]


def edit_field(text: str, row: int, field: int, fn) -> str:
    """Replace field `field` (negative: from the right) of data row `row` by
    fn(its value)."""
    lines = text.splitlines()
    i = _rows(text)[row]
    parts = lines[i].split(",")
    parts[field] = f"{fn(float(parts[field])):.12g}"
    lines[i] = ",".join(parts)
    return "\n".join(lines) + "\n"


def drop_row(text: str, row: int) -> str:
    lines = text.splitlines()
    del lines[_rows(text)[row]]
    return "\n".join(lines) + "\n"


def shift_comment(text: str, key: str, err_key: str, sigmas: float) -> str:
    """Move `key=value` on a '#' line by `sigmas` times the `err_key` value."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        toks = line.split()
        vals = dict(t.split("=", 1) for t in toks if "=" in t)
        if line.startswith("#") and key in vals and err_key in vals:
            moved = float(vals[key]) + sigmas * float(vals[err_key])
            lines[i] = line.replace(f"{key}={vals[key]}", f"{key}={moved:.12g}")
    return "\n".join(lines) + "\n"


def main() -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import numpy as np

    import checks
    import ops

    workdir = os.path.join(ROOT, ".perfbench-out", f"selftest-{os.getpid()}")
    ws = ops.Workspace(workdir, 0)
    results = []

    def expect(name: str, problems: list, rejected: bool) -> None:
        ok = bool(problems) == rejected
        results.append(ok)
        verdict = "rejected" if problems else "accepted"
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {verdict}"
              + (f" ({problems[0]})" if problems else ""))

    try:
        reports = {op.name: op for op in ops.bound_report_ops(ws)}
        wanted = ["bounds/quad10", "bounds/3cycle-n5-0", "tail/3cycle-n5-0-tail",
                  "bounds/weibull15-deg2", "norm/3x4/1|2|3", "mixednorm/1/||1/1.5"]
        for name in wanted:
            op = reports[name]
            out = op.run()
            expect(f"{name} as produced", op.check(out), False)
            single = name.startswith(("norm/", "mixednorm/"))   # one value row
            row, field = (0, 0) if single else (2, -3)
            expect(f"{name} with a norm scaled by 1+1e-6",
                   op.check(edit_field(out, row, field, lambda v: v * (1 + 1e-6))), True)
            if not single:
                expect(f"{name} with a dropped row", op.check(drop_row(out, 1)), True)

        oracle = ops.oracle_op(ws, 0)
        res, brute = oracle.run()
        expect("oracle as produced", oracle.check((res, brute)), False)
        scaled = dataclasses.replace(res, value=res.value * (1 + 1e-6))
        expect("oracle with the ALS value scaled by 1+1e-6", oracle.check((scaled, brute)), True)

        xs = ops.mc_moments_op(ws, "x1x2", {((1, 1), (2, 1)): 1.0}, 2, (2.0, 4.0),
                               {2.0: 1.0, 4.0: 3 ** 0.5}, 100_000, 1)
        out = xs.run()
        expect("mc moments as produced", xs.check(out), False)
        for row in range(2):
            se = float(checks.parse_output(out)[2][row][2])
            expect(f"mc moments with row {row} shifted by six standard errors",
                   xs.check(edit_field(out, row, 1, lambda v: v + 6 * se)), True)

        er = ops.er_op(ws, 4, 30, 0.2, 500, 1)
        res = er.run()
        expect("4-cycle experiment as produced", er.check(res), False)
        moved = dataclasses.replace(res, mean=res.mean + 6 * res.mean_stderr)
        expect("4-cycle mean shifted by six standard errors", er.check(moved), True)

        wig = ops.rmt_op(ws, 12, 64, 1)
        out = wig.run()
        expect("Wigner run as produced", wig.check(out), False)
        expect("Wigner z_mean shifted by six standard errors",
               wig.check(shift_comment(out, "z_mean", "z_stderr", 6.0)), True)
        expect("Wigner sobolev_term shifted by six standard errors",
               wig.check(shift_comment(out, "sobolev_term", "stderr", 6.0)), True)

        m = ws.rng(41).standard_normal((12, 12))
        m = (m + m.T) / 2.0
        eigs = ws.rmt.eigenvalues_symmetric(m)
        expect("eigenvalues as produced", checks.check_eigenvalues(m, eigs), False)
        bent = eigs.copy()
        bent[5] += 1e-6
        expect("an eigenvalue moved by 1e-6", checks.check_eigenvalues(m, bent), True)

        adjs = ws.graphs.sample_adjacency(7, 0.5, ws.rng(40), 3)
        counts = ws.graphs.count_cycles_trace(adjs, 4)
        expect("4-cycle counts as produced", checks.check_cycle_counts(adjs, 4, counts), False)
        expect("a 4-cycle count off by one",
               checks.check_cycle_counts(adjs, 4, counts + np.array([1.0, 0.0, 0.0])), True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"{sum(results)}/{len(results)} cases behaved as expected")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
