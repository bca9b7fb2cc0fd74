"""Output checks computed apart from the program.

Everything here uses numpy and the benchmark's own knowledge of the inputs
it generated: its own derivative tensors, partition enumeration, norms,
contractions and closed forms.  Nothing imports `concentro`, so a fault in
the program cannot hide in its own check.  Every check returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

REL = 1e-9          # reports print 12 significant digits
MC_SIGMAS = 5.0     # Monte Carlo values must lie within this many standard errors
EIG_REL = 1e-9      # eigenvalue agreement, relative to the Frobenius norm


def close(a: float, b: float, rel: float = REL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# partitions, labelled as the CLI prints them

def set_partitions(elems):
    """All set partitions of the tuple `elems`, each a tuple of sorted blocks."""
    elems = tuple(elems)
    if not elems:
        yield ()
        return
    first, rest = elems[0], elems[1:]
    for sub in set_partitions(rest):
        yield ((first,),) + sub
        for i in range(len(sub)):
            yield sub[:i] + ((first,) + sub[i],) + sub[i + 1:]


def canonical(blocks) -> tuple:
    return tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))


def label(blocks) -> str:
    return "|".join(",".join(str(i) for i in b) for b in canonical(blocks))


def partitions(d: int) -> list[tuple]:
    return [canonical(p) for p in set_partitions(range(1, d + 1))]


def splits(d: int) -> list[tuple]:
    """(inner, outer) pairs: a subset I, a partition of I, a partition of the rest."""
    out = []
    universe = range(1, d + 1)
    for r in range(d + 1):
        for inner_set in itertools.combinations(universe, r):
            outer_set = tuple(i for i in universe if i not in inner_set)
            for inner in set_partitions(inner_set):
                for outer in set_partitions(outer_set):
                    out.append((canonical(inner), canonical(outer)))
    return out


def split_label(inner, outer) -> str:
    return f"{label(inner)}||{label(outer)}"


def parse_partition(text: str) -> tuple:
    return canonical(tuple(int(t) for t in b.split(",")) for b in text.split("|"))


def refines(fine, coarse) -> bool:
    return all(any(set(b) <= set(c) for c in coarse) for b in fine)


def two_block_coarsenings(part) -> list[tuple]:
    """Every two-block partition that `part` refines."""
    part = canonical(part)
    out = []
    k = len(part)
    for mask in range(1, 2 ** (k - 1)):
        left = [b for i, b in enumerate(part) if mask >> i & 1]
        right = [b for i, b in enumerate(part) if not mask >> i & 1]
        out.append(canonical([sum(left, ()), sum(right, ())]))
    return out


# ---------------------------------------------------------------------------
# tensors and norms

def law_moment(law: str, k: int, pp: float | None = None, alpha: float | None = None) -> float:
    if k == 0:
        return 1.0
    if law == "gaussian":
        return 0.0 if k % 2 else float(math.prod(range(1, k, 2)))
    if law == "bernoulli":
        return float(pp)
    if law == "weibull":
        return 0.0 if k % 2 else math.gamma(k / alpha + 1.0)
    raise ValueError(f"no moments for law {law!r}")


def derivative_tensor(terms: dict, nvars: int, d: int, moment) -> np.ndarray:
    """E D^d f for f = sum c * prod x_v^k_v, entry by entry over sorted indices."""
    out = np.zeros((nvars,) * d)
    for idx in itertools.combinations_with_replacement(range(1, nvars + 1), d):
        want = {v: idx.count(v) for v in set(idx)}
        value = 0.0
        for key, coef in terms.items():
            powers = dict(key)
            if any(powers.get(v, 0) < l for v, l in want.items()):
                continue
            w = coef
            for v, k in powers.items():
                l = want.get(v, 0)
                w *= math.perm(k, l) * moment(k - l)
            value += w
        for perm in set(itertools.permutations(idx)):
            out[tuple(i - 1 for i in perm)] = value
    return out


def matricize(t: np.ndarray, part) -> np.ndarray:
    m = t.shape[0]
    b1, b2 = canonical(part)
    perm = [i - 1 for i in b1] + [i - 1 for i in b2]
    return t.transpose(perm).reshape(m ** len(b1), m ** len(b2))


def exact_norm(t: np.ndarray, part) -> float:
    """Frobenius norm for one block, top singular value for two."""
    part = canonical(part)
    if len(part) == 1:
        return float(np.linalg.norm(t.ravel()))
    if len(part) == 2:
        return float(np.linalg.norm(matricize(t, part), 2))
    raise ValueError("exact norm needs at most two blocks")


def upper_norm(t: np.ndarray, part) -> float:
    """Exact norm for at most two blocks, else the least two-block coarsening."""
    part = canonical(part)
    if len(part) <= 2:
        return exact_norm(t, part)
    return min(exact_norm(t, c) for c in two_block_coarsenings(part))


def contract(t: np.ndarray, part, vectors) -> float:
    letters = "abcdefgh"
    m = t.shape[0]
    subs = [letters[:t.ndim]]
    ops = [t]
    for block, v in zip(canonical(part), vectors):
        subs.append("".join(letters[i - 1] for i in block))
        ops.append(np.asarray(v, dtype=float).reshape((m,) * len(block)))
    return float(np.einsum(",".join(subs) + "->", *ops))


def all_equal_lower(t: np.ndarray, part) -> float:
    """|form| at the all-equal unit tuple; the ascent starts there, so the
    alternating solver can only end above it."""
    m = t.shape[0]
    vecs = [np.full(m ** len(b), m ** (-len(b) / 2.0)) for b in canonical(part)]
    return abs(contract(t, part, vecs))


# ---------------------------------------------------------------------------
# CLI output parsing

def parse_output(text: str):
    """(comments, header, rows): '#' lines as key=value dicts, then CSV."""
    comments = {}
    body = []
    for line in text.splitlines():
        if line.startswith("#"):
            for tok in line[1:].split():
                if "=" in tok:
                    k, v = tok.split("=", 1)
                    comments[k] = v
        elif line:
            body.append(line)
    if not body:
        return comments, [], []
    return comments, body[0].split(","), [r.split(",") for r in body[1:]]


def parse_report_rows(text: str):
    """Bound-report rows read from the right, since labels contain commas:
    (d, label, exponent, norm, flag, term); plus the printed total."""
    comments, header, rows = parse_output(text)
    problems = []
    if header != ["d", "partition", "exponent", "norm", "flag", "term"]:
        problems.append(f"unexpected report header {header}")
    out = []
    for f in rows:
        if len(f) < 6:
            problems.append(f"short report row {f}")
            continue
        out.append((int(f[0]), ",".join(f[1:-4]), float(f[-4]), float(f[-3]), f[-2],
                    float(f[-1])))
    if "total" not in comments:
        problems.append("report has no '# total=' line")
        return out, math.nan, problems
    return out, float(comments["total"]), problems


# ---------------------------------------------------------------------------
# bound reports

def check_partition_report(text: str, spec: dict) -> list[str]:
    """Gaussian, Sobolev and tail reports.

    spec: form ("gaussian" | "sobolev" | "tail"), tensors {d: own E D^d f},
    p / t / L / gamma as the form needs, closed {label-at-d: value}.
    """
    rows, total, problems = parse_report_rows(text)
    form = spec["form"]
    tensors = spec["tensors"]
    want = {(d, label(part)) for d in tensors for part in partitions(d)}
    if form == "tail":
        want = {(d, lab) for d, lab in want if np.any(tensors[d])}  # zero norms dropped
    got = [(r[0], r[1]) for r in rows]
    if sorted(got) != sorted(want):
        problems.append(f"rows {sorted(set(want) ^ set(got))} missing or unexpected")
    by_key = {(r[0], r[1]): r for r in rows}
    terms = []
    for d, lab, expo, norm, flag, term in rows:
        part = parse_partition(lab)
        k = len(part)
        t = tensors.get(d)
        if t is None:
            problems.append(f"row at order {d} beyond the degree")
            continue
        if flag != ("exact" if k <= 2 else "lower-bound"):
            problems.append(f"{d}:{lab} flag {flag}")
        if k <= 2:
            if not close(norm, exact_norm(t, part)):
                problems.append(f"{d}:{lab} norm {norm} != {exact_norm(t, part)}")
        else:
            if norm > upper_norm(t, part) * (1 + REL):
                problems.append(f"{d}:{lab} norm {norm} above its two-block coarsening")
            if norm < all_equal_lower(t, part) * (1 - REL):
                problems.append(f"{d}:{lab} norm {norm} below the all-equal start point")
        if form == "gaussian":
            e_want, t_want = k / 2.0, spec["p"] ** (k / 2.0) * norm
        elif form == "sobolev":
            e_want = (spec["gamma"] - 0.5) * d + k / 2.0
            t_want = spec["L"] ** d * spec["p"] ** e_want * norm
        else:
            e_want = 2.0 / k
            t_want = (spec["t"] / (spec["L"] ** d * norm)) ** e_want
        if not close(expo, e_want) or not close(term, t_want):
            problems.append(f"{d}:{lab} exponent/term {expo}/{term} != {e_want}/{t_want}")
        terms.append(term)
    for (d, lab), value in spec.get("closed", {}).items():
        row = by_key.get((d, lab))
        if row is None:
            problems.append(f"closed-form row {d}:{lab} missing")
        elif not close(row[3], value):
            problems.append(f"{d}:{lab} norm {row[3]} != closed form {value}")
    for (d, lab), cap in spec.get("caps", {}).items():
        row = by_key.get((d, lab))
        if row is not None and row[3] > cap * (1 + REL):
            problems.append(f"{d}:{lab} norm {row[3]} above cap {cap}")
    for (d1, l1), r1 in by_key.items():
        for (d2, l2), r2 in by_key.items():
            if d1 == d2 and l1 != l2 and refines(parse_partition(l1), parse_partition(l2)) \
                    and len(parse_partition(l2)) <= 2 and r1[3] > r2[3] * (1 + REL):
                problems.append(f"refinement: {d1}:{l1}={r1[3]} above {l2}={r2[3]}")
    if terms:
        agg = min(terms) if form == "tail" else math.fsum(terms)
        if not close(agg, total):
            problems.append(f"total {total} != {'min' if form == 'tail' else 'sum'} {agg}")
    return problems


def dual_exponent(alpha: float) -> float:
    return math.inf if alpha == 1.0 else alpha / (alpha - 1.0)


def one_block_mixed(t: np.ndarray, block, alpha: float) -> float:
    """A single l_alpha(l_2) block over every coordinate: for each choice s of
    the distinguished coordinate, the l_beta norm of the slice norms."""
    m = t.shape[0]
    total = 0.0
    for s in block:
        slices = np.moveaxis(t, s - 1, 0).reshape(m, -1)
        total += float(np.linalg.norm(np.linalg.norm(slices, axis=1), dual_exponent(alpha)))
    return total


def _split_bound(t: np.ndarray, inner, outer) -> tuple[float, int]:
    n_choices = math.prod(len(b) for b in outer)
    return n_choices * upper_norm(t, inner + outer), n_choices


def check_split_report(text: str, spec: dict) -> list[str]:
    """Weibull split reports.  spec: tensors, p, alpha; optional
    `gauss_norms` {(d, label): norm} from the same polynomial's Gaussian
    report (law-free tensors) for the alpha=2 recombination; optional
    `closed_total`."""
    rows, total, problems = parse_report_rows(text)
    tensors, p, alpha = spec["tensors"], spec["p"], spec["alpha"]
    want = {(d, split_label(i, o)) for d in tensors for i, o in splits(d)}
    got = [(r[0], r[1]) for r in rows]
    if sorted(got) != sorted(want):
        problems.append(f"rows {sorted(set(want) ^ set(got))} missing or unexpected")
    terms = []
    for d, lab, expo, norm, flag, term in rows:
        left, right = lab.split("||")
        inner = parse_partition(left) if left else ()
        outer = parse_partition(right) if right else ()
        t = tensors[d]
        bound, n_choices = _split_bound(t, inner, outer)
        merged = canonical(inner + outer)
        exact = (alpha == 2.0 and len(merged) <= 2) or len(merged) <= 1
        if flag != ("exact" if exact else "lower-bound"):
            problems.append(f"{d}:{lab} flag {flag}")
        if exact:
            want = one_block_mixed(t, outer[0], alpha) if outer and len(merged) == 1 else bound
            if not close(norm, want):
                problems.append(f"{d}:{lab} norm {norm} != {want}")
        if not 0 <= norm <= bound * (1 + REL):
            problems.append(f"{d}:{lab} norm {norm} outside [0, {bound}]")
        e_want = len(inner) / 2.0 + len(outer) / alpha
        if not close(expo, e_want) or not close(term, p ** e_want * norm):
            problems.append(f"{d}:{lab} exponent/term {expo}/{term} wrong")
        terms.append(term)
    if not close(math.fsum(terms), total):
        problems.append(f"total {total} != sum of terms {math.fsum(terms)}")
    gauss = spec.get("gauss_norms")
    if gauss is not None:
        # alpha = 2: each split is n_choices times the merged-partition norm, so
        # the total regroups as sum_J p^(#J/2) prod_b (1 + |b|) |E D^d f|_J
        recombined = math.fsum(
            p ** (len(parse_partition(lab)) / 2.0)
            * math.prod(1 + len(b) for b in parse_partition(lab)) * norm
            for (d, lab), norm in gauss.items())
        if not close(total, recombined):
            problems.append(f"alpha=2 total {total} != recombined {recombined}")
    if "closed_total" in spec and not close(total, spec["closed_total"]):
        problems.append(f"total {total} != closed form {spec['closed_total']}")
    return problems


def gauss_norms_of(text: str) -> dict:
    rows, _, _ = parse_report_rows(text)
    return {(r[0], r[1]): r[3] for r in rows}


# ---------------------------------------------------------------------------
# single norms

def check_certificate(t: np.ndarray, part, value: float, blocks) -> list[str]:
    problems = []
    part = canonical(part)
    if len(blocks) != len(part):
        return [f"certificate has {len(blocks)} blocks for {label(part)}"]
    for b, v in zip(part, blocks):
        v = np.asarray(v, dtype=float)
        if v.size != t.shape[0] ** len(b) or not close(float(np.linalg.norm(v)), 1.0):
            problems.append(f"certificate block {b} is not a unit vector")
    if problems:
        return problems
    if not close(abs(contract(t, part, blocks)), value):
        problems.append(f"value {value} != contraction {contract(t, part, blocks)}")
    if value > upper_norm(t, part) * (1 + REL):
        problems.append(f"value {value} above two-block bound {upper_norm(t, part)}")
    return problems


def check_norm_output(text: str, cert: dict, t: np.ndarray, part_text: str) -> list[str]:
    _, header, rows = parse_output(text)
    if header != ["value", "method", "certificate"] or len(rows) != 1:
        return [f"unexpected norm output {header} {rows}"]
    value, method = float(rows[0][0]), rows[0][1]
    problems = [] if method == "als" else [f"method {method}, expected als"]
    if cert.get("partition") != label(parse_partition(part_text)):
        problems.append(f"certificate partition {cert.get('partition')}")
    if not close(cert.get("value", math.nan), value):
        problems.append("certificate value differs from the report")
    return problems + check_certificate(t, parse_partition(part_text), value, cert["blocks"])


def check_mixednorm_output(text: str, t: np.ndarray, split_text: str, alpha: float) -> list[str]:
    _, header, rows = parse_output(text)
    if header != ["value"] or len(rows) != 1:
        return [f"unexpected mixednorm output {header} {rows}"]
    value = float(rows[0][0])
    left, right = split_text.split("||")
    inner = parse_partition(left) if left else ()
    outer = parse_partition(right) if right else ()
    if t.ndim == 1 and outer:
        want = float(np.linalg.norm(t, dual_exponent(alpha)))
        return [] if close(value, want) else [f"order-1 mixed norm {value} != dual {want}"]
    bound, _ = _split_bound(t, inner, outer)
    if not 0 < value <= bound * (1 + REL):
        return [f"mixed norm {value} outside (0, {bound}]"]
    return []


def check_oracle(t: np.ndarray, part_text: str, value: float, blocks, brute: float) -> list[str]:
    part = parse_partition(part_text)
    problems = check_certificate(t, part, value, blocks)
    if abs(value - brute) > 1e-6:
        problems.append(f"ALS {value} and brute force {brute} differ by more than 1e-6")
    if brute > upper_norm(t, part) * (1 + REL):
        problems.append(f"brute force {brute} above two-block bound")
    return problems


# ---------------------------------------------------------------------------
# Monte Carlo

def within(value: float, exact: float, stderr: float, what: str) -> list[str]:
    if not stderr > 0 or abs(value - exact) > MC_SIGMAS * stderr:
        return [f"{what}: {value} vs exact {exact} (stderr {stderr})"]
    return []


def check_mc_moments(text: str, exact: dict) -> list[str]:
    """exact: {p: ||f - Ef||_p}."""
    _, header, rows = parse_output(text)
    if header != ["p", "value", "stderr", "N"]:
        return [f"unexpected moments header {header}"]
    got = {float(r[0]): (float(r[1]), float(r[2])) for r in rows}
    if set(got) != set(exact):
        return [f"moment orders {sorted(got)} != {sorted(exact)}"]
    return [e for p, (v, se) in got.items() for e in within(v, exact[p], se, f"moment p={p}")]


def check_mc_tail(text: str, norm_a: float, t: float, n: int) -> list[str]:
    """Linear Gaussian form: P(|a.x| >= t) = erfc(t / (|a| sqrt 2))."""
    _, _, rows = parse_output(text)
    q = math.erfc(t / (norm_a * math.sqrt(2.0)))
    prob = float(rows[0][1])
    return within(prob, q, math.sqrt(q * (1 - q) / n), f"tail at t={t}")


def check_mc_chaos(text: str, exact: float) -> list[str]:
    _, _, rows = parse_output(text)
    return within(float(rows[0][2]), exact, float(rows[0][3]), f"chaos {rows[0][0]}")


def check_mc_sandwich(text: str, exact: dict, bound: dict) -> list[str]:
    """Empirical column against the exact moment; the bound column against
    its closed form.  The status column is not read."""
    _, header, rows = parse_output(text)
    if header != ["p", "empirical", "stderr", "bound", "ratio", "status"]:
        return [f"unexpected sandwich header {header}"]
    problems = []
    for r in rows:
        p = float(r[0])
        problems += within(float(r[1]), exact[p], float(r[2]), f"sandwich p={p}")
        if not close(float(r[3]), bound[p]):
            problems.append(f"sandwich bound {r[3]} != {bound[p]} at p={p}")
    if {float(r[0]) for r in rows} != set(exact):
        problems.append("sandwich rows missing")
    return problems


def check_mc_hermite(text: str, d: int, n_list) -> list[str]:
    """At d=2 the mean squared gap is exactly 2/N."""
    _, _, rows = parse_output(text)
    if d != 2 or [int(r[0]) for r in rows] != list(n_list):
        return [f"hermite rows {[r[0] for r in rows]} at d={d}, expected d=2, N={n_list}"]
    return [e for r in rows
            for e in within(float(r[1]), 2.0 / int(r[0]), float(r[2]), f"hermite N={r[0]}")]


def check_mc_sobolev(text: str) -> list[str]:
    """Gaussian Poincare: |f - Ef|_2 <= | |grad f| |_2 = rhs / sqrt 2 at p=2."""
    _, _, rows = parse_output(text)
    r = rows[0]
    if float(r[0]) != 2.0 or not float(r[1]) <= float(r[2]) / math.sqrt(2.0):
        return [f"Poincare fails: lhs {r[1]}, rhs {r[2]}"]
    return []


# ---------------------------------------------------------------------------
# graphs and matrices

def expected_cycles(k: int, n: int, p: float) -> float:
    return math.prod(range(n - k + 1, n + 1)) * p**k / (2 * k)


def check_cycle_mean(mean: float, stderr: float, expected: float, k: int, n: int,
                     p: float) -> list[str]:
    own = expected_cycles(k, n, p)
    problems = within(mean, own, stderr, f"mean {k}-cycle count")
    if not close(expected, own):
        problems.append(f"reported expectation {expected} != {own}")
    return problems


def check_triangles_output(text: str, n: int, p: float) -> list[str]:
    comments, header, rows = parse_output(text)
    if header != ["t", "tail", "wilson_low", "wilson_high", "bound"] or not rows:
        return [f"unexpected graphs output {header}"]
    return check_cycle_mean(float(comments["empirical_mean"]), float(comments["stderr"]),
                            float(comments["expected_mean"]), 3, n, p)


def brute_cycles(adj: np.ndarray, k: int) -> int:
    """k-cycles of a small graph: vertex sequences starting at their least
    vertex, each cycle met twice (once per direction)."""
    n = adj.shape[0]
    hits = 0
    for seq in itertools.permutations(range(n), k):
        if seq[0] == min(seq) and all(adj[seq[i], seq[(i + 1) % k]] for i in range(k)):
            hits += 1
    return hits // 2


def check_cycle_counts(adjs: np.ndarray, k: int, counts) -> list[str]:
    own = [brute_cycles(a, k) for a in adjs]
    if [float(c) for c in counts] != [float(c) for c in own]:
        return [f"{k}-cycle counts {list(counts)} != brute force {own}"]
    return []


def check_wigner_output(text: str, n: int) -> list[str]:
    """f(x) = x^2: Z = tr(M^2)/n has mean n, the gradient energy mean 4, and
    the semicircle limit of the energy is exactly 4."""
    c, _, _ = parse_output(text)
    problems = within(float(c["z_mean"]), float(n), float(c["z_stderr"]), "z_mean")
    problems += within(float(c["sobolev_term"]), 4.0, float(c["stderr"]), "sobolev_term")
    if float(c["limit"]) != 4.0:
        problems.append(f"limit {c['limit']} != 4")
    return problems


def check_eigenvalues(m: np.ndarray, eigs) -> list[str]:
    own = np.linalg.eigvalsh(m)
    tol = EIG_REL * float(np.linalg.norm(m))
    gap = float(np.abs(np.sort(np.asarray(eigs)) - own).max())
    return [] if gap <= tol else [f"eigenvalues off by {gap:.3g} > {tol:.3g}"]
