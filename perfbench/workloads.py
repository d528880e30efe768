"""Workloads, input generators and correctness gates.

Each workload is a sequence of rounds; a round is a list of items that
are always run together (one system per degree, or one full pass over
the representation cells), so every run measures the same mix.  The
runner in ``run.py`` keeps starting rounds until ``--seconds`` have
passed; it imports this module only after the BLAS thread count is
pinned.
"""

from __future__ import annotations

import importlib
import math
import random
import re
import statistics
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

import numpy as np
from scipy.optimize import linear_sum_assignment

from detrep.poly import COMPLEX, MultiPoly, enumerate_monomials

# Modules are looked up through sys.modules, and every call goes through a
# module attribute, so the wrappers the tracer installs are the ones called.
# (``detrep.construct`` as a package attribute is the function, not the
# module, which is why plain ``import ... as`` is not used.)
twopareig = importlib.import_module("detrep.twopareig")
oracle = importlib.import_module("detrep.oracle")
biaffine = importlib.import_module("detrep.biaffine")
construct_mod = importlib.import_module("detrep.construct")
symmetry = importlib.import_module("detrep.symmetry")

# criterion-7 gates
RESIDUAL_GATE = 1e-8
PAIRING_GATE = 1e-6
# a returned root whose independent residual exceeds this is not a root at
# all: the solver's own fallback rejects candidates above it
ROOT_GATE = 1e-6


# -- input generators (copies of the test-suite generators) -------------------


def random_full_system(d: int, seed: int, real: bool = False):
    """A pair of dense random bivariate polynomials of exact degree d."""
    rng = np.random.default_rng(seed)

    def one():
        terms = {}
        for a in range(d + 1):
            for b in range(d + 1 - a):
                if real:
                    c = complex(rng.standard_normal())
                else:
                    c = complex(rng.standard_normal(), rng.standard_normal())
                terms[(a, b)] = c
        return MultiPoly.make(2, terms, COMPLEX)

    return one(), one()


def random_rational_poly(n: int, d: int, seed: int, coeff_range: int = 9) -> MultiPoly:
    """Random polynomial with small nonzero integer coefficients on every monomial."""
    rng = random.Random(seed)
    terms = {}
    for exp in enumerate_monomials(n, d):
        terms[exp] = Fraction(rng.randint(-coeff_range, coeff_range) or 1)
    return MultiPoly.make(n, terms)


def pairing_distance(roots_a, roots_b) -> float:
    """Max matched distance under the optimal bipartite pairing."""
    if len(roots_a) != len(roots_b):
        return float("inf")
    if not roots_a:
        return 0.0
    a = np.array(roots_a, dtype=complex)
    b = np.array(roots_b, dtype=complex)
    cost = np.abs(a[:, None, 0] - b[None, :, 0]) + np.abs(a[:, None, 1] - b[None, :, 1])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def residuals(poly: MultiPoly, roots) -> np.ndarray:
    """|poly(x, y)| / sum |c| |x^a y^b| at each root, evaluated densely here."""
    if not roots:
        return np.zeros(0)
    exps = np.array(list(poly.terms), dtype=float)
    coeffs = np.array([complex(c) for c in poly.terms.values()])
    pts = np.array(roots, dtype=complex)
    mono = pts[:, None, 0] ** exps[None, :, 0] * pts[:, None, 1] ** exps[None, :, 1]
    num = np.abs(mono @ coeffs)
    den = np.abs(mono) @ np.abs(coeffs)
    return num / np.where(den > 0.0, den, 1.0)


# -- solve path classification --------------------------------------------------

LADDER_LINE = re.compile(r"rank ladder level (\d+):")
PATHS = ("strict", "ladder", "rotated", "fallback")


def classify_path(rs) -> tuple[str, int]:
    """(path, ladder level) of one solve, read from RootSet.retries and .log.

    Parsing the free-form log is a stopgap: it is replaced by reading the
    structured solve trace once ``solve`` returns one (ROADMAP item 1).
    """
    level = max((int(m.group(1)) for line in rs.log if (m := LADDER_LINE.match(line))), default=0)
    if not rs.log or any(line.startswith("staircase exhausted") for line in rs.log):
        return "fallback", level
    if rs.retries:
        return "rotated", level
    return ("ladder" if level else "strict"), level


# -- workloads ----------------------------------------------------------------


@dataclass(frozen=True)
class Item:
    """One unit of work: a system to solve, a cell to represent, ..."""

    kind: str
    params: tuple


def solve_item(item: Item) -> dict:
    d, seed, real, solve_seed = item.params
    p, q = random_full_system(d, seed=seed, real=real)
    if item.kind == "oracle":
        t0 = perf_counter()
        osr = oracle.oracle_roots(p, q, seed=solve_seed)
        t1 = perf_counter()
        failed = len(osr) != d * d
        return {"kind": "oracle", "d": d, "seed": seed, "oracle_s": t1 - t0, "oracle_roots": len(osr),
                "failed": failed, "reasons": [f"oracle returned {len(osr)} of {d * d} roots"] if failed else []}
    t0 = perf_counter()
    rs = twopareig.solve(p, q, seed=solve_seed)
    t1 = perf_counter()
    osr = oracle.oracle_roots(p, q, seed=solve_seed)
    t2 = perf_counter()

    count = d * d
    res = np.maximum(residuals(p, rs.roots), residuals(q, rs.roots))
    distance = pairing_distance(rs.roots, osr.roots)
    reasons = []
    if len(rs) != count:
        reasons.append(f"solve returned {len(rs)} of {count} roots")
    if rs.max_residual() >= RESIDUAL_GATE:
        reasons.append(f"max residual {rs.max_residual():.2e}")
    if len(osr) != count:
        reasons.append(f"oracle returned {len(osr)} of {count} roots")
    elif not distance < PAIRING_GATE:
        reasons.append(f"pairing distance {distance:.2e}")
    # a wrong answer, as opposed to an incomplete one: a returned point that
    # is not a root, or an "ok" status on fewer than d^2 roots
    wrong = bool(np.any(res >= ROOT_GATE)) or (rs.status == "ok" and len(rs) != count)
    path, level = classify_path(rs)
    return {
        "kind": "solve", "d": d, "seed": seed, "real": real,
        "solve_s": t1 - t0, "oracle_s": t2 - t1,
        "roots": len(rs), "oracle_roots": len(osr), "status": rs.status,
        "retries": rs.retries, "path": path, "ladder_level": level,
        "failed": bool(reasons), "wrong": wrong, "reasons": reasons,
    }


def small_rounds(seed: int):
    """Criterion-7 systems, one per degree 3..7 per round.

    Round r draws k = base + r//2 (real) or base + 50 + r//2 (complex)
    within each block of 100, with base = 100 * seed, so seed 0 walks
    exactly the tier-1 seeds (10_000*d + k, real when k < 50) for degrees
    3..6, and a run (well under 100 rounds) shares no system with
    another seed's run.
    """
    base = 100 * seed
    r = 0
    while True:
        block, within = divmod(r, 100)
        k = base + 100 * block + within // 2 + 50 * (within % 2)
        yield [Item("solve", (d, 10_000 * d + k, within % 2 == 0, k)) for d in SMALL_DEGREES]
        r += 1


LARGE_SYSTEMS = [(d, 17 * d + s + 31337, s % 2 == 0, s) for d, s in [(12, s) for s in range(5)] + [(15, 0)]]


def large_rounds(seed: int):
    """The tier-1 smoke systems at d=12 (s=0..4) and d=15 (s=0), every round.

    These inputs are fixed rather than drawn from ``seed``: a random
    system of degree 12 or more takes either the rank ladder (1-3 s) or
    the rank-completion fallback (8-45 s), so a seeded draw of a handful
    would make every run's timing bimodal.  d=15 s=0 is the system that
    loses one root at 2 BLAS threads; it stays in every run.

    The oracle also runs alone on every system in three passes, placed
    between solves that take seconds to tens of seconds, so a slow spell
    of the machine reaches few of any one system's oracle samples.
    """
    d12 = [Item("solve", params) for params in LARGE_SYSTEMS[:-1]]
    d15 = Item("solve", LARGE_SYSTEMS[-1])
    oracles = [Item("oracle", params) for params in LARGE_SYSTEMS]
    while True:
        yield d12[:2] + oracles + d12[2:3] + oracles + [d15] + oracles + d12[3:]


SMALL_DEGREES = (3, 4, 5, 6, 7)
# every minunif (size 2d-1) and repjan (size 2d+1) representation within the
# symbolic cap of size 13: thirteen checks, an odd count, so the median is
# one check's time rather than the gap between two
SYMBOLIC_CHECKS = [("minunif", d) for d in range(1, 8)] + [("repjan", d) for d in range(1, 7)]
SYMBOLIC_REPEATS = 5  # the checks take about a millisecond each; repeats steady their median
ACT_MAPS = 4


def _largest_cell():
    """The tabulated cell with the most entries in its M_alpha matrices (size^2 * monomials)."""
    return max(construct_mod.tabulated_cells(),
               key=lambda cell: construct_mod.KNOWN_SIZES[cell] ** 2 * math.comb(sum(cell), cell[1]))


LARGEST_CELL = _largest_cell()


def represent_rounds(seed: int):
    """One pass: every tabulated cell, the symbolic checks and the affine action.

    The millisecond-long symbolic checks (each repeat of a check seconds
    apart from the last), and two extra runs of the largest cell, are
    spread over the pass, so one burst of machine noise cannot move all
    the samples behind a median.
    """
    cells = construct_mod.tabulated_cells()
    symbolic = [Item("symbolic", check) for _ in range(SYMBOLIC_REPEATS) for check in SYMBOLIC_CHECKS]
    r = 0
    while True:
        base = 1000 * seed + r
        items = []
        for i, (n, d) in enumerate(cells):
            if i in (0, len(cells) // 2):
                items.append(Item("largest", (*LARGEST_CELL, base + len(cells) + i)))
            items.append(Item("cell", (n, d, base + i)))
            items += symbolic[i * len(symbolic) // len(cells):(i + 1) * len(symbolic) // len(cells)]
        items += [Item("act", (base + j, 3 + j % 2)) for j in range(ACT_MAPS)]
        yield items
        r += 1


def _exact_det(rows) -> Fraction:
    """Fraction-free Bareiss elimination, independent of detrep._linalg."""
    m = [list(map(Fraction, row)) for row in rows]
    n, sign, prev = len(m), 1, Fraction(1)
    for k in range(n - 1):
        pivot_row = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]) / prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else Fraction(1)


def _specialization_holds(matrix, poly: MultiPoly, rng: random.Random) -> bool:
    """det(A0 + sum x_i A_i) == poly(x) at one random integer point."""
    x = [rng.randint(-5, 5) for _ in range(poly.n)]
    values = [[f.constant + sum(c * xi for c, xi in zip(f.linear, x)) for f in row] for row in matrix]
    expected = sum(c * math.prod(Fraction(xi) ** e for xi, e in zip(x, exp)) for exp, c in poly.terms.items())
    return _exact_det(values) == expected


def represent_item(item: Item) -> dict:
    if item.kind in ("cell", "largest"):
        n, d, seed = item.params
        t0 = perf_counter()
        rep = construct_mod.construct(n, d, construct_mod.best_method(n, d))
        t1 = perf_counter()
        ok = biaffine.verify(rep, "random", trials=20, seed=seed).ok
        t2 = perf_counter()
        poly = random_rational_poly(n, d, seed)
        t3 = perf_counter()
        matrix = biaffine.specialize(rep, poly)
        t4 = perf_counter()
        reasons = []
        if not ok:
            reasons.append("random verification failed")
        if not _specialization_holds(matrix, poly, random.Random(seed)):
            reasons.append("specialised determinant differs from the polynomial")
        # a representation that does not verify, or a wrong specialisation, is
        # a wrong answer; a valid but larger representation is only a failure
        wrong = bool(reasons)
        if rep.size != construct_mod.KNOWN_SIZES[(n, d)]:
            reasons.append(f"size {rep.size} != known {construct_mod.KNOWN_SIZES[(n, d)]}")
        return {"kind": item.kind, "cell": [n, d], "size": rep.size,
                "construct_s": t1 - t0, "verify_random_s": t2 - t1, "specialize_s": t4 - t3,
                "failed": bool(reasons), "wrong": wrong, "reasons": reasons}
    if item.kind == "symbolic":
        method, d = item.params
        rep = construct_mod.construct(2, d, method)
        t0 = perf_counter()
        ok = biaffine.verify(rep, "symbolic").ok
        t1 = perf_counter()
        return {"kind": "symbolic", "method": method, "d": d,
                "verify_symbolic_s": t1 - t0, "failed": not ok, "wrong": not ok,
                "reasons": [] if ok else ["symbolic verification failed"]}
    seed, d = item.params
    rep = construct_mod.construct(2, d, "minunif")
    g = symmetry.AffineMap.random(2, seed=seed)
    t0 = perf_counter()
    moved = symmetry.act(g, rep)
    t1 = perf_counter()
    ok = biaffine.verify(moved, "random", trials=20, seed=seed).ok and moved.size == rep.size
    t2 = perf_counter()
    return {"kind": "act", "d": d, "act_s": t1 - t0, "verify_random_s": t2 - t1,
            "failed": not ok, "wrong": not ok,
            "reasons": [] if ok else ["transformed representation failed verification"]}


# -- summaries ----------------------------------------------------------------


def _ms(values) -> float:
    return 1000.0 * statistics.median(values)


def _p90_ms(values):
    """p90 in ms, or None when fewer than ten samples lie above it."""
    if len(values) < 100:
        return None
    return 1000.0 * statistics.quantiles(values, n=10)[-1]


def summarize_solve(records: list[dict]) -> dict:
    """Named metrics of a solve workload (value, unit, sample count)."""
    # oracle_p50_ms is the median over systems of each system's median oracle
    # time; with one oracle call per system it is the plain median
    oracle_s = {}
    for r in records:
        if "oracle_s" in r:
            oracle_s.setdefault((r["d"], r["seed"]), []).append(r["oracle_s"])
    oracle_calls = sum(len(v) for v in oracle_s.values())
    records = [r for r in records if r["kind"] == "solve"]
    failed = sum(r["failed"] for r in records)
    timed = [r for r in records if not r.get("crashed")]
    solve_s = [r["solve_s"] for r in timed]
    top = max(r["d"] for r in timed)
    top_s = [r["solve_s"] for r in timed if r["d"] == top]
    out = {
        "solve_p50_ms": (_ms(solve_s), "ms", len(solve_s)),
        "solve_top_degree_p50_ms": (_ms(top_s), "ms", len(top_s)),
        "systems_per_s": (len(solve_s) / sum(solve_s), "1/s", len(solve_s)),
        "solve_fail_frac": (failed / len(records), "fraction", len(records)),
        "oracle_p50_ms": (_ms([statistics.median(v) for v in oracle_s.values()]), "ms", oracle_calls),
    }
    p90 = _p90_ms(solve_s)
    if p90 is not None:
        out["solve_p90_ms"] = (p90, "ms", len(solve_s))
    return out


def solve_details(records: list[dict]) -> dict:
    """Per-degree medians, path histogram and the failures with their reasons."""
    failures = [{k: r.get(k) for k in ("kind", "d", "seed", "real", "roots", "oracle_roots", "status", "path", "reasons")}
                for r in records if r["failed"]]
    records = [r for r in records if r["kind"] == "solve" and not r.get("crashed")]
    by_degree = {}
    for d in sorted({r["d"] for r in records}):
        rows = [r for r in records if r["d"] == d]
        paths = {p: sum(r["path"] == p for r in rows) for p in PATHS}
        levels = {}
        for r in rows:
            if r["path"] in ("ladder", "rotated"):
                key = f"{r['path']}_level_{r['ladder_level']}"
                levels[key] = levels.get(key, 0) + 1
        by_degree[str(d)] = {
            "systems": len(rows),
            "solve_p50_ms": _ms([r["solve_s"] for r in rows]),
            "oracle_p50_ms": _ms([r["oracle_s"] for r in rows]),
            "paths": paths,
            "levels": levels,
            "failed": sum(r["failed"] for r in rows),
        }
    return {"by_degree": by_degree, "failures": failures}


def summarize_represent(records: list[dict]) -> dict:
    failed = sum(r["failed"] for r in records)
    cells = [r for r in records if r["kind"] == "cell" and not r.get("crashed")]
    symbolic = [r for r in records if r["kind"] == "symbolic" and not r.get("crashed")]
    acts = [r for r in records if r["kind"] == "act" and not r.get("crashed")]
    rep_s = [r["construct_s"] + r["verify_random_s"] for r in cells]
    largest = [r["construct_s"] + r["verify_random_s"] for r in records
               if r["kind"] in ("cell", "largest") and not r.get("crashed") and tuple(r["cell"]) == LARGEST_CELL]
    verify_random = [r["verify_random_s"] for r in cells + acts]
    return {
        "rep_p50_ms": (_ms(rep_s), "ms", len(rep_s)),
        "rep_largest_ms": (_ms(largest), "ms", len(largest)),
        "reps_per_s": (len(rep_s) / sum(rep_s), "1/s", len(rep_s)),
        "verify_random_p50_ms": (_ms(verify_random), "ms", len(verify_random)),
        "verify_symbolic_p50_ms": (_ms([r["verify_symbolic_s"] for r in symbolic]), "ms", len(symbolic)),
        "specialize_exact_p50_ms": (_ms([r["specialize_s"] for r in cells]), "ms", len(cells)),
        "act_p50_ms": (_ms([r["act_s"] for r in acts]), "ms", len(acts)),
        "represent_fail_frac": (failed / len(records), "fraction", len(records)),
    }


def represent_details(records: list[dict]) -> dict:
    return {"failures": [r for r in records if r["failed"]]}


@dataclass(frozen=True)
class Workload:
    warm_degrees: tuple  # solver representation cache degrees warmed in set-up
    warmup: Item  # run once, untimed, so lazy imports and BLAS thread start-up are not timed
    rounds: object
    run_item: object
    summarize: object
    details: object
    # named metric behind each generic end-to-end metric
    latency: str
    throughput: str
    check: str


WARMUP_SYSTEM = Item("solve", (3, 30_000, True, 0))
WORKLOADS = {
    "solve-small": Workload(SMALL_DEGREES, WARMUP_SYSTEM, small_rounds, solve_item,
                            summarize_solve, solve_details, "solve_p50_ms", "systems_per_s", "oracle_p50_ms"),
    # The median of 38 unequal cells, or of solve-large's six solves, falls in
    # a gap between clusters and swings by up to a fifth between runs.  So
    # latency there is the largest input: the d=15 solve (the time ROADMAP
    # item 2 targets) and the largest cell.
    # solve-large warms up with a d=12 oracle call: the first call at that size is slow
    "solve-large": Workload((12, 15), Item("oracle", LARGE_SYSTEMS[0]), large_rounds, solve_item, summarize_solve,
                            solve_details, "solve_top_degree_p50_ms", "systems_per_s", "oracle_p50_ms"),
    "represent": Workload((), Item("cell", (2, 2, 0)), represent_rounds, represent_item,
                          summarize_represent, represent_details, "rep_largest_ms", "reps_per_s", "verify_symbolic_p50_ms"),
}
