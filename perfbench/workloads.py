"""Workload definitions: input files, CLI requests and output checks.

A workload is a list of input files (built and saved in set-up) and a list of
``nlhide`` CLI requests over those files.  Every request carries a check of
its exit code and outputs; a request whose check fails counts towards
``fail_frac``.  Inputs depend only on the workload name, the seed and the
``toy`` flag, so the set-up process and the measuring process derive the same
plan independently.

``setup_main`` is the body of a set-up group, a fresh interpreter that
``run.py`` starts after timing ``import nlhide.cli`` in it.  It builds and
saves every input file until ``SLICE`` seconds are spent (at least once) and
prints the import time and the time of each repetition as JSON; with
``TRACE`` 1 it sets up once, traced, and adds the per-layer metrics of that
set-up.  It runs apart from the measuring process so that the peak RSS of the
latter reflects the requests alone.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("check-dense", "check-solver", "simulate-fold")

#: Chi-square level of the class-count test; a fresh seed trips it with
#: probability 1e-6 per simulate request.
CHI2_LEVEL = 1e-6
#: Tolerance for probabilities and curves recomputed by the benchmark.
EXACT_TOL = 1e-12
#: Trials of each broadcast simulate request in simulate-fold.
SIMULATE_TRIALS = 10_000
#: Dirichlet concentration of the check-solver priors.
SOLVER_PRIOR_ALPHA = 1.0

EXIT_CODES = {True: 0, False: 1, None: 4}


@dataclass(frozen=True)
class Input:
    """One input file: a built-in family or a Weyl-Bell subset."""

    name: str
    family: str  # "ghz" (d, m) | "parity" (d, m, s, t) | "weyl" (d, states)
    params: tuple
    priors: tuple[float, ...] = ()

    @property
    def filename(self) -> str:
        return f"{self.name}.json"


@dataclass(frozen=True)
class Request:
    """One CLI call; ``check(exit_code, stdout, workdir)`` returns an error or None."""

    kind: str  # check | simulate | direct | fold | bounds | coalition
    args: tuple[str, ...]
    check: Callable[[int, str, Path], str | None]
    trials: int = 0


@dataclass(frozen=True)
class Plan:
    inputs: tuple[Input, ...]
    requests: tuple[Request, ...]


# ---------------------------------------------------------------------------
# Input families
# ---------------------------------------------------------------------------


def ghz_priors(d: int, m: int) -> tuple[float, float]:
    dim = d**m
    return ((dim - 1) / dim, 1 / dim)


def parity_priors(d: int, m: int, s: int, t: int) -> tuple[float, ...]:
    base = d**m
    lam = ((base**s + (base - 2) ** s) / (2 * base**s),
           (base**s - (base - 2) ** s) / (2 * base**s))
    return tuple(
        math.prod(lam[(i >> k) & 1] for k in range(t)) for i in range(2**t)
    )


def weyl_bell_vectors(d: int) -> np.ndarray:
    """The d*d maximally entangled vectors (1 x X^a Z^b)|Phi>, row a*d + b."""
    phi = np.eye(d, dtype=np.complex128).reshape(-1) / math.sqrt(d)
    shift = np.roll(np.eye(d), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    rows = []
    for a in range(d):
        for b in range(d):
            local = np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)
            rows.append(np.kron(np.eye(d), local) @ phi)
    return np.array(rows)


def build_ensemble(inp: Input):
    from nlhide.ensembles import (
        Ensemble,
        ParityBlockParams,
        ghz_complement_ensemble,
        parity_block_ensemble,
    )
    from nlhide.partitions import PartySet
    from nlhide.tensor import MultiPartyOperator, SlotStructure

    if inp.family == "ghz":
        return ghz_complement_ensemble(*inp.params)
    if inp.family == "parity":
        return parity_block_ensemble(ParityBlockParams(*inp.params))
    d, chosen = inp.params
    vecs = weyl_bell_vectors(d)
    slots = SlotStructure((d, d), ("A1", "A2"))
    states = tuple(
        MultiPartyOperator(np.outer(vecs[k], vecs[k].conj()), slots) for k in chosen
    )
    return Ensemble(PartySet.of_size(2), inp.priors, states)


def setup(plan: Plan, workdir: Path) -> float:
    """Build and save every input file; returns the elapsed seconds."""
    from nlhide.ensembles import save_ensemble

    start = time.perf_counter()
    for inp in plan.inputs:
        save_ensemble(build_ensemble(inp), str(workdir / inp.filename))
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _csv_rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(
        "".join(line + "\n" for line in text.splitlines() if not line.startswith("#"))
    )))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= EXACT_TOL * max(1.0, abs(b))


def _check_dense(inp: Input) -> Callable[[int, str, Path], str | None]:
    from nlhide.ensembles import ParityBlockParams, parity_block_size_condition

    pivot_weight = max(inp.priors)
    if inp.family == "parity":
        expected = parity_block_size_condition(ParityBlockParams(*inp.params)).holds
    else:
        expected = pivot_weight < 2 / len(inp.priors)

    def check(code: int, out: str, workdir: Path) -> str | None:
        report = json.loads(out)
        if code != EXIT_CODES[report["admissible"]]:
            return f"exit code {code} for verdict {report['admissible']}"
        if not report["fast_path"] or report["max_q"] != report["pivot_weight"]:
            return f"max_q {report['max_q']} is not the pivot weight {report['pivot_weight']}"
        if not _close(report["pivot_weight"], pivot_weight):
            return f"pivot weight {report['pivot_weight']} != {pivot_weight}"
        if report["admissible"] is not expected:
            return f"verdict {report['admissible']} != expected {expected}"
        return None

    return check


def _check_solver(inp: Input) -> Callable[[int, str, Path], str | None]:
    largest_prior = max(inp.priors)
    threshold = 2 / len(inp.priors)

    def check(code: int, out: str, workdir: Path) -> str | None:
        report = json.loads(out)
        if report["solver_failures"] or not all(report["q_certified"].values()):
            return f"uncertified cut: {report['q_certified']} {report['solver_failures']}"
        if report["max_q"] < largest_prior - 1e-9:
            return f"max_q {report['max_q']} below the largest prior {largest_prior}"
        if report["max_q"] < threshold:
            ok = code == 0
        else:
            # exit 4 only when the certified gap straddles the threshold
            ok = code == 1 or (code == 4 and report["max_q"] < threshold + 1e-8)
        if not ok:
            return f"exit code {code} for max_q {report['max_q']} vs 2/n {threshold}"
        return None

    return check


def _chi2_pvalue(counts: list[int], probs: list[float]) -> float:
    from scipy.stats import chi2

    total = sum(counts)
    cells = [(c, p) for c, p in zip(counts, probs) if p > 0]
    stat = sum((c - total * p) ** 2 / (total * p) for c, p in cells)
    return float(chi2.sf(stat, len(cells) - 1)) if len(cells) > 1 else 1.0


def _check_broadcast(inp: Input, L: int, trials: int, transcripts: str):
    from nlhide.folding import fold_probs

    n = len(inp.priors)
    expected_probs = fold_probs(inp.priors, n, L)

    def check(code: int, out: str, workdir: Path) -> str | None:
        if code != 0:
            return f"exit code {code}"
        row = _csv_rows((workdir / f"{inp.name}-summary.csv").read_text())[0]
        if float(row["recovery_rate"]) != 1.0:
            return f"recovery_rate {row['recovery_rate']}"
        counts = [int(row[f"count_{j}"]) for j in range(n)]
        probs = [float(row[f"expected_{j}"]) for j in range(n)]
        if sum(counts) != trials or int(row["trials"]) != trials:
            return f"class counts {counts} do not sum to {trials}"
        if not all(_close(a, b) for a, b in zip(probs, expected_probs)):
            return f"expected_class_probs {probs} != fold_probs {list(expected_probs)}"
        p_value = _chi2_pvalue(counts, probs)
        if p_value < CHI2_LEVEL:
            return f"class counts {counts} fail chi-square (p={p_value:.3g})"
        with open(workdir / transcripts, "rb") as handle:
            lines = sum(1 for _ in handle)
        if lines != trials:
            return f"{lines} transcript lines for {trials} trials"
        return None

    return check


def _check_direct(x: int, dim: int):
    def check(code: int, out: str, workdir: Path) -> str | None:
        if code != 0:
            return f"exit code {code}"
        row = _csv_rows((workdir / "direct-summary.csv").read_text())[0]
        if row["recovery_ok"] != "1" or int(row["x"]) != x or int(row["dim"]) != dim:
            return f"direct summary {row}"
        return None

    return check


def _check_fold(inp: Input, L: int, uniform: bool, output: str):
    from nlhide.folding import fold_probs

    n = len(inp.priors)
    expected = [1.0 / n] * n if uniform else list(fold_probs(inp.priors, n, L))

    def check(code: int, out: str, workdir: Path) -> str | None:
        from nlhide.ensembles import load_ensemble

        if code != 0:
            return f"exit code {code}"
        folded = load_ensemble(str(workdir / output))
        if len(folded.probs) != n or not all(
                _close(a, b) for a, b in zip(folded.probs, expected)):
            return f"folded probs {folded.probs} != {expected}"
        return None

    return check


def _check_bounds(inp: Input, lmax: int):
    from nlhide.folding import exact_two_state_curve, fold_bound

    n = len(inp.priors)
    pivot = max(inp.priors)
    bound = [fold_bound(n, max(pivot, 1 / n), L) for L in range(1, lmax + 1)]
    exact = exact_two_state_curve(pivot, lmax) if n == 2 else None

    def check(code: int, out: str, workdir: Path) -> str | None:
        if code != 0:
            return f"exit code {code}"
        rows = _csv_rows((workdir / "bounds.csv").read_text())
        if [int(r["L"]) for r in rows] != list(range(1, lmax + 1)):
            return f"bounds rows {len(rows)} != {lmax}"
        for r, b in zip(rows, bound):
            if not _close(float(r["bound"]), b):
                return f"bound at L={r['L']}: {r['bound']} != {b}"
        if exact is not None:
            for r, v in zip(rows, exact):
                if not _close(float(r["exact"]), v):
                    return f"exact at L={r['L']}: {r['exact']} != {v}"
        return None

    return check


def _check_coalition(inp: Input, L: int, rows_expected: int):
    from nlhide.folding import fold_probs

    n = len(inp.priors)
    value = float(np.max(fold_probs(inp.priors, n, L)))

    def check(code: int, out: str, workdir: Path) -> str | None:
        if code != 0:
            return f"exit code {code}"
        rows = _csv_rows((workdir / "coalition.csv").read_text())
        if len(rows) != rows_expected:
            return f"{len(rows)} coalition rows, expected {rows_expected}"
        bad = [r for r in rows if r["kind"] != "exact" or not _close(float(r["bound_or_exact"]), value)]
        if bad:
            return f"coalition row {bad[0]} != exact {value}"
        return None

    return check


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


def ghz(d: int, m: int) -> Input:
    return Input(f"ghz-{d}-{m}", "ghz", (d, m), ghz_priors(d, m))


def parity(d: int, m: int, s: int, t: int) -> Input:
    return Input(f"parity-{d}-{m}-{s}-{t}", "parity", (d, m, s, t), parity_priors(d, m, s, t))


def _check_request(inp: Input, check) -> Request:
    return Request("check", ("check", inp.filename, "--format", "json"), check)


def plan_check_dense(seed: int, toy: bool) -> Plan:
    # The seed does not change these inputs: they are the built-in families.
    if toy:
        inputs = (parity(2, 2, 1, 2), ghz(2, 4), ghz(3, 2))
    else:
        inputs = (parity(2, 3, 1, 3), parity(2, 2, 2, 2), ghz(2, 8), ghz(3, 5), ghz(2, 7))
    return Plan(inputs, tuple(_check_request(i, _check_dense(i)) for i in inputs))


def plan_check_solver(seed: int, toy: bool) -> Plan:
    # The seed does not change these inputs.  File k holds the states and
    # Dirichlet priors drawn from seed k, as fixed instances: per-file iteration
    # counts range from 75 to 5175, so drawing them from the workload seed would
    # swing a pass's work threefold between seeds.
    d, count, files = 4, 8, (2 if toy else 20)
    inputs = []
    for k in range(files):
        instance = np.random.default_rng(k)
        chosen = tuple(int(i) for i in np.sort(instance.choice(d * d, size=count, replace=False)))
        priors = tuple(float(p) for p in instance.dirichlet([SOLVER_PRIOR_ALPHA] * count))
        inputs.append(Input(f"weyl-{k:02d}", "weyl", (d, chosen), priors))
    return Plan(tuple(inputs), tuple(_check_request(i, _check_solver(i)) for i in inputs))


def plan_simulate_fold(seed: int, toy: bool) -> Plan:
    rng = np.random.default_rng(seed)
    trials = 1_000 if toy else SIMULATE_TRIALS
    L, direct_L, lmax = 8, (3 if toy else 5), 50
    g22, g26, p2222, p2212 = ghz(2, 2), ghz(2, 6), parity(2, 2, 2, 2), parity(2, 2, 1, 2)
    inputs = (g22, g26, p2222, p2212)
    requests = []
    for inp in inputs:
        x = int(rng.integers(len(inp.priors)))
        transcripts = f"{inp.name}-transcripts.jsonl"
        args = ["simulate", inp.filename, "--L", str(L), "--x", str(x),
                "--trials", str(trials), "--seed", str(seed),
                "--transcripts", transcripts, "--summary", f"{inp.name}-summary.csv"]
        if inp is p2212:
            args.append("--force")  # inadmissible: (1 - 2/4)**1 >= 2**(1/2) - 1
        requests.append(Request("simulate", tuple(args),
                                _check_broadcast(inp, L, trials, transcripts), trials))
    x = int(rng.integers(2))
    requests.append(Request(
        "direct",
        ("simulate", g22.filename, "--mode", "direct", "--L", str(direct_L), "--x", str(x),
         "--transcripts", "direct.json", "--summary", "direct-summary.csv"),
        _check_direct(x, 4**direct_L)))
    ghz_L, parity_L = (2, 1) if toy else (4, 2)
    requests.append(Request("fold", ("fold", g22.filename, "--L", str(ghz_L),
                                     "-o", "fold-ghz.json"),
                            _check_fold(g22, ghz_L, False, "fold-ghz.json")))
    requests.append(Request("fold", ("fold", p2212.filename, "--L", str(parity_L), "--uniform",
                                     "-o", "fold-parity.json"),
                            _check_fold(p2212, parity_L, True, "fold-parity.json")))
    requests.append(Request("bounds", ("bounds", g26.filename, "--lmax", str(lmax),
                                       "-o", "bounds.csv"),
                            _check_bounds(g26, lmax)))
    # Bell(6) - 1 = 202 nontrivial partitions of six parties.
    requests.append(Request("coalition", ("coalition", g26.filename, "--L", "4",
                                          "-o", "coalition.csv"),
                            _check_coalition(g26, 4, 202)))
    return Plan(inputs, tuple(requests))


PLANS = {
    "check-dense": plan_check_dense,
    "check-solver": plan_check_solver,
    "simulate-fold": plan_simulate_fold,
}


def make_plan(workload: str, seed: int, toy: bool = False) -> Plan:
    return PLANS[workload](seed, toy)


def setup_main(argv: list[str], import_s: float) -> int:
    """``argv`` is WORKLOAD SEED DIR SLICE TOY TRACE; ``nlhide.cli`` is imported."""
    workload, seed, workdir, slice_s, toy, trace = argv
    plan = make_plan(workload, int(seed), toy == "1")
    if trace == "0":
        times = [setup(plan, Path(workdir))]
        while sum(times) < float(slice_s):
            times.append(setup(plan, Path(workdir)))
        print(json.dumps({"import_s": import_s, "setup_s": times}))
        return 0
    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    tracer.install()
    try:
        times = [setup(plan, Path(workdir))]
    finally:
        tracer.uninstall()
    layers = layer_metrics(tracer, 0, len(tracer))
    print(json.dumps({"import_s": import_s, "setup_s": times, "layers": layers}))
    return 0
