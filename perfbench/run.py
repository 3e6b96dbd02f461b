"""nlhide benchmark: end-to-end and per-layer metrics of CLI workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload check-dense --seed 0 --seconds 15 --trace 0

One run is one process and one closed-loop client.  It sends the workload's
requests back to back through click's ``CliRunner``, in passes, until the next
pass would end past ``--seconds``, and at least ``MIN_PASSES`` times.  Two
set-up groups run, before and after the passes: each is a fresh interpreter
that times ``import nlhide.cli`` and then builds and saves the workload's input
files from the seed, repeatedly.  Taking samples on both sides of the passes
lets their medians see the machine states the passes saw.  Every
request's exit code and outputs are checked.  With ``--trace 1`` one traced
set-up runs first, then half of the time runs untraced passes and half traced
ones, at least ``MIN_PASSES`` each (see ``tracer.py``), and the per-layer
metrics are reported.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics named in
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with ``--trace 1``.
The lines before it list every metric of the run with its unit, including the
workload-specific ones, and the run metadata.  ``--out FILE`` appends the
same as one JSON record, for ``delta.py``.  ``--workload all`` runs every
workload in its own process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR_ROOT = ROOT / ".perfbench_work"

MIN_PASSES = 3
#: Each set-up group repeats the set-up until this much time is spent (at least once).
SETUP_SLICE_S = 1.5
SUBPROCESS_TIMEOUT_S = 150
#: A set-up group: a fresh interpreter times ``import nlhide.cli``, then sets up.
SETUP_SNIPPET = (
    "import sys, time; t = time.perf_counter(); import nlhide.cli; "
    "t = time.perf_counter() - t; import workloads; "
    "sys.exit(workloads.setup_main(sys.argv[1:], t))"
)

UNITS = {
    "import_s": "s",
    "setup_s": "s",
    "wall_s": "s",
    "check_s": "s",
    "simulate_trials_per_s": "trials/s",
    "direct_s": "s",
    "fold_s": "s",
    "peak_rss_mb": "MB",
    "fail_frac": "ratio",
    "trace.overhead_s": "s",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("s_per_iteration"):
        return "s/iteration"
    if name.endswith("eig_work"):
        return "n3_computed"
    return "count"


# ---------------------------------------------------------------------------
# Run metadata
# ---------------------------------------------------------------------------


def _blas_threads() -> int | None:
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as handle:
        libs = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _cpu_model() -> str | None:
    with open("/proc/cpuinfo", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return None


def metadata(workload: str, seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "commit": _git_commit(),
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py")),
    }


# ---------------------------------------------------------------------------
# Set-up and import timing (subprocesses)
# ---------------------------------------------------------------------------


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), str(HERE), env.get("PYTHONPATH")]))
    return env


def run_setup(workload: str, seed: int, workdir: Path, toy: bool, trace: int) -> dict:
    """One set-up group: ``import_s``, ``setup_s`` samples, and with ``trace`` the layers."""
    slice_s = 0.0 if trace else SETUP_SLICE_S
    done = subprocess.run(
        [sys.executable, "-c", SETUP_SNIPPET, workload, str(seed), str(workdir), str(slice_s),
         "1" if toy else "0", str(trace)],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S,
        check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Passes over the workload's requests
# ---------------------------------------------------------------------------


@dataclass
class PassResult:
    wall_s: float
    by_kind: dict[str, float]
    request_s: list[float]
    trials: int
    failures: list[str]
    span_range: tuple[int, int]


def run_pass(plan, workdir: Path, tracer=None) -> PassResult:
    from click.testing import CliRunner
    from nlhide.cli import main as cli

    runner = CliRunner(env={"NLHIDE_DIM_CAP": None})
    outcomes = []
    by_kind: dict[str, float] = {}
    request_s: list[float] = []
    lo = len(tracer) if tracer is not None else 0
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        for req in plan.requests:
            t0 = time.perf_counter()
            idx = tracer.open(f"cli.{req.args[0]}") if tracer is not None else -1
            result = runner.invoke(cli, list(req.args))
            if tracer is not None:
                tracer.close(idx)
            request_s.append(time.perf_counter() - t0)
            by_kind[req.kind] = by_kind.get(req.kind, 0.0) + request_s[-1]
            outcomes.append((req, result))
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    failures = []
    for req, result in outcomes:
        error = None
        if result.exception is not None and not isinstance(result.exception, SystemExit):
            error = f"raised {result.exception!r}"
        else:
            try:
                error = req.check(result.exit_code, result.stdout, workdir)
            except Exception as exc:  # a malformed output is a failed request
                error = f"output check raised {exc!r}"
        if error is not None:
            failures.append(f"{' '.join(req.args)}: {error}")
    trials = sum(req.trials for req in plan.requests)
    hi = len(tracer) if tracer is not None else 0
    return PassResult(wall, by_kind, request_s, trials, failures, (lo, hi))


def run_passes(plan, workdir: Path, budget_s: float, min_passes: int,
               tracer=None) -> list[PassResult]:
    """Passes until the next would end past the budget, at least ``min_passes``."""
    passes: list[PassResult] = []
    spent = 0.0
    while True:
        res = run_pass(plan, workdir, tracer)
        passes.append(res)
        spent += res.wall_s
        if len(passes) >= min_passes and spent + res.wall_s > budget_s:
            return passes


def end_to_end(passes: list[PassResult], setup_s: list[float], import_s: list[float],
               plan) -> dict[str, float]:
    med = statistics.median
    kinds = {req.kind for req in plan.requests}
    metrics = {
        "import_s": med(import_s),
        "setup_s": med(setup_s),
        "wall_s": med(p.wall_s for p in passes),
    }
    if "check" in kinds:
        metrics["check_s"] = med(p.by_kind["check"] for p in passes)
    if "simulate" in kinds:
        metrics["simulate_trials_per_s"] = med(p.trials / p.by_kind["simulate"] for p in passes)
    if "direct" in kinds:
        metrics["direct_s"] = med(p.by_kind["direct"] for p in passes)
    if "fold" in kinds:
        metrics["fold_s"] = med(p.by_kind["fold"] for p in passes)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    return metrics


def per_layer(tracer, traced: list[PassResult], untraced: list[PassResult],
              setup_layers: dict[str, float]) -> dict[str, float]:
    """Medians over traced passes; the saves also count the traced set-up."""
    from tracer import layer_metrics

    rows = [layer_metrics(tracer, *p.span_range) for p in traced]
    metrics = {key: statistics.median(row[key] for row in rows) for key in rows[0]}
    for key in ("ensembles.save_s", "ensembles.save_mb"):
        metrics[key] += setup_layers[key]
    metrics["trace.overhead_s"] = (statistics.median(p.wall_s for p in traced)
                                   - statistics.median(p.wall_s for p in untraced))
    return metrics


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_one(args) -> int:
    from tracer import Tracer

    spec = benchmark_spec()
    plan = workloads.make_plan(args.workload, args.seed, args.toy)
    meta = metadata(args.workload, args.seed)
    WORKDIR_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKDIR_ROOT))
    # The second set-up group writes here, so the passes' inputs stay untouched.
    resetup = workdir / "resetup"
    resetup.mkdir()
    groups = []

    def setup_group(target: Path) -> None:
        groups.append(run_setup(args.workload, args.seed, target, args.toy, args.trace))

    cwd = os.getcwd()
    try:
        setup_group(workdir)
        os.chdir(workdir)
        tracer = None
        if args.trace:
            untraced = run_passes(plan, workdir, args.seconds / 2, MIN_PASSES)
            tracer = Tracer()
            traced = run_passes(plan, workdir, args.seconds / 2, MIN_PASSES, tracer)
        else:
            untraced = run_passes(plan, workdir, args.seconds, MIN_PASSES)
            traced = []
            setup_group(resetup)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)

    setup_s = [t for g in groups for t in g["setup_s"]]
    import_s = [g["import_s"] for g in groups]
    everything = untraced + traced
    attempted = len(plan.requests) * len(everything)
    failures = [msg for p in everything for msg in p.failures]
    metrics = end_to_end(untraced, setup_s, import_s, plan)
    metrics["fail_frac"] = len(failures) / attempted
    if tracer is not None:
        metrics.update(per_layer(tracer, traced, untraced, groups[0]["layers"]))
        if args.spans:
            tracer.write(args.spans)

    walls = [[round(p.wall_s, 4) for p in untraced], [round(p.wall_s, 4) for p in traced]]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"requests/pass={len(plan.requests)} pass walls (untraced, traced)={walls} "
          f"setup={[round(t, 4) for t in setup_s]} import={[round(t, 4) for t in import_s]}")
    print("meta " + " ".join(f"{k}={v}" for k, v in meta.items()))
    for name, value in metrics.items():
        print(f"  {name:36s} {value:>16.6g} {unit_of(name)}")
    for msg in failures:
        print(f"FAILED {msg}")
    if args.out:
        record = {"meta": meta, "trace": args.trace, "seconds": args.seconds,
                  "pass_walls": walls, "setup_s": setup_s, "import_s": import_s,
                  "request_s": {" ".join(req.args): [round(p.request_s[k], 4) for p in everything]
                                for k, req in enumerate(plan.requests)},
                  "attempted": attempted,
                  "failed": len(failures), "failures": failures,
                  "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}}
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")

    reported = spec["per_layer"] if args.trace else spec["end_to_end"]
    for entry in reported:
        if unit_of(entry["name"]) != entry["unit"]:
            raise SystemExit(f"unit mismatch for {entry['name']}: BENCHMARK.json says "
                             f"{entry['unit']}, the benchmark measures {unit_of(entry['name'])}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {e["name"]: {"value": metrics[e["name"]], "unit": e["unit"]}
                    for e in reported},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, each in a fresh process, in turn."""
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.toy:
            cmd.append("--toy")
        if args.out:
            cmd += ["--out", args.out]
        status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
    return status


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="append the full run record to this JSONL file")
    parser.add_argument("--spans", help="with --trace 1, write the spans to this JSONL file")
    parser.add_argument("--toy", action="store_true",
                        help="toy-sized inputs, for the smoke test")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "nlhide" / "cli.py").is_file():
        print(f"error: no nlhide sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
