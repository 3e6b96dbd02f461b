"""Command-line front end.

Subcommands: ``example`` (write a built-in ensemble file), ``check``
(admissibility report), ``bounds`` (fold-count curve), ``simulate`` (seeded
protocol runs), ``fold`` (emit an explicit coarse ensemble) and ``coalition``
(per-coalition bound table).  Exit codes: 0 success/admissible, 1
inadmissible (and only that), 2 any input, parameter or file error, 3
dimension cap, 4 undecided (uncertified solver); the command group maps
library errors to these codes in one place.  All output is deterministic
given flags, input file and seed; CSV uses '.' decimals with 17 significant
digits.
"""

from __future__ import annotations

import json
import sys
from typing import NoReturn

import click

from .ensembles import (
    Ensemble,
    InvalidEnsembleError,
    ParityBlockParams,
    ghz_complement_ensemble,
    load_ensemble,
    parity_block_ensemble,
    save_ensemble,
    validate,
)
from .folding import FoldSpec, coarse_ensemble, fold_bound, uniform_coarse_ensemble
from .hiding import (
    HidingError,
    HidingReport,
    SchemeConfig,
    check_hiding,
    coalition_report,
    direct_encode,
    run_protocol,
    transcripts_to_jsonl,
)
from .tensor import DEFAULT_DIM_CAP, DimensionCapError

EXIT_OK = 0
EXIT_INADMISSIBLE = 1
EXIT_USAGE = 2
EXIT_DIM_CAP = 3
EXIT_UNDECIDED = 4


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _fail(code: int, message: str) -> NoReturn:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _emit(text: str, path: str | None) -> None:
    """Write ``text`` to ``path``, or to stdout when no path is given."""
    if path is None:
        click.echo(text, nl=False)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _load(path: str) -> Ensemble:
    try:
        return load_ensemble(path)
    except (InvalidEnsembleError, OSError) as exc:
        _fail(EXIT_USAGE, f"cannot load ensemble from {path}: {exc}")


class _ExitCodeGroup(click.Group):
    """Maps the library's errors to exit codes, for every command."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except DimensionCapError as exc:
            _fail(EXIT_DIM_CAP, str(exc))
        except HidingError as exc:
            _fail(EXIT_INADMISSIBLE, str(exc))
        except (ValueError, OSError) as exc:
            _fail(EXIT_USAGE, str(exc))


@click.group(cls=_ExitCodeGroup)
@click.option(
    "--cap",
    type=int,
    default=DEFAULT_DIM_CAP,
    envvar="NLHIDE_DIM_CAP",
    show_default=True,
    help="Dimension cap for explicit matrix constructions (env NLHIDE_DIM_CAP).",
)
@click.pass_context
def main(ctx: click.Context, cap: int) -> None:
    """Ensemble construction, discrimination bounds and hiding-scheme tools."""
    ctx.obj = {"cap": cap}


@main.command()
@click.option("--kind", type=click.Choice(["1", "2"]), required=True,
              help="1: two-state GHZ-complement family; 2: parity-block family.")
@click.option("--d", "d", type=int, required=True, help="Local level count (>= 2).")
@click.option("--m", "m", type=int, required=True, help="Number of parties (>= 2).")
@click.option("--s", "s", type=int, default=1, show_default=True,
              help="Repetitions per block (kind 2).")
@click.option("--t", "t", type=int, default=1, show_default=True,
              help="Block copies; the ensemble has 2**t states (kind 2).")
@click.option("--output", "-o", type=click.Path(dir_okay=False), required=True)
@click.pass_context
def example(ctx: click.Context, kind: str, d: int, m: int, s: int, t: int, output: str) -> None:
    """Write a built-in example ensemble as JSON and print its diagnostics."""
    cap = ctx.obj["cap"]
    if kind == "1":
        ensemble = ghz_complement_ensemble(d, m, cap=cap)
    else:
        ensemble = parity_block_ensemble(ParityBlockParams(d, m, s, t), cap=cap)
    save_ensemble(ensemble, output)
    diagnostics = validate(ensemble)
    for check in diagnostics.checks:
        click.echo(f"{check.name}: {'ok' if check.ok else 'FAIL'} (residual {check.residual:.3e})")
    for warning in diagnostics.warnings:
        click.echo(f"warning: {warning}")
    click.echo(f"wrote {ensemble.n}-state, {ensemble.dim}-dim ensemble to {output}")


def _report_lines(report: HidingReport) -> list[str]:
    lines = [
        f"states: {report.n}, hiding threshold 2/n: {_fmt(report.threshold)}",
        f"orthogonal: {'yes' if report.orthogonal else 'NO'} "
        f"(max overlap {report.max_overlap:.3e})",
    ]
    for key in sorted(report.q_values):
        tag = "exact" if report.q_exact[key] else (
            "certified" if report.q_certified[key] else "UNCERTIFIED")
        lines.append(f"q[{key}] = {_fmt(report.q_values[key])} ({tag})")
    for key, msg in sorted(report.solver_failures.items()):
        lines.append(f"q[{key}] FAILED: {msg}")
    lines.append(f"max q: {_fmt(report.max_q)}")
    comparison = "<" if report.max_q < report.threshold else ">="
    lines.append(
        f"condition max q < 2/n: {_fmt(report.max_q)} {comparison} {_fmt(report.threshold)} "
        f"-> {'holds' if report.max_q < report.threshold else 'FAILS'}"
    )
    if report.fast_path:
        pivot_cmp = "<" if report.pivot_weight < report.threshold else ">="
        lines.append(
            f"dominance fast path: pivot weight {_fmt(report.pivot_weight)} "
            f"{pivot_cmp} {_fmt(report.threshold)}"
        )
    if report.admissible is True:
        folds = "none (bound does not decay)" if report.min_folds is None else report.min_folds
        lines.append(f"admissible: yes (min folds for epsilon {report.epsilon:g}: {folds})")
    elif report.admissible is False:
        lines.append("admissible: no")
    else:
        lines.append("admissible: undecided (uncertified bound at or above threshold)")
    return lines


@main.command()
@click.argument("input_path", type=click.Path(exists=False, dir_okay=False))
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text",
              show_default=True)
@click.option("--tol", type=click.FloatRange(min=0, min_open=True), default=1e-8,
              show_default=True, help="Solver certification tolerance (> 0).")
@click.option("--max-iterations", type=click.IntRange(min=0), default=100_000,
              show_default=True, help="Solver iteration budget per bipartition.")
def check(input_path: str, fmt: str, tol: float, max_iterations: int) -> None:
    """Admissibility report for an ensemble file."""
    ensemble = _load(input_path)
    report = check_hiding(ensemble, tol=tol, max_iterations=max_iterations)
    if fmt == "json":
        click.echo(json.dumps(report.to_dict(), sort_keys=True))
    else:
        for line in _report_lines(report):
            click.echo(line)
    if report.admissible is True:
        sys.exit(EXIT_OK)
    if report.admissible is False:
        sys.exit(EXIT_INADMISSIBLE)
    sys.exit(EXIT_UNDECIDED)


@main.command()
@click.argument("input_path", type=click.Path(dir_okay=False))
@click.option("--lmax", type=click.IntRange(min=1), required=True,
              help="Largest fold count tabulated.")
@click.option("--output", "-o", type=click.Path(dir_okay=False), default=None,
              help="CSV destination (stdout when omitted).")
@click.option("--force", is_flag=True, help="Tabulate even when inadmissible.")
def bounds(input_path: str, lmax: int, output: str | None, force: bool) -> None:
    """Fold-count bound curve (and the exact two-state curve when available)."""
    ensemble = _load(input_path)
    report = check_hiding(ensemble)
    report.require_admissible(force)
    qx = max(report.max_q, 1.0 / report.n)
    # Two states decided by dominance on every cut: the bound is the exact value.
    exact = report.n == 2 and report.fast_path
    rows = ["L,bound,exact"]
    for L in range(1, lmax + 1):
        bound = _fmt(fold_bound(report.n, qx, L))
        rows.append(f"{L},{bound},{bound if exact else ''}")
    _emit("\n".join(rows) + "\n", output)


@main.command()
@click.argument("input_path", type=click.Path(dir_okay=False))
@click.option("--L", "folds", type=click.IntRange(min=1), required=True, help="Fold count.")
@click.option("--x", "x", type=int, required=True, help="Datum to hide (0..n-1).")
@click.option("--trials", type=click.IntRange(min=1), default=1000, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--mode", type=click.Choice(["broadcast", "direct"]), default="broadcast",
              show_default=True)
@click.option("--transcripts", type=click.Path(dir_okay=False), default=None,
              help="Transcript JSONL destination (broadcast) or descriptor JSON (direct).")
@click.option("--summary", "summary_path", type=click.Path(dir_okay=False), default=None,
              help="Summary CSV destination (stdout when omitted).")
@click.option("--force", is_flag=True, help="Simulate an inadmissible ensemble.")
@click.pass_context
def simulate(
    ctx: click.Context,
    input_path: str,
    folds: int,
    x: int,
    trials: int,
    seed: int,
    mode: str,
    transcripts: str | None,
    summary_path: str | None,
    force: bool,
) -> None:
    """Run the seeded hiding protocol; identical seeds give identical bytes."""
    cap = ctx.obj["cap"]
    ensemble = _load(input_path)
    if not 0 <= x < ensemble.n:
        _fail(EXIT_USAGE, f"--x {x} out of range 0..{ensemble.n - 1}")
    cfg = SchemeConfig.create(ensemble, folds, seed=seed, force=force)

    if mode == "direct":
        encoding = direct_encode(cfg, x, cap=cap)
        if transcripts is not None:
            _emit(json.dumps(encoding.to_dict(), sort_keys=True) + "\n", transcripts)
        header = "x,L,dim,recovery_ok," + ",".join(
            f"class_prob_{j}" for j in range(ensemble.n))
        row = ",".join(
            [str(encoding.x), str(encoding.L), str(encoding.state.dim),
             str(int(encoding.recovery_ok))]
            + [_fmt(p) for p in encoding.class_probs]
        )
        text = header + "\n" + row + "\n"
    else:
        run = run_protocol(cfg, x, trials)
        if transcripts is not None:
            _emit(transcripts_to_jsonl(run), transcripts)
        s = run.summary
        header = (
            "trials,x,L,seed,mode,recovery_rate,"
            + ",".join(f"count_{j}" for j in range(ensemble.n))
            + ","
            + ",".join(f"expected_{j}" for j in range(ensemble.n))
        )
        row = ",".join(
            [str(s.trials), str(s.x), str(s.L), str(s.seed), "broadcast",
             _fmt(s.recovery_rate)]
            + [str(c) for c in s.class_counts]
            + [_fmt(p) for p in s.expected_class_probs]
        )
        text = header + "\n" + row + "\n"
        if s.warning:
            text += f"# warning: {s.warning}\n"
    _emit(text, summary_path)


@main.command()
@click.argument("input_path", type=click.Path(dir_okay=False))
@click.option("--L", "folds", type=click.IntRange(min=1), required=True, help="Fold count.")
@click.option("--uniform", is_flag=True,
              help="Re-weight the coarse classes uniformly (direct-encoding prior).")
@click.option("--output", "-o", type=click.Path(dir_okay=False), required=True)
@click.pass_context
def fold(ctx: click.Context, input_path: str, folds: int, uniform: bool, output: str) -> None:
    """Write the explicit coarse ensemble after L folds."""
    cap = ctx.obj["cap"]
    spec = FoldSpec(_load(input_path), folds)
    out = uniform_coarse_ensemble(spec, cap=cap) if uniform else coarse_ensemble(spec, cap=cap)
    save_ensemble(out, output)
    click.echo(f"wrote {out.n}-state, {out.dim}-dim coarse ensemble to {output}")


@main.command()
@click.argument("input_path", type=click.Path(dir_okay=False))
@click.option("--L", "folds", type=click.IntRange(min=1), required=True, help="Fold count.")
@click.option("--output", "-o", type=click.Path(dir_okay=False), default=None,
              help="CSV destination (stdout when omitted).")
@click.option("--force", is_flag=True, help="Tabulate even when inadmissible.")
def coalition(input_path: str, folds: int, output: str | None, force: bool) -> None:
    """Per-coalition guessing bound table after L folds."""
    lines = ["partition,L,bound_or_exact,kind"]
    for row in coalition_report(_load(input_path), folds, force=force):
        lines.append(f"{row.partition},{row.L},{_fmt(row.value)},{row.kind}")
    _emit("\n".join(lines) + "\n", output)


if __name__ == "__main__":
    main()
