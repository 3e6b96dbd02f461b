"""The data-hiding scheme: admissibility, sizing, simulation, coalition bounds.

An orthogonal ensemble whose largest bipartition bound stays below ``2/n``
hides an n-ary datum: the hider prepares ``L`` states, broadcasts the datum
shifted by the modulo-n class of the preparation, and only a global
measurement can undo the shift.  This module decides admissibility, sizes the
fold count for a target leakage, simulates seeded protocol runs (one
generator per run, all trials drawn as one array) with reproducible
transcripts, and tabulates per-coalition guessing bounds.

Simulation never materializes ``dim**L`` matrices: the recovery measurement on
an orthogonal ensemble returns the preparation class deterministically, so
sampling the base priors suffices.  Direct encoding and the explicit-matrix
cross-check (small ``L``) build that measurement without an eigensolve at
``dim**L``: the cyclic convolution of the base support projectors is the
projector onto each coarse class's support when the base states are orthogonal.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.stats import chi2 as _chi2

from .discrimination import (
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_SOLVER_TOL,
    max_bipartition_bound,
)
from .ensembles import ORTHOGONALITY_TOL, Ensemble, max_pairwise_overlap
from .folding import FoldSpec, _class_sums, coarse_ensemble, fold_bound, fold_probs, mod_sum
from .partitions import all_partitions, coarser_bipartitions
from .tensor import (
    DEFAULT_DIM_CAP,
    MultiPartyOperator,
    hermitian_eigensystem,
)

SUPPORT_CUTOFF = 1e-10  # relative eigenvalue cutoff of a base state's support
RECOVERY_TOL = 1e-8  # deviation of a class probability from 0 or 1
CURVE_LMAX = 20  # fold counts tabulated in HidingReport.bound_curve


class HidingError(ValueError):
    """The requested operation needs an admissible ensemble."""


@dataclass(frozen=True)
class HidingReport:
    """Admissibility verdict with the evidence behind it.

    ``admissible`` is ``True``/``False`` when decidable and ``None`` when some
    bipartition stayed uncertified with its upper bound at or above the
    threshold.  ``q_values`` are dual upper bounds keyed by the canonical
    bipartition string; ``q_exact`` marks values obtained from the dominance
    certificate (exact, gap zero).  ``min_folds`` is the fold count reaching
    ``1/n + epsilon``; it is ``None`` unless ``admissible`` is ``True``, and
    also when ``n * max_q - 1`` rounds to 1 so the bound cannot decay.
    """

    n: int
    threshold: float
    orthogonal: bool
    max_overlap: float
    p_global: float | None
    q_values: dict[str, float]
    q_certified: dict[str, bool]
    q_exact: dict[str, bool]
    solver_failures: dict[str, str]
    max_q: float
    fast_path: bool
    pivot: int
    pivot_weight: float
    admissible: bool | None
    epsilon: float
    bound_curve: tuple[float, ...]
    min_folds: int | None

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "threshold": self.threshold,
            "orthogonal": self.orthogonal,
            "max_overlap": self.max_overlap,
            "p_global": self.p_global,
            "q_values": dict(self.q_values),
            "q_certified": dict(self.q_certified),
            "q_exact": dict(self.q_exact),
            "solver_failures": dict(self.solver_failures),
            "max_q": self.max_q,
            "fast_path": self.fast_path,
            "pivot": self.pivot,
            "pivot_weight": self.pivot_weight,
            "admissible": self.admissible,
            "epsilon": self.epsilon,
            "bound_curve": list(self.bound_curve),
            "min_folds": self.min_folds,
        }

    def require_admissible(self, force: bool = False) -> None:
        """Raise :class:`HidingError` unless the verdict is admissible or ``force`` is set."""
        if self.admissible is not True and not force:
            raise HidingError("ensemble is not admissible for hiding")


def _fold_count_for(n: int, max_q: float, epsilon: float) -> int:
    """Smallest L >= 1 with ``fold_bound(n, max_q, L) - 1/n <= epsilon``: the log of
    ``(n-1)/n * (n*max_q - 1)**L <= epsilon``, then settled on that float test."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    floor = 1.0 / n
    rate = n * max_q - 1.0
    if not rate < 1.0:  # also NaN
        raise HidingError(f"bound {max_q} is not below 2/{n}, so it never decays")
    L = 1
    if rate > 0.0 and epsilon * n < n - 1.0:
        L = max(1, math.ceil(math.log(epsilon * n / (n - 1.0)) / math.log(rate)))
    while L > 1 and fold_bound(n, max_q, L - 1) - floor <= epsilon:
        L -= 1
    while fold_bound(n, max_q, L) - floor > epsilon:
        L += 1
    return L


def _admissibility_verdict(
    orthogonal: bool,
    max_dual: float,
    best_primal: float,
    has_failures: bool,
    threshold: float,
) -> bool | None:
    """Three-way hiding verdict from the bipartition scan evidence.

    Duals are valid upper bounds (converged or not), so all duals below the
    threshold settle admissibility; a primal value is achieved by an explicit
    POVM, so one at or above the threshold settles inadmissibility without
    certification.  Anything else (a gap straddling the threshold, or a failed
    bipartition) is honestly undecided.
    """
    if not orthogonal:
        return False
    if not has_failures and max_dual < threshold:
        return True
    if best_primal >= threshold:
        return False
    return None


def check_hiding(
    e: Ensemble,
    tol: float = DEFAULT_SOLVER_TOL,
    epsilon: float = 1e-6,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> HidingReport:
    """Decide whether an ensemble can back the hiding scheme.

    Admissible means: the states are mutually orthogonal (global recovery is
    exact) and every bipartition upper bound is below ``2/n``.  Dominance
    certificates are tried before the solver, so GHZ-style families are
    decided exactly without iteration.
    """
    if not tol > 0:  # also NaN
        raise ValueError(f"tolerance must be positive, got {tol}")
    overlap = max_pairwise_overlap(e)
    orthogonal = overlap <= ORTHOGONALITY_TOL
    scan = max_bipartition_bound(e, tol=tol, max_iterations=max_iterations)
    n = e.n
    threshold = 2.0 / n

    q_values = {key: res.dual_value for key, res in scan.results.items()}
    q_certified = {key: res.certified for key, res in scan.results.items()}
    q_exact = {key: res.method == "dominance" for key, res in scan.results.items()}
    fast_path = bool(q_exact) and all(q_exact.values()) and not scan.failures
    pivot = int(np.argmax(e.probs))
    pivot_weight = float(e.probs[pivot])

    admissible = _admissibility_verdict(
        orthogonal=orthogonal,
        max_dual=scan.max_value,
        best_primal=max(res.primal_value for res in scan.results.values()),
        has_failures=bool(scan.failures),
        threshold=threshold,
    )

    curve_q = max(scan.max_value, 1.0 / n)
    curve = tuple(fold_bound(n, curve_q, L) for L in range(1, CURVE_LMAX + 1))
    folds = None
    if admissible:
        try:
            folds = _fold_count_for(n, curve_q, epsilon)
        except HidingError:
            folds = None  # n * max_q - 1 rounds to 1: the bound cannot decay

    return HidingReport(
        n=n,
        threshold=threshold,
        orthogonal=orthogonal,
        max_overlap=overlap,
        p_global=1.0 if orthogonal else None,
        q_values=q_values,
        q_certified=q_certified,
        q_exact=q_exact,
        solver_failures=dict(scan.failures),
        max_q=scan.max_value,
        fast_path=fast_path,
        pivot=pivot,
        pivot_weight=pivot_weight,
        admissible=admissible,
        epsilon=epsilon,
        bound_curve=curve,
        min_folds=folds,
    )


def min_folds(e: Ensemble | HidingReport, epsilon: float) -> int:
    """Smallest fold count whose bound is within ``epsilon`` of random guessing."""
    report = e if isinstance(e, HidingReport) else check_hiding(e)
    report.require_admissible()
    return _fold_count_for(report.n, max(report.max_q, 1.0 / report.n), epsilon)


@dataclass(frozen=True)
class SchemeConfig:
    """Parameters of one hiding scheme instance.

    Built via :meth:`create`, which checks admissibility and records the
    report; an inadmissible ensemble is usable only with ``force=True`` and
    every simulation summary then carries a "no hiding guarantee" warning.
    """

    ensemble: Ensemble
    L: int
    seed: int
    report: HidingReport
    force: bool = False

    def __post_init__(self):
        if self.L < 1:
            raise ValueError(f"fold count must be >= 1, got {self.L}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    @classmethod
    def create(
        cls, ensemble: Ensemble, L: int, seed: int = 0, force: bool = False
    ) -> "SchemeConfig":
        report = check_hiding(ensemble)
        report.require_admissible(force)
        return cls(ensemble=ensemble, L=L, seed=int(seed), report=report, force=force)


@dataclass(frozen=True)
class ProtocolSummary:
    trials: int
    x: int
    L: int
    seed: int
    recovery_rate: float
    class_counts: tuple[int, ...]
    expected_class_probs: tuple[float, ...]
    warning: str | None


class ProtocolRun(NamedTuple):
    """Per-trial arrays of one run: row ``t`` of each is trial ``t``."""

    c_vecs: np.ndarray  # (trials, L) preparation indices
    y: np.ndarray  # class label sum(c_vec) mod n
    z: np.ndarray  # broadcast (x + y) mod n
    recovered: np.ndarray  # global estimate (z - y) mod n
    summary: ProtocolSummary


def run_protocol(cfg: SchemeConfig, x: int, trials: int) -> ProtocolRun:
    """Simulate seeded broadcast rounds and verify exact recovery.

    One generator seeded with the configured seed draws the ``(trials, L)``
    preparation indices from the base priors by inverse-CDF, row by row, so a
    run of ``k`` trials is the first ``k`` trials of any longer run.  The
    broadcast is the datum plus the class label modulo n, and global recovery
    subtracts the deterministically measured class.  Identical seeds produce
    identical transcripts.
    """
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    n = cfg.ensemble.n
    if not 0 <= x < n:
        raise ValueError(f"datum x={x} out of range 0..{n - 1}")
    cfg.report.require_admissible(cfg.force)

    cdf = np.cumsum(np.asarray(cfg.ensemble.probs))
    cdf[-1] = 1.0
    expected = fold_probs(cfg.ensemble.probs, n, cfg.L)

    rng = np.random.default_rng(cfg.seed)
    c_vecs = np.searchsorted(cdf, rng.random((trials, cfg.L)), side="right")
    y = c_vecs.sum(axis=1) % n
    z = (x + y) % n
    # Recovery side: the class measurement on an orthogonal ensemble
    # returns y deterministically, so the estimate is z - y mod n.
    recovered = (z - y) % n

    warning = None
    if cfg.report.admissible is not True:
        warning = "no hiding guarantee: ensemble failed the admissibility condition"
    summary = ProtocolSummary(
        trials=trials,
        x=x,
        L=cfg.L,
        seed=cfg.seed,
        recovery_rate=int(np.count_nonzero(recovered == x)) / trials,
        class_counts=tuple(np.bincount(y, minlength=n).tolist()),
        expected_class_probs=tuple(float(p) for p in expected),
        warning=warning,
    )
    return ProtocolRun(c_vecs, y, z, recovered, summary)


def transcripts_to_jsonl(run: ProtocolRun) -> str:
    """One JSON object per trial and line, key-sorted: byte-stable for a fixed seed."""
    s = run.summary
    rows = zip(run.c_vecs.tolist(), run.y.tolist(), run.z.tolist(), run.recovered.tolist())
    lines = [
        json.dumps({"trial": t, "c_vec": c_vec, "x": s.x, "y": y, "z": z,
                    "recovered": recovered, "seed": s.seed},
                   sort_keys=True, separators=(",", ":"))
        for t, (c_vec, y, z, recovered) in enumerate(rows)
    ]
    return "\n".join(lines) + "\n"


def class_measurement(spec: FoldSpec, cap: int = DEFAULT_DIM_CAP) -> list[np.ndarray]:
    """Per class, the cyclic convolution of the base support projectors ``Q_k``.

    ``Q_k`` is found at the base dimension, and is zero for a zero prior.  For
    orthogonal base states class ``i`` gets the projector onto the support of
    its coarse state, so the outcome identifies the class with certainty;
    otherwise the elements need not form a POVM.  Any subspace unused by every
    class is assigned to class 0.
    """
    supports = []
    for prob, state in zip(spec.base.probs, spec.base.states):
        vals, vecs = hermitian_eigensystem(state)
        basis = vecs[:, (vals > SUPPORT_CUTOFF * max(float(vals[-1]), 1.0)) & (prob > 0)]
        supports.append(basis @ basis.conj().T)
    projectors = _class_sums(spec, supports, cap)
    # P_0 plus the unused rest, I - (P_1 + ... + P_{n-1}), formed in P_0's buffer.
    leftover = projectors[0]
    leftover[...] = 0.0
    np.fill_diagonal(leftover, 1.0)
    leftover -= sum(projectors[2:], projectors[1])
    return projectors


@dataclass(frozen=True)
class DirectEncoding:
    """Descriptor of a directly encoded datum plus the recovery check."""

    x: int
    L: int
    state: MultiPartyOperator
    class_probs: tuple[float, ...]
    recovery_ok: bool

    def to_dict(self) -> dict:
        return {
            "x": self.x,
            "L": self.L,
            "dim": self.state.dim,
            "class_probs": list(self.class_probs),
            "recovery_ok": self.recovery_ok,
        }


def direct_encode(cfg: SchemeConfig, x: int, cap: int = DEFAULT_DIM_CAP) -> DirectEncoding:
    """Pick the coarse class state for ``x`` and verify exact recovery.

    Builds the explicit coarse ensemble (dimension-capped) and the class
    measurement, and checks that it identifies ``x`` with probability one;
    a non-orthogonal ensemble never passes: its class measurement is no POVM.
    """
    n = cfg.ensemble.n
    if not 0 <= x < n:
        raise ValueError(f"datum x={x} out of range 0..{n - 1}")
    spec = FoldSpec(cfg.ensemble, cfg.L)
    state = coarse_ensemble(spec, cap=cap).states[x]
    # Tr(rho P) = sum_kl rho_kl P_lk: O(dim**2) instead of a full product.
    probs = tuple(float(np.sum(state.matrix * proj.T).real)
                  for proj in class_measurement(spec, cap=cap))
    ok = cfg.report.orthogonal and all(
        abs(p - float(j == x)) <= RECOVERY_TOL for j, p in enumerate(probs))
    return DirectEncoding(x=x, L=cfg.L, state=state, class_probs=probs, recovery_ok=ok)


class CoalitionRow(NamedTuple):
    partition: str
    L: int
    value: float
    kind: str


def coalition_report(
    e: Ensemble,
    L: int,
    report: HidingReport | None = None,
    force: bool = False,
) -> list[CoalitionRow]:
    """Guessing bound per nontrivial coalition partition after ``L`` folds.

    Each partition inherits the best (smallest) fold bound among the
    bipartitions coarser than it.  For a two-state ensemble whose dominance
    certificate holds on every bipartition the value is exact (the dominant
    coarse class probability) and reported as such.  The trivial partition is
    the recovery side and excluded.
    """
    if L < 1:
        raise ValueError(f"fold count must be >= 1, got {L}")
    partitions = all_partitions(e.parties)  # before any report: too many parties fail fast
    if report is None:
        report = check_hiding(e)
    report.require_admissible(force)

    exact_mode = e.n == 2 and report.fast_path
    exact_value = fold_bound(2, report.max_q, L) if exact_mode else None

    rows: list[CoalitionRow] = []
    for partition in partitions:
        if partition.is_trivial:
            continue
        if exact_mode:
            rows.append(CoalitionRow(partition.to_string(), L, exact_value, "exact"))
            continue
        candidates = [
            report.q_values[bp.to_string()]
            for bp in coarser_bipartitions(partition)
            if bp.to_string() in report.q_values
        ]
        if not candidates:
            rows.append(CoalitionRow(partition.to_string(), L, float("nan"), "unavailable"))
            continue
        value = min(fold_bound(e.n, max(q, 1.0 / e.n), L) for q in candidates)
        rows.append(CoalitionRow(partition.to_string(), L, value, "bound"))
    return rows


class CrosscheckResult(NamedTuple):
    """Agreement of structural and explicit-matrix sampling paths.

    Counts are over the product-basis outcomes of all ``L`` preparations
    (``dim**L`` cells).  ``recovery_deviation`` is the largest deviation of
    the explicit class measurement from deterministically returning the
    preparation class.
    """

    counts_structural: np.ndarray
    counts_born: np.ndarray
    chi2_stat: float
    dof: int
    p_value: float
    recovery_deviation: float


def _state_diagonals(e: Ensemble) -> np.ndarray:
    diags = np.stack([np.clip(state.matrix.diagonal().real, 0.0, None)
                      for state in e.states])
    return diags / diags.sum(axis=1, keepdims=True)


def sampling_crosscheck(
    e: Ensemble,
    L: int,
    trials: int,
    seed: int = 0,
    cap: int = DEFAULT_DIM_CAP,
) -> CrosscheckResult:
    """Compare per-fold structural sampling against explicit Born sampling.

    Structural path: draw each preparation index from the priors, then a
    product-basis outcome per fold from that state's diagonal; no matrix of
    dimension ``dim**L`` is ever formed.  Explicit path: draw the index
    vector the same way from an independent substream, build the full
    Kronecker product, and sample a basis outcome from its diagonal.  The two
    empirical distributions are compared with a two-sample chi-square.
    """
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    projectors = class_measurement(FoldSpec(e, L), cap=cap)  # raises past the cap
    n = e.n
    dim = e.dim
    cells = dim**L

    prior_cdf = np.cumsum(np.asarray(e.probs))
    prior_cdf[-1] = 1.0
    diag_cdfs = np.cumsum(_state_diagonals(e), axis=1)
    diag_cdfs[:, -1] = 1.0
    weights = dim ** np.arange(L - 1, -1, -1)

    # Structural path: per-fold categorical draws only.
    rng_s = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    choices_s = np.searchsorted(prior_cdf, rng_s.random((trials, L)), side="right")
    u = rng_s.random((trials, L))
    outcomes = (diag_cdfs[choices_s] <= u[..., None]).sum(axis=-1)
    idx_structural = outcomes @ weights
    counts_structural = np.bincount(idx_structural, minlength=cells)

    # Explicit path: materialize every Kronecker product and sample its diagonal.
    # Each product also checks the convolution-built class of its index vector.
    explicit_diag: dict[tuple[int, ...], np.ndarray] = {}
    recovery_deviation = 0.0
    for choice in itertools.product(range(n), repeat=L):
        mat = np.array([[1.0]], dtype=np.complex128)
        for c in choice:
            mat = np.kron(mat, e.states[c].matrix)
        label = mod_sum(choice, n)
        for j, proj in enumerate(projectors):
            prob = float(np.sum(mat * proj.T).real)
            recovery_deviation = max(
                recovery_deviation, abs(prob - (1.0 if j == label else 0.0))
            )
        diag = np.clip(mat.diagonal().real, 0.0, None)
        explicit_diag[choice] = np.cumsum(diag / diag.sum())

    rng_b = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    choices_b = np.searchsorted(prior_cdf, rng_b.random((trials, L)), side="right")
    u_b = rng_b.random(trials)
    idx_born = np.empty(trials, dtype=np.int64)
    for t in range(trials):
        cdf = explicit_diag[tuple(int(c) for c in choices_b[t])]
        idx_born[t] = np.searchsorted(cdf, u_b[t], side="right")
    counts_born = np.bincount(idx_born, minlength=cells)

    both = counts_structural + counts_born
    mask = both > 0
    diff = counts_structural[mask] - counts_born[mask]
    stat = float(np.sum(diff.astype(float) ** 2 / both[mask]))
    dof = int(mask.sum()) - 1
    p_value = float(_chi2.sf(stat, dof)) if dof > 0 else 1.0
    return CrosscheckResult(
        counts_structural=counts_structural,
        counts_born=counts_born,
        chi2_stat=stat,
        dof=dof,
        p_value=p_value,
        recovery_deviation=recovery_deviation,
    )
