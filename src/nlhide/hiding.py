"""The data-hiding scheme: admissibility, sizing, simulation, coalition bounds.

An orthogonal ensemble whose largest bipartition bound stays below ``2/n``
hides an n-ary datum: the hider prepares ``L`` states, broadcasts the datum
shifted by the modulo-n class of the preparation, and only a global
measurement can undo the shift.  This module decides admissibility, sizes the
fold count for a target leakage, simulates seeded protocol runs (one
generator per run, all trials drawn as one array) with reproducible
transcripts (each block of trials rendered as one byte table), and tabulates
per-coalition guessing bounds.

Simulation never materializes ``dim**L`` matrices: the recovery measurement on
an orthogonal ensemble returns the preparation class deterministically, so
sampling the base priors suffices.  Direct encoding and the explicit-matrix
cross-check (small ``L``) build that measurement without an eigensolve at
``dim**L``: the cyclic convolution of the base support projectors (the one
convolution of :mod:`nlhide.folding`, which forms only the classes a caller
reads) is the projector onto each coarse class's support when the base states
are orthogonal.  Direct encoding forms the coarse state of class ``x`` alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .discrimination import (
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_SOLVER_TOL,
    max_bipartition_bound,
)
from .ensembles import ORTHOGONALITY_TOL, Ensemble, max_pairwise_overlap
from .folding import (
    FoldSpec, _check_cap, _check_fold_count, _coarse_states, _convolve, _kron_sum, fold_bound,
    fold_probs, mod_sum,
)
from .partitions import _by_name, _orbit_key, all_partitions, coarser_bipartitions
from .tensor import (
    DEFAULT_DIM_CAP,
    MultiPartyOperator,
    hermitian_eigensystem,
)

SUPPORT_CUTOFF = 1e-10  # relative eigenvalue cutoff of a base state's support
RECOVERY_TOL = 1e-8  # deviation of a class probability from 0 or 1
CURVE_LMAX = 20  # fold counts tabulated in HidingReport.bound_curve
FOLD_EPSILON = 1e-6  # leakage above 1/n that HidingReport.min_folds sizes for


class HidingError(ValueError):
    """The requested operation needs an admissible ensemble."""


@dataclass(frozen=True)
class HidingReport:
    """Admissibility verdict with the evidence behind it.

    ``admissible`` is ``True``/``False`` when decidable and ``None`` when some
    bipartition stayed uncertified with its upper bound at or above the
    threshold.  ``q_values`` are dual upper bounds keyed by the canonical
    bipartition string; ``q_exact`` marks values obtained from the dominance
    certificate (exact, gap zero).  :meth:`bound` is the fold-count curve,
    exact when :attr:`exact` holds; ``bound_curve`` tabulates it, and
    ``min_folds`` is the fold count reaching ``1/n + FOLD_EPSILON``.  That is
    ``None`` unless ``admissible`` is ``True``, and also when ``n * max_q - 1``
    rounds to 1 so the bound cannot decay.
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
    epsilon: float = field(default=FOLD_EPSILON, init=False)
    bound_curve: tuple[float, ...] = field(init=False)
    min_folds: int | None = field(init=False)

    def __post_init__(self):  # the derived fields; the class is frozen
        object.__setattr__(self, "bound_curve", tuple(map(self.bound, range(1, CURVE_LMAX + 1))))
        try:
            folds = _fold_count_for(self.n, self.max_q, self.epsilon) if self.admissible else None
        except HidingError:  # n * max_q - 1 rounds to 1: the bound cannot decay
            folds = None
        object.__setattr__(self, "min_folds", folds)

    @property
    def exact(self) -> bool:
        """Two states decided by dominance on every cut: the bound is the exact value."""
        return self.n == 2 and self.fast_path

    def bound(self, L: int, cut: str | None = None) -> float:
        """Guessing bound after ``L`` folds on ``cut`` (on every cut when omitted),
        from that cut's q (or ``max_q``) clamped at the guessing floor ``1/n``."""
        q = self.max_q if cut is None else self.q_values[cut]
        return fold_bound(self.n, max(q, 1.0 / self.n), L)

    def to_dict(self) -> dict:
        return asdict(self)

    def require_admissible(self, force: bool = False) -> None:
        """Raise :class:`HidingError` unless the verdict is admissible or ``force`` is set."""
        if self.admissible is not True and not force:
            raise HidingError("ensemble is not admissible for hiding")


def _fold_count_for(n: int, q: float, epsilon: float) -> int:
    """Smallest L >= 1 with ``fold_bound(n, max(q, 1/n), L) - 1/n <= epsilon``: the
    log of ``(n-1)/n * (n*q - 1)**L <= epsilon``, then settled on that float test."""
    if not epsilon > 0:  # also NaN
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    floor = 1.0 / n
    q = max(q, floor)
    rate = n * q - 1.0
    if not rate < 1.0:  # also NaN
        raise HidingError(f"bound {q} is not below 2/{n}, so it never decays")
    L = 1
    if rate > 0.0 and epsilon * n < n - 1.0:
        L = max(1, math.ceil(math.log(epsilon * n / (n - 1.0)) / math.log(rate)))
    while L > 1 and fold_bound(n, q, L - 1) - floor <= epsilon:
        L -= 1
    while fold_bound(n, q, L) - floor > epsilon:
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

    q_exact = {key: res.method == "dominance" for key, res in scan.results.items()}
    fast_path = bool(q_exact) and all(q_exact.values()) and not scan.failures
    pivot = int(np.argmax(e.probs))

    admissible = _admissibility_verdict(
        orthogonal=orthogonal,
        max_dual=scan.max_value,
        best_primal=max(res.primal_value for res in scan.results.values()),
        has_failures=bool(scan.failures),
        threshold=threshold,
    )

    return HidingReport(
        n=n,
        threshold=threshold,
        orthogonal=orthogonal,
        max_overlap=overlap,
        p_global=1.0 if orthogonal else None,
        q_values={key: res.dual_value for key, res in scan.results.items()},
        q_certified={key: res.certified for key, res in scan.results.items()},
        q_exact=q_exact,
        solver_failures=dict(scan.failures),
        max_q=scan.max_value,
        fast_path=fast_path,
        pivot=pivot,
        pivot_weight=float(e.probs[pivot]),
        admissible=admissible,
    )


def min_folds(e: Ensemble | HidingReport, epsilon: float) -> int:
    """Smallest fold count whose bound is within ``epsilon`` of random guessing."""
    report = e if isinstance(e, HidingReport) else check_hiding(e)
    report.require_admissible()
    return _fold_count_for(report.n, report.max_q, epsilon)


@dataclass(frozen=True, eq=False)
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
        _check_fold_count(self.L)
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
    identical transcripts.  A non-orthogonal ensemble raises :class:`HidingError`
    even with ``force``: its class measurement is not deterministic.
    """
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    n = cfg.ensemble.n
    if not 0 <= x < n:
        raise ValueError(f"datum x={x} out of range 0..{n - 1}")
    cfg.report.require_admissible(cfg.force)
    if not cfg.report.orthogonal:
        raise HidingError("broadcast simulation needs orthogonal states: only then does "
                          "the class measurement return the class deterministically")

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


def transcripts_to_jsonl(run: ProtocolRun, start: int = 0, stop: int | None = None) -> str:
    """One JSON object per trial and line, keys in sorted order: byte-stable for a fixed seed.

    ``start`` and ``stop`` pick trials as a slice does, so the texts of consecutive
    blocks join into the text of the whole run.  The block is rendered as one
    ``(trials, width)`` byte table: each fixed text is a column band set by broadcast,
    and each integer field a band as wide as its largest value in the block, its digits
    right-aligned one column at a time.  The unused leading positions stay NUL and are
    dropped at the end.  With one-digit labels the table costs about
    ``trials * (2L + 70)`` bytes, and no Python call is made per trial."""
    s = run.summary
    block = range(len(run.y))[start:stop]
    if not block:
        return ""
    part = slice(block.start, block.stop)
    # The line, piece by piece: fixed texts and integer columns, keys in sorted order.
    pieces: list = [b'{"c_vec":[']
    for column in run.c_vecs[part].T:
        pieces += [column, b","]
    pieces[-1] = b'],"recovered":'
    pieces += [run.recovered[part], b',"seed":%d,"trial":' % s.seed,
               np.arange(block.start, block.stop), b',"x":%d,"y":' % s.x, run.y[part],
               b',"z":', run.z[part], b"}\n"]
    widths = [len(p) if isinstance(p, bytes) else len(str(p.max())) for p in pieces]
    table = np.zeros((len(block), sum(widths)), dtype=np.uint8)
    end = 0
    for piece, width in zip(pieces, widths):
        end += width
        if isinstance(piece, bytes):
            table[:, end - width:end] = np.frombuffer(piece, dtype=np.uint8)
            continue
        table[:, end - 1] = piece % 10 + 48  # the units digit, also of a zero
        for col in range(end - 2, end - width - 1, -1):
            piece = piece // 10
            table[:, col] = np.where(piece > 0, piece % 10 + 48, 0)
    return table[table != 0].tobytes().decode("ascii")


def _class_projectors(spec: FoldSpec, cap: int) -> list[np.ndarray]:
    """The elements of :func:`class_measurement` for classes ``1..n-1``."""
    _check_cap(spec, cap)
    supports = []
    for prob, state in zip(spec.base.probs, spec.base.states):
        vals, vecs = hermitian_eigensystem(state)
        basis = vecs[:, (vals > SUPPORT_CUTOFF * max(float(vals[-1]), 1.0)) & (prob > 0)]
        supports.append(basis @ basis.conj().T)
    return _convolve(supports, spec.L, _kron_sum, range(1, spec.n))


def class_measurement(spec: FoldSpec, cap: int = DEFAULT_DIM_CAP) -> list[np.ndarray]:
    """Per class, the cyclic convolution of the base support projectors ``Q_k``.

    ``Q_k`` is found at the base dimension, and is zero for a zero prior.  For
    orthogonal base states class ``i`` gets the projector onto the support of
    its coarse state, so the outcome identifies the class with certainty;
    otherwise the elements need not form a POVM.  Class 0 is formed as
    ``I - (P_1 + ... + P_{n-1})``, so it also takes any subspace no class uses.
    """
    projectors = _class_projectors(spec, cap)
    rest = np.eye(spec.explicit_dim, dtype=np.complex128)
    rest -= sum(projectors[1:], projectors[0])
    return [rest] + projectors


@dataclass(frozen=True, eq=False)
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

    Builds the explicit state of class ``x`` alone (dimension-capped) and the
    class measurement, and checks that it identifies ``x`` with probability
    one; a non-orthogonal ensemble never passes: its measurement is no POVM.
    Class 0's element ``I - (P_1 + ... + P_{n-1})`` is not formed: its
    probability is ``Tr(rho) - sum_{i>=1} Tr(rho P_i)``.
    """
    n = cfg.ensemble.n
    if not 0 <= x < n:
        raise ValueError(f"datum x={x} out of range 0..{n - 1}")
    spec = FoldSpec(cfg.ensemble, cfg.L)
    _, slots, (matrix,) = _coarse_states(spec, cap, (x,))
    state = MultiPartyOperator._frozen(matrix, slots)
    # For a Hermitian P, Re Tr(rho P) = sum_kl Re(rho_kl) Re(P_kl) + Im(rho_kl) Im(P_kl):
    # one einsum per row of the two arrays' float views, then a pairwise sum of the rows.
    # No dim**2 temporary, and no BLAS call, whose thread pool would slow what runs next.
    rows = matrix.view(np.float64)
    rest = [float(np.einsum("ij,ij->i", proj.view(np.float64), rows).sum())
            for proj in _class_projectors(spec, cap)]
    probs = (state.trace().real - math.fsum(rest), *rest)
    ok = cfg.report.orthogonal and all(
        abs(p - float(j == x)) <= RECOVERY_TOL for j, p in enumerate(probs))
    return DirectEncoding(x=x, L=cfg.L, state=state, class_probs=probs, recovery_ok=ok)


class CoalitionRow(NamedTuple):
    partition: str
    L: int
    value: float
    kind: str


def coalition_report(e: Ensemble, L: int, force: bool = False, tol: float = DEFAULT_SOLVER_TOL,
                     max_iterations: int = DEFAULT_MAX_ITERATIONS) -> list[CoalitionRow]:
    """Guessing bound per nontrivial coalition partition after ``L`` folds.

    Each partition inherits the best (smallest) :meth:`HidingReport.bound`
    among the bipartitions coarser than it, in :func:`check_hiding`'s report of
    ``e``, whose solver runs with ``tol`` and ``max_iterations``.  When the report
    is :attr:`~HidingReport.exact` (two states, dominance on every cut, so every
    cut's q is the pivot weight) the value is the dominant coarse class
    probability and reported as such.  The trivial partition is the
    recovery side and excluded.  A fold count that is not an integer of at least 1, too
    many parties for ``all_partitions``, or two partitions that share a name raise
    ``ValueError`` before the report is made.  Permuting the parties within their
    symmetry classes (the ensemble's ``_party_classes``, as the scan reads them) maps a
    partition's coarser cuts onto another's, with the same q each, so the least bound
    is taken once per orbit, keyed by :func:`_orbit_key` (the sorted per-class party
    counts of its blocks), and each partition of the orbit gets it under its own name:
    GHZ-complement (2,m) has ``p(m) - 1`` orbits, ``p`` the partition number.
    """
    _check_fold_count(L)
    partitions = _by_name(all_partitions(e.parties))
    report = check_hiding(e, tol=tol, max_iterations=max_iterations)
    report.require_admissible(force)

    kind = "exact" if report.exact else "bound"
    classes = e._party_classes
    rows: list[CoalitionRow] = []
    orbits: dict[tuple, tuple[float, str]] = {}  # each orbit's value and kind
    for name, partition in partitions.items():
        if partition.is_trivial:
            continue
        orbit = _orbit_key(partition, classes)
        if orbit not in orbits:
            cuts = [key for key in (bp.to_string() for bp in coarser_bipartitions(partition))
                    if key in report.q_values]
            orbits[orbit] = ((min(report.bound(L, cut) for cut in cuts), kind) if cuts
                             else (float("nan"), "unavailable"))
        rows.append(CoalitionRow(name, L, *orbits[orbit]))
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
    diags = np.clip(e.stack.diagonal(axis1=1, axis2=2).real, 0.0, None)
    return diags / diags.sum(axis=1, keepdims=True)


def _chi2_sf(x: float, dof: int) -> float:
    """Survival function of the chi-square law with an integer ``dof >= 1`` at ``x``.

    With ``y = x/2`` it is the regularized upper incomplete gamma ``Q(dof/2, y)``, a
    finite sum for integer ``dof``: ``e^-y sum_{i<dof/2} y^i / i!`` when ``dof`` is
    even, and ``erfc(sqrt y) + e^-y sum_{i<(dof-1)/2} y^(i+1/2) / Gamma(i+3/2)`` when
    it is odd.  Every term is positive; each is formed in log space and the terms
    are added exactly by :func:`math.fsum`."""
    if not x > 0:
        return 1.0
    y = 0.5 * x
    half = 0.5 * (dof % 2)
    terms = [math.exp((i + half) * math.log(y) - y - math.lgamma(i + half + 1))
             for i in range(dof // 2)]
    return min(1.0, math.fsum(terms + [math.erfc(math.sqrt(y))] * (dof % 2)))


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
    p_value = _chi2_sf(stat, dof) if dof > 0 else 1.0
    return CrosscheckResult(
        counts_structural=counts_structural,
        counts_born=counts_born,
        chi2_stat=stat,
        dof=dof,
        p_value=p_value,
        recovery_deviation=recovery_deviation,
    )
