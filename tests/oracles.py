"""Independent brute-force oracles used to freeze expected test values.

Everything here deliberately avoids the code paths it checks: partitions are
enumerated recursively instead of via growth strings, the coarser-than order
compares block sets, the parity-block family is built from the GHZ reflection
and its own GHZ vector in explicit loops, partial transposition
walks indices entry by entry, eigenvalues come from a small cyclic Jacobi
sweep rather than LAPACK, fold distributions and coarse ensembles are
enumerated over all index vectors, class measurements come from an
eigensolve of every coarse state, fold counts are found by a step-by-step
search, fold-bound tables clamp and branch at each call site, the
fixed-point solver runs member by member over Python lists, protocol
transcripts are drawn and written one trial at a time, a run's transcript
lines are formatted one line at a time, product-basis
strategy values assemble one product vector per outcome, party symmetries
are found by permuting whole dense states for every pair of parties, each
cut of a scan is decided on its own by the public per-cut functions, coalition
rows compare block sets against every cut, dominance
checks wrap every difference as an operator for ``is_psd``, PSD tests run
on the whole matrix instead of its diagonal blocks, the Hermitian check,
overlaps, transposes, components and blocks of ``check`` work on whole dense
matrices instead of their nonzero entries, and ensemble
files are written from and read into nested Python lists by whole-document
``json`` calls.
"""

from __future__ import annotations

import itertools
import json
import math
from typing import Callable, Mapping, Sequence

import numpy as np

from nlhide.cli import _fmt
from nlhide.discrimination import DominanceCheck, check_dominant_state, q_upper
from nlhide.ensembles import (
    PROB_SUM_TOL,
    PSD_WARN_TOL,
    TRACE_TOL,
    CheckResult,
    Ensemble,
    EnsembleDiagnostics,
    _document_error,
    from_document,
)
from nlhide.folding import DegenerateClassError, FoldSpec, fold_bound, mod_sum
from nlhide.hiding import CoalitionRow, HidingReport
from nlhide.partitions import Bipartition, Partition, PartySet, all_partitions, coarser_bipartitions
from nlhide.tensor import (
    DEFAULT_DIM_CAP,
    DimensionCapError,
    MultiPartyOperator,
    PsdCheck,
    SlotStructure,
    _blocks,
    _components,
    _hermiticity,
    _psd,
    hermitian_eigensystem,
    hermitian_part,
    is_psd,
    partial_transpose,
)


# ---------------------------------------------------------------------------
# combinatorics
# ---------------------------------------------------------------------------

def brute_force_partitions(labels: tuple[str, ...]) -> list[list[list[str]]]:
    """All set partitions by inserting the last element everywhere."""
    if not labels:
        return [[]]
    *rest, last = labels
    out: list[list[list[str]]] = []
    for smaller in brute_force_partitions(tuple(rest)):
        for k in range(len(smaller)):
            out.append(smaller[:k] + [smaller[k] + [last]] + smaller[k + 1:])
        out.append(smaller + [[last]])
    return out


def brute_force_bipartition_sides(labels: tuple[str, ...]) -> set[frozenset[str]]:
    """Sides containing the first label, over all 2-colorings modulo swap."""
    first, rest = labels[0], labels[1:]
    sides: set[frozenset[str]] = set()
    for bits in itertools.product((0, 1), repeat=len(rest)):
        side = frozenset([first] + [p for p, b in zip(rest, bits) if b])
        if len(side) < len(labels):
            sides.add(side)
    return sides


def is_coarser(x: Partition, y: Partition) -> bool:
    """True iff every block of ``y`` is contained in some block of ``x``."""
    if x.parties != y.parties:
        raise ValueError("partitions live on different party sets")
    x_sets = [set(block) for block in x.blocks]
    return all(any(set(block) <= xs for xs in x_sets) for block in y.blocks)


def bell_number(m: int) -> int:
    table = [1]
    for _ in range(m):
        nxt = [table[-1]]
        for value in table:
            nxt.append(nxt[-1] + value)
        table = nxt
    return table[0]


# ---------------------------------------------------------------------------
# built-in families
# ---------------------------------------------------------------------------

def reflection_powers(d: int, m: int, s: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``s``-fold Kronecker powers of the identity and of the GHZ reflection
    ``R = I - 2P``, each a left-folded ``np.kron`` chain; ``P`` is the outer product
    of the vector with ``1/sqrt(d)`` at every index ``i (1 + d + ... + d^{m-1})``."""
    dim = d**m
    psi = np.zeros(dim, dtype=np.complex128)
    for i in range(d):
        psi[sum(i * d**k for k in range(m))] = 1.0 / math.sqrt(d)
    one = np.eye(dim, dtype=np.complex128)
    reflect = one - 2.0 * np.outer(psi, psi.conj())
    pi0, pi1 = one, reflect
    for _ in range(s - 1):
        pi0, pi1 = np.kron(pi0, one), np.kron(pi1, reflect)
    return pi0, pi1


def parity_family_by_reflection(d: int, m: int, s: int, t: int) -> tuple[tuple, np.ndarray]:
    """Priors and ``(2**t, dim, dim)`` stack of the parity-block family: the blocks
    ``(I ± R^{⊗s}) / (d^{ms} ± (d^m - 2)^s)`` with weights ``(d^{ms} ± (d^m - 2)^s) /
    (2 d^{ms})``; member ``i`` is the Kronecker product, copy by copy, of the blocks
    its binary digits name (least significant first)."""
    pi0, pi1 = reflection_powers(d, m, s)
    base = d**m
    plus, minus = base**s + (base - 2) ** s, base**s - (base - 2) ** s
    weights = (plus / (2 * base**s), minus / (2 * base**s))
    blocks = ((pi0 + pi1) / plus, (pi0 - pi1) / minus)
    probs, members = [], []
    for i in range(2**t):
        digits = [(i >> k) & 1 for k in range(t)]
        member = blocks[digits[0]]
        for b in digits[1:]:
            member = np.kron(member, blocks[b])
        members.append(member)
        probs.append(math.prod(weights[b] for b in digits))
    return tuple(probs), np.stack(members)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def _two_by_two_eigenbasis(alpha: float, b: complex, delta: float) -> np.ndarray:
    """Unitary whose columns are the eigenvectors of [[alpha, b], [conj(b), delta]].

    Closed form: lambda+ = mid + root with mid = (alpha+delta)/2 and
    root = sqrt(((alpha-delta)/2)^2 + |b|^2); the eigenvector for lambda+ is
    (b, lambda+ - alpha), and (-(lambda+ - alpha), conj(b)) is orthogonal.
    """
    mid = (alpha + delta) / 2.0
    half_gap = (alpha - delta) / 2.0
    root = math.sqrt(half_gap * half_gap + abs(b) ** 2)
    lead = (mid + root) - alpha  # > 0 whenever b != 0
    v_plus = np.array([b, lead], dtype=np.complex128)
    v_minus = np.array([-lead, np.conj(b)], dtype=np.complex128)
    v_plus /= np.linalg.norm(v_plus)
    v_minus /= np.linalg.norm(v_minus)
    return np.column_stack([v_plus, v_minus])


def jacobi_eigenvalues(matrix: np.ndarray, max_sweeps: int = 100) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix by cyclic Jacobi rotations.

    Each sweep conjugates away every off-diagonal pair with the explicit 2x2
    eigenbasis; stops when the off-diagonal Frobenius mass falls below 1e-14
    times the Frobenius norm.  Intended for small matrices as an oracle.
    """
    a = np.array(matrix, dtype=np.complex128)
    n = a.shape[0]
    norm = np.linalg.norm(a)
    if norm == 0:
        return np.zeros(n)
    for _ in range(max_sweeps):
        off = math.sqrt(max(0.0, np.linalg.norm(a) ** 2 - np.linalg.norm(np.diag(a)) ** 2))
        if off <= 1e-14 * norm:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) <= 1e-300:
                    continue
                u = _two_by_two_eigenbasis(a[p, p].real, a[p, q], a[q, q].real)
                cols = a[:, [p, q]] @ u
                a[:, p], a[:, q] = cols[:, 0], cols[:, 1]
                rows = u.conj().T @ a[[p, q], :]
                a[p, :], a[q, :] = rows[0, :], rows[1, :]
    return np.sort(np.diag(a).real)


def partial_transpose_entrywise(
    matrix: np.ndarray, dims: tuple[int, ...], transposed_slots: tuple[int, ...]
) -> np.ndarray:
    """Partial transpose by explicit row/column multi-index surgery."""

    def unravel(flat: int) -> list[int]:
        out = []
        for d in reversed(dims):
            out.append(flat % d)
            flat //= d
        out.reverse()
        return out

    def ravel(multi: list[int]) -> int:
        flat = 0
        for index, d in zip(multi, dims):
            flat = flat * d + index
        return flat

    size = matrix.shape[0]
    out = np.zeros_like(matrix)
    for r in range(size):
        for c in range(size):
            ri, ci = unravel(r), unravel(c)
            for k in transposed_slots:
                ri[k], ci[k] = ci[k], ri[k]
            out[ravel(ri), ravel(ci)] = matrix[r, c]
    return out


def swap_matrix() -> np.ndarray:
    swap = np.zeros((4, 4), dtype=np.complex128)
    for i in range(2):
        for j in range(2):
            swap[2 * i + j, 2 * j + i] = 1.0
    return swap


# ---------------------------------------------------------------------------
# folding
# ---------------------------------------------------------------------------

def brute_force_fold_probs(probs, n: int, L: int) -> np.ndarray:
    out = np.zeros(n)
    for choice in itertools.product(range(n), repeat=L):
        weight = 1.0
        for c in choice:
            weight *= probs[c]
        out[sum(choice) % n] += weight
    return out


# The per-shift ``np.roll`` loop that the one convolution in ``nlhide.folding``
# replaced for priors, kept unchanged as its differential reference.
def fold_probs_by_roll(probs, n: int, L: int) -> np.ndarray:
    p = np.asarray([float(x) for x in probs])
    out = np.zeros(n)
    out[0] = 1.0
    for _ in range(L):
        nxt = np.zeros(n)
        for shift in range(n):
            nxt += out[shift] * np.roll(p, shift)
        out = nxt
    return out


# The n**L enumeration that the cyclic convolution in ``nlhide.folding``
# replaced, kept unchanged as its differential reference.
def coarse_by_enumeration(spec: FoldSpec, cap: int = DEFAULT_DIM_CAP) -> Ensemble:
    """Explicitly build the coarse ensemble of an L-fold preparation.

    Class ``i`` collects every index vector with modulo-n sum ``i``; its state
    is the probability-weighted average of the Kronecker products, and its
    slot structure repeats the base slots ``L`` times with party labels kept,
    so partial transposition over party bipartitions needs no index surgery.
    """
    base = spec.base
    n, L = spec.n, spec.L
    if spec.explicit_dim > cap:
        raise DimensionCapError(
            f"explicit fold dimension {spec.explicit_dim} exceeds the dimension cap {cap}"
        )
    slots = base.slots
    for _ in range(L - 1):
        slots = slots.concat(base.slots)

    dim = spec.explicit_dim
    class_sums = [np.zeros((dim, dim), dtype=np.complex128) for _ in range(n)]
    class_probs = [0.0] * n
    for choice in itertools.product(range(n), repeat=L):
        weight = 1.0
        mat = np.array([[1.0]], dtype=np.complex128)
        for c in choice:
            weight *= base.probs[c]
            mat = np.kron(mat, base.states[c].matrix)
        label = mod_sum(choice, n)
        class_probs[label] += weight
        class_sums[label] += weight * mat

    states: list[MultiPartyOperator] = []
    for i in range(n):
        if class_probs[i] <= 1e-15:
            raise DegenerateClassError(
                f"coarse class {i} has probability {class_probs[i]:.3e}; cannot normalize"
            )
        states.append(MultiPartyOperator(class_sums[i] / class_probs[i], slots))
    return Ensemble(base.parties, tuple(class_probs), tuple(states))


def fold_count_by_search(n: int, q: float, epsilon: float, max_folds: int = 100_000):
    """Smallest ``L <= max_folds`` with ``fold_bound(n, q, L) - 1/n <= epsilon``.

    Walks ``L`` upward one step at a time; ``None`` when no such ``L`` exists.
    """
    floor = 1.0 / n
    for L in range(1, max_folds + 1):
        if fold_bound(n, q, L) - floor <= epsilon:
            return L
    return None


# The coalition table and the ``bounds`` CSV as their call sites computed them
# before ``HidingReport.bound`` and ``HidingReport.exact`` held the clamp and
# the exactness rule, kept unchanged as their differential reference.
def coalition_rows_two_branch(e: Ensemble, L: int, report: HidingReport) -> list[CoalitionRow]:
    """Per nontrivial partition: the exact two-state value, or the best coarser cut."""
    partitions = all_partitions(e.parties)
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


def bounds_rows_by_loop(report: HidingReport, lmax: int) -> list[str]:
    """The ``bounds`` CSV lines: the max-q curve, repeated as exact for two states."""
    qx = max(report.max_q, 1.0 / report.n)
    # Two states decided by dominance on every cut: the bound is the exact value.
    exact = report.n == 2 and report.fast_path
    rows = ["L,bound,exact"]
    for L in range(1, lmax + 1):
        bound = _fmt(fold_bound(report.n, qx, L))
        rows.append(f"{L},{bound},{bound if exact else ''}")
    return rows


def dft_fold_probs(probs, n: int, L: int) -> np.ndarray:
    """Class probabilities via the character sum identity."""
    omega = np.exp(2j * np.pi / n)
    transformed = np.array(
        [sum(probs[j] * omega ** (j * k) for j in range(n)) for k in range(n)]
    )
    out = np.array(
        [
            sum(omega ** (-i * k) * transformed[k] ** L for k in range(n)) / n
            for i in range(n)
        ]
    )
    return out.real


# The eigensolve of every dim**L coarse state that the convolution of base
# support projectors in ``nlhide.hiding`` replaced, kept unchanged as its
# differential reference.
def class_measurement_by_eigh(coarse: Ensemble, cutoff: float = 1e-10) -> list[np.ndarray]:
    """Projector per class onto the support of its state.

    Any subspace unused by every class is assigned to class 0 so the
    projectors form a complete measurement.  Meaningful for orthogonal
    ensembles, where the outcome identifies the class with certainty.
    """
    dim = coarse.dim
    projectors: list[np.ndarray] = []
    for state in coarse.states:
        vals, vecs = hermitian_eigensystem(state)
        keep = vals > cutoff * max(float(vals[-1]), 1.0)
        basis = vecs[:, keep]
        projectors.append(basis @ basis.conj().T)
    leftover = np.eye(dim, dtype=np.complex128) - sum(projectors)
    projectors[0] = projectors[0] + leftover
    return projectors


# The per-trial loop that the one-array draw in ``nlhide.hiding.run_protocol``
# replaced, reading the same single generator one row of L draws per trial.
def protocol_jsonl_by_trials(probs, L: int, x: int, trials: int, seed: int) -> str:
    """Transcript JSONL of a broadcast run, one trial and one dict at a time."""
    n = len(probs)
    cdf = np.cumsum(np.asarray(probs))
    cdf[-1] = 1.0
    rng = np.random.default_rng(seed)
    lines = []
    for t in range(trials):
        c_vec = [int(c) for c in np.searchsorted(cdf, rng.random(L), side="right")]
        y = mod_sum(c_vec, n)
        z = (x + y) % n
        row = {"trial": t, "c_vec": c_vec, "x": x, "y": y, "z": z,
               "recovered": (z - y) % n, "seed": seed}
        lines.append(json.dumps(row, sort_keys=True, separators=(",", ":")))
    return "\n".join(lines) + "\n"


# The per-line formatter that the byte table of ``nlhide.hiding.transcripts_to_jsonl``
# replaced: one ``%`` format and one join for each trial.
_TRANSCRIPT_LINE = '{"c_vec":[%s],"recovered":%d,"seed":%d,"trial":%d,"x":%d,"y":%d,"z":%d}\n'


def transcripts_by_line(run, start: int = 0, stop: int | None = None) -> str:
    """Transcript JSONL of trials ``start:stop`` of a run, one formatted line per trial."""
    s = run.summary
    block = range(len(run.y))[start:stop]
    part = slice(block.start, block.stop)
    rows = zip(block, run.c_vecs[part].tolist(), run.y[part].tolist(), run.z[part].tolist(),
               run.recovered[part].tolist())
    return "".join([_TRANSCRIPT_LINE % (",".join(map(str, c_vec)), recovered, s.seed, t, s.x, y, z)
                    for t, c_vec, y, z, recovered in rows])


# ---------------------------------------------------------------------------
# discrimination sandwich oracle
# ---------------------------------------------------------------------------

def povm_value(weights, mats, povm_mats) -> float:
    return float(
        sum(w * np.trace(m @ p).real for w, m, p in zip(weights, mats, povm_mats))
    )


def dual_feasibility_margin(dual_op: np.ndarray, weights, mats) -> float:
    """Smallest eigenvalue of ``Y - w_i A_i`` over ``i`` (>= 0 means feasible)."""
    margins = [
        np.linalg.eigvalsh((dual_op - w * m + (dual_op - w * m).conj().T) / 2)[0]
        for w, m in zip(weights, mats)
    ]
    return float(min(margins))


# ---------------------------------------------------------------------------
# fixed-point solver, one member at a time
# ---------------------------------------------------------------------------

# The damped fixed-point iteration on the elements themselves, one member at a
# time, kept as the differential reference of the factored, accelerated solver
# in ``nlhide.discrimination``: one Python-level matrix product chain and one
# eigensolve per member, with the identity-lift dual only, certified every 25 steps.
# It shares only ``hermitian_part`` with the code under test.


def _pinv_sqrt(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(hermitian_part(mat))
    cutoff = max(float(vals[-1]), 0.0) * 1e-14
    inv = np.where(vals > cutoff, np.abs(vals) ** -0.5, 0.0)
    return (vecs * inv) @ vecs.conj().T


def positive_part(mat: np.ndarray) -> np.ndarray:
    """``(A)_+``: the Hermitian matrix ``A`` with its negative eigenvalues set to zero."""
    vals, vecs = np.linalg.eigh(mat)
    return (vecs * np.maximum(vals, 0.0)) @ vecs.conj().T


def _min_eig(mat: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(hermitian_part(mat))[0])


def certificate_by_members(
    w: np.ndarray, mats: Sequence[np.ndarray], povm_mats: Sequence[np.ndarray]
) -> tuple[float, float, tuple[float, ...]]:
    """Primal value, feasible dual value, and per-member optimality residuals.

    The dual operator is the Hermitian part of ``sum_j w_j A_j M_j`` lifted by
    ``max(0, -min residual)`` times the identity, which is feasible by
    construction; its trace is primal plus lift times dimension.
    """
    dim = mats[0].shape[0]
    primal = float(
        sum(w[i] * np.trace(mats[i] @ povm_mats[i]).real for i in range(len(mats)))
    )
    weighted_avg = hermitian_part(
        sum(w[i] * (mats[i] @ povm_mats[i]) for i in range(len(mats)))
    )
    residuals = tuple(_min_eig(weighted_avg - w[i] * mats[i]) for i in range(len(mats)))
    lift = max(0.0, -min(residuals))
    dual = primal + lift * dim
    return primal, dual, residuals


def fixed_point_by_members(
    w: np.ndarray,
    mats: Sequence[np.ndarray],
    tol: float,
    max_iterations: int,
) -> tuple[list[np.ndarray], int, bool]:
    """Damped fixed-point POVM iteration on shifted-PSD weighted operators.

    Shifting every ``w_i A_i`` by ``c = max_i |min eig(w_i A_i)|`` makes the
    problem an unnormalized discrimination instance with the same maximizer;
    the update ``M_i <- S G_i M_i G_i S`` with ``S = Lambda^{-1/2}`` preserves
    positivity and completeness.  Deterministic: uniform start, damping 0.5
    engaged once the primal value first plateaus.
    """
    n = len(mats)
    dim = mats[0].shape[0]
    weighted = [w[i] * mats[i] for i in range(n)]
    shift = max(abs(_min_eig(g)) for g in weighted)
    eye = np.eye(dim, dtype=np.complex128)
    shifted = [g + shift * eye for g in weighted]

    povm = [eye / n for _ in range(n)]
    damping = 1.0
    prev_primal = -np.inf
    best_gap = np.inf
    best_povm = [p.copy() for p in povm]
    best_iter = 0

    for it in range(1, max_iterations + 1):
        lam = hermitian_part(sum(g @ m @ g for g, m in zip(shifted, povm)))
        smooth = _pinv_sqrt(lam)
        updated = [
            hermitian_part(smooth @ g @ m @ g @ smooth)
            for g, m in zip(shifted, povm)
        ]
        # Redistribute any completeness defect (kernel of lam carries no weight).
        defect = eye - sum(updated)
        updated = [m + defect / n for m in updated]
        if damping < 1.0:
            povm = [
                (1.0 - damping) * old + damping * new
                for old, new in zip(povm, updated)
            ]
        else:
            povm = updated

        if it % 25 == 0 or it == max_iterations:
            primal, dual, _ = certificate_by_members(w, mats, povm)
            gap = dual - primal
            if gap < best_gap:
                best_gap = gap
                best_povm = [p.copy() for p in povm]
                best_iter = it
            if gap <= tol:
                return best_povm, it, True
            if primal <= prev_primal + 1e-15:
                damping = 0.5
            prev_primal = primal

    return best_povm, best_iter, False


# ---------------------------------------------------------------------------
# the factored solver on one dense stack
# ---------------------------------------------------------------------------

# The factored iteration on one dense ``(n, dim, dim)`` stack, kept as the reference
# for a problem of one block: ``fixed_point_dense`` takes the squared extrapolation
# steps of ``nlhide.discrimination`` in the same arithmetic, so the same count of map
# evaluations and the same certificate.  ``fixed_point_extrapolated`` is the iteration that
# squared extrapolation replaced, which jumped every 25 steps along the factors' change
# since the last check to the best of five step sizes; its certified duals and step
# counts are the differential reference of the accelerated solver.


def certificate_dense(
    w: np.ndarray, mats: np.ndarray, povm_mats: np.ndarray
) -> tuple[float, float, tuple[float, ...]]:
    """Primal value, the smaller of the identity-lift and positive-part duals on the
    whole matrix, and per-member optimality residuals, for ``(n, dim, dim)`` stacks."""
    am = mats @ povm_mats
    primal = float(w @ np.trace(am, axis1=1, axis2=2).real)
    weighted_avg = hermitian_part(np.tensordot(w, am, axes=1))
    eigs = np.linalg.eigvalsh(hermitian_part(weighted_avg - w[:, None, None] * mats))
    residuals = tuple(float(r) for r in eigs[:, 0])
    lift = max(0.0, -min(residuals))
    dual = primal + min(lift * mats.shape[-1], float(-eigs[eigs < 0].sum()))
    return primal, dual, residuals


def _inv_sqrt_dense(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(mat)
    return (vecs * vals ** -0.5) @ vecs.conj().T


def _complete_dense(factors: np.ndarray) -> np.ndarray:
    """``T^{-1/2} V_i`` with ``T = sum_i V_i V_i^H``, for an ``(n, dim, dim)`` stack,
    applied to the row ``[V_1 ... V_n]``."""
    n, dim = factors.shape[:2]
    row = factors.transpose(1, 0, 2).reshape(dim, -1)
    row = _inv_sqrt_dense(row @ row.conj().T) @ row
    return row.reshape(dim, n, dim).transpose(1, 0, 2)


def _dense_start(w: np.ndarray, mats: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The weighted and shifted operators and the uniform start factors."""
    n, dim = mats.shape[0], mats.shape[-1]
    weighted = w[:, None, None] * mats
    vals = np.linalg.eigvalsh(weighted)
    shift = float(np.max(np.abs(vals[:, 0]))) + 1e-5 * (float(np.max(np.abs(vals))) or 1.0)
    start = np.broadcast_to(np.eye(dim, dtype=np.complex128) / np.sqrt(n), mats.shape)
    return weighted, weighted + shift * np.eye(dim), start


def fixed_point_dense(
    w: np.ndarray, mats: np.ndarray, tol: float, max_iterations: int
) -> tuple[np.ndarray, int, bool, tuple[float, float, tuple[float, ...]]]:
    """The factored fixed-point iteration on one ``(n, dim, dim)`` stack with squared
    extrapolation, certified every 15 map evaluations and at the end of the budget: POVM
    of least gap, its map evaluations, whether it is certified, and its certificate."""
    n, dim = mats.shape[0], mats.shape[-1]
    _, shifted, factors = _dense_start(w, mats)
    best_gap, best_iter, best_cert = np.inf, 0, None
    best_povm = np.broadcast_to(np.eye(dim, dtype=np.complex128) / n, mats.shape).copy()
    for it in range(1, max_iterations + 1):
        if it % 3 == 1:  # a cycle's first step, from x0
            x0, factors = factors, _complete_dense(shifted @ factors)
        elif it % 3 == 2:  # its second, from x1
            x1, factors = factors, _complete_dense(shifted @ factors)
        else:  # a step from the jump, with x2 in ``factors``
            r, v = x1 - x0, factors - 2 * x1 + x0
            # Summed as the solver sums each block's norm: on nearly pure states a
            # last-bit change of the step size moves the next factors by about 1e-11.
            norm_r, norm_v = (float(np.linalg.norm(a.reshape(1, -1), axis=1)[0]) for a in (r, v))
            alpha = min(-norm_r / norm_v, -1.0) if norm_v > 0 else -1.0
            jump = _complete_dense(x0 - 2 * alpha * r + alpha**2 * v)
            factors = _complete_dense(shifted @ jump)
        if it % 15 == 0 or it == max_iterations:
            done = _complete_dense(factors)
            povm = done @ done.conj().swapaxes(-1, -2)
            cert = certificate_dense(w, mats, povm)
            gap = cert[1] - cert[0]
            if gap < best_gap:
                best_gap, best_povm, best_iter, best_cert = gap, povm, it, cert
            if gap <= tol:
                return best_povm, it, True, best_cert
    return best_povm, best_iter, False, best_cert or certificate_dense(w, mats, best_povm)


def fixed_point_extrapolated(
    w: np.ndarray, mats: np.ndarray, tol: float, max_iterations: int
) -> tuple[np.ndarray, int, bool, tuple[float, float, tuple[float, ...]]]:
    """The factored fixed-point iteration on one ``(n, dim, dim)`` stack, extrapolated
    every 25 steps to the candidate of highest primal value: POVM of least gap, its
    iteration, whether it is certified, and its certificate."""
    weighted, shifted, factors = _dense_start(w, mats)
    prev = factors
    dim = mats.shape[-1]
    best_gap, best_iter, best_cert = np.inf, 0, None
    best_povm = np.broadcast_to(np.eye(dim, dtype=np.complex128) / len(mats), mats.shape).copy()
    for it in range(1, max_iterations + 1):
        x = shifted @ factors
        row = x.transpose(1, 0, 2).reshape(dim, -1)
        factors = _inv_sqrt_dense(row @ row.conj().T) @ x
        if it % 25 == 0 or it == max_iterations:
            step, best_value = factors - prev, -np.inf
            for a in (0.0, 2.0, 8.0, 32.0, 128.0):
                jump = factors + a * step
                jump = _inv_sqrt_dense(np.tensordot(jump, jump.conj(), axes=([0, 2], [0, 2]))) @ jump
                value = np.vdot(jump, weighted @ jump).real
                if value > best_value:
                    best_value, best = value, jump
            factors = prev = best
            povm = factors @ factors.conj().swapaxes(-1, -2)
            cert = certificate_dense(w, mats, povm)
            gap = cert[1] - cert[0]
            if gap < best_gap:
                best_gap, best_povm, best_iter, best_cert = gap, povm, it, cert
            if gap <= tol:
                return best_povm, it, True, best_cert
    return best_povm, best_iter, False, best_cert or certificate_dense(w, mats, best_povm)


# ---------------------------------------------------------------------------
# product-basis strategy, one outcome at a time
# ---------------------------------------------------------------------------

# The per-outcome vector assembly and mixed-radix outcome decode that
# ``product_basis_strategy_value`` replaced with one Kronecker product of the
# party bases, kept unchanged as its differential reference.  It takes the
# bases already checked and converted to complex arrays.


def _party_major_vector(
    e_slots: SlotStructure, local_vectors: Mapping[str, np.ndarray]
) -> np.ndarray:
    """Assemble a product vector given per-party local vectors.

    Local vectors are Kronecker-multiplied party by party, then the axes are
    permuted back to the operator's slot order (a party's slots need not be
    contiguous after folding).
    """
    parties = e_slots.parties
    vec = np.array([1.0], dtype=np.complex128)
    party_major_slots: list[int] = []
    for party in parties:
        vec = np.kron(vec, local_vectors[party])
        party_major_slots.extend(e_slots.slots_of(party))
    dims_party_major = tuple(e_slots.slot_dims[k] for k in party_major_slots)
    # position of each original slot inside the party-major ordering
    position = {slot: pos for pos, slot in enumerate(party_major_slots)}
    axes = tuple(position[slot] for slot in range(len(e_slots.slot_dims)))
    return vec.reshape(dims_party_major).transpose(axes).reshape(-1)


def product_basis_value_by_outcome(
    e: Ensemble,
    bases: Mapping[str, np.ndarray],
    decide: Callable[[tuple[int, ...]], int],
) -> float:
    slots = e.slots
    parties = slots.parties
    local_dims = [slots.local_dim(party) for party in parties]
    value = 0.0
    for flat in range(int(np.prod(local_dims))):
        outcome: list[int] = []
        rest = flat
        for d in reversed(local_dims):
            outcome.append(rest % d)
            rest //= d
        outcome.reverse()
        guess = int(decide(tuple(outcome)))
        if not 0 <= guess < e.n:
            raise ValueError(f"decision {guess} out of range for {e.n} states")
        vec = _party_major_vector(
            slots, {p: bases[p][:, o] for p, o in zip(parties, outcome)}
        )
        born = float((vec.conj() @ (e.states[guess].matrix @ vec)).real)
        value += e.probs[guess] * born
    return value


# ---------------------------------------------------------------------------
# dominance, one operator per difference
# ---------------------------------------------------------------------------

def dominance_by_difference(
    e: Ensemble, x: Bipartition, pivot: int | None = None
) -> DominanceCheck:
    """PSD checks of ``p_pivot G(rho_pivot) - p_i G(rho_i)``, the difference taken
    on the raw transposed states and wrapped as an operator, so :func:`is_psd`
    checks each one Hermitian and takes its Hermitian part."""
    pivot, checks = _difference_checks(e, x, pivot)
    mins = tuple(0.0 if check is None else check.min_eigenvalue for check in checks)
    return DominanceCheck(all(check is None or check.ok for check in checks), mins, pivot)


def dominance_tolerances(e: Ensemble, x: Bipartition, pivot: int | None = None) -> tuple:
    """The :func:`is_psd` tolerance of each difference of :func:`dominance_by_difference`,
    0.0 at the pivot."""
    _, checks = _difference_checks(e, x, pivot)
    return tuple(0.0 if check is None else check.tol for check in checks)


def _difference_checks(e: Ensemble, x: Bipartition, pivot: int | None) -> tuple[int, list]:
    side = set(x.side_a)
    gammas = [partial_transpose(state, side) for state in e.states]
    if pivot is None:
        pivot = int(np.argmax(e.probs))
    lead = e.probs[pivot] * gammas[pivot].matrix
    checks = [
        None if i == pivot
        else is_psd(MultiPartyOperator(lead - e.probs[i] * gammas[i].matrix, e.slots))
        for i in range(e.n)
    ]
    return pivot, checks


# ---------------------------------------------------------------------------
# PSD tests on the whole matrix, and the dense check path
# ---------------------------------------------------------------------------

def support(stack: np.ndarray) -> np.ndarray:
    """Where any matrix of an ``(n, dim, dim)`` complex stack has a nonzero entry, as a
    boolean ``(dim, dim)`` array."""
    return np.any(stack != 0, axis=0)


def components_by_search(pattern: np.ndarray) -> list[np.ndarray]:
    """The connected components of a symmetric boolean pattern by depth-first search,
    in the layout of ``nlhide.tensor._components``: one ``(count, size)`` array per
    block size, ascending, the rows by least index, each row ascending."""
    dim = len(pattern)
    seen = [False] * dim
    found = []
    for start in range(dim):  # each component is met first at its least index
        if seen[start]:
            continue
        seen[start], todo, members = True, [start], []
        while todo:
            i = todo.pop()
            members.append(i)
            for j in np.flatnonzero(pattern[i] | pattern[:, i]).tolist():
                if not seen[j]:
                    seen[j] = True
                    todo.append(j)
        found.append(sorted(members))
    sizes = sorted({len(c) for c in found})
    return [np.array([c for c in found if len(c) == size]) for size in sizes]


def block_spectrum(blocks: list[np.ndarray]) -> np.ndarray:
    """All eigenvalues, ascending, of one Hermitian matrix given by its diagonal blocks
    in ``(count, size, size)`` stacks: each block's ``eigvalsh``, joined and sorted."""
    return np.sort(np.concatenate([np.linalg.eigvalsh(b).ravel() for b in blocks]))


def psd_of(spectrum: np.ndarray) -> PsdCheck:
    """``nlhide.tensor._psd`` on the ends of an ascending spectrum."""
    return _psd(float(spectrum[0]), float(spectrum[-1]))


def gather_blocks(matrix: np.ndarray, groups: list[np.ndarray]) -> list[np.ndarray]:
    """The ``(count, size, size)`` diagonal-block stacks of a dense matrix on each
    ``(count, size)`` index array, gathered by fancy indexing."""
    return [matrix[group[:, :, None], group[:, None, :]] for group in groups]


def assert_blocks_match_dense(stack: np.ndarray, pattern: np.ndarray) -> None:
    """For each matrix of an ``(n, dim, dim)`` Hermitian stack whose nonzero entries lie
    in ``pattern``, the per-block tests of ``nlhide.tensor`` (blocks scattered from the
    matrix's entries) agree with dense ``eigvalsh`` + ``_psd``: the same verdicts, and
    eigenvalues within ``1e-12 * (1 + spectral scale)``."""
    dim = pattern.shape[0]
    groups = _components(dim, [np.nonzero(pattern)])
    for matrix in stack:
        rows, cols = np.nonzero(matrix)
        mine = _blocks(groups, [(rows, cols, matrix[rows, cols])])
        dense = np.linalg.eigvalsh(matrix)
        spectrum = block_spectrum([stack[0] for stack in mine])
        slack = 1e-12 * (1.0 + max(abs(dense[0]), abs(dense[-1])))
        assert spectrum.shape == dense.shape
        assert np.max(np.abs(spectrum - dense)) <= slack
        got, want = psd_of(spectrum), psd_of(dense)
        assert got.ok == want.ok
        assert abs(got.min_eigenvalue - want.min_eigenvalue) <= slack


def validate_by_dense(e: Ensemble) -> EnsembleDiagnostics:
    """``nlhide.ensembles.validate`` on dense matrices: the Hermitian check on the whole
    matrix and its adjoint, and the PSD test on blocks gathered from the whole
    Hermitian part on the components of its nonzero pattern."""
    checks, warnings = [], []
    prob_residual = abs(math.fsum(e.probs) - 1.0)
    checks.append(CheckResult("probability-sum", prob_residual <= PROB_SUM_TOL, prob_residual,
                              f"sum deviates from 1 by {prob_residual:.3e}"))
    min_prob = min(e.probs)
    checks.append(CheckResult("probability-nonnegative", min_prob >= 0,
                              max(0.0, -min_prob), f"smallest probability {min_prob:.3e}"))
    for k, matrix in enumerate(e.stack):
        herm, part = _hermiticity(matrix)
        checks.append(CheckResult(f"hermitian[{k}]", part is not None, herm,
                                  f"state {k} Hermiticity defect {herm:.3e}"))
        if part is None:
            continue
        trace = complex(np.trace(matrix))
        trace_residual = abs(trace.real - 1.0) + abs(trace.imag)
        checks.append(CheckResult(f"trace[{k}]", trace_residual <= TRACE_TOL, trace_residual,
                                  f"state {k} trace deviates by {trace_residual:.3e}"))
        groups = components_by_search(support(part[None]))
        min_eig = float(block_spectrum(gather_blocks(part, groups))[0])
        ok = min_eig >= -PSD_WARN_TOL
        checks.append(CheckResult(f"psd[{k}]", ok, max(0.0, -min_eig),
                                  f"state {k} minimum eigenvalue {min_eig:.3e}"))
        if ok and min_eig < 0 and min_eig < -e.dim * np.finfo(float).eps * (
                1.0 + float(np.max(np.abs(matrix)))):
            warnings.append(
                f"state {k} minimum eigenvalue {min_eig:.3e} is negative within tolerance")
    return EnsembleDiagnostics(tuple(checks), tuple(warnings))


def overlaps_by_dense_sum(e: Ensemble) -> np.ndarray:
    """``|Tr(rho_i rho_j)|`` for ``i != j`` as the sum of all ``dim**2`` products
    ``A_kl B_lk``, zeros included."""
    out = np.zeros((e.n, e.n))
    for i in range(e.n):
        for j in range(i + 1, e.n):
            out[i, j] = out[j, i] = abs(np.sum(e.stack[i] * e.stack[j].T))
    return out


def dominance_by_gather(e: Ensemble, x: Bipartition, pivot: int | None = None) -> DominanceCheck:
    """``check_dominant_state`` on dense matrices: the stack of Hermitian parts is
    transposed whole, and each difference is formed on blocks gathered from the two
    transposed states on the components of the stack's joint nonzero pattern."""
    w, gathered = _gathered_states(e, x)
    return _gathered_dominance(w, gathered, int(np.argmax(w)) if pivot is None else pivot)


def dominance_by_gather_every_pivot(e: Ensemble, x: Bipartition) -> list[DominanceCheck]:
    """:func:`dominance_by_gather` for pivots ``0 .. n - 1``, on one gather of the states."""
    w, gathered = _gathered_states(e, x)
    return [_gathered_dominance(w, gathered, pivot) for pivot in range(e.n)]


def _gathered_states(e: Ensemble, x: Bipartition) -> tuple[np.ndarray, list[list[np.ndarray]]]:
    """The weights, and each transposed Hermitian part's blocks gathered on the
    components of the transposed stack's joint nonzero pattern."""
    gammas = np.stack([partial_transpose(MultiPartyOperator(hermitian_part(m), e.slots),
                                         x.side_a).matrix for m in e.stack])
    groups = components_by_search(support(gammas))
    return np.asarray(e.probs, dtype=float), [gather_blocks(g, groups) for g in gammas]


def _gathered_dominance(w: np.ndarray, gathered: list[list[np.ndarray]],
                        pivot: int) -> DominanceCheck:
    mins, passed = [], True
    for i in range(len(w)):
        if i == pivot:
            mins.append(0.0)
            continue
        diffs = []
        for lead, other in zip(gathered[pivot], gathered[i]):
            diff = w[pivot] * lead
            diff -= w[i] * other
            diffs.append(diff)
        check = psd_of(block_spectrum(diffs))
        mins.append(check.min_eigenvalue)
        passed = passed and check.ok
    return DominanceCheck(passed, tuple(mins), pivot)


# ---------------------------------------------------------------------------
# ensemble files
# ---------------------------------------------------------------------------

def matrix_to_pairs(matrix: np.ndarray) -> list:
    """Complex matrix as nested lists with each entry an ``[re, im]`` pair."""
    return np.stack([matrix.real, matrix.imag], -1).tolist()


def to_document(e: Ensemble) -> dict:
    """Schema: parties, slot_dims, party_of_slot (indices), probs, states."""
    party_index = {label: k for k, label in enumerate(e.parties.labels)}
    return {
        "parties": list(e.parties.labels),
        "slot_dims": list(e.slots.slot_dims),
        "party_of_slot": [party_index[p] for p in e.slots.party_of_slot],
        "probs": list(e.probs),
        "states": [matrix_to_pairs(state.matrix) for state in e.states],
    }


def saved_text_by_document(e: Ensemble) -> str:
    """The file text of ``e`` as one ``json.dumps`` of its nested-list document."""
    return json.dumps(to_document(e), sort_keys=True, separators=(",", ":"))


def load_by_document(text: str) -> Ensemble:
    """The whole document through one ``json.loads`` into nested lists, then
    :func:`nlhide.ensembles.from_document`, which reads each state with
    ``_pairs_to_matrix``."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _document_error("schema", f"not valid JSON: {exc}") from exc
    return from_document(doc)


# ---------------------------------------------------------------------------
# party symmetries
# ---------------------------------------------------------------------------

def swap_parties_dense(matrix: np.ndarray, slots: SlotStructure, a: str, b: str) -> np.ndarray:
    """``matrix`` with party ``a``'s ``k``-th slot and party ``b``'s ``k``-th slot
    traded for every ``k``, rows and columns alike: one transpose of the slot axes."""
    r = len(slots.slot_dims)
    axes = list(range(2 * r))
    for j, k in zip(slots.slots_of(a), slots.slots_of(b)):
        for offset in (0, r):
            axes[offset + j], axes[offset + k] = offset + k, offset + j
    return matrix.reshape(slots.slot_dims * 2).transpose(axes).reshape(matrix.shape)


def party_classes_by_search(e: Ensemble) -> set[frozenset[str]]:
    """The parties' symmetry classes: every pair of parties with equal ordered slot
    dimensions is swapped in every whole dense Hermitian part, a pair whose swap leaves
    each one equal entry by entry is joined, and the classes are the connected groups
    of joined pairs, found by a search."""
    slots, labels = e.slots, e.parties.labels
    parts = [hermitian_part(m) for m in e.stack]
    shape = {p: [slots.slot_dims[k] for k in slots.slots_of(p)] for p in labels}
    joined = {p: {p} for p in labels}
    for a, b in itertools.combinations(labels, 2):
        if shape[a] == shape[b] and all(
                np.array_equal(swap_parties_dense(m, slots, a, b), m) for m in parts):
            joined[a].add(b)
            joined[b].add(a)
    classes: set[frozenset[str]] = set()
    for start in labels:
        group, frontier = {start}, [start]
        while frontier:
            for other in joined[frontier.pop()] - group:
                group.add(other)
                frontier.append(other)
        classes.add(frozenset(group))
    return classes


def orbit_count(labels: tuple[str, ...], classes: set[frozenset[str]],
                partitions: list[list[list[str]]]) -> int:
    """The number of orbits of ``partitions`` (lists of blocks, closed under the group)
    under every permutation of ``labels`` that maps each party into its own class,
    by applying each permutation to each partition."""
    perms = [dict(zip(labels, image)) for image in itertools.permutations(labels)
             if all(any({x, y} <= c for c in classes) for x, y in zip(labels, image))]
    seen: set[frozenset[frozenset[str]]] = set()
    orbits = 0
    for partition in partitions:
        form = frozenset(frozenset(block) for block in partition)
        if form not in seen:
            orbits += 1
            seen |= {frozenset(frozenset(perm[x] for x in block) for block in form)
                     for perm in perms}
    return orbits


def scan_by_cut(e: Ensemble, tol: float) -> dict[str, tuple[str, float]]:
    """Each cut's method and q, every cut decided on its own by the public per-cut
    functions: the heaviest member's dominance by ``check_dominant_state`` (q its
    weight), else ``q_upper`` with ``tol``."""
    out = {}
    for side in brute_force_bipartition_sides(e.parties.labels):
        bp = Bipartition.from_side(e.parties, side)
        check = check_dominant_state(e, bp)
        if check.passed:
            out[bp.to_string()] = ("dominance", e.probs[check.pivot])
        else:
            result = q_upper(e, bp, tol=tol)
            out[bp.to_string()] = (result.method, result.dual_value)
    return out


def coalition_rows_by_partition(e: Ensemble, L: int, report: HidingReport) -> list[CoalitionRow]:
    """Per nontrivial partition, on its own: the least ``report.bound`` over every cut
    coarser than it, found by comparing block sets against all cuts."""
    cuts = [Bipartition.from_side(e.parties, side)
            for side in brute_force_bipartition_sides(e.parties.labels)]
    kind = "exact" if report.exact else "bound"
    rows = []
    for partition in all_partitions(e.parties):
        if partition.is_trivial:
            continue
        values = [report.bound(L, bp.to_string()) for bp in cuts
                  if is_coarser(bp, partition) and bp.to_string() in report.q_values]
        rows.append(CoalitionRow(partition.to_string(), L, min(values), kind) if values
                    else CoalitionRow(partition.to_string(), L, float("nan"), "unavailable"))
    return rows


# ---------------------------------------------------------------------------
# random inputs
# ---------------------------------------------------------------------------

def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2.0


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def swap_symmetric_ensemble(seed: int, slots: SlotStructure, swaps: Sequence[tuple[str, str]],
                            n: int = 3, lead: float = 0.0) -> Ensemble:
    """``n`` random states on ``slots``, each made invariant, bit for bit, under the
    disjoint party swaps ``swaps`` by adding its swapped copy for each swap in turn:
    ``rho + S rho S`` is unchanged by ``S``, since its two addends trade places.
    ``lead`` mixes the first state toward white noise and its prior toward 1."""
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(n):
        rho = random_density(rng, slots.dim)
        for a, b in swaps:
            rho = rho + swap_parties_dense(rho, slots, a, b)
        mats.append(hermitian_part(rho / np.trace(rho).real))
    mats[0] = lead * np.eye(slots.dim) / slots.dim + (1 - lead) * mats[0]
    probs = lead * np.eye(n)[0] + (1 - lead) * rng.dirichlet(np.ones(n))
    labels = PartySet(tuple(dict.fromkeys(slots.party_of_slot)))
    return Ensemble(labels, tuple(probs), tuple(MultiPartyOperator(m, slots) for m in mats))


def random_povm(rng: np.random.Generator, n: int, dim: int) -> list[np.ndarray]:
    """``Lambda^{-1/2} B_i Lambda^{-1/2}`` for random PSD ``B_i``, ``Lambda = sum B_i``."""
    factors = [rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)) for _ in range(n)]
    parts = [g @ g.conj().T for g in factors]
    vals, vecs = np.linalg.eigh(sum(parts))
    smooth = (vecs * vals ** -0.5) @ vecs.conj().T
    return [smooth @ b @ smooth for b in parts]
