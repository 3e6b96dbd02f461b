"""Certified minimum-error discrimination values and their relaxations.

``optimal_global`` maximizes the average success probability of identifying
which weighted Hermitian operator was prepared, over all POVMs.  Applied to
partially transposed states (:func:`q_upper`) the dual value is a certified
upper bound on what any measurement restricted to one side of a bipartition
can achieve.  Every result carries a duality certificate: a feasible dual
operator built from the returned POVM, so the reported gap is trustworthy
even when the iteration stops early.

Two solver paths exist.  For two operators the exact closed form is used:
the optimum is ``w1 Tr(B) + sum of positive eigenvalues of (w0 A - w1 B)``
achieved by the projector onto the positive eigenspace.  For more operators
a damped fixed-point iteration runs on shifted-PSD copies of the weighted
operators, with the optimality residuals of the current POVM as stopping
rule and the dual built by lifting the weighted POVM average to feasibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .ensembles import Ensemble
from .partitions import Bipartition, all_bipartitions
from .tensor import (
    ContractViolationError,
    MultiPartyOperator,
    PsdCheck,
    SlotStructure,
    hermitian_eigenvalues,
    hermitian_part,
    identity,
    is_hermitian,
    is_psd,
    partial_transpose,
    zero,
)

DEFAULT_SOLVER_TOL = 1e-8
DEFAULT_MAX_ITERATIONS = 100_000
_CHECK_EVERY = 25


@dataclass(frozen=True)
class Povm:
    """Positive operators on a common slot structure summing to the identity."""

    elements: tuple[MultiPartyOperator, ...]

    def __post_init__(self):
        elements = tuple(self.elements)
        if not elements:
            raise ValueError("a POVM needs at least one element")
        slots = elements[0].slots
        for k, el in enumerate(elements):
            if el.slots != slots:
                raise ValueError(f"POVM element {k} has a different slot structure")
        object.__setattr__(self, "elements", elements)

    @property
    def slots(self) -> SlotStructure:
        return self.elements[0].slots

    def completeness_defect(self) -> float:
        total = sum(el.matrix for el in self.elements)
        return float(np.max(np.abs(total - np.eye(self.slots.dim))))

    def min_eigenvalues(self) -> tuple[float, ...]:
        return tuple(float(hermitian_eigenvalues(el)[0]) for el in self.elements)

    def is_valid(self) -> bool:
        return (
            self.completeness_defect() <= 1e-10
            and all(v >= -1e-10 for v in self.min_eigenvalues())
        )


@dataclass(frozen=True)
class DiscriminationResult:
    """Primal/dual pair with the POVM that realizes the primal value.

    ``certificate_min_eigs[i]`` is the minimum eigenvalue of the symmetrized
    optimality operator for member ``i``; all entries nonnegative (up to the
    solver tolerance) certifies the POVM optimal.  ``dual_value`` is always a
    valid upper bound on the optimum, converged or not.
    """

    primal_value: float
    dual_value: float
    gap: float
    povm: Povm
    certificate_min_eigs: tuple[float, ...]
    certified: bool
    iterations: int
    method: str


def _validate_inputs(
    weights: Sequence[float], ops: Sequence[MultiPartyOperator]
) -> tuple[np.ndarray, np.ndarray, SlotStructure]:
    if len(weights) != len(ops):
        raise ValueError(f"{len(weights)} weights but {len(ops)} operators")
    if len(ops) < 2:
        raise ValueError("discrimination needs at least two operators")
    w = np.asarray([float(x) for x in weights])
    if np.any(w < 0):
        raise ValueError(f"weights must be nonnegative, got {w.tolist()}")
    slots = ops[0].slots
    for k, op in enumerate(ops):
        if op.slots != slots:
            raise ValueError(f"operator {k} has a different slot structure")
        if not is_hermitian(op):
            raise ContractViolationError(f"operator {k} is not Hermitian")
    mats = hermitian_part(np.stack([op.matrix for op in ops]))
    return w, mats, slots


def _certificate(
    w: np.ndarray, mats: np.ndarray, povm_mats: np.ndarray
) -> tuple[float, float, tuple[float, ...]]:
    """Primal value, feasible dual value, and per-member optimality residuals.

    ``mats`` and ``povm_mats`` are stacked ``(n, dim, dim)`` arrays.  The dual
    operator is the Hermitian part of ``sum_j w_j A_j M_j`` lifted by
    ``max(0, -min residual)`` times the identity, which is feasible by
    construction; its trace is primal plus lift times dimension.  All ``n``
    residuals come from one batched eigenvalue solve.
    """
    am = mats @ povm_mats
    primal = float(w @ np.trace(am, axis1=1, axis2=2).real)
    weighted_avg = hermitian_part(np.tensordot(w, am, axes=1))
    diffs = hermitian_part(weighted_avg - w[:, None, None] * mats)
    residuals = tuple(float(r) for r in np.linalg.eigvalsh(diffs)[:, 0])
    lift = max(0.0, -min(residuals))
    dual = primal + lift * mats.shape[-1]
    return primal, dual, residuals


def _closed_form_two(w: np.ndarray, mats: np.ndarray) -> tuple[np.ndarray, int]:
    delta = hermitian_part(w[0] * mats[0] - w[1] * mats[1])
    vals, vecs = np.linalg.eigh(delta)
    positive = vals > 0
    m0 = (vecs[:, positive]) @ (vecs[:, positive]).conj().T
    m0 = hermitian_part(m0)
    m1 = np.eye(delta.shape[0], dtype=np.complex128) - m0
    return np.stack([m0, m1]), 1


def _pinv_sqrt(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(hermitian_part(mat))
    cutoff = max(float(vals[-1]), 0.0) * 1e-14
    inv = np.where(vals > cutoff, np.abs(vals) ** -0.5, 0.0)
    return (vecs * inv) @ vecs.conj().T


def _fixed_point_iteration(
    w: np.ndarray,
    mats: np.ndarray,
    tol: float,
    max_iterations: int,
) -> tuple[np.ndarray, int, bool, tuple[float, float, tuple[float, ...]]]:
    """Damped fixed-point POVM iteration on shifted-PSD weighted operators.

    Shifting every ``w_i A_i`` by ``c = max_i |min eig(w_i A_i)|`` makes the
    problem an unnormalized discrimination instance with the same maximizer;
    the update ``M_i <- S G_i M_i G_i S`` with ``S = Lambda^{-1/2}`` and
    ``Lambda = sum_i G_i M_i G_i`` preserves positivity and completeness.  All
    members move together as stacked ``(n, dim, dim)`` arrays, and each
    ``G_i M_i G_i`` is formed once per step.  Deterministic: uniform start,
    damping 0.5 engaged once the primal value first plateaus.  Returns the best
    POVM with its iteration, whether it is certified, and its certificate
    ``(primal, dual, residuals)``.
    """
    n, dim = mats.shape[0], mats.shape[-1]
    weighted = w[:, None, None] * mats
    shift = float(np.max(np.abs(np.linalg.eigvalsh(weighted)[:, 0])))
    eye = np.eye(dim, dtype=np.complex128)
    shifted = weighted + shift * eye

    povm = np.broadcast_to(eye / n, mats.shape).copy()
    damping = 1.0
    prev_primal = -np.inf
    best_gap = np.inf
    best_povm = povm
    best_iter = 0
    best_cert = None

    for it in range(1, max_iterations + 1):
        sandwiched = shifted @ povm @ shifted
        smooth = _pinv_sqrt(sandwiched.sum(axis=0))
        updated = hermitian_part(smooth @ sandwiched @ smooth)
        # Redistribute any completeness defect (the kernel of Lambda carries no weight).
        updated += (eye - updated.sum(axis=0)) / n
        if damping < 1.0:
            povm = (1.0 - damping) * povm + damping * updated
        else:
            povm = updated

        if it % _CHECK_EVERY == 0 or it == max_iterations:
            cert = _certificate(w, mats, povm)
            primal, dual, _ = cert
            gap = dual - primal
            if gap < best_gap:
                # povm is rebound, never written in place, so no copy is needed.
                best_gap, best_povm, best_iter, best_cert = gap, povm, it, cert
            if gap <= tol:
                return best_povm, it, True, best_cert
            if primal <= prev_primal + 1e-15:
                damping = 0.5
            prev_primal = primal

    return best_povm, best_iter, False, best_cert or _certificate(w, mats, best_povm)


def optimal_global(
    weights: Sequence[float],
    ops: Sequence[MultiPartyOperator],
    tol: float = DEFAULT_SOLVER_TOL,
    method: str = "auto",
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> DiscriminationResult:
    """Maximize ``sum_i weights[i] * Tr(ops[i] M_i)`` over POVMs ``{M_i}``.

    ``method`` is ``"auto"`` (closed form for two operators, iteration
    otherwise), ``"closed"`` (two operators only) or ``"iterative"``.  A
    result with ``gap > tol`` is returned flagged uncertified rather than
    raising; its dual value is still a valid upper bound.
    """
    if not tol > 0:  # also NaN
        raise ValueError(f"tolerance must be positive, got {tol}")
    w, mats, slots = _validate_inputs(weights, ops)
    if method == "auto":
        method = "closed" if len(mats) == 2 else "iterative"
    if method == "closed":
        if len(mats) != 2:
            raise ValueError("the closed form applies to exactly two operators")
        povm_mats, iterations = _closed_form_two(w, mats)
        converged, (primal, dual, residuals) = True, _certificate(w, mats, povm_mats)
    elif method == "iterative":
        povm_mats, iterations, converged, (primal, dual, residuals) = _fixed_point_iteration(
            w, mats, tol, max_iterations
        )
    else:
        raise ValueError(f"unknown method {method!r}")
    return DiscriminationResult(
        primal_value=primal,
        dual_value=dual,
        gap=dual - primal,
        povm=Povm(tuple(MultiPartyOperator(m, slots) for m in povm_mats)),
        certificate_min_eigs=residuals,
        certified=bool(converged and dual - primal <= tol),
        iterations=iterations,
        method=method,
    )


def _transposed_states(e: Ensemble, x: Bipartition) -> list[MultiPartyOperator]:
    side = set(x.side_a)
    return [partial_transpose(state, side) for state in e.states]


def q_upper(
    e: Ensemble,
    x: Bipartition,
    tol: float = DEFAULT_SOLVER_TOL,
    method: str = "auto",
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> DiscriminationResult:
    """Discrimination optimum of the partially transposed ensemble.

    The dual value upper-bounds the success probability of any measurement
    local to the bipartition ``x``, regardless of convergence.
    """
    return optimal_global(
        e.probs,
        _transposed_states(e, x),
        tol=tol,
        method=method,
        max_iterations=max_iterations,
    )


class OptimalityCheck(NamedTuple):
    """Per-member optimality residuals of a POVM (nonnegative = optimal)."""

    passed: bool
    residuals: tuple[float, ...]


def check_povm_optimality(
    e: Ensemble,
    x: Bipartition,
    povm: Povm,
    tol: float = DEFAULT_SOLVER_TOL,
) -> OptimalityCheck:
    """Decide whether ``povm`` realizes the partial-transpose optimum.

    For each member the minimum eigenvalue of the symmetrized operator
    ``sum_j p_j G(rho_j) M_j - p_i G(rho_i)`` is reported; the POVM is optimal
    iff all of them are nonnegative.  Off-optimum the weighted average need
    not be Hermitian, so its Hermitian part is taken before the eigensolve.
    """
    if povm.slots != e.slots:
        raise ValueError("POVM slot structure does not match the ensemble")
    gammas = _transposed_states(e, x)
    w = np.asarray(e.probs)
    mats = np.stack([g.matrix for g in gammas])
    povm_mats = np.stack([el.matrix for el in povm.elements])
    _, _, residuals = _certificate(w, mats, povm_mats)
    return OptimalityCheck(all(r >= -tol for r in residuals), residuals)


class DominanceCheck(NamedTuple):
    """PSD checks of ``p_pivot G(rho_pivot) - p_i G(rho_i)`` for all ``i``."""

    passed: bool
    min_eigenvalues: tuple[float, ...]
    pivot: int


def check_dominant_state(
    e: Ensemble,
    x: Bipartition,
    pivot: int | None = None,
) -> DominanceCheck:
    """Test whether one weighted transposed state dominates all others.

    When the check passes, the optimum of the transposed ensemble equals the
    pivot weight exactly and the all-or-nothing measurement (identity on the
    pivot, zero elsewhere) is optimal, so callers may skip the solver.  The
    pivot defaults to the heaviest member (lowest index on ties).
    """
    return _dominance(e, _transposed_states(e, x), pivot)


def _dominance(
    e: Ensemble,
    gammas: Sequence[MultiPartyOperator],
    pivot: int | None = None,
) -> DominanceCheck:
    """:func:`check_dominant_state` on states already transposed for the cut."""
    if pivot is None:
        pivot = int(np.argmax(e.probs))
    if not 0 <= pivot < e.n:
        raise ValueError(f"pivot {pivot} out of range for {e.n} states")
    lead = e.probs[pivot] * gammas[pivot].matrix
    out: list[float] = []
    ok = True
    for i in range(e.n):
        if i == pivot:
            out.append(0.0)
            continue
        diff = MultiPartyOperator(lead - e.probs[i] * gammas[i].matrix, e.slots)
        check: PsdCheck = is_psd(diff)
        out.append(check.min_eigenvalue)
        ok = ok and check.ok
    return DominanceCheck(ok, tuple(out), pivot)


def _dominance_result(e: Ensemble, check: DominanceCheck, povm: Povm) -> DiscriminationResult:
    # With a passing dominance certificate the optimum is the pivot weight
    # exactly; ``povm``, the all-or-nothing POVM on the pivot, realizes it.
    value = float(e.probs[check.pivot])
    return DiscriminationResult(
        primal_value=value,
        dual_value=value,
        gap=0.0,
        povm=povm,
        certificate_min_eigs=check.min_eigenvalues,
        certified=True,
        iterations=0,
        method="dominance",
    )


class BipartitionScan(NamedTuple):
    """Upper bounds across every bipartition of an ensemble."""

    max_value: float
    results: dict[str, DiscriminationResult]
    failures: dict[str, str]


def max_bipartition_bound(
    e: Ensemble,
    tol: float = DEFAULT_SOLVER_TOL,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> BipartitionScan:
    """Largest partial-transpose bound over all bipartitions, with a table.

    Per bipartition the states are transposed once; the dominance certificate
    is tried first (exact value, no iteration) and the solver runs only where
    it fails.  Solver exceptions are collected per bipartition so a partial
    table is still returned.
    """
    results: dict[str, DiscriminationResult] = {}
    failures: dict[str, str] = {}
    povm = None  # all-or-nothing on the pivot: one per scan, immutable, shared by every cut
    for bp in all_bipartitions(e.parties):
        key = bp.to_string()
        try:
            gammas = _transposed_states(e, bp)
            check = _dominance(e, gammas)
            if check.passed:
                if povm is None:
                    elements = [zero(e.slots)] * e.n
                    elements[check.pivot] = identity(e.slots)
                    povm = Povm(tuple(elements))
                results[key] = _dominance_result(e, check, povm)
            else:
                results[key] = optimal_global(
                    e.probs, gammas, tol=tol, max_iterations=max_iterations
                )
        except (ValueError, np.linalg.LinAlgError) as exc:
            failures[key] = str(exc)
    if not results:
        raise ValueError(f"no bipartition could be bounded: {failures}")
    max_value = max(r.dual_value for r in results.values())
    return BipartitionScan(max_value, results, failures)


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


def product_basis_strategy_value(
    e: Ensemble,
    per_party_bases: Mapping[str, np.ndarray],
    decide: Callable[[tuple[int, ...]], int],
) -> float:
    """Success probability of a local product-basis strategy.

    Each party measures in its own orthonormal basis (columns of the given
    matrix over that party's full local space); ``decide`` maps the tuple of
    local outcomes, ordered as the parties, to a guessed member index.  The
    value is an achievable lower bound for every partition, in particular it
    never exceeds any partial-transpose upper bound.
    """
    slots = e.slots
    parties = slots.parties
    bases: dict[str, np.ndarray] = {}
    for party in parties:
        local_dim = slots.local_dim(party)
        if party not in per_party_bases:
            raise ValueError(f"missing basis for party {party!r}")
        basis = np.asarray(per_party_bases[party], dtype=np.complex128)
        if basis.shape != (local_dim, local_dim):
            raise ValueError(
                f"basis for {party!r} must be {local_dim}x{local_dim}, got {basis.shape}"
            )
        defect = float(np.max(np.abs(basis.conj().T @ basis - np.eye(local_dim))))
        if defect > 1e-10:
            raise ValueError(f"basis for {party!r} is not orthonormal (defect {defect:.3e})")
        bases[party] = basis

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
