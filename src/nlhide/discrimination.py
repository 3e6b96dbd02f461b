"""Certified minimum-error discrimination values and their relaxations.

``optimal_global`` maximizes the average success probability of identifying
which weighted Hermitian operator was prepared, over all POVMs.  Applied to
partially transposed states (:func:`q_upper`) the dual value is a certified
upper bound on what any measurement restricted to one side of a bipartition
can achieve.  Every result carries a duality certificate: a feasible dual
operator built from the returned POVM, so the reported gap is trustworthy
even when the iteration stops early.

Every entry point reads each operator's Hermitian part as nonzero entries, checked once
per ensemble or call (else :class:`ContractViolationError`).  A cut's states are block
diagonal on the components of their joint nonzero pattern, and one kernel,
``tensor._cut_blocks``, moves the entries' keys by the partial transpose and forms the
blocks once, one row per state, for every entry point; every eigenvalue solve runs
block by block.  :func:`max_bipartition_bound` decides one cut per orbit of the
ensemble's party symmetries, found once per ensemble by exact swaps of two parties in
its states' entries: permuting parties within their classes maps each state to itself,
so it maps a cut's transposed states to another cut's, unitarily, and both have one
optimum (Gatermann & Parrilo, J. Pure Appl. Algebra 192, 95 (2004)).  On each cut it
decides, it first tries whether the heaviest weighted transposed state dominates the
others, by the rule of :func:`check_dominant_state`: each difference is decided by the
PSD rule on its eigenvalues, and the solver runs only where dominance fails.

One solver, ``_solve``, runs on the same stacks, for :func:`q_upper` and
:func:`optimal_global` as for the scan.  Pinching a POVM onto them keeps its value, so
the optimum is the sum of one optimum per block, and the block diagonal sum of the
blocks' feasible duals is feasible.  The blocks of one size are stacked and solved
together; :func:`optimal_global` splits its input by the input's own pattern, and a
matrix with no block structure is one block.  A ``1 x 1`` block is closed form, ``max_i
w_i a_i``, and takes no map evaluation.  For two operators
each block takes the exact closed form: its optimum is ``w1 Tr(B) + sum of positive
eigenvalues of (w0 A - w1 B)``, achieved by the projector onto the positive
eigenspace.  For more operators the fixed-point iteration runs on square-root
factors of the POVM elements, on positive definite shifts of the weighted
operators, accelerated by squared extrapolation (SQUAREM); every five cycles it
checks whether the POVM's primal value is within the tolerance of the smaller of two
feasible duals built on the weighted POVM average, and stops once it is.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .ensembles import Ensemble
from .partitions import Bipartition, _by_name, _orbit_key, all_bipartitions
from .tensor import (SlotStructure, _cut_blocks, _entry_record, _extremes, _hermitian_parts,
                     _psd, _transpose_keys, hermitian_part)

DEFAULT_SOLVER_TOL = 1e-8
DEFAULT_MAX_ITERATIONS = 100_000
#: Squared extrapolation cycles, of three map evaluations each, between certificates.
_CHECK_CYCLES = 5


@dataclass(frozen=True, eq=False)
class DiscriminationResult:
    """Primal/dual pair with the POVM that realizes the primal value.

    ``povm`` is the read-only ``(n, dim, dim)`` stack of POVM elements that
    :func:`optimal_global` and :func:`q_upper` return, scattered from the solver's
    blocks.  It is ``None`` on every cut of :func:`max_bipartition_bound`: for
    dominance the POVM is the all-or-nothing measurement on the pivot, and a cut the
    solver decides keeps only its blocks' values, since a dense stack per cut would
    take ``n dim^2`` numbers (1 GiB at ``n = 4``, dim 4096).
    ``certificate_min_eigs[i]`` is the minimum eigenvalue of the symmetrized
    optimality operator for member ``i``, the least over the blocks; all entries
    nonnegative (up to the solver tolerance) certifies the POVM optimal.  For a
    dominance result it is the minimum eigenvalue of ``p_pivot G(rho_pivot) - p_i
    G(rho_i)``, the least over its blocks, 0.0 at the pivot: the ``min_eigenvalues`` of
    :func:`check_dominant_state` on the cut, each within the PSD tolerance of zero or
    above.  The primal and dual values are sums over the blocks.  ``iterations`` is the
    most map evaluations that any block size took, never more than the budget; a
    closed form takes none, so a ``"closed"`` or dominance result reports 0.
    ``dual_value`` is always a valid upper bound on the optimum, converged or not.
    """

    primal_value: float
    dual_value: float
    gap: float
    povm: np.ndarray | None
    certificate_min_eigs: tuple[float, ...]
    certified: bool
    iterations: int
    method: str


def _nonnegative(weights: Sequence[float]) -> np.ndarray:
    """The weights as floats; a negative or NaN one raises ``ValueError``."""
    w = np.asarray([float(x) for x in weights])
    if not np.all(w >= 0):  # also NaN
        raise ValueError(f"weights must be nonnegative, got {w.tolist()}")
    return w


def _certificate(
    w: np.ndarray, mats: np.ndarray, povm_mats: np.ndarray
) -> tuple[float, float, tuple[float, ...]]:
    """Primal value, feasible dual value, and per-member optimality residuals.

    ``mats`` and ``povm_mats`` are ``(n, dim, dim)`` stacks, or ``(count, n, s, s)``
    stacks of one block size of a block diagonal problem: block ``b`` holds the
    ``s x s`` diagonal blocks of all ``n`` members on it.  In each block, with ``Y0``
    the Hermitian part of ``sum_j w_j A_j M_j``, member ``i``'s residual is the least
    eigenvalue of ``Y0 - w_i A_i``.  ``Y0`` lifted by ``max(0, -min residual)`` times
    the identity and ``Y0 + sum_i (w_i A_i - Y0)_+`` are both feasible duals; the
    block's dual value is the smaller trace, its primal plus lift times ``s`` or its
    primal plus the magnitudes of every negative eigenvalue of every ``Y0 - w_i A_i``,
    all from one batched eigenvalue solve.  The blocks' values add up, and member
    ``i``'s residual is its least over the blocks: the block diagonal sum of the
    blocks' duals is feasible for the whole problem.
    """
    mats = mats.reshape(-1, *mats.shape[-3:])
    am = mats @ povm_mats.reshape(mats.shape)
    primal = np.trace(am, axis1=-2, axis2=-1).real @ w
    weighted_avg = hermitian_part(np.tensordot(w, am, axes=([0], [1])))
    diffs = hermitian_part(weighted_avg[:, None] - w[:, None, None] * mats)
    eigs = np.linalg.eigvalsh(diffs)
    least = eigs[..., 0]
    lift = np.maximum(0.0, -least.min(axis=1))
    dual = primal + np.minimum(lift * mats.shape[-1], -np.minimum(eigs, 0.0).sum(axis=(1, 2)))
    return float(primal.sum()), float(dual.sum()), tuple(float(r) for r in least.min(axis=0))


def _closed_form_one(w: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """POVM blocks of ``(count, n, 1, 1)`` blocks: each block's optimum is ``max_i w_i
    a_i``, all weight on the first member that attains it."""
    povm = np.zeros(mats.shape, dtype=np.complex128)
    povm[np.arange(len(mats)), np.argmax(w * mats[:, :, 0, 0].real, axis=1)] = 1.0
    return povm


def _closed_form_two(w: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """POVM blocks of ``(count, 2, s, s)`` blocks: the projector onto the positive
    eigenspace of ``w_0 A_0 - w_1 A_1`` and the rest of the identity, from one
    batched ``eigh``."""
    delta = hermitian_part(w[0] * mats[:, 0] - w[1] * mats[:, 1])
    vals, vecs = np.linalg.eigh(delta)
    m0 = hermitian_part((vecs * (vals > 0)[:, None, :]) @ vecs.conj().swapaxes(-1, -2))
    return np.stack([m0, np.eye(delta.shape[-1]) - m0], axis=1)


def _inv_sqrt(mat: np.ndarray) -> np.ndarray:
    """``A^{-1/2}`` of a positive definite matrix; on a stack, of each matrix in it."""
    vals, vecs = np.linalg.eigh(mat)
    return (vecs * vals[..., None, :] ** -0.5) @ vecs.conj().swapaxes(-1, -2)


def _completed(factors: np.ndarray) -> np.ndarray:
    """``T^{-1/2} V_i`` with ``T = sum_i V_i V_i^H`` in each block of a ``(count, n, s,
    s)`` stack of factors, one product on the row ``[V_1 ... V_n]``: the elements
    ``V_i V_i^H`` of each block then sum to the identity."""
    count, n, s = factors.shape[:3]
    row = factors.transpose(0, 2, 1, 3).reshape(count, s, n * s)
    row = _inv_sqrt(row @ row.conj().swapaxes(-1, -2)) @ row
    return row.reshape(count, s, n, s).transpose(0, 2, 1, 3)


def _iterate(
    w: np.ndarray, mats: np.ndarray, shift: float, tol: float, max_iterations: int,
) -> tuple[np.ndarray, int, bool, tuple[float, float, tuple[float, ...]]]:
    """Fixed-point POVM iteration on square-root factors, with squared extrapolation.

    ``mats`` is one ``(count, n, s, s)`` stack of a block diagonal problem (a dense one
    is ``count = 1``, ``s = dim``), and every block in it iterates with the others, in
    lockstep.  Shifting every ``w_i A_i`` by ``shift`` (:func:`_solve`'s, one for all
    stacks) makes each ``G_i`` positive definite with the same maximizer.  Each
    element is kept as a factor, ``M_i = V_i V_i^H``, so the map ``M_i <- S G_i M_i G_i
    S``, ``S = Lambda^{-1/2}``, of Jezek, Rehacek & Fiurasek (PRA 65, 060301) is ``F(V)
    = T^{-1/2} X`` with ``X_i = G_i V_i`` and ``T = sum_i X_i X_i^H``
    (:func:`_completed`), in each block: every element is PSD by construction.  The
    map converges linearly, so each cycle is one SQUAREM step (Varadhan & Roland,
    Scand. J. Stat. 35, 335): with ``x1 = F(x0)``, ``x2 = F(x1)``, ``r = x1 - x0`` and
    ``v = x2 - 2 x1 + x0``, each block jumps to ``x0 - 2a r + a^2 v``, ``a = min(-|r| /
    |v|, -1)`` (-1, the jump to ``x2``, where ``v = 0``), and ``x0 <- F(T^{-1/2}
    jump)``.  ``max_iterations`` caps the map evaluations.  Every ``_CHECK_CYCLES``
    cycles, and where the budget ends (in a cycle: on its last map value), the factors
    are completed once more and the stack's POVM is certified (:func:`_certificate`);
    the stack stops once its gap is within ``tol``.  Deterministic: uniform start,
    fixed steps.  Returns the POVM blocks of least gap with their count of map
    evaluations, whether they are certified, and their certificate ``(primal, dual,
    residuals)``.
    """
    n, s = mats.shape[1:3]
    shifted = w[:, None, None] * mats + shift * np.eye(s)
    eye = np.eye(s, dtype=np.complex128)
    factors = np.broadcast_to(eye / np.sqrt(n), mats.shape)
    best_gap, best_iter, best_cert = np.inf, 0, None
    best_povm = np.broadcast_to(eye / n, mats.shape).copy()

    for it in range(1, max_iterations + 1):
        if it % 3 == 1:
            x0, factors = factors, _completed(shifted @ factors)
        elif it % 3 == 2:
            x1, factors = factors, _completed(shifted @ factors)
        else:
            r, v = x1 - x0, factors - 2 * x1 + x0
            r_norm, v_norm = (np.linalg.norm(a.reshape(len(a), -1), axis=1) for a in (r, v))
            alpha = -np.divide(r_norm, v_norm, out=np.ones_like(r_norm), where=v_norm > 0)
            alpha = np.minimum(alpha, -1.0)[:, None, None, None]
            factors = _completed(shifted @ _completed(x0 - 2 * alpha * r + alpha**2 * v))

        if it % (3 * _CHECK_CYCLES) == 0 or it == max_iterations:
            # A step's T may be near singular; on its output T is near I: sum I to round-off.
            done = _completed(factors)
            povm = done @ done.conj().swapaxes(-1, -2)
            cert = _certificate(w, mats, povm)
            gap = cert[1] - cert[0]
            if gap < best_gap:
                best_gap, best_povm, best_iter, best_cert = gap, povm, it, cert
            if gap <= tol:
                return best_povm, it, True, best_cert

    return best_povm, best_iter, False, best_cert or _certificate(w, mats, best_povm)


def _solve(
    w: np.ndarray, blocks: list[np.ndarray], tol: float, max_iterations: int, closed: bool,
) -> tuple[DiscriminationResult, list[np.ndarray]]:
    """The discrimination optimum of the operators ``G_i`` given by the :func:`_blocks`
    stacks of the components of their joint pattern, for every entry point.

    Pinching a POVM onto the blocks keeps its value, so the optimum is the sum of the
    blocks' optima.  Each stack is copied once into the ``(count, n, s, s)`` layout.  A
    ``1 x 1`` block is closed form (``max_i w_i a_i``), a block of two operators too
    when ``closed``; neither takes a map evaluation.  Every other stack goes to
    :func:`_iterate` with one shift, ``c = max_i |min eig(w_i A_i)|`` plus a margin of
    ``1e-5 max_i |eig(w_i A_i)|``, both taken over the blocks of every such stack, and
    with its share of ``tol``, the share of the dimension its blocks cover, so the
    stacks' gaps add up to at most ``tol``.  On pure states the margin keeps the map's
    ``T`` above about 1e-10 of its scale, far from round-off; a larger one slows the map
    there (1e-3 took up to 28 times the steps).  Primal and dual values add over the blocks, each residual is the least
    over them, ``iterations`` is the most map evaluations of any stack, and the result
    is certified when every stack converged and the summed gap is within ``tol``.
    Returns the result, with ``povm=None``, and the POVM blocks, one stack per block
    size."""
    stacks = [np.ascontiguousarray(stack.swapaxes(0, 1)) for stack in blocks]
    iterated = [] if closed else [mats for mats in stacks if mats.shape[-1] > 1]
    if iterated:
        vals = [np.linalg.eigvalsh(w[:, None, None] * mats) for mats in iterated]
        least = np.min([v[..., 0].min(axis=0) for v in vals], axis=0)
        largest = max(float(np.max(np.abs(v))) for v in vals)
        shift = float(np.max(np.abs(least))) + 1e-5 * (largest or 1.0)
        span = sum(mats.shape[0] * mats.shape[-1] for mats in iterated)
    parts = []
    for mats in stacks:
        if closed or mats.shape[-1] == 1:
            povm = (_closed_form_one if mats.shape[-1] == 1 else _closed_form_two)(w, mats)
            parts.append((povm, 0, True, _certificate(w, mats, povm)))
        else:
            share = tol * (mats.shape[0] * mats.shape[-1] / span)
            parts.append(_iterate(w, mats, shift, share, max_iterations))
    povms, iterations, converged, certs = zip(*parts)
    primal, dual = sum(cert[0] for cert in certs), sum(cert[1] for cert in certs)
    result = DiscriminationResult(
        primal_value=primal,
        dual_value=dual,
        gap=dual - primal,
        povm=None,
        certificate_min_eigs=tuple(np.min([cert[2] for cert in certs], axis=0).tolist()),
        certified=all(converged) and dual - primal <= tol,
        iterations=max(iterations),
        method="closed" if closed else "iterative",
    )
    return result, list(povms)


def optimal_global(
    weights: Sequence[float],
    matrices: Sequence[np.ndarray] | np.ndarray,
    tol: float = DEFAULT_SOLVER_TOL,
    method: str = "auto",
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> DiscriminationResult:
    """Maximize ``sum_i weights[i] * Tr(matrices[i] M_i)`` over POVMs ``{M_i}``.

    ``matrices`` is an ``(n, dim, dim)`` stack or a sequence of equal-shape square
    arrays; no party structure is read.  Each must meet the Hermitian contract (else
    :class:`ContractViolationError`) and is checked once per call; the solver works
    on the nonzero entries of their Hermitian parts, so the caller's arrays are not
    modified.  The problem is split into the diagonal blocks of the matrices' joint
    nonzero pattern and solved block by block (a pattern with no block structure is
    one block, the whole problem).  ``method`` is ``"auto"`` (closed form for two
    operators, iteration otherwise), ``"closed"`` (two operators only) or
    ``"iterative"``; a ``1 x 1`` block is closed form either way.  A result with
    ``gap > tol`` is returned flagged uncertified rather than raising; its dual value
    is still a valid upper bound.  The result's ``povm`` is the ``(n, dim, dim)``
    element stack, scattered from the blocks and made read-only.
    """
    if len(weights) != len(matrices):
        raise ValueError(f"{len(weights)} weights but {len(matrices)} operators")
    if len(matrices) < 2:
        raise ValueError("discrimination needs at least two operators")
    w = _nonnegative(weights)
    shapes = sorted({np.shape(m) for m in matrices})
    if len(shapes) != 1 or len(shapes[0]) != 2 or shapes[0][0] != shapes[0][1]:
        raise ValueError(f"operators must be square matrices of one shape, got shapes {shapes}")
    dim = shapes[0][0]
    parts = _hermitian_parts(_entry_record(np.asarray(matrices, dtype=np.complex128)))
    return _optimum(w, parts, dim, tol, method, max_iterations)


def _optimum(w: np.ndarray, parts: list[tuple[np.ndarray, np.ndarray]], dim: int, tol: float,
             method: str, max_iterations: int, slots: SlotStructure | None = None,
             side: Sequence[str] = ()) -> DiscriminationResult:
    """:func:`optimal_global` of the operators with the nonzero entries ``parts``, after
    the partial transpose on ``side`` when one is given: the cut's blocks
    (:func:`_cut_blocks`), the block solve, and the POVM scattered from the blocks."""
    if not tol > 0:  # also NaN
        raise ValueError(f"tolerance must be positive, got {tol}")
    if method == "auto":
        method = "closed" if len(w) == 2 else "iterative"
    if method not in ("closed", "iterative"):
        raise ValueError(f"unknown method {method!r}")
    if method == "closed" and len(w) != 2:
        raise ValueError("the closed form applies to exactly two operators")
    groups, blocks = _cut_blocks(dim, parts, slots, side)
    result, povms = _solve(w, blocks, tol, max_iterations, method == "closed")
    povm = np.zeros((len(w), dim, dim), dtype=np.complex128)
    for group, stack in zip(groups, povms):
        povm[:, group[:, :, None], group[:, None, :]] = stack.swapaxes(0, 1)
    povm.setflags(write=False)
    return replace(result, povm=povm)


def q_upper(
    e: Ensemble,
    x: Bipartition,
    tol: float = DEFAULT_SOLVER_TOL,
    method: str = "auto",
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> DiscriminationResult:
    """Discrimination optimum of the partially transposed ensemble.

    The dual value upper-bounds the success probability of any measurement
    local to the bipartition ``x``, regardless of convergence.  The keys of the states'
    Hermitian parts, from the ensemble's record, are transposed and solved as
    :func:`optimal_global` solves the transposed stack, bit for bit.
    """
    w, parts = _nonnegative(e.probs), _hermitian_parts(e._record)
    return _optimum(w, parts, e.dim, tol, method, max_iterations, e.slots, x.side_a)


class OptimalityCheck(NamedTuple):
    """Per-member optimality residuals of a POVM (nonnegative = optimal)."""

    passed: bool
    residuals: tuple[float, ...]


def check_povm_optimality(
    e: Ensemble,
    x: Bipartition,
    povm: np.ndarray,
    tol: float = DEFAULT_SOLVER_TOL,
) -> OptimalityCheck:
    """Decide whether ``povm``, an ``(e.n, e.dim, e.dim)`` stack of elements such as
    a result's ``povm``, realizes the partial-transpose optimum.

    ``povm`` must be a POVM within ``tol``: each entry of ``sum_i M_i - I`` at most
    ``tol`` in magnitude, and each element within ``tol`` of Hermitian, entry by entry,
    with least eigenvalue at least ``-tol``.  Another shape, a broken rule or a negative
    or NaN ``tol`` raises ``ValueError`` naming it.  For each member the minimum
    eigenvalue of the symmetrized operator ``sum_j p_j G(rho_j) M_j - p_i G(rho_i)`` is
    reported; the POVM is optimal iff all of them are nonnegative, here ``>= -tol``.
    Off-optimum the weighted average need not be Hermitian, so its Hermitian part is
    taken before the eigensolve.  The transposed entries of the states' Hermitian
    parts, from the ensemble's record, are scattered into the stack the certificate reads.
    """
    povm = np.asarray(povm)
    if povm.shape != (e.n, e.dim, e.dim):
        raise ValueError(
            f"POVM of shape {povm.shape} does not match the ensemble's {(e.n, e.dim, e.dim)}"
        )
    if not tol >= 0:  # also NaN
        raise ValueError(f"tolerance must be nonnegative, got {tol}")
    deviation = float(np.max(np.abs(povm.sum(axis=0) - np.eye(e.dim))))
    if not deviation <= tol:
        raise ValueError(f"POVM elements do not sum to the identity (deviation {deviation:.3e})")
    for i, element in enumerate(povm):
        defect = float(np.max(np.abs(element - element.conj().T)))
        least = float(np.linalg.eigvalsh(element)[0])
        if not (defect <= tol and least >= -tol):
            raise ValueError(f"POVM element {i} is not positive semidefinite (least "
                             f"eigenvalue {least:.3e}, Hermiticity defect {defect:.3e})")
    w, parts = _nonnegative(e.probs), _hermitian_parts(e._record)
    mats = np.zeros((e.n, e.dim, e.dim), dtype=np.complex128)
    for mat, (keys, values) in zip(mats.reshape(e.n, -1), parts):
        mat[_transpose_keys(keys, e.slots, x.side_a)] = values
    _, _, residuals = _certificate(w, mats, povm)
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
    pivot defaults to the heaviest member (lowest index on ties); a given one must be a
    Python or numpy integer, not a bool, in ``0 .. n - 1`` (else ``ValueError``).  The
    entries of the states' Hermitian parts, from the ensemble's record, are moved by the
    transpose's slot digits and formed once into the diagonal blocks of their joint
    nonzero pattern, one row per state; all differences go to ``eigvalsh`` together, one
    batched call per block size, and the PSD rule decides each;
    :func:`max_bipartition_bound` runs the same routine.  Each returned minimum
    eigenvalue is the least over the blocks of its difference.
    """
    w, parts = _nonnegative(e.probs), _hermitian_parts(e._record)
    n = len(w)
    if pivot is None:
        pivot = int(np.argmax(w))
    if isinstance(pivot, bool) or not isinstance(pivot, numbers.Integral):
        raise ValueError(f"pivot must be an integer, got {pivot!r}")
    if not 0 <= pivot < n:
        raise ValueError(f"pivot {pivot} out of range for {n} states")
    return _dominance(w, _cut_blocks(e.dim, parts, e.slots, x.side_a)[1], int(pivot))


def _dominance(w: np.ndarray, blocks: list[np.ndarray], pivot: int) -> DominanceCheck:
    """PSD checks of ``w[pivot] G_pivot - w[i] G_i`` for every ``i``, the ``G_i`` given by
    the :func:`_blocks` stacks of the components of their joint pattern.  All differences
    are formed at once on those stacks and decided by :func:`_psd` on :func:`_extremes`,
    one batched ``eigvalsh`` per block size.  Each reported minimum is the least
    eigenvalue over its difference's blocks, 0.0 at the pivot."""
    others = np.array([i for i in range(len(w)) if i != pivot])
    lead, weights = w[pivot], w[others, None, None, None]
    diffs = []
    for stack in blocks:
        diff = stack[others]
        diff *= weights
        diffs.append(np.subtract(lead * stack[pivot], diff, out=diff))
    least, largest = _extremes(diffs)
    checks = [_psd(lo, hi) for lo, hi in zip(least.tolist(), largest.tolist())]
    mins = [check.min_eigenvalue for check in checks]
    mins.insert(pivot, 0.0)
    return DominanceCheck(all(check.ok for check in checks), tuple(mins), pivot)


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

    A negative or NaN weight, then a non-Hermitian state, raises before any cut.  The
    scan reads the states' Hermitian parts from the ensemble's record: on each cut their
    keys ``row * dim + col`` are transposed by swapping the flipped slots' row and
    column digits, and no ``dim x dim`` array is made.  Each cut's diagonal blocks, on
    the connected components of the transposed entries' joint pattern, are formed once:
    one stack per block size, one row per state.  Dominance of the heaviest member is
    tried first (exact, no iteration), by the rule of :func:`check_dominant_state` on
    those stacks: ``eigvalsh`` of every difference's blocks decides it by the PSD rule
    on the least and largest eigenvalue.  A fully dense pattern is one block, the whole
    matrix.  A cut where some difference fails goes to the solver on the same stacks,
    with no ``(n, dim, dim)`` stack.  Its result carries ``povm=None``, as a dominance
    result does; :func:`q_upper` gives the cut's POVM.
    Numerical failures (``LinAlgError``) are collected per cut, for a partial table.
    The table is keyed by each cut's name; two cuts that share one (labels ``a, b,
    c, bc`` name both ``abc|bc``) raise ``ValueError`` before any cut is decided.

    One cut per orbit of the parties' symmetry classes is decided (the ensemble's
    ``_party_classes``: permuting parties within a class leaves every state unchanged,
    bit for bit).  A cut's orbit is :func:`_orbit_key`, its sides' per-class party
    counts; the first cut of each orbit in the table's order is decided, and every other
    cut of the orbit gets that result, or that failure, under its own name.  An ensemble
    with no symmetry has one cut per orbit and is scanned cut by cut; one whose parties
    are all alike, as the built-in families' are, has ``floor(m / 2)`` orbits.
    """
    w, parts = _nonnegative(e.probs), _hermitian_parts(e._record)
    pivot = int(np.argmax(w))
    cuts = _by_name(all_bipartitions(e.parties))
    classes = e._party_classes
    results: dict[str, DiscriminationResult] = {}
    failures: dict[str, str] = {}
    outcomes: dict[tuple, tuple[dict, DiscriminationResult | str]] = {}  # per orbit
    for key, bp in cuts.items():
        orbit = _orbit_key(bp, classes)
        if orbit not in outcomes:
            try:
                _, blocks = _cut_blocks(e.dim, parts, e.slots, bp.side_a)
                check = _dominance(w, blocks, pivot)
                if check.passed:
                    # The optimum is the pivot weight exactly; the all-or-nothing
                    # measurement on the pivot realizes it.
                    value = float(e.probs[pivot])
                    result = DiscriminationResult(
                        value, value, gap=0.0, povm=None,
                        certificate_min_eigs=check.min_eigenvalues, certified=True,
                        iterations=0, method="dominance")
                else:
                    result, _ = _solve(w, blocks, tol, max_iterations, closed=e.n == 2)
                outcomes[orbit] = results, result
            except np.linalg.LinAlgError as exc:
                outcomes[orbit] = failures, str(exc)
        table, outcome = outcomes[orbit]
        table[key] = outcome
    if not results:
        raise ValueError(f"no bipartition could be bounded: {failures}")
    max_value = max(r.dual_value for r in results.values())
    return BipartitionScan(max_value, results, failures)


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
    product = np.ones((1, 1), dtype=np.complex128)
    for party in slots.parties:
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
        product = np.kron(product, basis)

    # Column k of the product is outcome k's vector in np.ndindex order; one transpose
    # makes it row k, in slot order (a party's slots need not be contiguous after folding).
    party_major = [k for party in slots.parties for k in slots.slots_of(party)]
    dims = [slots.slot_dims[k] for k in party_major]
    axes = (len(dims), *np.argsort(party_major))
    vectors = product.reshape(*dims, -1).transpose(axes).reshape(-1, slots.dim)

    value = 0.0
    outcomes = np.ndindex(*(slots.local_dim(party) for party in slots.parties))
    for outcome, vec in zip(outcomes, vectors):
        guess = int(decide(outcome))
        if not 0 <= guess < e.n:
            raise ValueError(f"decision {guess} out of range for {e.n} states")
        born = float((vec.conj() @ (e.states[guess].matrix @ vec)).real)
        value += e.probs[guess] * born
    return value
