"""Dense complex operators carrying a multi-party slot structure.

The kernel behind everything else: Kronecker products, partial transposition
over a subset of parties, Hermitian eigensystems and PSD tests.  A slot is one
tensor factor of the underlying Hilbert space; each slot is owned by exactly
one party, and a party may own several slots (repeated preparations, qudit
blocks).  All values are immutable after construction and every operation is a
pure function, so instances are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

#: Hard ceiling on operator dimension for explicit-matrix constructions.
DEFAULT_DIM_CAP = 4096

#: Relative tolerance for the "flagged Hermitian" contract.
HERMITICITY_RTOL = 1e-12


class DimensionCapError(ValueError):
    """A construction would exceed the configured dimension cap."""


class ContractViolationError(ValueError):
    """An operand violates the contract of the operation it was fed to."""


@dataclass(frozen=True)
class SlotStructure:
    """Assignment of tensor factors (slots) to party labels.

    ``slot_dims[k]`` is the local dimension of slot ``k`` and
    ``party_of_slot[k]`` names the party owning it.  Parties are ordered by
    first appearance in the slot list.
    """

    slot_dims: tuple[int, ...]
    party_of_slot: tuple[str, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.slot_dims)
        owners = tuple(str(p) for p in self.party_of_slot)
        if len(dims) != len(owners):
            raise ValueError(
                f"slot_dims has {len(dims)} entries but party_of_slot has {len(owners)}"
            )
        if not dims:
            raise ValueError("a slot structure needs at least one slot")
        if any(d < 1 for d in dims):
            raise ValueError(f"slot dimensions must be positive, got {dims}")
        object.__setattr__(self, "slot_dims", dims)
        object.__setattr__(self, "party_of_slot", owners)

    @property
    def dim(self) -> int:
        total = 1
        for d in self.slot_dims:
            total *= d
        return total

    @property
    def parties(self) -> tuple[str, ...]:
        """Party labels in order of first appearance."""
        seen: list[str] = []
        for p in self.party_of_slot:
            if p not in seen:
                seen.append(p)
        return tuple(seen)

    def slots_of(self, party: str) -> tuple[int, ...]:
        return tuple(k for k, p in enumerate(self.party_of_slot) if p == party)

    def local_dim(self, party: str) -> int:
        """Product of the dimensions of all slots owned by ``party``."""
        total = 1
        for k in self.slots_of(party):
            total *= self.slot_dims[k]
        if total == 1 and party not in self.party_of_slot:
            raise ValueError(f"unknown party {party!r}")
        return total

    def concat(self, other: "SlotStructure") -> "SlotStructure":
        return SlotStructure(
            self.slot_dims + other.slot_dims,
            self.party_of_slot + other.party_of_slot,
        )


def _frozen_matrix(matrix: np.ndarray) -> np.ndarray:
    out = np.array(matrix, dtype=np.complex128, copy=True, order="C")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class MultiPartyOperator:
    """A dense complex square matrix annotated with a slot structure."""

    matrix: np.ndarray
    slots: SlotStructure

    def __post_init__(self):
        mat = _frozen_matrix(self.matrix)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"operator matrix must be square, got shape {mat.shape}")
        if not np.all(np.isfinite(mat.view(np.float64))):
            raise ValueError("operator matrix contains non-finite entries")
        if mat.shape[0] != self.slots.dim:
            raise ValueError(
                f"matrix dimension {mat.shape[0]} does not match slot product {self.slots.dim}"
            )
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def parties(self) -> tuple[str, ...]:
        return self.slots.parties

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))

    def with_matrix(self, matrix: np.ndarray) -> "MultiPartyOperator":
        """Same slot structure, new entries."""
        return MultiPartyOperator(matrix, self.slots)


def identity(slots: SlotStructure) -> MultiPartyOperator:
    return MultiPartyOperator(np.eye(slots.dim, dtype=np.complex128), slots)


def zero(slots: SlotStructure) -> MultiPartyOperator:
    return MultiPartyOperator(np.zeros((slots.dim, slots.dim), dtype=np.complex128), slots)


def tensor(
    a: MultiPartyOperator,
    b: MultiPartyOperator,
    cap: int = DEFAULT_DIM_CAP,
) -> MultiPartyOperator:
    """Kronecker product; the slot list of ``a`` is followed by the slots of ``b``.

    Party label sets may coincide (repeated preparations) or be disjoint.
    Raises :class:`DimensionCapError` when the result dimension exceeds ``cap``.
    """
    out_dim = a.dim * b.dim
    if out_dim > cap:
        raise DimensionCapError(
            f"tensor product dimension {out_dim} exceeds the dimension cap {cap}"
        )
    return MultiPartyOperator(np.kron(a.matrix, b.matrix), a.slots.concat(b.slots))


def tensor_power(op: MultiPartyOperator, count: int, cap: int = DEFAULT_DIM_CAP) -> MultiPartyOperator:
    """``count``-fold Kronecker power of ``op`` (party labels repeated)."""
    if count < 1:
        raise ValueError(f"tensor power needs count >= 1, got {count}")
    out = op
    for _ in range(count - 1):
        out = tensor(out, op, cap=cap)
    return out


def partial_transpose(op: MultiPartyOperator, side: Iterable[str]) -> MultiPartyOperator:
    """Transpose the matrix indices of every slot owned by a party in ``side``.

    ``side`` must be a nonempty proper subset of the parties of ``op``; the
    slot structure of the result is unchanged.
    """
    side_set = frozenset(side)
    labels = frozenset(op.slots.party_of_slot)
    if not side_set or side_set == labels:
        raise ValueError(
            f"side {sorted(side_set)} is not a bipartition side of parties {sorted(labels)}"
        )
    if not side_set <= labels:
        raise ValueError(
            f"side contains unknown parties {sorted(side_set - labels)}"
        )
    dims = op.slots.slot_dims
    r = len(dims)
    tens = op.matrix.reshape(dims + dims)
    axes = list(range(2 * r))
    for k, party in enumerate(op.slots.party_of_slot):
        if party in side_set:
            axes[k], axes[r + k] = axes[r + k], axes[k]
    out = tens.transpose(axes).reshape(op.dim, op.dim)
    return MultiPartyOperator(out, op.slots)


def hermitian_part(matrix: np.ndarray) -> np.ndarray:
    """``(A + A^dagger) / 2``; on a stack, of each matrix in it."""
    return (matrix + matrix.conj().swapaxes(-1, -2)) / 2.0


def hermiticity_defect(matrix: np.ndarray) -> float:
    """max |A - A^dagger| entry-wise."""
    return float(np.max(np.abs(matrix - matrix.conj().T)))


def is_hermitian(op: MultiPartyOperator) -> bool:
    scale = 1.0 + float(np.max(np.abs(op.matrix))) if op.matrix.size else 1.0
    return hermiticity_defect(op.matrix) <= HERMITICITY_RTOL * scale


def _require_hermitian(op: MultiPartyOperator) -> None:
    if not is_hermitian(op):
        raise ContractViolationError(
            f"operator is not Hermitian (defect {hermiticity_defect(op.matrix):.3e})"
        )


def hermitian_eigensystem(op: MultiPartyOperator) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of a Hermitian operator.

    The reconstruction residual ``max|A - V diag(w) V^dagger|`` is checked
    against ``1e-10 * (1 + max|A|)`` before returning.
    """
    _require_hermitian(op)
    mat = hermitian_part(op.matrix)
    vals, vecs = np.linalg.eigh(mat)
    residual = float(np.max(np.abs(mat - (vecs * vals) @ vecs.conj().T)))
    scale = 1.0 + float(np.max(np.abs(mat)))
    if residual > 1e-10 * scale:
        raise ContractViolationError(
            f"eigendecomposition residual {residual:.3e} exceeds 1e-10 * {scale:.3e}"
        )
    return vals, vecs


def hermitian_eigenvalues(op: MultiPartyOperator) -> np.ndarray:
    """All real eigenvalues of a Hermitian operator in nondecreasing order."""
    _require_hermitian(op)
    return np.linalg.eigvalsh(hermitian_part(op.matrix))


class PsdCheck(NamedTuple):
    """Outcome of a positive-semidefiniteness test."""

    ok: bool
    min_eigenvalue: float
    tol: float


def is_psd(op: MultiPartyOperator, tol: float | None = None) -> PsdCheck:
    """Decide ``op >= 0`` up to ``tol``; reports the minimum eigenvalue.

    When ``tol`` is omitted it defaults to ``1e-10 * (1 + max|eigenvalue|)``,
    i.e. relative to the spectral scale of the operator.
    """
    vals = hermitian_eigenvalues(op)
    lo = float(vals[0])
    hi = float(vals[-1])
    if tol is None:
        tol = 1e-10 * (1.0 + max(abs(lo), abs(hi)))
    if tol < 0:
        raise ValueError(f"tolerance must be nonnegative, got {tol}")
    return PsdCheck(lo >= -tol, lo, float(tol))
