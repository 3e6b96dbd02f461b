"""Dense complex operators carrying a multi-party slot structure.

The kernel behind everything else: Kronecker products, partial transposition
over a subset of parties, Hermitian eigensystems and PSD tests.  A slot is one
tensor factor of the underlying Hilbert space; each slot is owned by exactly
one party, and a party may own several slots (repeated preparations, qudit
blocks).  All values are immutable after construction and every operation is a
pure function, so instances are safe to share across threads.

``check`` and every discrimination entry point run on a matrix's nonzero entries
instead: sorted flat keys ``row * dim + col`` and their values, in one format per
matrix, :func:`_entry_record`'s Hermiticity defect and Hermitian part, which an
ensemble forms once and holds.  The Hermitian check pairs each key with its mirror
``col * dim + row``.  :func:`_cut_blocks` is the one place that forms a cut's blocks,
for ``validate`` and every discrimination entry point: a partial transpose swaps the
flipped slots' row and column digits of each key, the keys are split into rows and
columns, the connected components of the entries' pattern come from each matrix's
edge list, and the diagonal blocks that the PSD tests and the solver read are formed
once for all the matrices, each one's entries in its own row.  :func:`_swap_classes`
finds the parties whose swap leaves every matrix's entries unchanged, bit for bit,
and joins them into classes.  The dense kernels
(:func:`_hermiticity`, one reshape and transpose) serve only the public functions of
one dense operator, where they are the faster route: at dim 4096 the entries' check
of a dense matrix takes three times as long and twice the memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

#: Hard ceiling on operator dimension for explicit-matrix constructions.
DEFAULT_DIM_CAP = 4096

#: Relative tolerance for the "flagged Hermitian" contract.
HERMITICITY_RTOL = 1e-12

#: Relative tolerance of the PSD test: ``A >= 0`` up to ``PSD_RTOL * (1 + max|eigenvalue|)``.
PSD_RTOL = 1e-10


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


def _frozen_matrix(mat: np.ndarray, slots: SlotStructure) -> np.ndarray:
    """``mat``, a C-ordered complex128 array, checked against ``slots`` and made read-only."""
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"operator matrix must be square, got shape {mat.shape}")
    if not np.all(np.isfinite(mat.view(np.float64))):
        raise ValueError("operator matrix contains non-finite entries")
    if mat.shape[0] != slots.dim:
        raise ValueError(
            f"matrix dimension {mat.shape[0]} does not match slot product {slots.dim}"
        )
    mat.setflags(write=False)
    return mat


@dataclass(frozen=True, eq=False)
class MultiPartyOperator:
    """A dense complex square matrix annotated with a slot structure.

    The constructor holds a read-only copy of the caller's matrix, so a later
    write to the caller's array cannot change the operator."""

    matrix: np.ndarray
    slots: SlotStructure

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=np.complex128, copy=True, order="C")
        object.__setattr__(self, "matrix", _frozen_matrix(mat, self.slots))

    @classmethod
    def _frozen(cls, matrix: np.ndarray, slots: SlotStructure) -> "MultiPartyOperator":
        """The operator that holds ``matrix`` itself, made read-only: no copy, for a
        C-ordered complex128 array (or a view of one) that the library has just made
        and that nothing writes again.  The checks are the constructor's."""
        op = object.__new__(cls)
        object.__setattr__(op, "slots", slots)
        object.__setattr__(op, "matrix", _frozen_matrix(matrix, slots))
        return op

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))


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
    return MultiPartyOperator._frozen(np.kron(a.matrix, b.matrix), a.slots.concat(b.slots))


def _flipped(slots: SlotStructure, side: Iterable[str]) -> list[int]:
    """The axes of a matrix, one per row slot and then one per column slot, with the row
    and column axes of each slot owned by a party in ``side`` traded; ``side`` must be a
    nonempty proper subset of the parties."""
    side_set, labels = frozenset(side), frozenset(slots.party_of_slot)
    if not side_set or side_set == labels:
        raise ValueError(
            f"side {sorted(side_set)} is not a bipartition side of parties {sorted(labels)}"
        )
    if not side_set <= labels:
        raise ValueError(f"side contains unknown parties {sorted(side_set - labels)}")
    r = len(slots.slot_dims)
    return [(k + r) % (2 * r) if slots.party_of_slot[k % r] in side_set else k
            for k in range(2 * r)]


def _moved_keys(keys: np.ndarray, slots: SlotStructure, axes: list[int]) -> np.ndarray:
    """The flat keys ``row * dim + col`` of entries after the transpose by ``axes`` of the
    matrix's axes (as :func:`_flipped` lists them), which trades only axes of one size."""
    shape = slots.slot_dims * 2
    digits = np.unravel_index(keys, shape)
    return np.ravel_multi_index([digits[k] for k in axes], shape)


def _transpose_keys(keys: np.ndarray, slots: SlotStructure, side: Iterable[str]) -> np.ndarray:
    """The flat keys of entries after :func:`partial_transpose` on ``side``: the row and
    column digits of each flipped slot trade places."""
    return _moved_keys(keys, slots, _flipped(slots, side))


def partial_transpose(op: MultiPartyOperator, side: Iterable[str]) -> MultiPartyOperator:
    """Transpose the matrix indices of every slot owned by a party in ``side``, a
    nonempty proper subset of the parties of ``op``; the slot structure is kept.
    One reshape of the dense matrix to one axis per row and column slot, and one
    transpose of them: each entry moves where :func:`_transpose_keys` moves its key."""
    axes = _flipped(op.slots, side)
    moved = np.ascontiguousarray(op.matrix.reshape(op.slots.slot_dims * 2).transpose(axes))
    return MultiPartyOperator._frozen(moved.reshape(op.dim, op.dim), op.slots)


def hermitian_part(matrix: np.ndarray) -> np.ndarray:
    """``(A + A^dagger) / 2``; on a stack, of each matrix in it."""
    return (matrix + matrix.conj().swapaxes(-1, -2)) / 2.0


def _hermiticity(matrix: np.ndarray) -> tuple[float, np.ndarray | None]:
    """The Hermitian contract in one pass over one formed adjoint: the defect
    ``max|A - A^dagger|`` and, when it is within ``HERMITICITY_RTOL * (1 + max|A|)``,
    the Hermitian part ``(A + A^dagger) / 2`` (bit-identical to :func:`hermitian_part`),
    else ``None``."""
    adjoint = matrix.conj().T
    defect = float(np.max(np.abs(matrix - adjoint)))
    if not _meets_contract(defect, float(np.max(np.abs(matrix)))):
        return defect, None
    part = matrix + adjoint
    part /= 2.0  # in place: one full-size temporary fewer
    return defect, part


def _meets_contract(defect: float, largest: float) -> bool:
    """The Hermitian contract: ``max|A - A^dagger| <= HERMITICITY_RTOL * (1 + max|A|)``."""
    return defect <= HERMITICITY_RTOL * (1.0 + largest)


def _mirror(keys: np.ndarray, dim: int) -> np.ndarray:
    """The keys of the entries across the diagonal: ``col * dim + row``."""
    rows, cols = np.divmod(keys, dim)
    return cols * dim + rows


def _lookup(keys: np.ndarray, values: np.ndarray, query: np.ndarray) -> np.ndarray:
    """The values at the ``query`` keys of the entries ``keys`` (sorted) and ``values``;
    0 where a key has no entry.  The query is searched in ascending order: its stable
    argsort merges the ascending runs that mirrored keys come in, and a sorted search
    walks the keys once where an unsorted one jumps through them (about a third of the
    time on 2^20 mirrored keys).  A query that sorts to the keys themselves, as the
    mirror of a symmetric pattern does, needs no search."""
    out = np.zeros(len(query), dtype=values.dtype)
    if not len(keys):
        return out
    order = np.argsort(query, kind="stable")
    sorted_query = query[order]
    if np.array_equal(sorted_query, keys):
        out[order] = values
        return out
    at = keys[:-1].searchsorted(sorted_query)  # all but the last key: every index in range
    found = keys[at] == sorted_query
    out[order[found]] = values[at[found]]
    return out


def _entry_hermiticity(keys: np.ndarray, values: np.ndarray,
                       dim: int) -> tuple[float, tuple[np.ndarray, np.ndarray] | None]:
    """:func:`_hermiticity` of a matrix given by its nonzero entries (keys sorted): the
    same defect, each entry against its mirror found by ``searchsorted`` (an entry with
    no mirror has defect ``|value|``), and, when the contract holds, the nonzero entries
    of the Hermitian part, bit-identical to :func:`hermitian_part`; else ``None``."""
    adjoint = np.conj(_lookup(keys, values, _mirror(keys, dim)))
    defect = float(np.abs(values - adjoint).max(initial=0.0))
    if not _meets_contract(defect, float(np.abs(values).max(initial=0.0))):
        return defect, None
    if not (adjoint != 0).all():  # an entry without a mirror: the part has both
        union = np.union1d(keys, _mirror(keys, dim))
        values = _lookup(keys, values, union)
        adjoint = np.conj(_lookup(union, values, _mirror(union, dim)))
        keys = union
    part = values + adjoint
    part /= 2.0
    nonzero = part != 0
    return defect, (keys[nonzero], part[nonzero])


def _entry_record(stack: np.ndarray) -> list[tuple[float, tuple[np.ndarray, np.ndarray] | None]]:
    """:func:`_entry_hermiticity` of each matrix of an ``(n, dim, dim)`` stack.  A matrix's
    entries come from one ``flatnonzero`` of its mask ``re != 0 or im != 0`` (numpy's
    complex ``nonzero`` takes twice as long) and are dropped once its part is formed."""
    record = []
    for matrix in stack:
        keys = np.flatnonzero(np.logical_or(matrix.real, matrix.imag))
        record.append(_entry_hermiticity(keys, matrix.reshape(-1)[keys], stack.shape[-1]))
    return record


def _hermitian_parts(record: list) -> list[tuple[np.ndarray, np.ndarray]]:
    """The Hermitian parts of an :func:`_entry_record`; a matrix that breaks the contract
    raises :class:`ContractViolationError` with the message of the dense check."""
    for defect, part in record:
        if part is None:
            raise ContractViolationError(f"operator is not Hermitian (defect {defect:.3e})")
    return [part for _, part in record]


def _hermitian(matrix: np.ndarray) -> np.ndarray:
    """The Hermitian part of a matrix that meets the contract; a violation raises
    :class:`ContractViolationError` with the defect of the same pass."""
    (part,) = _hermitian_parts([_hermiticity(matrix)])
    return part


def hermitian_eigensystem(op: MultiPartyOperator) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of the Hermitian part of an operator
    that meets the Hermitian contract (else :class:`ContractViolationError`).

    The reconstruction residual ``max|A - V diag(w) V^dagger|`` is checked
    against ``1e-10 * (1 + max|A|)`` before returning.
    """
    mat = _hermitian(op.matrix)
    vals, vecs = np.linalg.eigh(mat)
    residual = float(np.max(np.abs(mat - (vecs * vals) @ vecs.conj().T)))
    scale = 1.0 + float(np.max(np.abs(mat)))
    if residual > 1e-10 * scale:
        raise ContractViolationError(
            f"eigendecomposition residual {residual:.3e} exceeds 1e-10 * {scale:.3e}"
        )
    return vals, vecs


class PsdCheck(NamedTuple):
    """Outcome of a positive-semidefiniteness test."""

    ok: bool
    min_eigenvalue: float
    tol: float


def is_psd(op: MultiPartyOperator) -> PsdCheck:
    """Decide ``op >= 0`` up to ``PSD_RTOL * (1 + max|eigenvalue|)``, a tolerance relative
    to the spectral scale of ``op``; reports the minimum eigenvalue and that tolerance.
    ``op`` must meet the Hermitian contract (else :class:`ContractViolationError`)."""
    return _psd(*np.linalg.eigvalsh(_hermitian(op.matrix))[[0, -1]].tolist())


def _psd(lo: float, hi: float) -> PsdCheck:
    """The tolerance rule of :func:`is_psd`, on the least and largest eigenvalue."""
    tol = PSD_RTOL * (1.0 + max(abs(lo), abs(hi)))
    return PsdCheck(lo >= -tol, lo, tol)


def _components(dim: int, entries: list[tuple[np.ndarray, ...]]) -> list[np.ndarray]:
    """The connected components of the symmetric pattern of ``dim`` indices whose edges
    are the entries ``(rows[k], cols[k])`` of each matrix's ``(rows, cols)`` or ``(rows,
    cols, values)`` in ``entries``: one ``(count, size)`` index array per block size,
    ascending, each row one component's indices in ascending order.

    A Hermitian matrix whose nonzero entries lie in the pattern is block diagonal on
    these index groups, so its spectrum is the union of the blocks' spectra.  Each
    index takes the least label among its own and its neighbours' and then its
    label's label (pointer jumping), until no label moves; a label is always an
    index of the same component, and at rest every edge joins equal labels, each
    component's least index.  An index on no edge is a block of its own; a fully
    dense pattern is one block of all indices, in order."""
    labels = np.arange(dim)
    while True:
        least = labels.copy()
        for rows, cols, *_ in entries:  # a joint edge list would copy every entry again
            np.minimum.at(least, rows, labels[cols])
        least = least[least]
        if np.array_equal(least, labels):
            break
        labels = least
    sizes = np.bincount(labels)[labels]
    order = np.lexsort((labels, sizes))  # by block size, then block; stable within a block
    sizes = sizes[order]
    ends = [*(np.flatnonzero(np.diff(sizes)) + 1).tolist(), dim]
    return [order[start:end].reshape(-1, sizes[start])
            for start, end in zip([0, *ends], ends)]


def _blocks(groups: list[np.ndarray],
            entries: list[tuple[np.ndarray, np.ndarray, np.ndarray]]) -> list[np.ndarray]:
    """For each ``(count, size)`` index array of :func:`_components`, the
    ``(n, count, size, size)`` stack of diagonal blocks on it of the ``n`` matrices of
    ``entries``: matrix ``k`` has the ``values`` of ``entries[k]`` at its ``(rows, cols)``,
    keys distinct, each inside a block.  Each matrix's entries are added into its own row
    of one buffer of zeros, which holds that matrix's blocks C-ordered, end to end, so a
    stored ``-0.0`` part lands as ``+0.0``; no two matrices share a block."""
    dim = sum(group.size for group in groups)
    row_at, col_at = np.empty(dim, dtype=np.intp), np.empty(dim, dtype=np.intp)
    bounds = [0]
    for group in groups:
        size = group.shape[1]
        col_at[group] = np.arange(size)
        row_at[group] = bounds[-1] + size * np.arange(group.size).reshape(group.shape)
        bounds.append(bounds[-1] + group.size * size)
    buffer = np.zeros((len(entries), bounds[-1]), dtype=np.complex128)
    for row, (rows, cols, values) in zip(buffer, entries):
        row[row_at[rows] + col_at[cols]] += values
    return [buffer[:, start:end].reshape(len(entries), *group.shape, group.shape[1])
            for group, start, end in zip(groups, bounds, bounds[1:])]


def _cut_blocks(dim: int, parts: list[tuple[np.ndarray, np.ndarray]],
                slots: SlotStructure | None = None,
                side: Iterable[str] = ()) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The :func:`_components` and the :func:`_blocks` of the matrices whose nonzero
    entries are ``parts``, one ``(keys, values)`` per matrix, after the partial
    transpose on ``side`` when one is given (:func:`_transpose_keys` of each matrix's
    keys once): each key split into its row and column, ``(groups, blocks)``."""
    entries = [(*np.divmod(_transpose_keys(keys, slots, side) if side else keys, dim), values)
               for keys, values in parts]
    groups = _components(dim, entries)
    return groups, _blocks(groups, entries)


def _swap_invariant(parts: list[tuple[np.ndarray, np.ndarray]], slots: SlotStructure,
                    a: str, b: str) -> bool:
    """Whether swapping parties ``a`` and ``b`` leaves every matrix with the nonzero
    entries ``parts`` unchanged, bit for bit: party ``a``'s ``k``-th slot trades places
    with party ``b``'s ``k``-th slot, on the row and on the column digits of each key,
    and the moved keys, sorted, and their values must be the keys and values
    themselves.  Parties whose ordered slot dimensions differ are never swapped, and no
    entry is read; the test stops at the first matrix that fails."""
    dims, own, other = slots.slot_dims, slots.slots_of(a), slots.slots_of(b)
    if [dims[k] for k in own] != [dims[k] for k in other]:
        return False
    swap = dict(zip(own + other, other + own))
    axes = [swap.get(k, k) for k in range(len(dims))]
    axes += [k + len(dims) for k in axes]
    for keys, values in parts:
        moved = _moved_keys(keys, slots, axes)
        order = np.argsort(moved, kind="stable")
        if not (np.array_equal(moved[order], keys) and values[order].tobytes() == values.tobytes()):
            return False
    return True


def _swap_classes(parts: list[tuple[np.ndarray, np.ndarray]],
                  slots: SlotStructure) -> dict[str, int]:
    """Each party's class, ``0, 1, ...`` in order of first appearance: the components of
    the swaps of two parties that :func:`_swap_invariant` passes.  A pair already joined
    by union-find is not tested; the product of the symmetric groups on the classes
    leaves every matrix unchanged."""
    parties = slots.parties
    root = list(range(len(parties)))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for j in range(1, len(parties)):
        for i in range(j):
            if find(i) != find(j) and _swap_invariant(parts, slots, parties[i], parties[j]):
                root[find(j)] = find(i)
    ids: dict[int, int] = {}
    return {party: ids.setdefault(find(k), len(ids)) for k, party in enumerate(parties)}


def _extremes(blocks: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Each matrix's least and largest eigenvalue over its diagonal blocks, given as
    :func:`_blocks` stacks of one block size each: one batched ``eigvalsh`` per stack.
    For one block of the whole matrix these are the ends of ``eigvalsh`` of the matrix."""
    spectra = np.concatenate([np.linalg.eigvalsh(b).reshape(len(b), -1) for b in blocks], 1)
    return spectra.min(axis=1), spectra.max(axis=1)
