import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlhide import (
    ContractViolationError,
    DimensionCapError,
    MultiPartyOperator,
    SlotStructure,
    ghz_complement_ensemble,
    ghz_state,
    hermitian_eigensystem,
    is_psd,
    partial_transpose,
    tensor,
)
from nlhide.tensor import (
    HERMITICITY_RTOL,
    PSD_RTOL,
    _blocks,
    _components,
    _entry_record,
    _extremes,
    _hermitian,
    _hermitian_parts,
    _hermiticity,
    _swap_classes,
    _swap_invariant,
    _transpose_keys,
    hermitian_part,
)

from oracles import (
    assert_blocks_match_dense,
    block_spectrum,
    components_by_search,
    gather_blocks,
    jacobi_eigenvalues,
    partial_transpose_entrywise,
    psd_of,
    random_density,
    random_hermitian,
    support,
    swap_matrix,
    swap_parties_dense,
    swap_symmetric_ensemble,
)

# The package binds the function ``tensor`` to its name, so the module is looked up.
tensor_module = importlib.import_module("nlhide.tensor")

PAULI_Z = np.diag([1.0, -1.0]).astype(np.complex128)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)


def qubit(label, matrix):
    return MultiPartyOperator(matrix, SlotStructure((2,), (label,)))


def two_party_op(matrix, dims=(2, 2)):
    return MultiPartyOperator(matrix, SlotStructure(dims, ("A1", "A2")))


class TestSlotStructure:
    def test_dim_and_parties(self):
        slots = SlotStructure((2, 3, 2), ("A1", "A2", "A1"))
        assert slots.dim == 12
        assert slots.parties == ("A1", "A2")
        assert slots.slots_of("A1") == (0, 2)
        assert slots.local_dim("A1") == 4

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            SlotStructure((2, 2), ("A1",))

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            SlotStructure((2, 0), ("A1", "A2"))

    def test_operator_dim_must_match(self):
        with pytest.raises(ValueError):
            MultiPartyOperator(np.eye(3), SlotStructure((2, 2), ("A1", "A2")))

    def test_matrix_is_frozen(self):
        op = qubit("A1", PAULI_Z)
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 5.0


class TestTensor:
    def test_identity_times_identity(self):
        one = qubit("A1", np.eye(2))
        out = tensor(one, qubit("A2", np.eye(2)))
        assert out.slots.slot_dims == (2, 2)
        assert out.slots.party_of_slot == ("A1", "A2")
        np.testing.assert_allclose(out.matrix, np.eye(4))

    def test_sign_algebra_on_11(self):
        zz = tensor(qubit("A1", PAULI_Z), qubit("A2", PAULI_Z))
        ket11 = np.array([0, 0, 0, 1.0])
        np.testing.assert_allclose(zz.matrix @ ket11, ket11)

    def test_ghz_product_trace(self):
        prod = tensor(ghz_state(2, 2), ghz_state(2, 2))
        assert prod.trace() == pytest.approx(1.0, abs=1e-12)

    def test_trace_multiplicative_on_random(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = two_party_op(random_hermitian(rng, 4))
            b = two_party_op(random_hermitian(rng, 6), dims=(2, 3))
            prod = tensor(a, b)
            assert prod.trace() == pytest.approx(a.trace() * b.trace(), abs=1e-12)

    def test_dimension_cap(self):
        big = two_party_op(np.eye(64), dims=(8, 8))
        with pytest.raises(DimensionCapError, match="dimension cap"):
            tensor(big, big, cap=512)


class TestPartialTranspose:
    def test_identity_is_invariant(self):
        out = partial_transpose(two_party_op(np.eye(4)), {"A1"})
        np.testing.assert_allclose(out.matrix, np.eye(4))

    def test_bell_projector_spectrum(self):
        # Frozen via the 4x4 eigendecomposition of the transposed projector.
        bell = ghz_state(2, 2)
        vals = np.linalg.eigvalsh(partial_transpose(bell, {"A1"}).matrix)
        np.testing.assert_allclose(vals, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_involution_on_random_hermitian(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            op = two_party_op(random_hermitian(rng, 4))
            back = partial_transpose(partial_transpose(op, {"A2"}), {"A2"})
            np.testing.assert_allclose(back.matrix, op.matrix, atol=1e-14)

    def test_matches_entrywise_oracle(self):
        rng = np.random.default_rng(12)
        slots = SlotStructure((2, 3, 2), ("A1", "A2", "A3"))
        op = MultiPartyOperator(random_hermitian(rng, 12), slots)
        for side, transposed in [({"A1"}, (0,)), ({"A2", "A3"}, (1, 2))]:
            got = partial_transpose(op, side).matrix
            want = partial_transpose_entrywise(op.matrix, (2, 3, 2), transposed)
            np.testing.assert_allclose(got, want, atol=0)

    def test_transposes_every_slot_of_a_party(self):
        rng = np.random.default_rng(13)
        slots = SlotStructure((2, 2, 2, 2), ("A1", "A2", "A1", "A2"))
        op = MultiPartyOperator(random_hermitian(rng, 16), slots)
        got = partial_transpose(op, {"A1"}).matrix
        want = partial_transpose_entrywise(op.matrix, (2, 2, 2, 2), (0, 2))
        np.testing.assert_allclose(got, want, atol=0)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_stack_kernel_matches_entrywise_oracle(self, seed):
        # Runs of 1-4 adjacent slots on one side of the flip, one-slot sides among them:
        # the keys of every entry, scattered, and the dense reshape both land where the
        # oracle puts each entry.
        rng = np.random.default_rng(seed)
        runs = rng.integers(1, 5, size=rng.integers(2, 5))
        owners = [k % 2 for k, run in enumerate(runs) for _ in range(run)]
        dims = [int(d) for d in rng.integers(1, 4, size=len(owners))]
        while np.prod(dims) > 64:
            dims[int(np.argmax(dims))] -= 1
        dims = tuple(dims)
        slots = SlotStructure(dims, tuple(f"A{k + 1}" for k in owners))
        side = {f"A{int(rng.integers(2)) + 1}"}
        shape = (slots.dim, slots.dim)
        mat = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        flipped = tuple(k for k, party in enumerate(slots.party_of_slot) if party in side)
        want = partial_transpose_entrywise(mat, dims, flipped).tobytes()
        scattered = np.zeros_like(mat)
        scattered.reshape(-1)[_transpose_keys(np.arange(mat.size), slots, side)] = mat.reshape(-1)
        assert scattered.tobytes() == want
        assert partial_transpose(MultiPartyOperator(mat, slots), side).matrix.tobytes() == want

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), parties=st.integers(2, 4))
    def test_key_transpose_matches_entrywise_oracle(self, seed, parties):
        # Slots that alternate between the parties slot by slot, random sides, and a
        # sparse matrix: its entries' keys land where the dense transpose puts them.
        rng = np.random.default_rng(seed)
        owners = [k % parties for k in range(int(rng.integers(parties, 2 * parties + 3)))]
        dims = [int(d) for d in rng.integers(1, 4, size=len(owners))]
        while np.prod(dims) > 64:
            dims[int(np.argmax(dims))] -= 1
        dims = tuple(dims)
        slots = SlotStructure(dims, tuple(f"A{k + 1}" for k in owners))
        labels = sorted(set(slots.party_of_slot))
        side = set(rng.choice(labels, size=int(rng.integers(1, len(labels))), replace=False))
        mat = rng.normal(size=(slots.dim,) * 2) * (rng.random((slots.dim,) * 2) < 0.3)
        flipped = tuple(k for k, party in enumerate(slots.party_of_slot) if party in side)
        want = partial_transpose_entrywise(mat, dims, flipped)
        keys = np.flatnonzero(mat)
        got = np.zeros_like(mat)
        got.reshape(-1)[_transpose_keys(keys, slots, side)] = mat.reshape(-1)[keys]
        assert np.array_equal(got, want)

    def test_rejects_non_bipartition_sides(self):
        op = two_party_op(np.eye(4))
        with pytest.raises(ValueError, match="not a bipartition side"):
            partial_transpose(op, set())
        with pytest.raises(ValueError, match="not a bipartition side"):
            partial_transpose(op, {"A1", "A2"})
        with pytest.raises(ValueError, match="unknown"):
            partial_transpose(op, {"B7"})


def entry_blocks(matrix):
    """The ``(count, size, size)`` diagonal-block stacks of a matrix on the components of
    its nonzero pattern, scattered from its entries as ``check`` does."""
    rows, cols = np.nonzero(matrix)
    entries = [(rows, cols, matrix[rows, cols])]
    return [stack[0] for stack in _blocks(_components(len(matrix), entries), entries)]


def block_eigenvalues(op):
    """The eigenvalues of ``op``'s Hermitian part on the blocks that ``check`` forms."""
    return block_spectrum(entry_blocks(_hermitian(op.matrix)))


class TestHermitianEigenvalues:
    """The eigenvalues of :func:`hermitian_eigensystem` and of the block path."""

    def test_pauli_spectra(self):
        for matrix in (PAULI_Z, PAULI_X):
            np.testing.assert_allclose(hermitian_eigensystem(qubit("A1", matrix))[0], [-1, 1])
            np.testing.assert_allclose(block_eigenvalues(qubit("A1", matrix)), [-1, 1])

    def test_identity_minus_swap(self):
        op = two_party_op(np.eye(4) - swap_matrix())
        np.testing.assert_allclose(hermitian_eigensystem(op)[0], [0, 0, 0, 2], atol=1e-12)
        np.testing.assert_allclose(block_eigenvalues(op), [0, 0, 0, 2], atol=1e-12)

    def test_rejects_non_hermitian(self):
        op = two_party_op(np.arange(16).reshape(4, 4).astype(complex))
        with pytest.raises(ContractViolationError):
            hermitian_eigensystem(op)
        with pytest.raises(ContractViolationError):
            is_psd(op)

    def test_agrees_with_jacobi_oracle(self):
        rng = np.random.default_rng(21)
        for dim, dims in [(4, (2, 2)), (6, (2, 3)), (8, (2, 4))]:
            mat = random_hermitian(rng, dim)
            op = two_party_op(mat, dims=dims)
            got = hermitian_eigensystem(op)[0]
            want = jacobi_eigenvalues(mat)
            np.testing.assert_allclose(got, want, atol=1e-10 * (1 + np.max(np.abs(mat))))

    def test_agrees_with_eigensystem_on_random_spectra(self):
        rng = np.random.default_rng(5)
        for dim, dims in [(4, (2, 2)), (12, (3, 4)), (64, (8, 8))]:
            op = two_party_op(random_hermitian(rng, dim), dims=dims)
            scale = 1.0 + np.max(np.abs(op.matrix))
            np.testing.assert_allclose(
                block_eigenvalues(op), hermitian_eigensystem(op)[0],
                rtol=0, atol=1e-12 * scale,
            )

    @pytest.mark.parametrize("d,m,side", [(2, 3, {"A1"}), (2, 5, {"A1", "A3"}), (3, 3, {"A2"})])
    def test_agrees_with_eigensystem_on_degenerate_spectra(self, d, m, side):
        # The partially transposed GHZ projector has eigenvalues 1/d, 0 and -1/d,
        # each highly degenerate.
        op = partial_transpose(ghz_state(d, m), side)
        scale = 1.0 + np.max(np.abs(op.matrix))
        np.testing.assert_allclose(
            block_eigenvalues(op), hermitian_eigensystem(op)[0],
            rtol=0, atol=1e-12 * scale,
        )


class TestHermitianContract:
    """The one-pass check-and-symmetrize against the written rule and ``hermitian_part``."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([1, 2, 3, 4, 6, 8]),
           ratio=st.floats(0.5, 2.0))
    def test_matches_predicate_and_hermitian_part(self, seed, dim, ratio):
        # A Hermitian matrix plus an anti-Hermitian perturbation whose defect is
        # ``ratio`` times the tolerance, measured on the unperturbed scale.
        rng = np.random.default_rng(seed)
        skew = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        skew = (skew - skew.conj().T) / 2.0
        herm = random_hermitian(rng, dim)
        tol = HERMITICITY_RTOL * (1.0 + np.max(np.abs(herm)))
        mat = herm + skew * (ratio * tol / np.max(np.abs(2.0 * skew)))
        rule = np.max(np.abs(mat - mat.conj().T)) <= HERMITICITY_RTOL * (1.0 + np.max(np.abs(mat)))
        if rule:
            assert np.array_equal(_hermitian(mat), hermitian_part(mat))
        else:
            with pytest.raises(ContractViolationError, match="^operator is not Hermitian"):
                _hermitian(mat)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([1, 2, 3, 4, 6, 8]),
           scale=st.sampled_from([0.0, 1e-14, 1e-12, 1e-6]), density=st.floats(0.0, 1.0))
    def test_entries_match_the_dense_check(self, seed, dim, scale, density):
        # A sparse Hermitian matrix plus a sparse perturbation: entries lose their mirror,
        # gain one, or differ from its conjugate.  The defect is bit-equal to the dense
        # one, and so is the Hermitian part where the contract holds.
        rng = np.random.default_rng(seed)
        mask = rng.random((dim, dim)) < density
        herm = random_hermitian(rng, dim) * (mask | mask.T)
        noise = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        mat = herm + scale * noise * (rng.random((dim, dim)) < 0.2)
        ((defect, part),) = _entry_record(mat[None])
        dense_defect, dense_part = _hermiticity(mat)
        assert defect == dense_defect
        assert (part is None) == (dense_part is None)
        if part is not None:
            got = np.zeros_like(mat)
            got.reshape(-1)[part[0]] = part[1]
            assert got.tobytes() == (dense_part + 0.0).tobytes()  # + 0.0: no negative zeros
            assert np.all(part[1] != 0) and np.all(np.diff(part[0]) > 0)

    def test_both_sides_of_the_tolerance(self):
        herm = np.array([[1.0, 0.5j], [-0.5j, 2.0]])
        skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
        tol = HERMITICITY_RTOL * 3.0
        inside = herm + skew * (0.9 * tol / 2.0)
        assert np.array_equal(_hermitian(inside), hermitian_part(inside))
        with pytest.raises(ContractViolationError, match=r"^operator is not Hermitian \(defect"):
            _hermitian(herm + skew * (1.1 * tol / 2.0))


class TestIsPsd:
    def test_identity(self):
        check = is_psd(qubit("A1", np.eye(2)))
        assert check.ok and check.min_eigenvalue == pytest.approx(1.0)

    def test_indefinite_diagonal(self):
        check = is_psd(qubit("A1", np.diag([1.0, -0.5])))
        assert not check.ok
        assert check.min_eigenvalue == pytest.approx(-0.5)

    def test_boundary_case_swap_complement(self):
        op = two_party_op((np.eye(4) - swap_matrix()) / 4.0)
        check = is_psd(op)
        assert check.ok
        assert check.min_eigenvalue == pytest.approx(0.0, abs=1e-12)

    def test_tolerance_is_reported(self):
        check = is_psd(qubit("A1", np.diag([5.0, 3.0])))
        assert check.tol == pytest.approx(1e-10 * 6.0)


def _permuted_blocks(rng, sizes, zero_rows, lowest):
    """A Hermitian matrix that is block diagonal, on blocks of ``sizes`` and
    ``zero_rows`` zero rows, under a random permutation of its indices; returns it
    with its blocks as index sets.  With ``lowest`` set, each block is
    ``U diag(spectrum) U^dagger`` with ``U`` a random unitary and its spectrum in
    [0, 1000], the first block's largest eigenvalue 1000 and the last block's
    smallest ``lowest`` times the PSD tolerance ``PSD_RTOL * (1 + 1000)``."""
    dim = sum(sizes) + zero_rows
    order = rng.permutation(dim)
    matrix = np.zeros((dim, dim), dtype=np.complex128)
    blocks = [frozenset([int(i)]) for i in order[sum(sizes):]]
    start = 0
    for k, size in enumerate(sizes):
        index = np.sort(order[start:start + size])
        start += size
        if lowest is None:
            block = random_hermitian(rng, size)
        else:
            spectrum = rng.uniform(0.0, 1000.0, size)
            if k == 0:
                spectrum[0] = 1000.0
            if k == len(sizes) - 1:
                spectrum[-1] = lowest * PSD_RTOL * (1.0 + 1000.0)
            u, _ = np.linalg.qr(rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size)))
            block = hermitian_part((u * spectrum) @ u.conj().T)
        matrix[np.ix_(index, index)] = block
        blocks.append(frozenset(index.tolist()))
    return matrix, blocks


class TestBlocks:
    """PSD tests on the diagonal blocks of a matrix's nonzero pattern against the same
    tests on the whole matrix."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.integers(1, 5), min_size=2, max_size=6),
        zero_rows=st.integers(0, 3),
        lowest=st.sampled_from([None, 0.0, -0.5, -2.0]),
    )
    def test_permuted_blocks_match_dense(self, seed, sizes, zero_rows, lowest):
        matrix, blocks = _permuted_blocks(np.random.default_rng(seed), sizes, zero_rows, lowest)
        stack = matrix[None]
        pattern = support(stack)
        groups = _components(len(matrix), [np.nonzero(matrix)])
        assert all(np.array_equal(a, b) for a, b in zip(groups, components_by_search(pattern),
                                                           strict=True))
        assert {frozenset(row.tolist()) for g in groups for row in g} == set(blocks)
        assert [g.shape[1] for g in groups] == sorted({len(b) for b in blocks})
        for g in groups:
            assert np.all(np.diff(g, axis=1) > 0)  # each block's indices ascending
        assert_blocks_match_dense(stack, pattern)

    @pytest.mark.parametrize("lowest, ok", [
        (0.0, True), (-0.5, True), (-2.0, False),
    ], ids=["zero", "half-tol-below", "two-tol-below"])
    def test_lowest_eigenvalue_cases(self, lowest, ok):
        # Many blocks of four, so the one at lowest * tol is one among many.
        matrix, _ = _permuted_blocks(np.random.default_rng(1), [4] * 8, 2, lowest)
        blocks = entry_blocks(matrix)
        assert [b.shape for b in blocks] == [(2, 1, 1), (8, 4, 4)]
        check = psd_of(block_spectrum(blocks))
        assert check.ok == ok
        assert check.min_eigenvalue == pytest.approx(min(lowest, 0.0) * check.tol, abs=1e-9)
        assert_blocks_match_dense(matrix[None], support(matrix[None]))

    def test_dense_matrix_is_one_block_and_todays_call(self):
        matrix = random_hermitian(np.random.default_rng(2), 12)
        (group,) = _components(12, [np.nonzero(matrix)])
        assert np.array_equal(group, np.arange(12)[None])
        (block,) = entry_blocks(matrix)
        assert np.array_equal(block[0], matrix)  # the whole matrix, every entry in place
        assert np.array_equal(block_spectrum([block]), np.linalg.eigvalsh(matrix))
        assert_blocks_match_dense(matrix[None], support(matrix[None]))

    def test_zero_matrix_is_all_one_by_one_blocks(self):
        stack = np.zeros((1, 5, 5), dtype=np.complex128)
        (group,) = _components(5, [np.nonzero(stack[0])])
        assert np.array_equal(group, np.arange(5)[:, None])
        assert_blocks_match_dense(stack, support(stack))

    def test_support_is_the_union_over_the_stack(self):
        stack = np.zeros((2, 4, 4), dtype=np.complex128)
        stack[0, 0, 3] = stack[0, 3, 0] = 1.0
        stack[1, 1, 2] = 1j  # an imaginary entry alone counts
        stack[1, 2, 1] = -1j
        stack[1, 3, 3] = -0.0  # a signed zero does not
        ((_, (keys0, values0)), (_, (keys1, values1))) = _entry_record(stack)
        assert keys0.tolist() == [3, 12] and values0.tolist() == [1.0, 1.0]
        assert keys1.tolist() == [6, 9] and values1.tolist() == [1j, -1j]
        groups = _components(4, [np.divmod(keys0, 4), np.divmod(keys1, 4)])
        assert [g.tolist() for g in groups] == [[[0, 3], [1, 2]]]

    def test_chain_joins_across_pointer_jumps(self):
        # A path 0-5-1-4-2-3 visits its indices out of order: one block of six.
        rows, cols = np.arange(7), np.arange(7)
        for a, b in [(0, 5), (5, 1), (1, 4), (4, 2), (2, 3)]:
            rows, cols = np.append(rows, [a, b]), np.append(cols, [b, a])
        groups = _components(7, [(rows, cols)])
        assert [g.tolist() for g in groups] == [[[6]], [[0, 1, 2, 3, 4, 5]]]


def _signed_zero_stack(rng, n, sizes, zero_rows):
    """``n`` complex matrices, not Hermitian, whose nonzero entries lie in the diagonal
    blocks of one :func:`_permuted_blocks` pattern, each on its own random symmetric
    part of it.  Some entries have a ``-0.0`` real or imaginary part beside a nonzero
    one, and some places outside the entries hold ``-0.0 - 0.0j``."""
    pattern = _permuted_blocks(rng, sizes, zero_rows, None)[0] != 0
    shape = (n, *pattern.shape)
    keep = rng.random(shape) < 0.7
    keep = pattern & (keep | keep.swapaxes(1, 2))
    stack = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    draw = rng.random(shape)
    stack.real[keep & (draw < 0.2)] = -0.0
    stack.imag[keep & (draw > 0.8)] = -0.0
    stack[~keep & (draw < 0.5)] = complex(-0.0, -0.0)
    stack[~keep & (draw >= 0.5)] = 0.0
    return stack


class TestFormedBlocks:
    """``_blocks`` keeps each matrix's entries in its own row, and ``_extremes`` reads
    the ends of each matrix's spectrum from those rows."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 4),
        sizes=st.lists(st.integers(1, 5), min_size=1, max_size=6),
        zero_rows=st.integers(0, 3),
    )
    def test_blocks_equal_the_gathered_blocks(self, seed, n, sizes, zero_rows):
        stack = _signed_zero_stack(np.random.default_rng(seed), n, sizes, zero_rows)
        entries = []
        for matrix in stack:
            rows, cols = np.nonzero(np.logical_or(matrix.real, matrix.imag))
            entries.append((rows, cols, matrix[rows, cols]))
        groups = _components(stack.shape[-1], entries)
        blocks = _blocks(groups, entries)
        assert [b.shape for b in blocks] == [(n, *g.shape, g.shape[1]) for g in groups]
        for k, matrix in enumerate(stack):
            # Added into zeros, a stored -0.0 part lands as +0.0: the gathered blocks
            # of ``matrix + 0.0``, byte for byte.
            for got, want, signed in zip((b[k] for b in blocks),
                                         gather_blocks(matrix + 0.0, groups),
                                         gather_blocks(matrix, groups)):
                assert got.tobytes() == want.tobytes()
                assert np.array_equal(got, signed)

    def test_a_negative_zero_part_lands_as_positive_zero(self):
        matrix = np.array([[complex(2.0, -0.0), complex(-0.0, 1.0)],
                           [complex(-0.0, -1.0), complex(-0.0, -0.0)]])
        rows, cols = np.nonzero(np.logical_or(matrix.real, matrix.imag))
        assert (rows.tolist(), cols.tolist()) == ([0, 0, 1], [0, 1, 0])
        entries = [(rows, cols, matrix[rows, cols])]
        (block,) = _blocks(_components(2, entries), entries)
        got = block[0, 0]
        assert got.tolist() == [[2.0, 1j], [-1j, 0.0]]
        # Each stored -0.0 part, and the place without an entry, reads +0.0.
        assert not np.signbit([*got.real.ravel(), got.imag[0, 0], got.imag[1, 1]]).any()

    @pytest.mark.parametrize("n", [1, 3])
    def test_extremes_of_one_block_are_the_dense_ends(self, n):
        rng = np.random.default_rng(8)
        stack = np.stack([random_hermitian(rng, 12) for _ in range(n)])
        entries = [(*np.nonzero(m), m[np.nonzero(m)]) for m in stack]
        blocks = _blocks(_components(12, entries), entries)
        assert [b.shape for b in blocks] == [(n, 1, 12, 12)]
        lo, hi = _extremes(blocks)
        dense = np.linalg.eigvalsh(stack)
        assert np.array_equal(lo, dense[:, 0]) and np.array_equal(hi, dense[:, -1])

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 4),
        sizes=st.lists(st.integers(1, 5), min_size=2, max_size=6),
        zero_rows=st.integers(0, 3),
    )
    def test_extremes_of_many_blocks_are_the_spectrum_ends(self, seed, n, sizes, zero_rows):
        stack = _signed_zero_stack(np.random.default_rng(seed), n, sizes, zero_rows)
        stack = hermitian_part(stack)
        entries = [(*np.nonzero(m), m[np.nonzero(m)]) for m in stack]
        groups = _components(stack.shape[-1], entries)
        lo, hi = _extremes(_blocks(groups, entries))
        assert lo.shape == hi.shape == (n,)
        for k, matrix in enumerate(stack):
            # The ends of the blocks' joint spectrum exactly, and of the dense one
            # within round-off.
            spectrum = block_spectrum(gather_blocks(matrix + 0.0, groups))
            assert (lo[k], hi[k]) == (spectrum[0], spectrum[-1])
            dense = np.linalg.eigvalsh(matrix)
            slack = 1e-12 * (1.0 + max(abs(dense[0]), abs(dense[-1])))
            assert abs(lo[k] - dense[0]) <= slack and abs(hi[k] - dense[-1]) <= slack


def _parts(stack):
    return _hermitian_parts(_entry_record(np.asarray(stack, dtype=np.complex128)))


class TestPartySwaps:
    """``_swap_invariant`` tests one swap of two parties on the entries, exactly, and
    ``_swap_classes`` joins the parties that pass by union-find."""

    @pytest.mark.parametrize("dims, owners", [
        ((2, 3), ("A1", "A2")),
        ((2, 3, 3, 2), ("A1", "A1", "A2", "A2")),  # the same slots in another order
        ((4, 2, 2), ("A1", "A2", "A2")),  # the same local dimension
    ])
    def test_unequal_slot_shapes_are_never_swapped(self, dims, owners):
        slots = SlotStructure(dims, owners)
        # No entry is read: None in place of the matrices' entries is never touched.
        assert _swap_invariant(None, slots, "A1", "A2") is False
        # The maximally mixed state is unchanged by every permutation of the slots.
        parts = _parts([np.eye(slots.dim) / slots.dim])
        assert _swap_classes(parts, slots) == {"A1": 0, "A2": 1}

    def test_equal_slot_shapes_are_swapped_slot_by_slot(self):
        slots = SlotStructure((2, 3, 2, 3), ("A1", "A1", "A2", "A2"))
        parts = _parts([np.eye(slots.dim) / slots.dim])
        assert _swap_classes(parts, slots) == {"A1": 0, "A2": 0}

    def test_the_test_is_exact(self):
        # GHZ-complement (2,3)'s complement state: the diagonal entry at |001> moves to
        # |100> under the swap of A1 and A3.  One last-bit change of it fails the swap.
        e = ghz_complement_ensemble(2, 3)
        slots, parts = e.slots, _hermitian_parts(e._record)
        assert _swap_invariant(parts, slots, "A1", "A3")
        keys, values = parts[0]
        values = values.copy()
        (at,) = np.flatnonzero(keys == 1 * 8 + 1)
        values[at] = complex(np.nextafter(values[at].real, 1.0), values[at].imag)
        assert values[at] != parts[0][1][at]
        broken = [(keys, values), parts[1]]
        assert not _swap_invariant(broken, slots, "A1", "A3")
        # |001> is a fixed point of the swap of A1 and A2, which still passes.
        assert _swap_invariant(broken, slots, "A1", "A2")
        # The test stops at the first matrix that fails: the next is never read.
        assert not _swap_invariant([(keys, values), None], slots, "A1", "A3")

    def test_components_of_a_partially_symmetric_ensemble(self, monkeypatch):
        tested, real = [], _swap_invariant

        def spy(parts, slots, a, b):
            tested.append((a, b))
            return real(parts, slots, a, b)

        monkeypatch.setattr(tensor_module, "_swap_invariant", spy)
        slots = SlotStructure((2, 2, 2, 2), ("A1", "A2", "A3", "A4"))
        e = swap_symmetric_ensemble(3, slots, [("A1", "A3"), ("A2", "A4")])
        parts = _hermitian_parts(e._record)
        assert _swap_classes(parts, slots) == {"A1": 0, "A2": 1, "A3": 0, "A4": 1}
        assert len(tested) == 6  # no pair is joined before its own test
        # Every swap passes on a symmetric ensemble: a pair already joined is not tested.
        tested.clear()
        e = swap_symmetric_ensemble(3, slots, [("A1", "A2"), ("A3", "A4")])
        assert _swap_classes(_hermitian_parts(e._record), slots) == {
            "A1": 0, "A2": 0, "A3": 1, "A4": 1}
        assert ("A1", "A2") in tested and ("A3", "A4") in tested
        tested.clear()
        parts = _parts([np.eye(16) / 16])
        assert _swap_classes(parts, slots) == dict.fromkeys(slots.parties, 0)
        assert tested == [("A1", "A2"), ("A1", "A3"), ("A1", "A4")]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), layout=st.integers(0, 2), symmetric=st.booleans())
    def test_matches_the_dense_swap(self, seed, layout, symmetric):
        # A1 and A3 have one slot shape, and in the last two layouts A2 another.
        slots = [SlotStructure((2, 2, 2), ("A1", "A2", "A3")),
                 SlotStructure((2, 3, 2, 3), ("A1", "A2", "A3", "A2")),
                 SlotStructure((3, 2, 3), ("A1", "A2", "A3"))][layout]
        e = swap_symmetric_ensemble(seed, slots, [("A1", "A3")] if symmetric else [], n=2)
        parts = _hermitian_parts(e._record)
        for a, b in [("A1", "A2"), ("A1", "A3"), ("A2", "A3")]:
            same_shape = ([slots.slot_dims[k] for k in slots.slots_of(a)]
                          == [slots.slot_dims[k] for k in slots.slots_of(b)])
            dense = same_shape and all(
                np.array_equal(swap_parties_dense(hermitian_part(m), slots, a, b),
                               hermitian_part(m)) for m in e.stack)
            assert _swap_invariant(parts, slots, a, b) == dense
        assert _swap_invariant(parts, slots, "A1", "A3") == symmetric


class TestKernelProperties:
    """Partial transposition and tensor structure on random operators."""

    def _random_case(self, rng):
        layouts = [
            ((2, 2), ("A1", "A2")),
            ((2, 3), ("A1", "A2")),
            ((2, 2, 2), ("A1", "A2", "A3")),
            ((4, 2), ("A1", "A2")),
            ((2, 2, 2, 2), ("A1", "A2", "A1", "A2")),
            ((3, 3), ("A1", "A2")),
            ((8, 4), ("A1", "A2")),
            ((4, 4, 2), ("A1", "A2", "A3")),
        ]
        dims, owners = layouts[int(rng.integers(len(layouts)))]
        slots = SlotStructure(dims, owners)
        hermitian = bool(rng.integers(2))
        mat = random_hermitian(rng, slots.dim) if hermitian else random_density(rng, slots.dim)
        op = MultiPartyOperator(mat, slots)
        parties = list(slots.parties)
        take = int(rng.integers(1, len(parties)))
        side = set(rng.choice(parties, size=take, replace=False).tolist())
        return op, side

    def test_involution_trace_hermiticity(self):
        rng = np.random.default_rng(2024)
        for _ in range(60):
            op, side = self._random_case(rng)
            pt = partial_transpose(op, side)
            scale = 1.0 + float(np.max(np.abs(op.matrix)))
            back = partial_transpose(pt, side)
            assert float(np.max(np.abs(back.matrix - op.matrix))) <= 1e-10 * scale
            assert abs(pt.trace() - op.trace()) <= 1e-10 * scale
            assert float(np.max(np.abs(pt.matrix - pt.matrix.conj().T))) <= 1e-10 * scale

    def test_spectrum_symmetry_between_sides(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            op, side = self._random_case(rng)
            other = set(op.slots.parties) - side
            vals_a = np.linalg.eigvalsh(partial_transpose(op, side).matrix)
            vals_b = np.linalg.eigvalsh(partial_transpose(op, other).matrix)
            np.testing.assert_allclose(vals_a, vals_b, atol=1e-10 * (1 + np.max(np.abs(vals_a))))

    def test_transpose_factorizes_over_tensor(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            a = two_party_op(random_hermitian(rng, 4))
            b = two_party_op(random_hermitian(rng, 6), dims=(3, 2))
            left = partial_transpose(tensor(a, b), {"A1"}).matrix
            right = np.kron(
                partial_transpose(a, {"A1"}).matrix, partial_transpose(b, {"A1"}).matrix
            )
            assert float(np.max(np.abs(left - right))) <= 1e-12 * (1 + np.max(np.abs(left)))
