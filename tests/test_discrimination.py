import dataclasses
import importlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlhide import (
    Bipartition,
    ContractViolationError,
    Ensemble,
    FoldSpec,
    MultiPartyOperator,
    ParityBlockParams,
    PartySet,
    SlotStructure,
    all_bipartitions,
    check_dominant_state,
    check_povm_optimality,
    coarse_ensemble,
    ghz_complement_ensemble,
    ghz_state,
    max_bipartition_bound,
    optimal_global,
    parity_block_ensemble,
    partial_transpose,
    product_basis_strategy_value,
    q_upper,
)

from nlhide import discrimination
from nlhide.discrimination import DEFAULT_SOLVER_TOL, _certificate, _solve
from nlhide.ensembles import max_pairwise_overlap, pairwise_overlaps, validate
from nlhide.tensor import (
    PSD_RTOL,
    _components,
    _cut_blocks,
    _entry_record,
    _hermitian,
    _hermitian_parts,
    _psd,
    hermitian_part,
)

from oracles import (
    assert_blocks_match_dense,
    brute_force_partitions,
    certificate_by_members,
    components_by_search,
    dominance_by_difference,
    dominance_by_gather,
    dominance_by_gather_every_pivot,
    dominance_tolerances,
    dual_feasibility_margin,
    fixed_point_by_members,
    fixed_point_dense,
    fixed_point_extrapolated,
    positive_part,
    povm_value,
    product_basis_value_by_outcome,
    random_density,
    random_hermitian,
    orbit_count,
    overlaps_by_dense_sum,
    partial_transpose_entrywise,
    party_classes_by_search,
    random_povm,
    scan_by_cut,
    support,
    swap_symmetric_ensemble,
    validate_by_dense,
)

# The package binds the function ``tensor`` to its name, so the module is looked up.
tensor_module = importlib.import_module("nlhide.tensor")

QUBIT = SlotStructure((2,), ("A1",))
PAIR = SlotStructure((2, 2), ("A1", "A2"))


def ket(vec):
    """The projector ``|vec><vec|`` as a plain matrix."""
    vec = np.asarray(vec, dtype=complex)
    return np.outer(vec, vec.conj())


def projector(vec, slots=QUBIT):
    return MultiPartyOperator(ket(vec), slots)


def pair_ensemble(states, probs):
    return Ensemble(PartySet.of_size(2), probs, tuple(states))


def assert_valid_povm(povm):
    """The elements of an ``(n, dim, dim)`` stack sum to the identity and are PSD,
    each to 1e-12."""
    assert np.linalg.norm(povm.sum(axis=0) - np.eye(povm.shape[-1]), 2) <= 1e-12
    assert np.linalg.eigvalsh(povm)[:, 0].min() >= -1e-12


def transposed_by_oracle(stack, slots, side):
    """Each matrix of ``stack`` partially transposed on ``side`` by the entrywise oracle."""
    flipped = tuple(k for k, party in enumerate(slots.party_of_slot) if party in side)
    return np.stack([partial_transpose_entrywise(m, slots.slot_dims, flipped) for m in stack])


def nearly_parallel(seed, noise, n=4, dim=16):
    """Priors and states of ``n`` random pure states within about 1% of one random
    vector in dimension ``dim``, each mixed with the fraction ``noise`` of white noise."""
    rng = np.random.default_rng(seed)
    base = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    vecs = base + 0.01 * (rng.normal(size=(n, dim)) + 1j * rng.normal(size=(n, dim)))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    states = np.stack([(1 - noise) * ket(v) + noise * np.eye(dim) / dim for v in vecs])
    return rng.dirichlet(np.ones(n)), states


def random_densities(seed):
    """Priors and states of 3 to 8 random density matrices of one dimension, 4 to 16."""
    rng = np.random.default_rng([1, seed])
    n, dim = int(rng.integers(3, 9)), int(rng.integers(4, 17))
    return rng.dirichlet(np.ones(n)), np.stack([random_density(rng, dim) for _ in range(n)])


#: Solver instances that the damped element iteration got wrong or slow: nearly
#: parallel pure states (elements off PSD by up to 1.6e-6), the same with 1% white
#: noise (its plateau rule switched damping on), and random density matrices.
SWEEP = ([nearly_parallel(seed, 0.0) for seed in range(20)]
         + [nearly_parallel(seed, 0.01) for seed in range(20)]
         + [random_densities(seed) for seed in range(20)])


KET0 = (1.0, 0.0)
KET1 = (0.0, 1.0)
KET_PLUS = (1 / math.sqrt(2), 1 / math.sqrt(2))

HELSTROM_0_PLUS = 0.5 + math.sqrt(2) / 4  # half overlap-gap above fair coin


class TestOptimalGlobal:
    @pytest.mark.parametrize("weights, matrices, error, message", [
        ([-1.0], [np.eye(2), np.eye(3)], ValueError, r"1 weights but 2 operators"),
        ([], [], ValueError, r"discrimination needs at least two operators"),
        ([-1.0], [np.ones((2, 3))], ValueError, r"discrimination needs at least two operators"),
        ([0.5, -0.5], [np.eye(2), np.eye(3)], ValueError,
         r"weights must be nonnegative, got \[0\.5, -0\.5\]"),
        ([0.5, math.nan], [np.ones((2, 3))] * 2, ValueError,
         r"weights must be nonnegative, got \[0\.5, nan\]"),
        ([0.5, 0.5], [np.eye(2), np.eye(3)], ValueError,
         r"operators must be square matrices of one shape, got shapes \[\(2, 2\), \(3, 3\)\]"),
        ([0.5, 0.5], [np.ones((2, 3))] * 2, ValueError,
         r"operators must be square matrices of one shape, got shapes \[\(2, 3\)\]"),
        ([0.5, 0.5], [np.eye(2), np.triu(np.ones((2, 2)))], ContractViolationError,
         r"operator is not Hermitian \(defect 1\.000e\+00\)"),
    ], ids=["count", "none", "one", "negative-weight", "nan-weight", "two-shapes",
            "not-square", "not-hermitian"])
    def test_input_errors_in_order(self, weights, matrices, error, message):
        # Count, then at least two operators, then weights, then shape, then the
        # Hermitian contract: each case breaks its rule and, where it can, a later one.
        with pytest.raises(error, match=f"^{message}$"):
            optimal_global(weights, matrices)

    def test_orthogonal_pure_states(self):
        result = optimal_global([0.5, 0.5], [ket(KET0), ket(KET1)])
        assert result.primal_value == pytest.approx(1.0, abs=1e-12)
        assert result.gap <= 1e-12
        assert result.certified

    def test_overlapping_pure_states_closed_form(self):
        result = optimal_global([0.5, 0.5], [ket(KET0), ket(KET_PLUS)])
        assert result.primal_value == pytest.approx(HELSTROM_0_PLUS, abs=1e-12)
        # cross-check: value = w1 Tr(B) + positive spectrum of (w0 A - w1 B)
        delta = 0.5 * ket(KET0) - 0.5 * ket(KET_PLUS)
        vals = np.linalg.eigvalsh(delta)
        assert result.primal_value == pytest.approx(0.5 + vals[vals > 0].sum(), abs=1e-12)

    def test_trine_states_sandwich(self):
        # Symmetric qubit trine: value 2/3 certified by an explicit POVM
        # achieving it and an explicit feasible dual of the same trace.
        kets = [
            (math.cos(math.pi * k / 3), math.sin(math.pi * k / 3)) for k in range(3)
        ]
        states = [ket(k) for k in kets]
        weights = [1 / 3] * 3
        srm = [(2 / 3) * s for s in states]
        achieved = povm_value(weights, states, srm)
        assert achieved == pytest.approx(2 / 3, abs=1e-12)
        dual_op = np.eye(2) / 3
        assert dual_feasibility_margin(dual_op, weights, states) >= -1e-12
        assert np.trace(dual_op).real == pytest.approx(2 / 3, abs=1e-15)

        result = optimal_global(weights, states)
        assert result.certified
        assert result.gap <= 1e-8
        assert result.primal_value == pytest.approx(2 / 3, abs=1e-8)
        assert_valid_povm(result.povm)

    def test_iterative_matches_closed_for_two_states(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            states = [random_density(rng, 4) for _ in range(2)]
            w = rng.random(2)
            w = (w / w.sum()).tolist()
            closed = optimal_global(w, states, method="closed")
            iterative = optimal_global(w, states, method="iterative")
            assert iterative.certified
            assert iterative.primal_value == pytest.approx(
                closed.primal_value, abs=1e-8
            )

    def test_uncertified_when_budget_exhausted(self):
        rng = np.random.default_rng(4)
        states = np.stack([random_density(rng, 4) for _ in range(3)])
        result = optimal_global([1 / 3] * 3, states, max_iterations=10)
        assert not result.certified
        assert result.gap > 0
        assert result.dual_value >= result.primal_value

    def test_zero_budget_certifies_the_uniform_start(self):
        # No step runs, so no certificate comes out of the loop.
        rng = np.random.default_rng(4)
        states = [random_density(rng, 4) for _ in range(3)]
        result = optimal_global([1 / 3] * 3, states, max_iterations=0)
        assert (result.iterations, result.certified) == (0, False)
        assert result.primal_value == pytest.approx(1 / 3, abs=1e-14)
        assert result.dual_value >= result.primal_value
        assert np.array_equal(result.povm, np.broadcast_to(np.eye(4) / 3, (3, 4, 4)))

    @pytest.mark.parametrize("method, n", [("closed", 2), ("iterative", 3)])
    def test_povm_is_the_read_only_solver_stack(self, method, n):
        rng = np.random.default_rng(6)
        states = np.stack([random_density(rng, 4) for _ in range(n)])
        result = optimal_global([1 / n] * n, states, method=method)
        assert result.povm.shape == (n, 4, 4)
        assert not result.povm.flags.writeable
        assert_valid_povm(result.povm)

    def test_nearly_parallel_noisy_states_certify(self):
        # Four nearly parallel pure states in dimension 16, each mixed with 1% of
        # white noise.  The damped element iteration stalled here at iteration 1675
        # and certified at 1975 only once damping ran.  The factored iteration has
        # no damping and no plateau rule; it certifies well before that (450 steps
        # extrapolated every 25, 195 map evaluations with squared extrapolation,
        # numpy 2.4).
        w, states = nearly_parallel(13, 0.01)
        result = optimal_global(w, states)
        assert result.certified
        assert result.gap <= 1e-8
        assert result.iterations < 1975
        assert_valid_povm(result.povm)

    @pytest.mark.parametrize("seed", range(20))
    def test_nearly_parallel_pure_states_give_a_povm(self, seed):
        # The same recipe without the noise: every G_i is singular, and the damped
        # element iteration returned certified elements off PSD by up to 1.6e-6.
        w, states = nearly_parallel(seed, 0.0)
        result = optimal_global(w, states)
        assert result.certified
        assert result.primal_value <= result.dual_value
        assert_valid_povm(result.povm)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="nonnegative"):
            optimal_global([-0.1, 1.1], [ket(KET0), ket(KET1)])
        with pytest.raises(ValueError, match="^weights must be"):
            optimal_global([math.nan, 0.5], [ket(KET0), ket(KET1)])
        with pytest.raises(ValueError, match=r"one shape, got shapes \[\(2, 2\), \(4, 4\)\]"):
            optimal_global([0.5, 0.5], [ket(KET0), np.eye(4)])
        with pytest.raises(ValueError, match=r"one shape, got shapes \[\(2, 3\)\]"):
            optimal_global([0.5, 0.5], np.zeros((2, 2, 3)))
        with pytest.raises(ValueError, match="closed form"):
            optimal_global(
                [1 / 3] * 3,
                [ket(KET0), ket(KET1), ket(KET_PLUS)],
                method="closed",
            )
        with pytest.raises(ValueError, match="tolerance"):
            optimal_global([0.5, 0.5], [ket(KET0), ket(KET1)], tol=0)
        skew = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(ContractViolationError):
            optimal_global([0.5, 0.5], [skew, ket(KET0)])

    @pytest.mark.parametrize("method, n", [("closed", 2), ("iterative", 3)])
    def test_list_and_stack_agree_and_stack_is_kept(self, method, n):
        rng = np.random.default_rng(8)
        stack = np.stack([random_hermitian(rng, 4) + 2 * np.eye(4) for _ in range(n)])
        before = stack.copy()
        from_stack = optimal_global([1 / n] * n, stack, method=method)
        from_list = optimal_global([1 / n] * n, list(before), method=method)
        assert np.array_equal(stack, before)
        for field in dataclasses.fields(from_stack):
            # Every field compares equal; the POVM, an array, by its entries.
            a, b = getattr(from_stack, field.name), getattr(from_list, field.name)
            assert np.array_equal(a, b) if field.name == "povm" else a == b, field.name


class TestQUpper:
    def test_ghz22_value(self, ghz22):
        (bp,) = all_bipartitions(ghz22.parties)
        result = q_upper(ghz22, bp)
        assert result.dual_value == pytest.approx(0.75, abs=1e-8)
        assert result.certified

    def test_ghz23_all_bipartitions(self, ghz23):
        for bp in all_bipartitions(ghz23.parties):
            result = q_upper(ghz23, bp)
            assert result.dual_value == pytest.approx(7 / 8, abs=1e-8)

    def test_two_bell_states_bound_is_trivial(self):
        # Frozen from the closed form: the transposed difference has positive
        # part of total weight 1, so the bound reaches 1 (two orthogonal pure
        # states are locally distinguishable).
        phi = ghz_state(2, 2)
        psi_minus = projector(
            (0.0, 1 / math.sqrt(2), -1 / math.sqrt(2), 0.0), slots=PAIR
        )
        e = pair_ensemble([phi, psi_minus], (0.5, 0.5))
        (bp,) = all_bipartitions(e.parties)
        result = q_upper(e, bp)
        assert result.dual_value == pytest.approx(1.0, abs=1e-10)
        delta = 0.5 * (
            partial_transpose(phi, {"A1"}).matrix
            - partial_transpose(psi_minus, {"A1"}).matrix
        )
        vals = np.linalg.eigvalsh(delta)
        assert 0.5 + vals[vals > 0].sum() == pytest.approx(1.0, abs=1e-12)

    def test_side_independence(self, ghz23):
        for bp in all_bipartitions(ghz23.parties):
            via_a = q_upper(ghz23, bp).dual_value
            flipped = Bipartition.from_side(ghz23.parties, bp.side_b)
            via_b = q_upper(ghz23, flipped).dual_value
            assert abs(via_a - via_b) <= 1e-9


class TestPovmOptimality:
    def test_all_or_nothing_is_optimal_for_ghz22(self, ghz22):
        (bp,) = all_bipartitions(ghz22.parties)
        povm = np.stack([np.eye(4), np.zeros((4, 4))])
        check = check_povm_optimality(ghz22, bp, povm)
        assert check.passed
        assert min(check.residuals) >= -1e-12

    def test_computational_povm_for_orthogonal_pair(self):
        e = pair_ensemble(
            [projector((1, 0, 0, 0), PAIR), projector((0, 1, 0, 0), PAIR)],
            (0.5, 0.5),
        )
        (bp,) = all_bipartitions(e.parties)
        m0 = np.diag([1.0, 0, 1, 0]).astype(complex)
        povm = np.stack([m0, np.eye(4) - m0])
        assert check_povm_optimality(e, bp, povm).passed

    def test_suboptimal_povm_fails(self):
        # Guessing the first state always is suboptimal for |0> vs |+>; the
        # worst residual is -sqrt(2)/4 (eigensolve of the weighted difference).
        slots = SlotStructure((2, 1), ("A1", "A2"))
        e = Ensemble(
            PartySet.of_size(2),
            (0.5, 0.5),
            (projector(KET0, slots), projector(KET_PLUS, slots)),
        )
        (bp,) = all_bipartitions(e.parties)
        povm = np.stack([np.eye(2), np.zeros((2, 2))])
        check = check_povm_optimality(e, bp, povm)
        assert not check.passed
        assert min(check.residuals) == pytest.approx(-math.sqrt(2) / 4, abs=1e-12)

    def test_slot_mismatch_rejected(self, ghz22):
        (bp,) = all_bipartitions(ghz22.parties)
        povm = np.stack([np.eye(2), np.zeros((2, 2))])
        with pytest.raises(ValueError, match=r"shape \(2, 2, 2\) does not match .* \(2, 4, 4\)"):
            check_povm_optimality(ghz22, bp, povm)

    def test_non_hermitian_state_rejected(self, ghz22):
        (bp,) = all_bipartitions(ghz22.parties)
        skewed = ghz22.states[1].matrix.copy()
        skewed[0, 1] += 0.25
        states = (ghz22.states[0], MultiPartyOperator(skewed, ghz22.slots))
        e = Ensemble(ghz22.parties, ghz22.probs, states)
        povm = np.stack([np.eye(4), np.zeros((4, 4))])
        with pytest.raises(ContractViolationError, match="^operator is not Hermitian"):
            check_povm_optimality(e, bp, povm)

    @pytest.mark.parametrize("count", [1, 3])
    def test_element_count_must_match(self, ghz22, count):
        (bp,) = all_bipartitions(ghz22.parties)
        povm = np.broadcast_to(np.eye(4) / count, (count, 4, 4))
        with pytest.raises(ValueError, match=rf"shape \({count}, 4, 4\) does not match"):
            check_povm_optimality(ghz22, bp, povm)

    def test_elements_must_sum_to_the_identity(self, ghz23):
        # 100 I per element: every residual is positive (about 12.3), yet the elements
        # sum to 200 I.
        bp = all_bipartitions(ghz23.parties)[0]
        povm = np.broadcast_to(100 * np.eye(8), (2, 8, 8))
        message = r"^POVM elements do not sum to the identity \(deviation 1\.990e\+02\)$"
        with pytest.raises(ValueError, match=message):
            check_povm_optimality(ghz23, bp, povm)

    def test_elements_must_be_psd(self, ghz23):
        # {2I, -I} is complete but its second element is negative.
        bp = all_bipartitions(ghz23.parties)[0]
        povm = np.stack([2 * np.eye(8), -np.eye(8)])
        message = r"^POVM element 1 is not positive semidefinite \(least eigenvalue -1\.000e\+00"
        with pytest.raises(ValueError, match=message):
            check_povm_optimality(ghz23, bp, povm)

    def test_elements_must_be_hermitian(self, ghz22):
        # I/2 + K and I/2 - K with K anti-Hermitian: complete, not Hermitian.
        (bp,) = all_bipartitions(ghz22.parties)
        skew = np.zeros((4, 4))
        skew[0, 1], skew[1, 0] = 0.1, -0.1
        povm = np.stack([np.eye(4) / 2 + skew, np.eye(4) / 2 - skew])
        message = r"^POVM element 0 is not positive semidefinite \(.*, Hermiticity defect 2\.000e-01\)$"
        with pytest.raises(ValueError, match=message):
            check_povm_optimality(ghz22, bp, povm)

    def test_rules_hold_within_the_tolerance(self, ghz22):
        # Elements off the identity and off PSD by half the tolerance pass the rules.
        (bp,) = all_bipartitions(ghz22.parties)
        povm = np.stack([np.eye(4) * (1 + 5e-9), np.eye(4) * -5e-9])
        assert check_povm_optimality(ghz22, bp, povm, tol=1e-8).passed
        with pytest.raises(ValueError, match="^POVM element 1 is not positive semidefinite"):
            check_povm_optimality(ghz22, bp, povm, tol=1e-9)

    @pytest.mark.parametrize("tol", [float("nan"), -1e-8])
    def test_tolerance_must_be_nonnegative(self, ghz22, tol):
        (bp,) = all_bipartitions(ghz22.parties)
        povm = np.stack([np.eye(4), np.zeros((4, 4))])
        with pytest.raises(ValueError, match="^tolerance must be nonnegative"):
            check_povm_optimality(ghz22, bp, povm, tol=tol)


class TestDominance:
    def test_ghz22_pivot0_passes(self, ghz22):
        (bp,) = all_bipartitions(ghz22.parties)
        check = check_dominant_state(ghz22, bp, pivot=0)
        assert check.passed
        assert check.min_eigenvalues[1] == pytest.approx(0.0, abs=1e-12)

    def test_ghz22_pivot1_fails(self, ghz22):
        (bp,) = all_bipartitions(ghz22.parties)
        check = check_dominant_state(ghz22, bp, pivot=1)
        assert not check.passed
        assert check.min_eigenvalues[0] == pytest.approx(-0.5, abs=1e-12)

    def test_parity_family_passes_everywhere(self, parity2222):
        for bp in all_bipartitions(parity2222.parties):
            check = check_dominant_state(parity2222, bp, pivot=0)
            assert check.passed
            assert min(check.min_eigenvalues) >= -1e-10

    def test_pivot_out_of_range(self, ghz22):
        (bp,) = all_bipartitions(ghz22.parties)
        with pytest.raises(ValueError, match="pivot"):
            check_dominant_state(ghz22, bp, pivot=5)

    @pytest.mark.parametrize("pivot", [1.5, 1.0, np.float64(0.0), True, False, "1"],
                             ids=["1.5", "1.0", "numpy-0.0", "True", "False", "str"])
    def test_pivot_must_be_an_integer(self, ghz22, pivot):
        (bp,) = all_bipartitions(ghz22.parties)
        message = f"^pivot must be an integer, got {re.escape(repr(pivot))}$"
        with pytest.raises(ValueError, match=message):
            check_dominant_state(ghz22, bp, pivot=pivot)

    @pytest.mark.parametrize("pivot", [np.int64(1), np.int32(0), np.uint8(1)],
                             ids=["int64", "int32", "uint8"])
    def test_numpy_pivot_is_stored_as_an_int(self, ghz22, pivot):
        (bp,) = all_bipartitions(ghz22.parties)
        check = check_dominant_state(ghz22, bp, pivot=pivot)
        assert type(check.pivot) is int
        assert check == check_dominant_state(ghz22, bp, pivot=int(pivot))


class TestBipartitionScan:
    def test_ghz22(self, ghz22):
        scan = max_bipartition_bound(ghz22)
        assert scan.max_value == pytest.approx(0.75, abs=1e-12)
        assert list(scan.results) == ["A1|A2"]
        assert not scan.failures

    def test_ghz23_symmetric(self, ghz23):
        scan = max_bipartition_bound(ghz23)
        assert len(scan.results) == 3
        for result in scan.results.values():
            assert result.dual_value == pytest.approx(7 / 8, abs=1e-8)

    def test_colliding_cut_names_raise(self, colliding_labels, monkeypatch):
        # The coalition {a, b, c} reads the datum with certainty, and the other cut
        # named abc|bc has q = 0.875: a table keyed by name would keep only one.
        readable = Bipartition(colliding_labels.parties, ("a", "b", "c"), ("bc",))
        assert q_upper(colliding_labels, readable).dual_value == pytest.approx(1.0, abs=1e-12)
        formed = _spy(monkeypatch, discrimination, "_cut_blocks")
        with pytest.raises(ValueError, match=r"a,b,c \| bc and a,bc \| b,c share .*'abc\|bc'"):
            max_bipartition_bound(colliding_labels)
        assert formed == []  # before any cut is decided

    def test_parity2222(self, parity2222):
        scan = max_bipartition_bound(parity2222)
        assert scan.max_value == pytest.approx(25 / 64, abs=1e-12)
        assert all(r.method == "dominance" for r in scan.results.values())

    def test_shortcut_agrees_with_solver(self, ghz22, ghz23):
        for e in (ghz22, ghz23):
            scan = max_bipartition_bound(e)
            for bp in all_bipartitions(e.parties):
                result = scan.results[bp.to_string()]
                assert result.method == "dominance"
                assert result.dual_value == pytest.approx(q_upper(e, bp).dual_value, abs=1e-8)

    def test_dominance_cuts_carry_no_povm(self, ghz22):
        result = max_bipartition_bound(ghz22).results["A1|A2"]
        assert result.method == "dominance"
        assert result.povm is None

    def test_one_transpose_per_state_and_cut(self, monkeypatch):
        rng = np.random.default_rng(5)
        slots = SlotStructure((2, 2, 2), ("A1", "A2", "A3"))
        states = tuple(MultiPartyOperator(random_density(rng, 8), slots) for _ in range(3))
        e = Ensemble(PartySet.of_size(3), (0.5, 0.3, 0.2), states)
        transposed, formed, solved = [], [], []
        real_keys, real_blocks = tensor_module._transpose_keys, tensor_module._blocks
        real_solve = discrimination._solve

        def counting_keys(keys, slots, side):
            transposed.append(len(keys))
            return real_keys(keys, slots, side)

        def spying_blocks(groups, entries):
            formed.append(real_blocks(groups, entries))
            return formed[-1]

        def spying_solve(w, blocks, *args, **kwargs):
            solved.append(blocks)
            return real_solve(w, blocks, *args, **kwargs)

        monkeypatch.setattr(tensor_module, "_transpose_keys", counting_keys)
        monkeypatch.setattr(tensor_module, "_blocks", spying_blocks)
        with monkeypatch.context() as solver:
            solver.setattr(discrimination, "optimal_global", None)  # no dense solve
            solver.setattr(discrimination, "_solve", spying_solve)
            scan = max_bipartition_bound(e)
        # Dominance fails on every cut: the keys of each state are transposed once per
        # cut, the cut's blocks are formed once, here one block of every index with one
        # row per state, and the solver gets those very arrays.
        assert [r.method for r in scan.results.values()] == ["iterative"] * 3
        assert transposed == [e.dim * e.dim] * (e.n * 3)  # random densities: every entry
        assert [[stack.shape for stack in blocks] for blocks in formed] == [
            [(e.n, 1, e.dim, e.dim)]] * 3
        assert len(solved) == 3
        for got, want in zip(solved, formed):
            assert len(got) == len(want) and all(a is b for a, b in zip(got, want))
        for bp in all_bipartitions(e.parties):
            result = scan.results[bp.to_string()]
            assert result.certified and result.povm is None
            # q_upper hands the solver the same blocks.
            assert result.dual_value == q_upper(e, bp).dual_value

        def counted(call, *args):
            transposed.clear()
            formed.clear()
            call(*args)
            return transposed, len(formed)

        # Each entry point transposes each state once per call and cut and forms the
        # blocks once per call; optimal_global has no cut, validate forms each state's.
        per_state = [e.dim * e.dim] * e.n
        for bp in all_bipartitions(e.parties):
            assert counted(q_upper, e, bp) == (per_state, 1)
            assert counted(check_dominant_state, e, bp) == (per_state, 1)
        assert counted(optimal_global, e.probs, e.stack) == ([], 1)
        assert counted(validate, e) == ([], e.n)

    def test_blocks_follow_the_transposed_pattern(self):
        # The coupling of |Phi+><Phi+| sits at (0, 3); on the cut it moves to (1, 2),
        # where it makes the difference indefinite.  Blocks of the untransposed
        # pattern would see only a positive diagonal there and report dominance.
        phi = ket([1, 0, 0, 1]) / 2
        lead = MultiPartyOperator(0.9 * phi + 0.1 * np.eye(4) / 4, PAIR)
        e = pair_ensemble([lead, MultiPartyOperator(ket([1, 0, 0, 0]), PAIR)], (0.9, 0.1))
        (bp,) = all_bipartitions(e.parties)
        assert not check_dominant_state(e, bp).passed
        assert not dominance_by_difference(e, bp).passed
        assert max_bipartition_bound(e).results[bp.to_string()].method == "closed"

    def test_one_hermitian_check_per_state(self, entry_passes, monkeypatch):
        masked, checked = entry_passes
        monkeypatch.setattr(tensor_module, "_hermiticity", None)  # no dense check
        e = ghz_complement_ensemble(2, 3)  # a new ensemble: no record yet
        scan = max_bipartition_bound(e)
        # Three cuts, all decided by dominance: the states are checked once, not per cut,
        # and a second scan reads the same record.
        assert [r.method for r in scan.results.values()] == ["dominance"] * 3
        assert (sum(masked), len(checked)) == (e.n, e.n)
        assert max_bipartition_bound(e).max_value == scan.max_value
        assert (sum(masked), len(checked)) == (e.n, e.n)


@pytest.mark.parametrize(
    "entry, extra",
    [(q_upper, ()), (check_dominant_state, ()),
     (check_povm_optimality, (np.broadcast_to(np.eye(8) / 2, (2, 8, 8)),))],
    ids=["q_upper", "check_dominant_state", "check_povm_optimality"],
)
def test_entries_check_each_state_once(entry_passes, monkeypatch, entry, extra):
    masked, checked = entry_passes
    monkeypatch.setattr(tensor_module, "_hermiticity", None)  # no dense check
    e = ghz_complement_ensemble(2, 3)  # a new ensemble: no record yet
    bp = all_bipartitions(e.parties)[0]
    entry(e, bp, *extra)
    assert (sum(masked), len(checked)) == (e.n, e.n)
    # The four entry points, one after another, read the same record.
    povm = np.broadcast_to(np.eye(e.dim) / 2, (2, e.dim, e.dim))
    q_upper(e, bp)
    check_dominant_state(e, bp)
    check_povm_optimality(e, bp, povm)
    max_bipartition_bound(e)
    assert (sum(masked), len(checked)) == (e.n, e.n)


def _family_instances(cap):
    """Every built-in family instance of dimension at most ``cap``, as test parameters."""
    out = []
    for d in range(2, cap + 1):
        for m in range(2, cap.bit_length()):
            if d**m <= cap:
                out.append(pytest.param("ghz", (d, m), id=f"ghz-{d}-{m}"))
            for s in range(1, cap.bit_length()):
                for t in range(1, cap.bit_length()):
                    if d ** (m * s * t) <= cap:
                        out.append(pytest.param(
                            "parity", (d, m, s, t), id=f"parity-{d}-{m}-{s}-{t}"))
    return out


def _family(family, params, cap):
    if family == "ghz":
        return ghz_complement_ensemble(*params, cap=cap)
    return parity_block_ensemble(ParityBlockParams(*params), cap=cap)


SMALL_CAP = 64
# Two and three parties; in the third, A1 owns two slots that are not adjacent.
RANDOM_SLOTS = (
    SlotStructure((2, 2), ("A1", "A2")),
    SlotStructure((2, 3), ("A1", "A2")),
    SlotStructure((2, 1, 3), ("A1", "A2", "A1")),
    SlotStructure((2, 2, 2), ("A1", "A2", "A3")),
)


def _difference_ensemble(lowest):
    """Two members at weight 1/2, the second zero, whose one dominance difference on
    the cut is ``D = U diag(1000, 0, ..., 0, lowest) U^dagger`` bit for bit, ``U`` a
    random unitary; returns the ensemble and ``D``."""
    slots = SlotStructure((4, 4), ("A1", "A2"))
    rng = np.random.default_rng(0)
    u, _ = np.linalg.qr(rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)))
    spectrum = np.zeros(16)
    spectrum[0], spectrum[-1] = 1000.0, lowest
    d = hermitian_part((u * spectrum) @ u.conj().T)
    (bp,) = all_bipartitions(PartySet.of_size(2))
    # The transpose is an involution and the weight 1/2 halves 2D exactly.
    lead = partial_transpose(MultiPartyOperator(2 * d, slots), bp.side_a)
    zero = MultiPartyOperator(np.zeros((16, 16)), slots)
    return Ensemble(PartySet.of_size(2), (0.5, 0.5), (lead, zero)), d


class TestArrayDominance:
    """The array scan against ``check_dominant_state``, and that against the
    per-difference operator check: the same verdict on every cut, and the scan's
    certificate the very minimum eigenvalues ``check_dominant_state`` reports."""

    @staticmethod
    def _assert_matches_oracle(e, pivots=(None,)):
        scan = max_bipartition_bound(e, max_iterations=25)
        for bp in all_bipartitions(e.parties):
            for pivot in pivots:
                # Per-block eigenvalues differ from the dense ones by round-off only:
                # the same verdict, and each minimum within 1e-12 * (1 + spectral scale).
                got = check_dominant_state(e, bp, pivot)
                dense = dominance_by_difference(e, bp, pivot)
                assert (got.passed, got.pivot) == (dense.passed, dense.pivot)
                for a, b, tol in zip(got.min_eigenvalues, dense.min_eigenvalues,
                                     dominance_tolerances(e, bp, pivot)):
                    assert abs(a - b) <= 1e-12 * tol / PSD_RTOL
            want = check_dominant_state(e, bp)
            result = scan.results[bp.to_string()]
            assert (result.method == "dominance") == want.passed
            if want.passed:
                assert result.certificate_min_eigs == want.min_eigenvalues

    @pytest.mark.parametrize(
        "lowest, method",
        [(0.0, "dominance"), (-0.5, "dominance"), (-2.0, "closed")],
        ids=["zero", "half-tol-below", "two-tol-below"],
    )
    def test_psd_boundary(self, lowest, method):
        # ``lowest`` in units of the PSD tolerance of D, whose largest eigenvalue is 1000.
        tol = PSD_RTOL * (1.0 + 1000.0)
        e, d = _difference_ensemble(lowest * tol)
        exact = np.linalg.eigvalsh(d)
        assert _psd(exact[0], exact[-1]).tol == pytest.approx(tol)
        (result,) = max_bipartition_bound(e).results.values()
        assert result.method == method
        if method == "dominance":
            assert result.certificate_min_eigs == (0.0, exact[0])
        else:
            assert result.certified and result.primal_value == pytest.approx(1000.0)

    @pytest.mark.parametrize("family, params", _family_instances(SMALL_CAP))
    def test_family_instances(self, family, params):
        self._assert_matches_oracle(_family(family, params, SMALL_CAP))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        slots=st.sampled_from(RANDOM_SLOTS),
        n=st.integers(2, 4),
        lead=st.floats(0.0, 1.0),
    )
    def test_random_hermitian_ensembles(self, seed, slots, n, lead):
        rng = np.random.default_rng(seed)
        dim = slots.dim
        # Member 0 leans toward the maximally mixed state and the prior toward it,
        # so dominance passes on some draws and fails on others.
        mats = [random_density(rng, dim) for _ in range(n)]
        mats[0] = lead * np.eye(dim) / dim + (1 - lead) * mats[0]
        probs = lead * np.eye(n)[0] + (1 - lead) * rng.dirichlet(np.ones(n))
        states = tuple(MultiPartyOperator(hermitian_part(m), slots) for m in mats)
        e = Ensemble(PartySet.of_size(len(slots.parties)), tuple(probs), states)
        for state in e.states:  # exactly Hermitian: the Hermitian part changes nothing
            assert np.array_equal(state.matrix, state.matrix.conj().T)
        self._assert_matches_oracle(e, pivots=(None, *range(n)))


def _assert_entries_match_dense(e, pivots=(None,)):
    """The entries path of ``check`` against the dense oracles: ``validate`` bit for
    bit, the overlaps within 1e-15, each cut's components, ``check_dominant_state`` and
    the scan's dominance certificates exactly."""
    got, want = validate(e), validate_by_dense(e)
    assert (got.checks, got.warnings) == (want.checks, want.warnings)
    assert np.max(np.abs(pairwise_overlaps(e) - overlaps_by_dense_sum(e))) <= 1e-15
    parts = _hermitian_parts(e._record)
    herm = hermitian_part(e.stack)
    scan = max_bipartition_bound(e, max_iterations=25)
    for bp in all_bipartitions(e.parties):
        mine = _cut_blocks(e.dim, parts, e.slots, bp.side_a)[0]
        dense = components_by_search(support(transposed_by_oracle(herm, e.slots, bp.side_a)))
        assert [g.tolist() for g in mine] == [g.tolist() for g in dense]
        for pivot in pivots:
            assert check_dominant_state(e, bp, pivot) == dominance_by_gather(e, bp, pivot)
        want = dominance_by_gather(e, bp)
        result = scan.results[bp.to_string()]
        assert (result.method == "dominance") == want.passed
        if want.passed:
            assert result.certificate_min_eigs == want.min_eigenvalues


def _block_diagonal_density(rng, dim, sizes):
    """A density matrix block diagonal on consecutive index runs of ``sizes``, under a
    random permutation of the indices."""
    order = rng.permutation(dim)
    matrix = np.zeros((dim, dim), dtype=np.complex128)
    start = 0
    for size in sizes:
        index = np.sort(order[start:start + size])
        start += size
        matrix[np.ix_(index, index)] = random_density(rng, size) * size
    return hermitian_part(matrix / np.trace(matrix).real)


def _random_block_ensemble(seed, parties, n, dense, lead):
    """``n`` states of dim at most 64 on slots that alternate between the parties slot
    by slot (two parties on four slots: the folded layout ``A1, A2, A1, A2``); each
    state block diagonal under its own permutation, and with ``dense`` the last one
    fully dense.  ``lead`` mixes the first state toward white noise and its prior
    toward 1."""
    rng = np.random.default_rng(seed)
    owners = [k % parties for k in range(int(rng.integers(parties, 2 * parties + 1)))]
    dims = [int(d) for d in rng.integers(1, 4, size=len(owners))]
    while np.prod(dims) > 64:
        dims[int(np.argmax(dims))] -= 1
    slots = SlotStructure(tuple(dims), tuple(f"A{k + 1}" for k in owners))
    dim = slots.dim
    mats = []
    for _ in range(n):
        sizes = []
        while sum(sizes) < dim:
            sizes.append(min(int(rng.integers(1, 6)), dim - sum(sizes)))
        mats.append(_block_diagonal_density(rng, dim, sizes))
    if dense:
        mats[-1] = hermitian_part(random_density(rng, dim))
    mats[0] = hermitian_part(lead * np.eye(dim) / dim + (1 - lead) * mats[0])
    probs = lead * np.eye(n)[0] + (1 - lead) * rng.dirichlet(np.ones(n))
    labels = PartySet(tuple(dict.fromkeys(slots.party_of_slot)))
    return Ensemble(labels, tuple(probs), tuple(MultiPartyOperator(m, slots) for m in mats))


BLOCK_ENSEMBLES = given(
    seed=st.integers(0, 2**32 - 1),
    parties=st.integers(2, 4),
    n=st.integers(2, 4),
    dense=st.booleans(),
    lead=st.floats(0.0, 1.0),
)


class TestEntriesPath:
    """``validate``, the overlaps and dominance on each state's nonzero entries give
    the dense path's answers."""

    @settings(max_examples=40, deadline=None)
    @BLOCK_ENSEMBLES
    def test_random_block_diagonal_ensembles(self, seed, parties, n, dense, lead):
        e = _random_block_ensemble(seed, parties, n, dense, lead)
        _assert_entries_match_dense(e, pivots=(None, *range(n)))

    @pytest.mark.parametrize("family, params", _family_instances(SMALL_CAP))
    def test_family_instances(self, family, params):
        _assert_entries_match_dense(_family(family, params, SMALL_CAP))


def _unmirrored(value):
    """GHZ-complement (2, 2) with state 0's entry (0, 1) set to ``value`` and (1, 0) kept
    zero: an entry with no mirror."""
    e = ghz_complement_ensemble(2, 2)
    stack = np.array(e.stack)
    stack[0, 0, 1] = value
    return Ensemble(e.parties, e.probs, tuple(MultiPartyOperator(m, e.slots) for m in stack))


#: Every built-in family instance under dimension 1024.
BELOW_1024 = 1023


class TestDominanceOnFormedBlocks:
    """``check_dominant_state`` on each cut's blocks, formed once with one row per
    state, against the oracle that gathers every difference's blocks from dense
    matrices: for every pivot, the same verdicts and minimum eigenvalues, bit for bit."""

    @staticmethod
    def _assert_every_pivot(e):
        for bp in all_bipartitions(e.parties):
            for pivot, want in enumerate(dominance_by_gather_every_pivot(e, bp)):
                got = check_dominant_state(e, bp, pivot=pivot)
                assert (got.passed, got.min_eigenvalues) == (want.passed, want.min_eigenvalues)

    @pytest.mark.parametrize("family, params", _family_instances(BELOW_1024))
    def test_family_instances(self, family, params):
        self._assert_every_pivot(_family(family, params, BELOW_1024))

    def test_coarse_parity(self, parity2212):
        # Slot owners A1 A2 A1 A2 at dim 256, four states.
        self._assert_every_pivot(coarse_ensemble(FoldSpec(parity2212, 2)))


class TestMirrorRule:
    """An entry with no mirror has the defect ``|value|``, under the dense rule."""

    def test_defect_above_the_tolerance_fails(self):
        e = _unmirrored(1e-6)
        diagnostics = validate(e)
        assert diagnostics.checks == validate_by_dense(e).checks
        (failure,) = diagnostics.failures
        assert failure == ("hermitian[0]", False, 1e-6, "state 0 Hermiticity defect 1.000e-06")
        (bp,) = all_bipartitions(e.parties)
        message = r"^operator is not Hermitian \(defect 1\.000e-06\)$"
        for entry in (lambda: check_dominant_state(e, bp), lambda: max_bipartition_bound(e),
                      lambda: pairwise_overlaps(e), lambda: max_pairwise_overlap(e)):
            with pytest.raises(ContractViolationError, match=message):
                entry()
        # The overlaps read the same record first; validate still reports, not raises.
        fresh = _unmirrored(1e-6)
        with pytest.raises(ContractViolationError, match=message):
            pairwise_overlaps(fresh)
        assert validate(fresh).checks == diagnostics.checks

    def test_defect_within_the_tolerance_passes(self):
        e = _unmirrored(1e-14)
        diagnostics = validate(e)
        assert diagnostics.passed
        assert diagnostics.checks == validate_by_dense(e).checks
        assert ("hermitian[0]", True, 1e-14) == diagnostics.checks[2][:3]
        ((defect, (part_keys, part_values)), _) = e._record
        assert defect == 1e-14
        dense = hermitian_part(e.stack[0])
        assert dense[0, 1] == dense[1, 0] == 0.5e-14
        got = np.zeros_like(dense)
        got.reshape(-1)[part_keys] = part_values
        assert got.tobytes() == (dense + 0.0).tobytes()  # + 0.0: no negative zeros
        (bp,) = all_bipartitions(e.parties)
        assert check_dominant_state(e, bp) == dominance_by_gather(e, bp)
        result = max_bipartition_bound(e).results[bp.to_string()]
        assert result.certificate_min_eigs == dominance_by_gather(e, bp).min_eigenvalues
        # The overlaps are those of the Hermitian parts.
        parts = Ensemble(e.parties, e.probs, tuple(MultiPartyOperator(hermitian_part(m), e.slots)
                                                   for m in e.stack))
        assert np.max(np.abs(pairwise_overlaps(e) - overlaps_by_dense_sum(parts))) <= 1e-15


def assert_same_result(got, want):
    """Two discrimination results agree bit for bit, POVM bytes included."""
    for field in ("primal_value", "dual_value", "gap", "certificate_min_eigs", "certified",
                  "iterations", "method"):
        assert getattr(got, field) == getattr(want, field), field
    assert got.povm.tobytes() == want.povm.tobytes()


class TestTransposedEntries:
    """``q_upper`` transposes the keys of each state's checked entries; it gives what
    ``optimal_global`` gives on the stack that the entrywise oracle transposes."""

    @staticmethod
    def _assert_matches_oracle(e, max_iterations=discrimination.DEFAULT_MAX_ITERATIONS):
        for bp in all_bipartitions(e.parties):
            gammas = transposed_by_oracle(e.stack, e.slots, bp.side_a)
            assert_same_result(q_upper(e, bp, max_iterations=max_iterations),
                               optimal_global(e.probs, gammas, max_iterations=max_iterations))

    @settings(max_examples=30, deadline=None)
    @BLOCK_ENSEMBLES
    def test_random_block_ensembles(self, seed, parties, n, dense, lead):
        # Bit equality holds converged or not: the step cap keeps the dense blocks short.
        self._assert_matches_oracle(_random_block_ensemble(seed, parties, n, dense, lead), 50)

    def test_folded_slot_layout(self, ghz22, parity2212):
        # Slot owners A1 A2 A1 A2, at dim 16 and 256.
        self._assert_matches_oracle(coarse_ensemble(FoldSpec(ghz22, 2)))
        self._assert_matches_oracle(coarse_ensemble(FoldSpec(parity2212, 2)))


def _skewed(value):
    """GHZ-complement (2, 2) with ``value`` added to state 0's entry (0, 3), whose
    mirror (3, 0) is nonzero."""
    e = ghz_complement_ensemble(2, 2)
    stack = np.array(e.stack)
    stack[0, 0, 3] += value
    return Ensemble(e.parties, e.probs, tuple(MultiPartyOperator(m, e.slots) for m in stack))


@pytest.mark.parametrize("make", [lambda: _skewed(0.25), lambda: _unmirrored(1e-6)],
                         ids=["mirrored", "unmirrored"])
def test_entry_points_reject_as_the_dense_check(make):
    # The text of the dense check of the transposed state, from every entry point that
    # solves or certifies: the defect does not change under the transpose.
    e = make()
    (bp,) = all_bipartitions(e.parties)
    gammas = transposed_by_oracle(e.stack, e.slots, bp.side_a)
    with pytest.raises(ContractViolationError) as dense:
        _hermitian(gammas[0])
    text = str(dense.value)
    assert text.startswith("operator is not Hermitian (defect ")
    povm = np.broadcast_to(np.eye(e.dim) / e.n, (e.n, e.dim, e.dim))
    for entry in (lambda: q_upper(e, bp), lambda: optimal_global(e.probs, gammas),
                  lambda: check_povm_optimality(e, bp, povm)):
        with pytest.raises(ContractViolationError, match=f"^{re.escape(text)}$"):
            entry()


class TestBlockPath:
    """On every built-in family instance of dimension at most 64, the per-block PSD
    tests agree with the dense ones on what ``validate`` and the scan decide."""

    @pytest.mark.parametrize("family, params", _family_instances(SMALL_CAP))
    def test_validate(self, family, params):
        e = _family(family, params, SMALL_CAP)
        psd = [c for c in validate(e).checks if c.name.startswith("psd")]
        for state, check in zip(e.stack, psd):
            one = hermitian_part(state)[None]
            assert_blocks_match_dense(one, support(one))
            dense = float(np.linalg.eigvalsh(one[0])[0])
            assert check.ok == (dense >= -1e-10)
            assert abs(check.residual - max(0.0, -dense)) <= 1e-12

    @pytest.mark.parametrize("family, params", _family_instances(SMALL_CAP))
    def test_scan(self, family, params):
        e = _family(family, params, SMALL_CAP)
        w, herm = np.asarray(e.probs), hermitian_part(e.stack)
        pivot = int(np.argmax(w))
        for bp in all_bipartitions(e.parties):
            gammas = transposed_by_oracle(herm, e.slots, bp.side_a)
            # The pattern of the transposed stack is the transposed pattern.
            pattern = transposed_by_oracle(support(herm)[None], e.slots, bp.side_a)[0]
            assert np.array_equal(pattern, support(gammas))
            diffs = w[pivot] * gammas[pivot] - w[:, None, None] * gammas
            assert_blocks_match_dense(np.delete(diffs, pivot, axis=0), pattern)


class TestBlockScaling:
    """No eigensolve of ``validate`` and the scan sees a matrix larger than the
    largest block of the states' joint pattern, and neither makes a Cholesky factor."""

    @staticmethod
    def _largest_eigen_dim(monkeypatch, e):
        seen, factored = [0], []
        real_eigvalsh, real_cholesky = np.linalg.eigvalsh, np.linalg.cholesky

        # tensor, ensembles and discrimination all call these through np.linalg.
        def eigvalsh(a, *args, **kwargs):
            seen[0] = max(seen[0], np.shape(a)[-1])
            return real_eigvalsh(a, *args, **kwargs)

        def cholesky(a, *args, **kwargs):
            factored.append(np.shape(a))
            return real_cholesky(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        monkeypatch.setattr(np.linalg, "cholesky", cholesky)
        validate(e)
        scan = max_bipartition_bound(e)
        monkeypatch.undo()
        assert not scan.failures
        assert factored == []
        return seen[0], scan

    def test_ghz_complement_2_10(self, monkeypatch):
        e = ghz_complement_ensemble(2, 10, cap=1024)
        largest, scan = self._largest_eigen_dim(monkeypatch, e)
        assert len(scan.results) == 511
        assert largest <= 2

    def test_parity_2_2_5_1(self, monkeypatch):
        e = parity_block_ensemble(ParityBlockParams(2, 2, 5, 1), cap=1024)
        largest, scan = self._largest_eigen_dim(monkeypatch, e)
        assert [r.method for r in scan.results.values()] == ["dominance"]
        assert largest <= 32

    def test_dense_random_pair_is_one_block(self, monkeypatch):
        # Every entry nonzero: one block, today's call on the whole matrix.
        rng = np.random.default_rng(4)
        lead = 0.9 * np.eye(16) / 16 + 0.1 * random_density(rng, 16)
        states = tuple(MultiPartyOperator(hermitian_part(m), SlotStructure((4, 4), ("A1", "A2")))
                       for m in (lead, random_density(rng, 16)))
        e = Ensemble(PartySet.of_size(2), (0.999, 0.001), states)
        assert support(e.stack).all()
        largest, scan = self._largest_eigen_dim(monkeypatch, e)
        assert [r.method for r in scan.results.values()] == ["dominance"]
        assert largest == e.dim


class TestGuessingFloor:
    def test_sandwich_against_solver(self, ghz22, ghz23):
        for e in (ghz22, ghz23):
            for bp in all_bipartitions(e.parties):
                result = q_upper(e, bp)
                # Always guessing the heaviest member achieves the largest prior.
                assert max(e.probs) - 1e-8 <= result.primal_value
                assert result.primal_value <= result.dual_value + 1e-12


class TestProductBasisStrategy:
    def test_computational_strategy_meets_bound(self, ghz22):
        bases = {p: np.eye(2, dtype=complex) for p in ghz22.parties.labels}
        value = product_basis_strategy_value(
            ghz22, bases, lambda outcome: 0
        )
        assert value == pytest.approx(0.75, abs=1e-12)
        # Deciding "GHZ" on equal outcomes achieves the same optimum.
        value_eq = product_basis_strategy_value(
            ghz22, bases, lambda o: 1 if o[0] == o[1] else 0
        )
        assert value_eq == pytest.approx(0.75, abs=1e-12)

    def test_constant_guesses(self, ghz22):
        bases = {p: np.eye(2, dtype=complex) for p in ghz22.parties.labels}
        always_heavy = product_basis_strategy_value(ghz22, bases, lambda o: 0)
        always_light = product_basis_strategy_value(ghz22, bases, lambda o: 1)
        assert always_heavy == pytest.approx(0.75, abs=1e-12)
        assert always_light == pytest.approx(0.25, abs=1e-12)

    def test_value_never_exceeds_transpose_bound(self, ghz23):
        rng = np.random.default_rng(8)
        bases = {}
        for p in ghz23.parties.labels:
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            q, _ = np.linalg.qr(g)
            bases[p] = q
        value = product_basis_strategy_value(ghz23, bases, lambda o: int(sum(o) % 2))
        for bp in all_bipartitions(ghz23.parties):
            assert value <= q_upper(ghz23, bp).dual_value + 1e-9

    def test_interleaved_party_slots(self):
        # Fold-style slot order A1 A2 A1 A2: computational product projectors
        # must hit the matching diagonal entries.
        slots = SlotStructure((2, 2, 2, 2), ("A1", "A2", "A1", "A2"))
        diag = np.zeros(16)
        diag[0b0000] = 0.5  # A1 sees 00, A2 sees 00
        diag[0b0111] = 0.5  # slots (A1,A2,A1,A2) = 0,1,1,1
        state_a = MultiPartyOperator(np.diag(diag).astype(complex), slots)
        state_b = MultiPartyOperator(
            np.diag(np.ones(16) / 16).astype(complex), slots
        )
        e = Ensemble(PartySet.of_size(2), (0.5, 0.5), (state_a, state_b))
        bases = {p: np.eye(4, dtype=complex) for p in ("A1", "A2")}

        # outcome = (A1 index over its two slots, A2 index over its two slots);
        # basis index 0b01 for A1 and 0b11 for A2 addresses diagonal 0b0111.
        def decide(outcome):
            return 0 if outcome in ((0, 0), (1, 3)) else 1

        value = product_basis_strategy_value(e, bases, decide)
        expected = 0.5 * (0.5 + 0.5) + 0.5 * (14 / 16)
        assert value == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("decide", [lambda o: sum(o), lambda o: o[0] * 7 + o[-1]],
                             ids=["sum", "first-last"])
    @pytest.mark.parametrize("family", ["ghz23", "ghz32", "coarse22", "parity2212"])
    def test_matches_per_outcome_vectors(self, request, family, decide):
        # The replaced per-outcome assembly, bit for bit, on random unitary bases;
        # coarse22 has the folded slot order A1 A2 A1 A2.
        if family == "coarse22":
            e = coarse_ensemble(FoldSpec(request.getfixturevalue("ghz22"), 2))
        else:
            e = request.getfixturevalue(family)
        rng = np.random.default_rng(23)
        for _ in range(3):
            bases = {}
            for p in e.parties.labels:
                d = e.slots.local_dim(p)
                bases[p], _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))

            def rule(outcome):
                return decide(outcome) % e.n

            expected = product_basis_value_by_outcome(e, bases, rule)
            assert product_basis_strategy_value(e, bases, rule) == expected

    def test_rejects_non_orthonormal_basis(self, ghz22):
        bases = {p: np.ones((2, 2), dtype=complex) for p in ghz22.parties.labels}
        with pytest.raises(ValueError, match="orthonormal"):
            product_basis_strategy_value(ghz22, bases, lambda o: 0)


class TestCertificateConsistency:
    def test_converged_results_pass_optimality_check(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            probs = rng.random(n)
            probs /= probs.sum()
            states = tuple(
                MultiPartyOperator(random_density(rng, 4), PAIR) for _ in range(n)
            )
            e = pair_ensemble(states, tuple(probs))
            (bp,) = all_bipartitions(e.parties)
            result = q_upper(e, bp, tol=1e-8)
            assert result.certified
            check = check_povm_optimality(e, bp, result.povm, tol=1e-7)
            assert check.passed


class TestStackedSolver:
    """The factored, accelerated solver against the damped element iteration, run
    member by member to its certified value."""

    @staticmethod
    def _assert_matches_member_loop(w, mats, max_iterations):
        want_povm, _, want_ok = fixed_point_by_members(w, list(mats), 1e-8, 100_000)
        assert want_ok
        _, want_q, _ = certificate_by_members(w, list(mats), want_povm)
        # A dense problem is one stack of one block.
        result, (povm,) = _solve(w, [mats[:, None]], 1e-8, max_iterations, closed=False)
        povm, ok = povm[0], result.certified
        certificate = (result.primal_value, result.dual_value, result.certificate_min_eigs)
        # The returned certificate is the one of the returned POVM.
        assert certificate == _certificate(w, mats, povm)
        primal, dual, _ = certificate
        assert primal <= dual
        assert_valid_povm(povm)
        if ok:
            assert dual - primal <= 1e-8
            assert abs(dual - want_q) <= 1e-8
        else:
            # Cut short, the dual still bounds the optimum from above and a
            # measurement achieves the primal.
            assert max_iterations < 100_000
            assert primal <= want_q + 1e-8
            assert dual >= want_q - 1e-8

    @pytest.mark.parametrize("max_iterations", [100_000, 10, 37])
    @pytest.mark.parametrize("dim", [4, 9, 16])
    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_matches_member_loop(self, n, dim, max_iterations):
        # The budgets of 10 and 37 end off the check grid, on the last-step branch.
        rng = np.random.default_rng([0, n, dim])
        mats = np.stack([random_density(rng, dim) for _ in range(n)])
        w = rng.dirichlet(np.ones(n))
        self._assert_matches_member_loop(w, mats, max_iterations)

    @pytest.mark.parametrize("k", range(len(SWEEP)))
    def test_sweep_matches_member_loop(self, k):
        w, states = SWEEP[k]
        self._assert_matches_member_loop(w, states, 100_000)


class TestWeakDuality:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6), dim=st.integers(1, 6))
    def test_dual_bounds_every_feasible_povm(self, seed, n, dim):
        # The dual certified from one POVM P bounds the value of any other
        # POVM Q, because the lifted operator behind it is dual feasible.
        rng = np.random.default_rng(seed)
        w = rng.dirichlet(np.ones(n))
        mats = np.stack([random_hermitian(rng, dim) for _ in range(n)])
        p = np.stack(random_povm(rng, n, dim))
        q = random_povm(rng, n, dim)
        _, dual, residuals = _certificate(w, mats, p)
        assert dual >= povm_value(w, mats, q) - 1e-10
        # The dual is the smaller trace of two feasible operators built on the
        # weighted average Y0: Y0 lifted by the identity, and Y0 plus the positive
        # parts of every w_i A_i - Y0.
        avg = hermitian_part(sum(wi * (a @ m) for wi, a, m in zip(w, mats, p)))
        lifted = avg + max(0.0, -min(residuals)) * np.eye(dim)
        raised = avg + sum(positive_part(wi * a - avg) for wi, a in zip(w, mats))
        for dual_op in (lifted, raised):
            assert dual_feasibility_margin(dual_op, w, mats) >= -1e-10
        assert dual == pytest.approx(min(np.trace(lifted).real, np.trace(raised).real),
                                     abs=1e-10)


def _permuted_block_problem(seed, n, sizes):
    """Priors and ``n`` random states, block diagonal on runs of ``sizes`` under one
    random permutation shared by all, each block a random density of random weight
    with every entry nonzero: the blocks of the joint pattern are exactly the runs."""
    rng = np.random.default_rng(seed)
    dim = sum(sizes)
    order = rng.permutation(dim)
    mats = np.zeros((n, dim, dim), dtype=np.complex128)
    start = 0
    for size in sizes:
        index = np.sort(order[start:start + size])
        start += size
        for matrix in mats:
            matrix[np.ix_(index, index)] = random_density(rng, size) * rng.uniform(0.1, 1.0)
    mats /= np.trace(mats, axis1=1, axis2=2).real[:, None, None]
    return rng.dirichlet(np.ones(n)), hermitian_part(mats)


#: Mixed block sizes with some 1x1 blocks, equal sizes, and one dense block of all.
BLOCK_CASES = [
    (0, 3, (1, 1, 1, 4, 4, 8)),
    (1, 4, (1, 2, 2, 3, 5, 16)),
    (2, 5, (1, 1, 3, 6, 9)),
    (3, 3, (2, 2, 2, 2, 2, 2)),
    (4, 4, (1,) * 8 + (24,)),
    (7, 5, (1, 3, 4, 4, 12, 40)),
    (8, 5, (1, 1, 2, 4, 8, 16, 32)),
    (6, 3, (32,)),
]


class TestBlockSolver:
    """The solver on the diagonal blocks of the pattern against the dense references."""

    @pytest.mark.parametrize("seed, n, sizes", BLOCK_CASES)
    def test_matches_the_dense_reference(self, seed, n, sizes):
        w, mats = _permuted_block_problem(seed, n, sizes)
        groups = _components(len(mats[0]), [np.nonzero(support(mats))])
        assert sorted(size for g in groups for size in [g.shape[1]] * len(g)) == sorted(sizes)
        result = optimal_global(w, mats)
        assert result.certified
        assert 0 <= result.gap <= 1e-8
        assert_valid_povm(result.povm)
        want_povm, _, want_ok = fixed_point_by_members(w, list(mats), 1e-8, 100_000)
        assert want_ok
        _, want_q, _ = certificate_by_members(w, list(mats), want_povm)
        assert abs(result.dual_value - want_q) <= 1e-8

    @pytest.mark.parametrize("seed, n, sizes", BLOCK_CASES)
    def test_assembled_dual_is_feasible(self, seed, n, sizes):
        # Per block, the smaller of Y0 lifted by the identity and Y0 plus the positive
        # parts of every w_i A_i - Y0; their block diagonal sum is the reported dual.
        w, mats = _permuted_block_problem(seed, n, sizes)
        result = optimal_global(w, mats)
        dim = mats.shape[-1]
        dual_op = np.zeros((dim, dim), dtype=np.complex128)
        for group in _components(dim, [np.nonzero(support(mats))]):
            for index in group:
                block = np.ix_(index, index)
                a = mats[(slice(None), *block)]
                avg = hermitian_part(sum(wi * (ai @ mi) for wi, ai, mi
                                         in zip(w, a, result.povm[(slice(None), *block)])))
                lift = -min(np.linalg.eigvalsh(avg - wi * ai)[0] for wi, ai in zip(w, a))
                lifted = avg + max(0.0, lift) * np.eye(len(index))
                raised = avg + sum(positive_part(wi * ai - avg) for wi, ai in zip(w, a))
                dual_op[block] = min(lifted, raised, key=lambda y: np.trace(y).real)
        assert dual_feasibility_margin(dual_op, w, mats) >= -1e-8
        assert np.trace(dual_op).real == pytest.approx(result.dual_value, abs=1e-10)
        other = random_povm(np.random.default_rng(seed), n, dim)
        assert np.trace(dual_op).real >= povm_value(w, mats, other)

    def test_coarse_parity_matches_the_dense_solve(self):
        e = coarse_ensemble(FoldSpec(parity_block_ensemble(ParityBlockParams(2, 2, 1, 2)), 2))
        (bp,) = all_bipartitions(e.parties)
        result = max_bipartition_bound(e).results[bp.to_string()]
        assert (result.method, result.certified, result.povm) == ("iterative", True, None)
        gammas = transposed_by_oracle(hermitian_part(e.stack), e.slots, bp.side_a)
        assert max(g.shape[1] for g in _components(e.dim, [np.nonzero(support(gammas))])) <= 16
        _, _, ok, (_, dual, _) = fixed_point_dense(np.asarray(e.probs), gammas, 1e-8, 100_000)
        assert ok
        assert abs(result.dual_value - dual) <= 1e-8

    @pytest.mark.parametrize("k", range(0, len(SWEEP), 3))
    def test_one_block_keeps_the_dense_steps(self, k):
        # The solver works on the Hermitian parts; an outer product need not be one
        # to the last bit.
        w, mats = SWEEP[k]
        povm, iterations, ok, (primal, dual, residuals) = fixed_point_dense(
            w, hermitian_part(mats), 1e-8, 100_000)
        result = optimal_global(w, mats, method="iterative")
        assert (result.iterations, result.certified) == (iterations, ok)
        assert abs(result.primal_value - primal) <= 1e-12
        assert abs(result.dual_value - dual) <= 1e-12
        assert np.max(np.abs(np.subtract(result.certificate_min_eigs, residuals))) <= 1e-12
        assert np.max(np.abs(result.povm - povm)) <= 1e-12


def weyl_bell_ensemble(k):
    """File ``k`` of the check-solver benchmark: 8 of the 16 two-ququart Weyl-Bell
    states ``(1 x X^a Z^b)|Phi>``, chosen with Dirichlet priors from seed ``k``.
    Dominance fails on its cut, which splits into four 4x4 blocks."""
    d = 4
    phi = np.eye(d).reshape(-1) / np.sqrt(d)
    shift = np.roll(np.eye(d), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    vecs = [np.kron(np.eye(d), np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b))
            @ phi for a in range(d) for b in range(d)]
    rng = np.random.default_rng(k)
    chosen = np.sort(rng.choice(d * d, size=8, replace=False))
    priors = tuple(float(p) for p in rng.dirichlet(np.ones(8)))
    slots = SlotStructure((d, d), ("A1", "A2"))
    return Ensemble(PartySet.of_size(2), priors,
                    tuple(MultiPartyOperator(ket(vecs[i]), slots) for i in chosen))


class TestSquaredExtrapolation:
    """The solver with squared extrapolation against the iteration it replaced, which
    jumped every 25 steps to the best of five step sizes: every result certified, its
    dual within twice the tolerance of the reference's, and its map evaluations never
    more than the reference's steps."""

    @staticmethod
    def _assert_no_worse(w, mats, result):
        _, steps, ok, (_, dual, _) = fixed_point_extrapolated(w, mats, 1e-8, 100_000)
        assert ok and result.certified
        assert abs(result.dual_value - dual) <= 2e-8
        assert result.iterations <= steps

    @pytest.mark.parametrize("k", range(len(SWEEP)))
    def test_sweep(self, k):
        w, mats = SWEEP[k]
        self._assert_no_worse(w, hermitian_part(mats),
                              optimal_global(w, mats, method="iterative"))

    @pytest.mark.parametrize("k", range(20))
    def test_weyl_bell_cuts(self, k):
        e = weyl_bell_ensemble(k)
        (bp,) = all_bipartitions(e.parties)
        result = max_bipartition_bound(e).results[bp.to_string()]
        assert result.method == "iterative"
        gammas = transposed_by_oracle(hermitian_part(e.stack), e.slots, bp.side_a)
        self._assert_no_worse(np.asarray(e.probs), gammas, result)

    @pytest.mark.parametrize("max_iterations", range(9))
    @pytest.mark.parametrize("problem", [SWEEP[0], SWEEP[20], SWEEP[40],
                                         _permuted_block_problem(*BLOCK_CASES[3]),
                                         _permuted_block_problem(*BLOCK_CASES[1])],
                             ids=["pure", "noisy", "mixed", "blocks", "unit-blocks"])
    def test_budget_caps_the_map_evaluations(self, problem, max_iterations):
        # A budget that ends inside a cycle is certified on its last map value, and a
        # closed-form 1x1 block takes no map evaluation, so budget 0 reports 0.
        w, mats = problem
        result = optimal_global(w, mats, method="iterative", max_iterations=max_iterations)
        assert result.iterations <= max_iterations
        assert result.dual_value >= result.primal_value
        assert_valid_povm(result.povm)


def assert_scan_matches_every_cut(e, tol=DEFAULT_SOLVER_TOL):
    """The scan, which decides one cut per orbit of the ensemble's party symmetries,
    against every cut decided on its own: the same dominance verdict and ``method`` on
    every cut, a dominance q bit for bit, and a solver's q within the tolerance (an
    orbit member's blocks come in another order than its representative's)."""
    scan = max_bipartition_bound(e, tol=tol)
    want = scan_by_cut(e, tol)
    assert not scan.failures and scan.results.keys() == want.keys()
    for key, (method, q) in want.items():
        got = scan.results[key]
        assert got.method == method, key
        if method == "dominance":
            assert got.dual_value == q
        else:
            assert got.certified and got.dual_value == pytest.approx(q, abs=tol)


def _classes_as_sets(e):
    classes = e._party_classes
    return {frozenset(p for p in classes if classes[p] == k) for k in classes.values()}


def _spy(monkeypatch, module, name):
    """Record the arguments of every call of ``module.name``, which still runs."""
    calls, real = [], getattr(module, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, spy)
    return calls


# Layouts with the disjoint party swaps that make random states symmetric: three qubits
# in A1 and A2; four qubits in A1 and A3, and in A2 and A4; and A1 and A2 each owning a
# qubit then a qutrit, folded apart, beside A3's qubit.
PARTIAL_SYMMETRIES = [
    (SlotStructure((2, 2, 2), ("A1", "A2", "A3")), [("A1", "A2")]),
    (SlotStructure((2, 2, 2, 2), ("A1", "A2", "A3", "A4")), [("A1", "A3"), ("A2", "A4")]),
    (SlotStructure((2, 2, 3, 3, 2), ("A1", "A2", "A1", "A2", "A3")), [("A1", "A2")]),
]


class TestSymmetryOrbits:
    """The scan decides one cut per orbit of the parties' detected symmetries and gives
    every other cut of the orbit that result under its own name."""

    @pytest.mark.parametrize("family, params", _family_instances(1023))
    def test_family_instances(self, family, params):
        e = _family(family, params, 1023)
        assert_scan_matches_every_cut(e)
        if len(e.parties) > 2:
            assert _classes_as_sets(e) == party_classes_by_search(e) == {
                frozenset(e.parties.labels)}

    @pytest.mark.parametrize("family, params, L", [
        ("ghz", (2, 3), 2), ("ghz", (2, 4), 2), ("ghz", (3, 3), 1), ("parity", (2, 3, 1, 1), 2)])
    def test_folded(self, family, params, L):
        # Each party owns L slots, one per preparation, that are not adjacent.
        e = coarse_ensemble(FoldSpec(_family(family, params, 64), L))
        assert len(e.slots.slots_of("A1")) == L
        assert _classes_as_sets(e) == party_classes_by_search(e) == {frozenset(e.parties.labels)}
        assert_scan_matches_every_cut(e)

    @pytest.mark.parametrize("lead", [0.0, 0.9])
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("layout", range(len(PARTIAL_SYMMETRIES)))
    def test_partially_symmetric(self, monkeypatch, layout, n, lead):
        slots, swaps = PARTIAL_SYMMETRIES[layout]
        e = swap_symmetric_ensemble(layout, slots, swaps, n, lead)
        classes = party_classes_by_search(e)
        swapped = {p for swap in swaps for p in swap}
        assert classes == ({frozenset(swap) for swap in swaps}
                           | {frozenset([p]) for p in e.parties.labels if p not in swapped})
        assert _classes_as_sets(e) == classes
        formed = _spy(monkeypatch, discrimination, "_cut_blocks")
        max_bipartition_bound(e)
        cuts = [p for p in brute_force_partitions(e.parties.labels) if len(p) == 2]
        assert len(formed) == orbit_count(e.parties.labels, classes, cuts) < len(cuts)
        assert_scan_matches_every_cut(e)

    def test_an_entry_off_the_symmetry_scans_every_cut(self, monkeypatch):
        # GHZ-complement (3,3) is symmetric under every swap of two parties; a change of
        # the diagonal entry at |012>, whose digits all differ, breaks every swap.
        formed = _spy(monkeypatch, discrimination, "_cut_blocks")
        max_bipartition_bound(ghz_complement_ensemble(3, 3))
        assert len(formed) == 1
        base = ghz_complement_ensemble(3, 3)
        stack = base.stack.copy()
        stack[1, 5, 5] += 1e-3
        e = Ensemble(base.parties, base.probs,
                     tuple(MultiPartyOperator(m, base.slots) for m in stack))
        formed.clear()
        scan = max_bipartition_bound(e)
        assert len(formed) == len(scan.results) == 3
        assert _classes_as_sets(e) == party_classes_by_search(e) == {
            frozenset([p]) for p in e.parties.labels}
        assert_scan_matches_every_cut(e)

    def test_two_parties_test_no_swap(self, monkeypatch):
        tested = _spy(monkeypatch, tensor_module, "_swap_invariant")
        e = ghz_complement_ensemble(2, 2)  # symmetric, but with one cut
        max_bipartition_bound(e)
        assert tested == [] and e._party_classes == {"A1": 0, "A2": 1}
        # Three parties: two swaps pass, and the third pair is joined already.
        e = ghz_complement_ensemble(2, 3)
        max_bipartition_bound(e)
        assert [args[2:] for args in tested] == [("A1", "A2"), ("A1", "A3")]

    def test_classes_are_formed_once(self, monkeypatch):
        tested = _spy(monkeypatch, tensor_module, "_swap_invariant")
        e = ghz_complement_ensemble(2, 4)
        max_bipartition_bound(e)
        max_bipartition_bound(e)
        assert len(tested) == 3

    def test_a_failure_is_shared_by_its_orbit(self, monkeypatch):
        # The first cut, A1|A2A3A4, raises; its orbit is every cut with one party on a
        # side, and each of them carries the failure under its own name.
        real, calls = discrimination._dominance, []

        def failing_first(*args):
            calls.append(1)
            if len(calls) == 1:
                raise np.linalg.LinAlgError("no convergence")
            return real(*args)

        monkeypatch.setattr(discrimination, "_dominance", failing_first)
        scan = max_bipartition_bound(ghz_complement_ensemble(2, 4))
        assert len(calls) == 2
        assert list(scan.failures) == ["A1|A2A3A4", "A1A2A3|A4", "A1A2A4|A3", "A1A3A4|A2"]
        assert set(scan.failures.values()) == {"no convergence"}
        assert list(scan.results) == ["A1A2|A3A4", "A1A3|A2A4", "A1A4|A2A3"]
        assert len({id(r) for r in scan.results.values()}) == 1
