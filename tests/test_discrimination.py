import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlhide import (
    Bipartition,
    ContractViolationError,
    Ensemble,
    MultiPartyOperator,
    PartySet,
    Povm,
    SlotStructure,
    all_bipartitions,
    check_dominant_state,
    check_povm_optimality,
    ghz_state,
    identity,
    max_bipartition_bound,
    optimal_global,
    partial_transpose,
    product_basis_strategy_value,
    q_upper,
    zero,
)

from nlhide import discrimination
from nlhide.discrimination import _certificate, _fixed_point_iteration
from nlhide.tensor import hermitian_part

from oracles import (
    certificate_by_members,
    dual_feasibility_margin,
    fixed_point_by_members,
    povm_value,
    random_density,
    random_hermitian,
    random_povm,
)

QUBIT = SlotStructure((2,), ("A1",))
PAIR = SlotStructure((2, 2), ("A1", "A2"))


def projector(vec, slots=QUBIT):
    vec = np.asarray(vec, dtype=complex)
    return MultiPartyOperator(np.outer(vec, vec.conj()), slots)


def pair_ensemble(states, probs):
    return Ensemble(PartySet.of_size(2), probs, tuple(states))


KET0 = (1.0, 0.0)
KET1 = (0.0, 1.0)
KET_PLUS = (1 / math.sqrt(2), 1 / math.sqrt(2))

HELSTROM_0_PLUS = 0.5 + math.sqrt(2) / 4  # half overlap-gap above fair coin


class TestOptimalGlobal:
    def test_orthogonal_pure_states(self):
        result = optimal_global([0.5, 0.5], [projector(KET0), projector(KET1)])
        assert result.primal_value == pytest.approx(1.0, abs=1e-12)
        assert result.gap <= 1e-12
        assert result.certified

    def test_overlapping_pure_states_closed_form(self):
        result = optimal_global([0.5, 0.5], [projector(KET0), projector(KET_PLUS)])
        assert result.primal_value == pytest.approx(HELSTROM_0_PLUS, abs=1e-12)
        # cross-check: value = w1 Tr(B) + positive spectrum of (w0 A - w1 B)
        delta = 0.5 * projector(KET0).matrix - 0.5 * projector(KET_PLUS).matrix
        vals = np.linalg.eigvalsh(delta)
        assert result.primal_value == pytest.approx(0.5 + vals[vals > 0].sum(), abs=1e-12)

    def test_trine_states_sandwich(self):
        # Symmetric qubit trine: value 2/3 certified by an explicit POVM
        # achieving it and an explicit feasible dual of the same trace.
        kets = [
            (math.cos(math.pi * k / 3), math.sin(math.pi * k / 3)) for k in range(3)
        ]
        states = [projector(k) for k in kets]
        weights = [1 / 3] * 3
        srm = [(2 / 3) * s.matrix for s in states]
        achieved = povm_value(weights, [s.matrix for s in states], srm)
        assert achieved == pytest.approx(2 / 3, abs=1e-12)
        dual_op = np.eye(2) / 3
        assert dual_feasibility_margin(dual_op, weights, [s.matrix for s in states]) >= -1e-12
        assert np.trace(dual_op).real == pytest.approx(2 / 3, abs=1e-15)

        result = optimal_global(weights, states)
        assert result.certified
        assert result.gap <= 1e-8
        assert result.primal_value == pytest.approx(2 / 3, abs=1e-8)
        assert result.povm.is_valid()

    def test_iterative_matches_closed_for_two_states(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            states = [
                MultiPartyOperator(random_density(rng, 4), PAIR) for _ in range(2)
            ]
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
        states = [MultiPartyOperator(random_density(rng, 4), PAIR) for _ in range(3)]
        result = optimal_global([1 / 3] * 3, states, max_iterations=10)
        assert not result.certified
        assert result.gap > 0
        assert result.dual_value >= result.primal_value

    def test_zero_budget_certifies_the_uniform_start(self):
        # No step runs, so no certificate comes out of the loop.
        rng = np.random.default_rng(4)
        states = [MultiPartyOperator(random_density(rng, 4), PAIR) for _ in range(3)]
        result = optimal_global([1 / 3] * 3, states, max_iterations=0)
        assert (result.iterations, result.certified) == (0, False)
        assert result.primal_value == pytest.approx(1 / 3, abs=1e-14)
        assert result.dual_value >= result.primal_value
        for el in result.povm.elements:
            assert np.array_equal(el.matrix, np.eye(4) / 3)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="nonnegative"):
            optimal_global([-0.1, 1.1], [projector(KET0), projector(KET1)])
        with pytest.raises(ValueError, match="slot structure"):
            optimal_global(
                [0.5, 0.5], [projector(KET0), identity(PAIR)]
            )
        with pytest.raises(ValueError, match="closed form"):
            optimal_global(
                [1 / 3] * 3,
                [projector(KET0), projector(KET1), projector(KET_PLUS)],
                method="closed",
            )
        with pytest.raises(ValueError, match="tolerance"):
            optimal_global([0.5, 0.5], [projector(KET0), projector(KET1)], tol=0)
        skew = MultiPartyOperator(np.array([[0, 1], [0, 0]], dtype=complex), QUBIT)
        with pytest.raises(ContractViolationError):
            optimal_global([0.5, 0.5], [skew, projector(KET0)])


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
        povm = Povm((identity(ghz22.slots), zero(ghz22.slots)))
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
        povm = Povm(
            (
                MultiPartyOperator(m0, PAIR),
                MultiPartyOperator(np.eye(4) - m0, PAIR),
            )
        )
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
        povm = Povm((identity(slots), zero(slots)))
        check = check_povm_optimality(e, bp, povm)
        assert not check.passed
        assert min(check.residuals) == pytest.approx(-math.sqrt(2) / 4, abs=1e-12)

    def test_slot_mismatch_rejected(self, ghz22):
        (bp,) = all_bipartitions(ghz22.parties)
        povm = Povm((identity(QUBIT), zero(QUBIT)))
        with pytest.raises(ValueError, match="slot structure"):
            check_povm_optimality(ghz22, bp, povm)


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

    def test_one_transpose_per_state_and_cut(self, monkeypatch):
        rng = np.random.default_rng(5)
        slots = SlotStructure((2, 2, 2), ("A1", "A2", "A3"))
        states = tuple(MultiPartyOperator(random_density(rng, 8), slots) for _ in range(3))
        e = Ensemble(PartySet.of_size(3), (0.5, 0.3, 0.2), states)
        calls = []

        def counting_transpose(op, side):
            calls.append(side)
            return partial_transpose(op, side)

        monkeypatch.setattr(discrimination, "partial_transpose", counting_transpose)
        scan = max_bipartition_bound(e)
        # Dominance fails on every cut, so the solver reuses the transposed states.
        assert [r.method for r in scan.results.values()] == ["iterative"] * 3
        assert len(calls) == e.n * 3


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
    """The stacked solver against the member-by-member loop it replaced."""

    @pytest.mark.parametrize("max_iterations", [100_000, 10, 37])
    @pytest.mark.parametrize("dim", [4, 9, 16])
    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_matches_member_loop(self, n, dim, max_iterations):
        # These instances certify after 50 to 625 steps, so the budgets of 10
        # and 37 run out; both end off the check grid, on the last-step branch.
        rng = np.random.default_rng([0, n, dim])
        mats = np.stack([random_density(rng, dim) for _ in range(n)])
        w = rng.dirichlet(np.ones(n))
        want_povm, want_iter, want_ok = fixed_point_by_members(
            w, list(mats), 1e-8, max_iterations
        )
        povm, iterations, ok, certificate = _fixed_point_iteration(
            w, mats, 1e-8, max_iterations
        )
        assert (iterations, ok) == (want_iter, want_ok)
        assert ok == (max_iterations == 100_000)
        # The returned certificate is the one of the returned POVM.
        assert certificate == _certificate(w, mats, povm)
        primal, dual, residuals = certificate
        want_primal, want_dual, want_residuals = certificate_by_members(
            w, list(mats), want_povm
        )
        assert abs(primal - want_primal) <= 1e-12
        assert abs(dual - want_dual) <= 1e-12
        assert np.max(np.abs(np.subtract(residuals, want_residuals))) <= 1e-12
        assert np.max(np.abs(povm - np.stack(want_povm))) <= 1e-10


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
        lift = max(0.0, -min(residuals))
        dual_op = hermitian_part(sum(wi * (a @ m) for wi, a, m in zip(w, mats, p)))
        dual_op = dual_op + lift * np.eye(dim)
        assert np.trace(dual_op).real == pytest.approx(dual, abs=1e-10)
        assert dual_feasibility_margin(dual_op, w, mats) >= -1e-10
