import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlhide import (
    DegenerateClassError,
    Ensemble,
    FoldSpec,
    MultiPartyOperator,
    PartySet,
    SlotStructure,
    all_bipartitions,
    coarse_ensemble,
    exact_two_state_curve,
    fold_bound,
    fold_probs,
    max_pairwise_overlap,
    mod_sum,
    q_upper,
    uniform_coarse_ensemble,
)

from nlhide import folding
from nlhide.ensembles import ORTHOGONALITY_TOL, save_ensemble, validate

from oracles import (
    brute_force_fold_probs,
    coarse_by_enumeration,
    dft_fold_probs,
    fold_probs_by_roll,
    random_density,
)


def computational_pair(probs=(0.5, 0.5)):
    slots = SlotStructure((2, 1), ("A1", "A2"))
    states = tuple(
        MultiPartyOperator(np.diag([1.0 - b, float(b)]).astype(complex), slots)
        for b in (0, 1)
    )
    return Ensemble(PartySet.of_size(2), probs, states)


class TestModSum:
    def test_examples(self):
        assert mod_sum((1, 1, 1), 2) == 1
        assert mod_sum((1, 2, 2), 3) == 2
        assert mod_sum((), 4) == 0

    def test_entry_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            mod_sum((0, 3), 3)


class TestFoldProbs:
    def test_two_folds(self):
        np.testing.assert_allclose(fold_probs((0.75, 0.25), 2, 2), [0.625, 0.375])

    def test_three_folds(self):
        got = fold_probs((0.75, 0.25), 2, 3)
        np.testing.assert_allclose(got, [0.5625, 0.4375])
        # agrees with the closed-form dominant-class value
        assert got[0] == pytest.approx(0.5 + 0.5 * 0.5**3)

    def test_uniform_fixed_point(self):
        for n in (2, 3, 5):
            got = fold_probs((1.0 / n,) * n, n, 7)
            np.testing.assert_allclose(got, [1.0 / n] * n, atol=1e-14)

    @pytest.mark.parametrize("n,L", [(2, 6), (3, 4), (4, 5)])
    def test_matches_enumeration_oracle(self, n, L):
        rng = np.random.default_rng(n * 10 + L)
        probs = rng.random(n)
        probs /= probs.sum()
        got = fold_probs(probs, n, L)
        np.testing.assert_allclose(got, brute_force_fold_probs(probs, n, L), atol=1e-13)
        assert got.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n,L", [(2, 9), (3, 7), (5, 11)])
    def test_matches_character_sum_oracle(self, n, L):
        rng = np.random.default_rng(n + L)
        probs = rng.random(n)
        probs /= probs.sum()
        np.testing.assert_allclose(
            fold_probs(probs, n, L), dft_fold_probs(probs, n, L), atol=1e-12
        )

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8), L=st.integers(0, 40),
           zeros=st.integers(0, 7))
    def test_matches_roll_loop_exactly(self, seed, n, L, zeros):
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.ones(n))
        probs[rng.permutation(n)[:min(zeros, n - 1)]] = 0.0
        probs /= probs.sum()
        np.testing.assert_array_equal(fold_probs(probs, n, L), fold_probs_by_roll(probs, n, L))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="expected 3"):
            fold_probs((0.5, 0.5), 3, 2)

    @pytest.mark.parametrize("L, message", [
        (2.5, "an integer"), (2.0, "an integer"), (True, "an integer"), (-1, ">= 0"),
    ], ids=["2.5", "2.0", "bool", "-1"])
    def test_rejects_a_bad_fold_count(self, L, message):
        # 2.5 raised a TypeError from inside the convolution, and True read as 1.
        with pytest.raises(ValueError, match=rf"^fold count must be {message}"):
            fold_probs((0.75, 0.25), 2, L)

    @pytest.mark.parametrize("L", [np.int64(0), np.int64(3), np.uint8(3)],
                             ids=["int64-0", "int64", "uint8"])
    def test_takes_numpy_integers(self, L):
        want = fold_probs((0.75, 0.25), 2, int(L))
        assert np.array_equal(fold_probs((0.75, 0.25), 2, L), want)


class TestCoarseEnsemble:
    def test_single_fold_is_identity(self, ghz22):
        coarse = coarse_ensemble(FoldSpec(ghz22, 1))
        assert coarse.probs == ghz22.probs
        for a, b in zip(coarse.states, ghz22.states):
            # weight-in, weight-out normalization costs at most an ulp
            assert float(np.max(np.abs(a.matrix - b.matrix))) <= 1e-15

    def test_two_folds_of_ghz22(self, ghz22):
        coarse = coarse_ensemble(FoldSpec(ghz22, 2))
        assert coarse.dim == 16
        np.testing.assert_allclose(coarse.probs, [0.625, 0.375], atol=1e-14)
        assert max_pairwise_overlap(coarse) <= ORTHOGONALITY_TOL
        np.testing.assert_allclose(
            coarse.probs, fold_probs(ghz22.probs, 2, 2), atol=1e-12
        )
        # party bookkeeping: both parties own one slot per fold
        assert coarse.slots.party_of_slot == ("A1", "A2", "A1", "A2")

    def test_degenerate_class_is_an_error(self):
        base = computational_pair(probs=(1.0, 0.0))
        with pytest.raises(DegenerateClassError, match="class 1"):
            coarse_ensemble(FoldSpec(base, 2))

    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_average_state_is_fold_of_average(self, ghz22, L):
        coarse = coarse_ensemble(FoldSpec(ghz22, L))
        avg = sum(p * s.matrix for p, s in zip(coarse.probs, coarse.states))
        base_avg = sum(p * s.matrix for p, s in zip(ghz22.probs, ghz22.states))
        want = np.array([[1.0]], dtype=complex)
        for _ in range(L):
            want = np.kron(want, base_avg)
        assert float(np.max(np.abs(avg - want))) <= 1e-10

    def test_dimension_guard(self, ghz22):
        with pytest.raises(Exception, match="dimension cap"):
            coarse_ensemble(FoldSpec(ghz22, 7))

    def test_entries_are_formed_on_first_read(self, ghz22, tmp_path):
        # Folding and saving read the stack, not its entries: the record of the coarse
        # states is formed only when something reads it.
        spec = FoldSpec(ghz22, 2)
        for e in (coarse_ensemble(spec), uniform_coarse_ensemble(spec)):
            save_ensemble(e, str(tmp_path / "coarse.json"))
            assert "_record" not in vars(e)
            assert validate(e).passed
            assert "_record" in vars(e)


class TestFoldSpec:
    @pytest.mark.parametrize("L, message", [
        (2.5, "an integer"), (2.0, "an integer"), (np.float64(2.0), "an integer"),
        (True, "an integer"), (0, ">= 1"), (np.int64(0), ">= 1"),
    ], ids=["2.5", "2.0", "numpy-2.0", "bool", "0", "int64-0"])
    def test_rejects_a_bad_fold_count(self, ghz22, L, message):
        # 2.5 constructed, and the fold then raised a late TypeError.
        with pytest.raises(ValueError, match=rf"^fold count must be {message}, got "):
            FoldSpec(ghz22, L)

    @pytest.mark.parametrize("L", [np.int64(2), np.int32(2), np.uint8(2)],
                             ids=["int64", "int32", "uint8"])
    def test_takes_numpy_integers(self, ghz22, L):
        spec = FoldSpec(ghz22, L)
        assert spec.explicit_dim == FoldSpec(ghz22, 2).explicit_dim == 16
        want = coarse_ensemble(FoldSpec(ghz22, 2))
        assert np.array_equal(coarse_ensemble(spec).stack, want.stack)


class TestConvolutionFold:
    def test_kron_count(self, ghz22, monkeypatch):
        calls = []
        kron_sum = folding._kron_sum

        def counting_kron_sum(lefts, rights):
            calls.extend(lefts)
            return kron_sum(lefts, rights)

        monkeypatch.setattr(folding, "_kron_sum", counting_kron_sum)
        coarse_ensemble(FoldSpec(ghz22, 5))
        # n**2 * (L - 1); enumerating the n**L index vectors makes L * n**L = 160.
        assert len(calls) == 16

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4), L=st.integers(1, 4),
           data=st.data())
    def test_matches_enumeration_oracle(self, seed, n, L, data):
        max_dim = max(d for d in range(1, 257) if d**L <= 256)
        dim_a = data.draw(st.integers(1, min(max_dim, 16)), label="dim_a")
        dim_b = data.draw(st.integers(1, min(max_dim // dim_a, 16)), label="dim_b")
        rng = np.random.default_rng(seed)
        slots = SlotStructure((dim_a, dim_b), ("A1", "A2"))
        probs = rng.dirichlet(np.ones(n))
        states = tuple(
            MultiPartyOperator(random_density(rng, dim_a * dim_b), slots) for _ in range(n)
        )
        spec = FoldSpec(Ensemble(PartySet.of_size(2), probs, states), L)
        got = coarse_ensemble(spec)
        want = coarse_by_enumeration(spec)
        assert got.probs == tuple(fold_probs(probs, n, L))
        np.testing.assert_allclose(got.probs, want.probs, rtol=0, atol=1e-12)
        assert got.slots == want.slots
        for a, b in zip(got.states, want.states):
            assert float(np.max(np.abs(a.matrix - b.matrix))) <= 1e-12


class TestKronSum:
    @pytest.mark.parametrize("rows", [1, 2, 100])
    @pytest.mark.parametrize("shapes", [((3, 5), (2, 4)), ((7, 7), (1, 1)), ((1, 3), (4, 2))])
    def test_bit_identical_to_kron_sums(self, monkeypatch, rows, shapes):
        # Chunks of 1 row of the left factor, of 2 (with an uneven last chunk when the
        # factor has an odd row count), and of the whole factor at once.
        (sa, sb) = shapes
        monkeypatch.setattr(folding, "_KRON_CHUNK_BYTES", rows * sb[0] * sa[1] * sb[1] * 16)
        rng = np.random.default_rng(sum(map(sum, shapes)))
        lefts = [rng.normal(size=sa) + 1j * rng.normal(size=sa) for _ in range(3)]
        rights = [rng.normal(size=sb) + 1j * rng.normal(size=sb) for _ in range(3)]
        want = np.kron(lefts[0], rights[0])
        for a, b in zip(lefts[1:], rights[1:]):
            want += np.kron(a, b)
        got = folding._kron_sum(lefts, rights)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_non_contiguous_factors(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        b = rng.normal(size=(3, 3)) + 0j
        got = folding._kron_sum([a.T, a[::-1]], [b, b.T])
        want = np.kron(a.T, b) + np.kron(a[::-1], b.T)
        assert got.tobytes() == want.tobytes()


class TestCurves:
    def test_exact_curve_values(self):
        curve = exact_two_state_curve(0.75, 4)
        np.testing.assert_allclose(curve, [0.75, 0.625, 0.5625, 0.53125])

    def test_exact_curve_degenerate_ends(self):
        assert exact_two_state_curve(0.5, 5) == [0.5] * 5
        assert exact_two_state_curve(1.0, 5) == [1.0] * 5

    def test_exact_curve_domain(self):
        with pytest.raises(ValueError):
            exact_two_state_curve(0.4, 3)
        with pytest.raises(ValueError):
            exact_two_state_curve(0.75, 0)

    def test_fold_bound_values(self):
        assert fold_bound(2, 0.75, 4) == pytest.approx(0.53125)
        assert fold_bound(2, 0.5, 1) == pytest.approx(0.5)
        assert fold_bound(4, 25 / 64, 2) == pytest.approx(0.4873046875)

    @pytest.mark.parametrize("L", [2.5, 2.0, np.float64(2.0), True],
                             ids=["2.5", "2.0", "numpy-2.0", "bool"])
    def test_fold_bound_rejects_a_non_integer_count(self, L):
        # 2.5 gave 1/2 + (1/2)**2.5 / 2, a fractional power of the base bound.
        with pytest.raises(ValueError, match=r"^fold count must be an integer, got "):
            fold_bound(2, 0.75, L)

    @pytest.mark.parametrize("L", [2, np.int64(2), np.int32(2), np.uint8(2)],
                             ids=["int", "int64", "int32", "uint8"])
    def test_fold_bound_takes_python_and_numpy_integers(self, L):
        assert fold_bound(2, 0.75, L) == 0.625  # 1/2 + (1/2)**2 / 2

    @pytest.mark.parametrize("L", [0, -1, np.int64(0)], ids=["0", "-1", "int64-0"])
    def test_fold_bound_rejects_a_count_below_one(self, L):
        with pytest.raises(ValueError, match=r"^fold count must be >= 1, got "):
            fold_bound(2, 0.75, L)

    def test_fold_bound_floor_rejection(self):
        with pytest.raises(ValueError, match="guessing floor"):
            fold_bound(4, 0.2, 1)

    def test_fold_bound_rejects_nan(self):
        # ``nan < 1/n`` is False, and ``min(1.0, nan)`` is 1.0: NaN read as a full bound.
        with pytest.raises(ValueError, match="guessing floor"):
            fold_bound(2, float("nan"), 3)
        with pytest.raises(ValueError, match="eta0"):
            exact_two_state_curve(float("nan"), 3)

    def test_fold_bound_never_exceeds_one(self):
        # max q 0.85 >= 2/3: uncapped, 1/3 + 2/3 * 1.55**L reads 1.367, 1.935, 2.816.
        assert [fold_bound(3, 0.85, L) for L in (1, 2, 3)] == [1.0, 1.0, 1.0]
        assert fold_bound(3, 0.5, 2) == pytest.approx(0.5)  # below the cap: unchanged

    def test_fold_bound_matches_exact_curve_for_two_states(self):
        # With the base bound equal to the heavy weight the two formulas agree.
        curve = exact_two_state_curve(0.75, 6)
        for L in range(1, 7):
            assert fold_bound(2, 0.75, L) == pytest.approx(curve[L - 1], abs=1e-15)


class TestFoldedSolverAgreement:
    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_solver_matches_exact_curve(self, ghz22, L):
        coarse = coarse_ensemble(FoldSpec(ghz22, L))
        (bp,) = all_bipartitions(coarse.parties)
        result = q_upper(coarse, bp)
        want = exact_two_state_curve(0.75, L)[L - 1]
        assert result.dual_value == pytest.approx(want, abs=1e-6)
        assert result.dual_value <= fold_bound(2, 0.75, L) + 1e-6

    def test_uniform_reweighting(self, ghz22):
        uniform = uniform_coarse_ensemble(FoldSpec(ghz22, 2))
        assert uniform.probs == (0.5, 0.5)
        assert max_pairwise_overlap(uniform) <= ORTHOGONALITY_TOL

    def test_uniform_bound_decreases_with_folds(self, ghz22):
        values = []
        for L in (1, 2):
            uniform = uniform_coarse_ensemble(FoldSpec(ghz22, L))
            (bp,) = all_bipartitions(uniform.parties)
            values.append(q_upper(uniform, bp).dual_value)
        assert values[1] < values[0]
