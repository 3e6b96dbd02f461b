import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nlhide import (
    DimensionCapError,
    Ensemble,
    FoldSpec,
    HidingError,
    MultiPartyOperator,
    PartySet,
    SchemeConfig,
    SlotStructure,
    check_hiding,
    class_measurement,
    coalition_report,
    coarse_ensemble,
    direct_encode,
    fold_bound,
    fold_probs,
    ghz_complement_ensemble,
    min_folds,
    run_protocol,
    sampling_crosscheck,
    transcripts_to_jsonl,
)

from nlhide import hiding
from nlhide.hiding import _admissibility_verdict, _fold_count_for

from oracles import (
    bell_number,
    class_measurement_by_eigh,
    fold_count_by_search,
    protocol_jsonl_by_trials,
)


def overlapping_pair():
    slots = SlotStructure((2, 1), ("A1", "A2"))
    plus = np.array([1.0, 1.0]) / math.sqrt(2)
    states = (
        MultiPartyOperator(np.diag([1.0, 0.0]).astype(complex), slots),
        MultiPartyOperator(np.outer(plus, plus).astype(complex), slots),
    )
    return Ensemble(PartySet.of_size(2), (0.5, 0.5), states)


def bell_mix(probs):
    # Orthogonal maximally entangled states: dominance fails, solver runs.
    pair = SlotStructure((2, 2), ("A1", "A2"))
    kets = [(0, 3, 1.0), (0, 3, -1.0), (1, 2, 1.0), (1, 2, -1.0)]
    states = []
    for a, b, sign in kets[: len(probs)]:
        vec = np.zeros(4, dtype=complex)
        vec[a] = 1 / math.sqrt(2)
        vec[b] = sign / math.sqrt(2)
        states.append(MultiPartyOperator(np.outer(vec, vec.conj()), pair))
    return Ensemble(PartySet.of_size(2), probs, tuple(states))


class TestAdmissibilityVerdict:
    def test_non_orthogonal_always_fails(self):
        verdict = _admissibility_verdict(
            orthogonal=False, max_dual=0.1, best_primal=0.1,
            has_failures=False, threshold=1.0,
        )
        assert verdict is False

    def test_duals_below_threshold_settle_even_uncertified(self):
        verdict = _admissibility_verdict(
            orthogonal=True, max_dual=0.45, best_primal=0.3,
            has_failures=False, threshold=0.5,
        )
        assert verdict is True

    def test_achieved_primal_at_threshold_settles(self):
        verdict = _admissibility_verdict(
            orthogonal=True, max_dual=0.9, best_primal=0.5,
            has_failures=False, threshold=0.5,
        )
        assert verdict is False

    def test_gap_straddling_threshold_is_undecided(self):
        verdict = _admissibility_verdict(
            orthogonal=True, max_dual=0.55, best_primal=0.48,
            has_failures=False, threshold=0.5,
        )
        assert verdict is None

    def test_failed_bipartition_blocks_admissibility(self):
        verdict = _admissibility_verdict(
            orthogonal=True, max_dual=0.4, best_primal=0.3,
            has_failures=True, threshold=0.5,
        )
        assert verdict is None


class TestCheckHiding:
    @pytest.mark.parametrize("tol", [0.0, -1e-8, float("nan")])
    def test_nonpositive_tol_rejected_before_the_scan(self, monkeypatch, tol):
        def no_scan(*args, **kwargs):
            raise AssertionError("the scan ran")

        monkeypatch.setattr(hiding, "max_bipartition_bound", no_scan)
        with pytest.raises(ValueError, match="tolerance must be positive"):
            check_hiding(bell_mix((0.5, 0.3, 0.2)), tol=tol)

    def test_ghz22_admissible(self, ghz22):
        report = check_hiding(ghz22)
        assert report.admissible is True
        assert report.orthogonal
        assert report.p_global == 1.0
        assert report.max_q == pytest.approx(0.75, abs=1e-12)
        assert report.threshold == pytest.approx(1.0)
        assert report.fast_path
        assert report.min_folds == 19
        assert report.bound_curve[0] == pytest.approx(0.75)

    def test_parity2222_admissible(self, parity2222):
        report = check_hiding(parity2222)
        assert report.admissible is True
        assert report.max_q == pytest.approx(25 / 64, abs=1e-12)
        assert report.pivot_weight == pytest.approx(25 / 64)
        assert report.threshold == pytest.approx(0.5)
        assert report.fast_path

    def test_parity2212_inadmissible(self, parity2212):
        report = check_hiding(parity2212)
        assert report.admissible is False
        assert report.orthogonal  # recovery works, hiding does not
        assert report.pivot_weight == pytest.approx(9 / 16)
        assert report.pivot_weight >= report.threshold
        assert report.min_folds is None

    def test_non_orthogonal_inadmissible(self):
        report = check_hiding(overlapping_pair())
        assert report.admissible is False
        assert not report.orthogonal
        assert report.p_global is None

    def test_solver_path_decides_without_dominance(self):
        # Three orthogonal maximally entangled states with skewed weights:
        # no dominance certificate, yet the converged bound 0.9 >= 2/3
        # settles inadmissibility through the solver.
        e = bell_mix((0.45, 0.45, 0.10))
        report = check_hiding(e)
        assert not report.fast_path
        assert report.orthogonal
        assert report.max_q == pytest.approx(0.9, abs=1e-6)
        assert report.admissible is False

    def test_achieved_primal_decides_even_uncertified(self):
        e = bell_mix((0.45, 0.45, 0.10))
        report = check_hiding(e, max_iterations=10)
        assert not report.q_certified["A1|A2"]
        assert report.admissible is False  # the starved POVM already beats 2/n


class TestMinFolds:
    def test_tight_epsilon(self, ghz22):
        assert min_folds(ghz22, 1e-6) == 19

    def test_quarter_epsilon(self, ghz22):
        assert min_folds(ghz22, 0.25) == 1

    def test_large_epsilon_clamps_to_one(self, ghz22):
        assert min_folds(ghz22, 0.6) == 1

    def test_accepts_precomputed_report(self, ghz22):
        report = check_hiding(ghz22)
        assert min_folds(report, 1e-6) == 19

    def test_inadmissible_rejected(self, parity2212):
        with pytest.raises(HidingError):
            min_folds(parity2212, 1e-3)

    def test_epsilon_validation(self, ghz22):
        with pytest.raises(ValueError):
            min_folds(ghz22, 0.0)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(2, 16),
        frac=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        epsilon=st.floats(1e-12, 0.5),
    )
    @example(n=2, frac=0.999, epsilon=1e-6)  # about 13.8k folds
    @example(n=16, frac=1e-9, epsilon=1e-12)  # rate near zero: one fold
    @example(n=3, frac=0.5, epsilon=0.5)
    def test_closed_form_matches_search(self, n, frac, epsilon):
        q = (1.0 + frac) / n
        assume(1.0 / n < q < 2.0 / n)
        want = fold_count_by_search(n, q, epsilon)
        assume(want is not None)
        assert _fold_count_for(n, q, epsilon) == want

    def test_slow_decay_is_sized_beyond_the_old_search_range(self):
        q = (2.0 - 1e-6) / 2  # rate 1 - 1e-6: about 1.4e7 folds, past a 1e5-step search
        L = _fold_count_for(2, q, 1e-6)
        assert fold_bound(2, q, L) - 0.5 <= 1e-6 < fold_bound(2, q, L - 1) - 0.5

    def test_rate_rounding_to_one_raises(self):
        with pytest.raises(HidingError):
            _fold_count_for(2, 1.0, 1e-6)


class TestSchemeConfig:
    def test_create_records_report(self, ghz22):
        cfg = SchemeConfig.create(ghz22, 3, seed=42)
        assert cfg.report.admissible is True

    def test_inadmissible_needs_force(self, parity2212):
        with pytest.raises(HidingError):
            SchemeConfig.create(parity2212, 2)
        cfg = SchemeConfig.create(parity2212, 2, force=True)
        assert cfg.force

    def test_negative_seed_rejected(self, ghz22):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            SchemeConfig.create(ghz22, 2, seed=-1)


def jsonl_lines(run):
    text = transcripts_to_jsonl(run)
    assert text.endswith("\n")
    return text[:-1].split("\n")


class TestRunProtocol:
    def test_recovery_is_exact(self, ghz22):
        cfg = SchemeConfig.create(ghz22, 3, seed=42)
        run = run_protocol(cfg, x=1, trials=2000)
        assert run.summary.recovery_rate == 1.0
        assert all(json.loads(line)["recovered"] == 1 for line in jsonl_lines(run))

    def test_transcript_arithmetic(self, ghz22):
        cfg = SchemeConfig.create(ghz22, 4, seed=9)
        lines = jsonl_lines(run_protocol(cfg, x=1, trials=500))
        assert len(lines) == 500
        n = ghz22.n
        for trial, line in enumerate(lines):
            t = json.loads(line)
            assert list(t) == ["c_vec", "recovered", "seed", "trial", "x", "y", "z"]
            assert (t["trial"], t["x"], t["seed"]) == (trial, 1, 9)
            assert len(t["c_vec"]) == 4
            assert t["y"] == sum(t["c_vec"]) % n
            assert t["z"] == (1 + t["y"]) % n
            assert t["recovered"] == 1

    def test_class_counts_match_the_lines(self, parity2212):
        cfg = SchemeConfig.create(parity2212, 3, seed=5, force=True)
        run = run_protocol(cfg, x=3, trials=400)
        ys = [json.loads(line)["y"] for line in jsonl_lines(run)]
        assert tuple(ys.count(j) for j in range(4)) == run.summary.class_counts

    def test_lines_reencode_byte_identically(self, ghz22):
        cfg = SchemeConfig.create(ghz22, 3, seed=1)
        for line in jsonl_lines(run_protocol(cfg, x=1, trials=300)):
            assert json.dumps(json.loads(line), sort_keys=True, separators=(",", ":")) == line

    def test_fewer_trials_give_a_prefix(self, ghz22):
        cfg = SchemeConfig.create(ghz22, 4, seed=13)
        full = transcripts_to_jsonl(run_protocol(cfg, x=0, trials=1000))
        for k in (1, 7, 999):
            assert full.startswith(transcripts_to_jsonl(run_protocol(cfg, x=0, trials=k)))

    @pytest.mark.parametrize("ensemble, L, x, seed", [
        ("ghz22", 3, 1, 42), ("ghz22", 6, 0, 2**40), ("parity2212", 2, 3, 7),
    ])
    def test_matches_the_per_trial_loop(self, request, ensemble, L, x, seed):
        e = request.getfixturevalue(ensemble)
        cfg = SchemeConfig.create(e, L, seed=seed, force=True)
        assert transcripts_to_jsonl(run_protocol(cfg, x=x, trials=700)) == (
            protocol_jsonl_by_trials(e.probs, L, x, 700, seed))

    def test_pinned_stream(self, ghz22):
        # Any change to the random stream changes these bytes.
        cfg = SchemeConfig.create(ghz22, 3, seed=42)
        assert jsonl_lines(run_protocol(cfg, x=1, trials=3)) == [
            '{"c_vec":[1,0,1],"recovered":1,"seed":42,"trial":0,"x":1,"y":0,"z":1}',
            '{"c_vec":[0,0,1],"recovered":1,"seed":42,"trial":1,"x":1,"y":1,"z":0}',
            '{"c_vec":[1,1,0],"recovered":1,"seed":42,"trial":2,"x":1,"y":0,"z":1}',
        ]

    @pytest.mark.parametrize("trials", [1, 5000])
    def test_one_generator_per_run(self, ghz22, monkeypatch, trials):
        cfg = SchemeConfig.create(ghz22, 3, seed=2)
        calls = []
        real = np.random.default_rng

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counting)
        run = run_protocol(cfg, x=1, trials=trials)
        assert calls == [(2,)]
        assert run.c_vecs.shape == (trials, 3)

    def test_class_frequencies_match_fold_probs(self, ghz22):
        trials = 10_000
        cfg = SchemeConfig.create(ghz22, 3, seed=42)
        run = run_protocol(cfg, x=1, trials=trials)
        expected = fold_probs(ghz22.probs, 2, 3)
        for count, p in zip(run.summary.class_counts, expected):
            sigma = math.sqrt(p * (1 - p) / trials)
            assert abs(count / trials - p) <= 4 * sigma

    def test_identical_seeds_identical_transcripts(self, ghz22):
        cfg = SchemeConfig.create(ghz22, 3, seed=7)
        first = transcripts_to_jsonl(run_protocol(cfg, 0, 300))
        second = transcripts_to_jsonl(run_protocol(cfg, 0, 300))
        assert first == second
        other_seed = SchemeConfig.create(ghz22, 3, seed=8)
        assert transcripts_to_jsonl(run_protocol(other_seed, 0, 300)) != first

    def test_input_validation(self, ghz22):
        cfg = SchemeConfig.create(ghz22, 2, seed=0)
        with pytest.raises(ValueError, match="trials"):
            run_protocol(cfg, 0, 0)
        with pytest.raises(ValueError, match="out of range"):
            run_protocol(cfg, 5, 10)

    def test_forced_run_carries_warning(self, parity2212):
        cfg = SchemeConfig.create(parity2212, 2, seed=1, force=True)
        run = run_protocol(cfg, x=3, trials=50)
        assert run.summary.recovery_rate == 1.0
        assert "no hiding guarantee" in run.summary.warning


def _oracle_encoding(cfg, x):
    """``direct_encode``'s class probabilities and verdict from the eigen oracle."""
    coarse = coarse_ensemble(FoldSpec(cfg.ensemble, cfg.L))
    state = coarse.states[x].matrix
    probs = [float(np.trace(state @ proj).real) for proj in class_measurement_by_eigh(coarse)]
    ok = cfg.report.orthogonal and all(
        abs(p - (1.0 if j == x else 0.0)) <= 1e-8 for j, p in enumerate(probs)
    )
    return probs, ok


def _assert_matches_oracle(cfg):
    spec = FoldSpec(cfg.ensemble, cfg.L)
    got = class_measurement(spec)
    want = class_measurement_by_eigh(coarse_ensemble(spec))
    for a, b in zip(got, want):
        assert float(np.max(np.abs(a - b))) <= 1e-12
    for x in range(cfg.ensemble.n):
        enc = direct_encode(cfg, x)
        probs, ok = _oracle_encoding(cfg, x)
        np.testing.assert_allclose(enc.class_probs, probs, rtol=0, atol=1e-12)
        assert enc.recovery_ok == ok


def random_orthogonal_ensemble(rng, n, slot_dims, eig_floor=1e-3, prior_floor=0.02):
    """``n`` states on orthogonal column blocks of a random unitary."""
    dim = math.prod(slot_dims)
    unitary, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    cuts = np.sort(rng.choice(np.arange(1, dim), size=n - 1, replace=False))
    ends = np.append(cuts, rng.integers(cuts[-1] + 1, dim + 1))
    slots = SlotStructure(slot_dims, ("A1", "A2"))
    states = []
    for start, stop in zip(np.insert(ends[:-1], 0, 0), ends):
        rank = stop - start
        eigs = eig_floor + (1.0 - rank * eig_floor) * rng.dirichlet(np.ones(rank))
        basis = unitary[:, start:stop]
        states.append(MultiPartyOperator((basis * eigs) @ basis.conj().T, slots))
    probs = prior_floor + (1.0 - n * prior_floor) * rng.dirichlet(np.ones(n))
    return Ensemble(PartySet.of_size(2), tuple(probs), tuple(states))


def smallest_coarse_eigenvalue(spec):
    return min(min(v for v in np.linalg.eigvalsh(s.matrix) if v > 1e-12)
               for s in coarse_ensemble(spec).states)


class TestClassMeasurement:
    def test_complete_and_identifying(self, ghz22):
        spec = FoldSpec(ghz22, 2)
        projectors = class_measurement(spec)
        total = sum(projectors)
        assert float(np.max(np.abs(total - np.eye(spec.explicit_dim)))) <= 1e-10
        for j, state in enumerate(coarse_ensemble(spec).states):
            for k, proj in enumerate(projectors):
                got = float(np.trace(state.matrix @ proj).real)
                assert got == pytest.approx(1.0 if j == k else 0.0, abs=1e-10)

    @pytest.mark.parametrize(
        "family, folds",
        [("ghz22", L) for L in (1, 2, 3, 4)]
        + [("ghz23", L) for L in (1, 2)]
        + [("parity2212", L) for L in (1, 2)],
    )
    def test_matches_eigen_oracle(self, request, family, folds):
        e = request.getfixturevalue(family)
        _assert_matches_oracle(SchemeConfig.create(e, folds, force=True))

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4), data=st.data())
    def test_matches_eigen_oracle_on_random_orthogonal(self, seed, n, data):
        dim_a = data.draw(st.integers(1, 4), label="dim_a")
        dim_b = data.draw(st.integers(max(1, -(-n // dim_a)), 16 // dim_a), label="dim_b")
        e = random_orthogonal_ensemble(np.random.default_rng(seed), n, (dim_a, dim_b))
        # An eigensolve resolves a support only to about 1e-16 / (smallest nonzero
        # eigenvalue): keep the oracle's coarse spectra above 1e-3 so that 1e-12
        # measures the convolution, not the oracle's round-off.
        L = 1
        while e.dim ** (L + 1) <= 256 and smallest_coarse_eigenvalue(FoldSpec(e, L + 1)) >= 1e-3:
            L += 1
        L = data.draw(st.integers(1, L), label="L")
        report = check_hiding(e, max_iterations=25)
        assert report.orthogonal
        cfg = SchemeConfig(ensemble=e, L=L, seed=0, report=report, force=True)
        _assert_matches_oracle(cfg)

    def test_cap_error_matches_coarse_ensemble(self, ghz22):
        with pytest.raises(DimensionCapError, match="explicit fold dimension 64") as got:
            class_measurement(FoldSpec(ghz22, 3), cap=32)
        with pytest.raises(DimensionCapError) as want:
            coarse_ensemble(FoldSpec(ghz22, 3), cap=32)
        assert str(got.value) == str(want.value)

    def test_zero_prior_member_has_no_support(self):
        slots = SlotStructure((2, 1), ("A1", "A2"))
        states = (
            MultiPartyOperator(np.diag([1.0, 0.0]).astype(complex), slots),
            MultiPartyOperator(np.diag([0.0, 1.0]).astype(complex), slots),
        )
        base = Ensemble(PartySet.of_size(2), (1.0, 0.0), states)
        projectors = class_measurement(FoldSpec(base, 2))
        # Only 00 is ever prepared; the leftover (all of it but |00>) joins class 0.
        np.testing.assert_array_equal(projectors[1], np.zeros((4, 4)))
        np.testing.assert_allclose(projectors[0], np.eye(4), rtol=0, atol=1e-15)


class TestDirectEncode:
    def test_sixteen_dim_descriptor(self, ghz22):
        cfg = SchemeConfig.create(ghz22, 2, seed=0)
        enc = direct_encode(cfg, 1)
        assert enc.state.dim == 16
        assert enc.recovery_ok
        assert enc.class_probs[1] == pytest.approx(1.0, abs=1e-10)
        assert enc.to_dict()["dim"] == 16

    def test_single_fold_returns_base_state(self, ghz22):
        cfg = SchemeConfig.create(ghz22, 1, seed=0)
        enc = direct_encode(cfg, 0)
        assert float(np.max(np.abs(enc.state.matrix - ghz22.states[0].matrix))) <= 1e-14

    def test_x_out_of_range(self, ghz22):
        cfg = SchemeConfig.create(ghz22, 1, seed=0)
        with pytest.raises(ValueError, match="out of range"):
            direct_encode(cfg, 2)

    @pytest.mark.parametrize("folds", [1, 2])
    def test_non_orthogonal_never_recovers(self, folds):
        cfg = SchemeConfig.create(overlapping_pair(), folds, force=True)
        assert not cfg.report.orthogonal
        assert direct_encode(cfg, 1).recovery_ok is False

    def test_eigensolves_stay_at_base_dimension(self, ghz22, monkeypatch):
        cfg = SchemeConfig.create(ghz22, 4)
        dims = []
        for name in ("eigh", "eigvalsh"):
            solver = getattr(np.linalg, name)

            def recording(a, *args, _solver=solver, **kwargs):
                dims.append(a.shape[-1])
                return _solver(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recording)
        enc = direct_encode(cfg, 1)
        assert enc.state.dim == 256 and enc.recovery_ok
        assert dims and set(dims) == {4}


class TestCoalitionReport:
    def test_three_party_exact_values(self, ghz23):
        rows = coalition_report(ghz23, 2)
        assert len(rows) == 4  # Bell(3) minus the trivial partition
        for row in rows:
            assert row.kind == "exact"
            assert row.value == pytest.approx(0.78125, abs=1e-12)
        assert all("|" in row.partition for row in rows)

    def test_two_party_single_fold(self, ghz22):
        rows = coalition_report(ghz22, 1)
        assert rows == [("A1|A2", 1, pytest.approx(0.75), "exact")]

    @pytest.mark.parametrize("L", [1, 5, 10, 20])
    def test_bounds_decrease_toward_floor(self, ghz23, L):
        rows = coalition_report(ghz23, L)
        for row in rows:
            assert row.value >= 0.5
        if L > 1:
            previous = coalition_report(ghz23, L - 1)
            for a, b in zip(previous, rows):
                assert b.value < a.value

    def test_inadmissible_needs_force(self, parity2212):
        with pytest.raises(HidingError):
            coalition_report(parity2212, 2)
        rows = coalition_report(parity2212, 2, force=True)
        assert len(rows) == 1

    def test_party_guard(self, eleven_parties, monkeypatch):
        def no_report(*args, **kwargs):
            raise AssertionError("check_hiding ran before the party guard")

        monkeypatch.setattr(hiding, "check_hiding", no_report)
        with pytest.raises(ValueError, match="parties"):
            coalition_report(eleven_parties, 1, force=True)

    def test_seven_party_table(self):
        rows = coalition_report(ghz_complement_ensemble(2, 7), 1)
        assert len(rows) == bell_number(7) - 1 == 876
        assert all(row.kind == "exact" for row in rows)


class TestSamplingCrosscheck:
    def test_paths_agree_for_two_folds(self, ghz22):
        result = sampling_crosscheck(ghz22, 2, trials=4000, seed=11)
        assert len(result.counts_structural) == 16
        assert result.counts_structural.sum() == 4000
        assert result.counts_born.sum() == 4000
        assert result.p_value > 0.001
        assert result.recovery_deviation <= 1e-10

    def test_trials_validation(self, ghz22):
        with pytest.raises(ValueError, match="trials"):
            sampling_crosscheck(ghz22, 2, trials=0)

    def test_cap_guard(self, ghz22):
        with pytest.raises(Exception, match="dimension cap"):
            sampling_crosscheck(ghz22, 9, trials=10)
