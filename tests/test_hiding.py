import dataclasses
import importlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nlhide import (
    ContractViolationError,
    DimensionCapError,
    Ensemble,
    FoldSpec,
    HidingError,
    MultiPartyOperator,
    ParityBlockParams,
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
    optimal_global,
    parity_block_ensemble,
    run_protocol,
    sampling_crosscheck,
    transcripts_to_jsonl,
)

from nlhide import discrimination, folding, hiding
from nlhide.ensembles import load_ensemble, save_ensemble, validate
from nlhide.hiding import (
    ProtocolRun, ProtocolSummary, _admissibility_verdict, _chi2_sf, _fold_count_for,
)

from oracles import (
    bell_number,
    bounds_rows_by_loop,
    brute_force_partitions,
    class_measurement_by_eigh,
    coalition_rows_by_partition,
    coalition_rows_two_branch,
    fold_count_by_search,
    orbit_count,
    party_classes_by_search,
    protocol_jsonl_by_trials,
    swap_symmetric_ensemble,
    transcripts_by_line,
)


def overlapping_pair():
    slots = SlotStructure((2, 1), ("A1", "A2"))
    plus = np.array([1.0, 1.0]) / math.sqrt(2)
    states = (
        MultiPartyOperator(np.diag([1.0, 0.0]).astype(complex), slots),
        MultiPartyOperator(np.outer(plus, plus).astype(complex), slots),
    )
    return Ensemble(PartySet.of_size(2), (0.5, 0.5), states)


def ghz_basis_triple(probs=(0.4, 0.35, 0.25)):
    # (|000>+|111>)/sqrt2, (|000>-|111>)/sqrt2, (|001>+|110>)/sqrt2: orthogonal, and
    # dominance fails on all three cuts, so the solver decides each of them.
    slots = SlotStructure((2, 2, 2), ("A1", "A2", "A3"))
    states = []
    for a, b, sign in [(0, 7, 1.0), (0, 7, -1.0), (1, 6, 1.0)]:
        vec = np.zeros(8, dtype=complex)
        vec[a] = 1 / math.sqrt(2)
        vec[b] = sign / math.sqrt(2)
        states.append(MultiPartyOperator(np.outer(vec, vec.conj()), slots))
    return Ensemble(PartySet.of_size(3), probs, tuple(states))


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

    def test_check_peaks_below_one_dense_state(self):
        # validate and check_hiding on parity (2, 3, 1, 3), dim 512, eight states at
        # 0.13% nonzero: each traced peak stays below the dim**2 * 16 bytes of one state.
        # validate forms the ensemble's entries record, and check_hiding reads it.
        e = parity_block_ensemble(ParityBlockParams(2, 3, 1, 3))
        assert "_record" not in vars(e)
        one_state = e.dim**2 * 16
        peaks = []
        tracemalloc.start()
        try:
            for call in (validate, check_hiding):
                tracemalloc.reset_peak()
                call(e)
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert max(peaks) < one_state, peaks
        assert "_record" in vars(e)

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
        # Five map evaluations leave the cut uncertified; nine certify it.
        report = check_hiding(e, max_iterations=5)
        assert not report.q_certified["A1|A2"]
        assert report.admissible is False  # the starved POVM already beats 2/n


    def test_contract_violations_raise_once(self):
        # The same defect on every cut: its own error from the first, not a per-cut table.
        e = ghz_basis_triple()
        skewed = e.states[1].matrix.copy()
        skewed[0, 1] += 0.06
        states = (e.states[0], MultiPartyOperator(skewed, e.slots), e.states[2])
        with pytest.raises(ContractViolationError, match="^operator is not Hermitian"):
            check_hiding(Ensemble(e.parties, e.probs, states))
        with pytest.raises(ValueError, match="^weights must be nonnegative"):
            check_hiding(ghz_basis_triple((0.6, 0.6, -0.2)))
        # A NaN prior is a contract violation too, not a per-cut numerical failure.
        with pytest.raises(ValueError, match="^weights must be"):
            check_hiding(ghz_basis_triple((math.nan, 0.5, 0.5)))

    def test_numerical_failure_leaves_a_partial_table(self, monkeypatch):
        solve = discrimination._solve
        calls = []

        def failing_once(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return solve(*args, **kwargs)

        monkeypatch.setattr(discrimination, "_solve", failing_once)
        report = check_hiding(ghz_basis_triple())
        # The states are symmetric under the swap of A1 and A2, so A1|A2A3 and A1A3|A2
        # are one orbit: its first cut is solved, and its failure is both cuts'.
        assert len(calls) == 2
        assert list(report.solver_failures) == ["A1|A2A3", "A1A3|A2"]
        assert sorted(report.q_values) == ["A1A2|A3"]

    def test_solver_cuts_build_no_operator(self, entry_passes, monkeypatch):
        # Every cut is undecided, and the solver gets the blocks of its transposed
        # entries: the states' entries are formed and checked n times, on the scan's
        # first read of the record, and no operator or dense Hermitian check is made.
        e = ghz_basis_triple()
        tensor = importlib.import_module("nlhide.tensor")  # the package binds the function
        frozen, dense = [], []
        real_frozen, real_dense = tensor._frozen_matrix, tensor._hermiticity
        monkeypatch.setattr(tensor, "_frozen_matrix",
                            lambda *args: frozen.append(1) or real_frozen(*args))
        monkeypatch.setattr(tensor, "_hermiticity", lambda m: dense.append(1) or real_dense(m))
        masked, checked = entry_passes
        scan = discrimination.max_bipartition_bound(e)
        assert [r.method for r in scan.results.values()] == ["iterative"] * 3
        assert (len(frozen), sum(masked), len(checked), len(dense)) == (0, e.n, e.n, 0)

    def test_load_and_check_form_the_entries_once(self, tmp_path, entry_passes):
        # Parity (2, 3, 1, 3) from a file: the loader's validate forms each state's
        # entries, one mask pass and one Hermitian check each; check_hiding's overlaps
        # and scan, like a second validate, read the same record.
        path = str(tmp_path / "parity.json")
        save_ensemble(parity_block_ensemble(ParityBlockParams(2, 3, 1, 3)), path)
        masked, checked = entry_passes
        e = load_ensemble(path)
        report = check_hiding(e)
        validate(e)
        assert report.fast_path and all(report.q_exact.values())
        assert (sum(masked), len(checked)) == (e.n, e.n) == (8, 8)


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
        for epsilon in (0.0, float("nan")):
            with pytest.raises(ValueError, match="^epsilon must be positive"):
                min_folds(ghz22, epsilon)

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

    @pytest.mark.parametrize("L, message", [
        (2.5, "an integer"), (2.0, "an integer"), (np.float64(2.0), "an integer"),
        (True, "an integer"), (0, ">= 1"), (np.int64(0), ">= 1"),
    ], ids=["2.5", "2.0", "numpy-2.0", "bool", "0", "int64-0"])
    def test_rejects_a_bad_fold_count(self, ghz22, L, message):
        report = check_hiding(ghz22)
        with pytest.raises(ValueError, match=rf"^fold count must be {message}"):
            SchemeConfig(ensemble=ghz22, L=L, seed=0, report=report)

    @pytest.mark.parametrize("L", [np.int64(3), np.int32(3), np.uint8(3)],
                             ids=["int64", "int32", "uint8"])
    def test_takes_numpy_integers(self, ghz22, L):
        cfg = SchemeConfig.create(ghz22, L, seed=7)
        want = SchemeConfig.create(ghz22, 3, seed=7)
        got, expected = run_protocol(cfg, 1, 50), run_protocol(want, 1, 50)
        assert np.array_equal(got.c_vecs, expected.c_vecs)
        assert got.summary == expected.summary


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

    def test_blocks_join_into_the_whole_text(self, ghz22):
        run = run_protocol(SchemeConfig.create(ghz22, 3, seed=5), x=1, trials=250)
        whole = transcripts_to_jsonl(run)
        assert "".join(transcripts_to_jsonl(run, k, k + 64) for k in range(0, 250, 64)) == whole
        assert transcripts_to_jsonl(run, 100) == whole.split("\n", 100)[-1]
        assert transcripts_to_jsonl(run, 250) == ""

    @pytest.mark.parametrize("ensemble, L, x, seed", [
        ("ghz22", 3, 1, 42), ("ghz22", 6, 0, 2**40), ("parity2212", 2, 3, 7),
        ("ghz22", 1, 1, 2**63 - 1),
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


    def test_forced_non_orthogonal_run_refused(self):
        # Recovery as z - y holds only when the class measurement is deterministic.
        cfg = SchemeConfig.create(overlapping_pair(), 3, force=True)
        with pytest.raises(HidingError, match="orthogonal"):
            run_protocol(cfg, 1, 10)


@pytest.fixture(scope="module")
def parity16_run():
    """Parity (2,2,1,4), n = 16, so labels have two digits; trials cross 9999 -> 10000."""
    e = parity_block_ensemble(ParityBlockParams(2, 2, 1, 4))
    assert e.n == 16
    cfg = SchemeConfig.create(e, 3, seed=2**40, force=True)
    return e, run_protocol(cfg, x=11, trials=10_005)


def random_run(rng, n, L, trials, x, seed):
    """A ProtocolRun of the right shapes and ranges, not drawn by ``run_protocol``."""
    c_vecs = rng.integers(0, n, size=(trials, L))
    y = c_vecs.sum(axis=1) % n
    z = (x + y) % n
    summary = ProtocolSummary(trials=trials, x=x, L=L, seed=seed, recovery_rate=1.0,
                              class_counts=(), expected_class_probs=(), warning=None)
    return ProtocolRun(c_vecs, y, z, (z - y) % n, summary)


def lines(text):
    # Texts of 10^4 lines are compared as line lists: pytest's diff of two such strings
    # takes minutes, while a list comparison names the first line that differs.
    return text.splitlines(keepends=True)


class TestTranscriptTable:
    """The byte-table writer against the per-line reference and the per-trial loop."""

    def test_two_digit_labels(self, parity16_run):
        e, run = parity16_run
        text = lines(transcripts_to_jsonl(run))
        assert text == lines(transcripts_by_line(run))
        assert text == lines(protocol_jsonl_by_trials(e.probs, 3, 11, 10_005, 2**40))
        assert run.c_vecs.max() >= 10 and run.z.max() >= 10

    @pytest.mark.parametrize("start, stop", [
        (5, 15), (95, 105), (9995, 10_005), (5, 10_005),  # trials 9 -> 10, 99 -> 100, 9999 -> 10000
        (95, 1005), (9990, None), (-7, None), (-20_000, 5), (-30, -10), (0, -10_004),
        (10_000, 20_000), (20_000, None), (7, 7), (8, 3), (-1, -2), (None, 0),
    ])
    def test_slices(self, parity16_run, start, stop):
        _, run = parity16_run
        assert lines(transcripts_to_jsonl(run, start, stop)) == lines(
            transcripts_by_line(run, start, stop))

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(2, 20), L=st.integers(1, 12), trials=st.integers(1, 300),
           seed=st.integers(0, 2**63 - 1), arrays=st.integers(0, 2**32 - 1), data=st.data())
    def test_matches_the_per_line_reference(self, n, L, trials, seed, arrays, data):
        x = data.draw(st.integers(0, n - 1), label="x")
        bound = st.none() | st.integers(-2 * trials, 2 * trials)
        start, stop = data.draw(bound, label="start"), data.draw(bound, label="stop")
        run = random_run(np.random.default_rng(arrays), n, L, trials, x, seed)
        assert transcripts_to_jsonl(run) == transcripts_by_line(run)
        assert transcripts_to_jsonl(run, start, stop) == transcripts_by_line(run, start, stop)


def _oracle_encoding(cfg, x):
    """``direct_encode``'s class probabilities and verdict from the explicit coarse state
    of class ``x`` and an explicit measurement: the eigen oracle's support projectors of
    the coarse states on an orthogonal ensemble, where they are the class measurement,
    and the ``dim**L`` Kronecker convolution ``class_measurement`` otherwise, where no
    support projector is."""
    spec = FoldSpec(cfg.ensemble, cfg.L)
    coarse = coarse_ensemble(spec)
    state = coarse.states[x].matrix
    measurement = (class_measurement_by_eigh(coarse) if cfg.report.orthogonal
                   else class_measurement(spec))
    probs = [float(np.trace(state @ proj).real) for proj in measurement]
    ok = cfg.report.orthogonal and all(
        abs(p - (1.0 if j == x else 0.0)) <= 1e-8 for j, p in enumerate(probs)
    )
    return probs, ok


def _assert_matches_oracle(cfg):
    spec = FoldSpec(cfg.ensemble, cfg.L)
    coarse = coarse_ensemble(spec)
    got = class_measurement(spec)
    want = class_measurement_by_eigh(coarse)
    for a, b in zip(got, want):
        assert float(np.max(np.abs(a - b))) <= 1e-12
    for x in range(cfg.ensemble.n):
        enc = direct_encode(cfg, x)
        assert enc.dim == coarse.dim
        probs, ok = _oracle_encoding(cfg, x)
        np.testing.assert_allclose(enc.class_probs, probs, rtol=0, atol=1e-12)
        assert enc.recovery_ok == ok


def random_orthogonal_ensemble(rng, n, slot_dims, eig_floor=1e-3, prior_floor=0.02):
    """``n`` states on orthogonal column blocks of a random unitary, one party per slot."""
    dim = math.prod(slot_dims)
    unitary, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    cuts = np.sort(rng.choice(np.arange(1, dim), size=n - 1, replace=False))
    ends = np.append(cuts, rng.integers(cuts[-1] + 1, dim + 1))
    slots = SlotStructure(slot_dims, tuple(f"A{k}" for k in range(1, len(slot_dims) + 1)))
    states = []
    for start, stop in zip(np.insert(ends[:-1], 0, 0), ends):
        rank = stop - start
        eigs = eig_floor + (1.0 - rank * eig_floor) * rng.dirichlet(np.ones(rank))
        basis = unitary[:, start:stop]
        states.append(MultiPartyOperator((basis * eigs) @ basis.conj().T, slots))
    probs = prior_floor + (1.0 - n * prior_floor) * rng.dirichlet(np.ones(n))
    return Ensemble(PartySet.of_size(len(slot_dims)), tuple(probs), tuple(states))


def random_overlapping_ensemble(rng, n, slot_dims, prior_floor=0.02):
    """``n`` random states of random rank on ``slot_dims``, one party per slot: their
    supports overlap, so they are not orthogonal."""
    dim = math.prod(slot_dims)
    slots = SlotStructure(slot_dims, tuple(f"A{k}" for k in range(1, len(slot_dims) + 1)))
    states = []
    for _ in range(n):
        shape = (dim, rng.integers(1, dim + 1))
        g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        rho = g @ g.conj().T
        states.append(MultiPartyOperator(rho / np.trace(rho).real, slots))
    probs = prior_floor + (1.0 - n * prior_floor) * rng.dirichlet(np.ones(n))
    return Ensemble(PartySet.of_size(len(slot_dims)), tuple(probs), tuple(states))


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
        assert enc.dim == 16
        assert enc.recovery_ok
        assert enc.class_probs[1] == pytest.approx(1.0, abs=1e-10)
        assert enc.to_dict()["dim"] == 16

    @pytest.mark.parametrize("family", ["ghz22", "parity2212"])
    def test_single_fold_is_the_base_traces(self, request, family):
        # At L = 1 the class state is the base state and P_j (j >= 1) the base support
        # Q_j: the probabilities are traces at the base dimension, P_0 = I - sum Q_j.
        e = request.getfixturevalue(family)
        cfg = SchemeConfig.create(e, 1, seed=0, force=True)
        supports = class_measurement_by_eigh(e)
        for x, state in enumerate(e.states):
            enc = direct_encode(cfg, x)
            want = [float(np.trace(state.matrix @ q).real) for q in supports]
            assert enc.dim == e.dim
            np.testing.assert_allclose(enc.class_probs, want, rtol=0, atol=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4), orthogonal=st.booleans(),
           data=st.data())
    def test_matches_explicit_oracle_on_random_ensembles(self, seed, n, orthogonal, data):
        rng = np.random.default_rng(seed)
        dim_a = data.draw(st.integers(1, 4), label="dim_a")
        if orthogonal:
            dim_b = data.draw(st.integers(max(1, -(-n // dim_a)), 16 // dim_a), label="dim_b")
            e = random_orthogonal_ensemble(rng, n, (dim_a, dim_b))
            # As for the class measurement above: the eigen oracle resolves each coarse
            # support only while the coarse spectra stay above 1e-3.
            L = 1
            while (e.dim ** (L + 1) <= 256
                   and smallest_coarse_eigenvalue(FoldSpec(e, L + 1)) >= 1e-3):
                L += 1
        else:
            dim_b = data.draw(st.integers(1, 16 // dim_a), label="dim_b")
            e = random_overlapping_ensemble(rng, n, (dim_a, dim_b))
            L = max(l for l in range(1, 7) if e.dim**l <= 256)
        L = data.draw(st.integers(1, L), label="L")
        report = check_hiding(e, max_iterations=25)
        assert report.orthogonal == orthogonal
        cfg = SchemeConfig(ensemble=e, L=L, seed=0, report=report, force=True)
        for x in range(n):
            enc = direct_encode(cfg, x)
            probs, ok = _oracle_encoding(cfg, x)
            assert enc.dim == e.dim**L
            # Off an orthogonal ensemble the elements are no POVM, and a "probability"
            # reaches n**(L-1): the tolerance is 1e-12 of the largest.
            scale = max(1.0, *map(abs, probs))
            np.testing.assert_allclose(enc.class_probs, probs, rtol=0, atol=1e-12 * scale)
            assert enc.recovery_ok == ok == orthogonal

    def test_x_out_of_range(self, ghz22):
        cfg = SchemeConfig.create(ghz22, 1, seed=0)
        with pytest.raises(ValueError, match="out of range"):
            direct_encode(cfg, 2)

    @pytest.mark.parametrize("folds", [1, 2])
    def test_non_orthogonal_never_recovers(self, folds):
        cfg = SchemeConfig.create(overlapping_pair(), folds, force=True)
        assert not cfg.report.orthogonal
        assert direct_encode(cfg, 1).recovery_ok is False

    @pytest.mark.parametrize("family, folds", [("ghz22", 5), ("parity2212", 2)])
    def test_kron_count(self, request, monkeypatch, family, folds):
        # The state and the measurement are folded as base traces, not as matrices:
        # no Kronecker product (forming both explicitly took 28 and 16).
        cfg = SchemeConfig.create(request.getfixturevalue(family), folds, force=True)
        calls = []
        kron_sum = folding._kron_sum

        def counting_kron_sum(lefts, rights):
            calls.extend(lefts)
            return kron_sum(lefts, rights)

        monkeypatch.setattr(folding, "_kron_sum", counting_kron_sum)
        monkeypatch.setattr(hiding, "_kron_sum", counting_kron_sum)
        monkeypatch.setattr(np, "kron", lambda *args: calls.append(args))
        assert direct_encode(cfg, 1).recovery_ok
        assert calls == []

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
        assert enc.dim == 256 and enc.recovery_ok
        assert dims and set(dims) == {4}

    def test_peak_memory_is_base_dimension(self, ghz22):
        # Base eigensystems and an n x (n+1) table of traces: no dim**L matrix.  At
        # L = 5 one such matrix is 1024 x 1024, 16 MiB; the peak is a few KiB.
        cfg = SchemeConfig.create(ghz22, 5)
        tracemalloc.start()
        try:
            enc = direct_encode(cfg, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert enc.dim == 1024 and enc.recovery_ok
        assert peak <= 64 * 1024


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

    def test_colliding_partition_names_raise_before_the_report(self, colliding_labels, monkeypatch):
        def no_report(*args, **kwargs):
            raise AssertionError("check_hiding ran before the name check")

        monkeypatch.setattr(hiding, "check_hiding", no_report)
        with pytest.raises(ValueError, match=r"share the name 'abc\|bc'"):
            coalition_report(colliding_labels, 1)

    @pytest.mark.parametrize("L", [2.5, 2.0, np.float64(3.0), True, 0],
                             ids=["2.5", "2.0", "numpy-3.0", "bool", "zero"])
    def test_fold_count_is_checked_before_the_report(self, ghz23, monkeypatch, L):
        def no_report(*args, **kwargs):
            raise AssertionError("check_hiding ran before the fold count check")

        monkeypatch.setattr(hiding, "check_hiding", no_report)
        with pytest.raises(ValueError, match=r"^fold count must be "):
            coalition_report(ghz23, L)

    @pytest.mark.parametrize("L", [2.5, 2.0])
    def test_report_bound_rejects_a_non_integer_count(self, ghz23, L):
        report = check_hiding(ghz23)
        with pytest.raises(ValueError, match=r"^fold count must be an integer, got "):
            report.bound(L)
        with pytest.raises(ValueError, match=r"^fold count must be an integer, got "):
            report.bound(L, next(iter(report.q_values)))

    def test_numpy_fold_count_gives_the_same_rows(self, ghz23):
        assert coalition_report(ghz23, np.int64(2)) == coalition_report(ghz23, 2)

    def test_seven_party_table(self):
        rows = coalition_report(ghz_complement_ensemble(2, 7), 1)
        assert len(rows) == bell_number(7) - 1 == 876
        assert all(row.kind == "exact" for row in rows)


QUBITS = SlotStructure((2, 2, 2, 2), ("A1", "A2", "A3", "A4"))
#: GHZ-complement (2,6): 202 partitions in p(6) - 1 = 10 orbits.  Four qubits symmetric
#: in A1 and A3 and in A2 and A4, three states that dominance leaves undecided; and
#: three qubits with no symmetry.
COALITION_CASES = {
    "ghz-2-6": lambda: ghz_complement_ensemble(2, 6),
    "partial": lambda: swap_symmetric_ensemble(1, QUBITS, [("A1", "A3"), ("A2", "A4")]),
    "asymmetric": lambda: swap_symmetric_ensemble(
        2, SlotStructure((2, 2, 2), ("A1", "A2", "A3")), []),
}


class TestCoalitionOrbits:
    """The least bound over the coarser cuts is taken once per orbit of the parties'
    symmetries, and every partition keeps its own row."""

    @pytest.mark.parametrize("case", COALITION_CASES)
    def test_rows_match_each_partition_on_its_own(self, monkeypatch, case):
        e = COALITION_CASES[case]()
        report = check_hiding(e)
        evaluated, real = [], hiding.coarser_bipartitions
        monkeypatch.setattr(hiding, "coarser_bipartitions",
                            lambda x: evaluated.append(x) or real(x))
        for L in (1, 3):
            evaluated.clear()
            assert coalition_report(e, L, force=True) == coalition_rows_by_partition(e, L, report)
            labels = e.parties.labels
            partitions = [p for p in brute_force_partitions(labels) if len(p) > 1]
            orbits = orbit_count(labels, party_classes_by_search(e), partitions)
            assert len(evaluated) == orbits
        assert orbits == {"ghz-2-6": 10, "partial": 8, "asymmetric": 4}[case]

    def test_colliding_names_raise_before_any_cut(self, colliding_labels, monkeypatch):
        formed = []
        monkeypatch.setattr(discrimination, "_cut_blocks", lambda *args: formed.append(args))
        with pytest.raises(ValueError, match=r"share the name 'abc\|bc'"):
            coalition_report(colliding_labels, 1)
        assert formed == []


def _assert_matches_call_sites(e, report, lmax):
    """Coalition rows and the bounds CSV equal the per-call-site curve math.

    ``report`` is ``check_hiding(e)``, the report ``coalition_report`` makes."""
    for L in range(1, lmax + 1):
        rows = coalition_report(e, L, force=True)
        assert rows == coalition_rows_two_branch(e, L, report)
        assert report.bound(L) == max(report.bound(L, cut) for cut in report.q_values)
    for L, line in enumerate(bounds_rows_by_loop(report, lmax)[1:], start=1):
        _, bound, exact = line.split(",")
        assert float(bound) == report.bound(L)
        assert exact == (bound if report.exact else "")


class TestReportBound:
    @pytest.mark.parametrize("family", ["ghz22", "ghz23", "ghz33", "parity2212"])
    def test_families_match_call_sites(self, request, family):
        e = request.getfixturevalue(family)
        report = check_hiding(e)
        assert report.exact == (e.n == 2)
        _assert_matches_call_sites(e, report, 6)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4), data=st.data())
    def test_random_orthogonal_match_call_sites(self, seed, n, data):
        dims = data.draw(
            st.lists(st.integers(1, 4), min_size=2, max_size=3)
            .filter(lambda d: n <= math.prod(d) <= 8),
            label="slot_dims",
        )
        e = random_orthogonal_ensemble(np.random.default_rng(seed), n, tuple(dims))
        report = check_hiding(e)
        _assert_matches_call_sites(e, report, data.draw(st.integers(1, 6), label="L"))


class TestIdentity:
    """The array-holding records compare and hash by identity, without raising."""

    def test_equality_and_hash(self, ghz22):
        closed = optimal_global([0.5, 0.5], ghz22.stack)
        config = SchemeConfig.create(ghz22, 2)
        pairs = [
            (ghz22, ghz_complement_ensemble(2, 2)),
            (ghz22.states[0], MultiPartyOperator(ghz22.states[0].matrix, ghz22.slots)),
            (closed, optimal_global([0.5, 0.5], ghz22.stack)),
            (direct_encode(config, 0), direct_encode(config, 0)),
            (config, SchemeConfig.create(ghz22, 2)),
        ]
        for a, b in pairs:
            assert a == a and a != b
            assert len({a, b, a}) == 2
        assert FoldSpec(ghz22, 2) == FoldSpec(ghz22, 2) != FoldSpec(ghz_complement_ensemble(2, 2), 2)
        assert config == config != dataclasses.replace(config)


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


class TestChiSquareSurvival:
    def test_matches_scipy(self):
        chi2 = pytest.importorskip("scipy.stats").chi2
        for dof in range(1, 201):
            # From the origin past the mode into the far tail, where the value is ~1e-280.
            for x in [0.0, 1e-12, 1e-6, 1e-3, *np.geomspace(0.01, 1300.0, 60),
                      *np.linspace(0.5, 3.0 * dof + 60.0, 40)]:
                want, got = float(chi2.sf(x, dof)), _chi2_sf(float(x), dof)
                if want < 1e-280:
                    assert got < 1e-279
                else:
                    assert got == pytest.approx(want, rel=1e-12, abs=0), (dof, x)

    @pytest.mark.parametrize("dof", [1, 2, 7, 50])
    def test_edges(self, dof):
        assert _chi2_sf(0.0, dof) == 1.0
        assert _chi2_sf(-1.0, dof) == 1.0
        assert _chi2_sf(1e6, dof) == 0.0
