import io
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from nlhide import (
    DimensionCapError,
    Ensemble,
    InvalidEnsembleError,
    MultiPartyOperator,
    ParityBlockParams,
    PartySet,
    SlotStructure,
    FoldSpec,
    coarse_ensemble,
    ghz_complement_ensemble,
    ghz_state,
    load_ensemble,
    max_pairwise_overlap,
    parity_block_ensemble,
    parity_block_size_condition,
    partial_transpose,
    save_ensemble,
    validate,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from nlhide import ensembles
from nlhide.ensembles import ORTHOGONALITY_TOL, pairwise_overlaps

from oracles import (
    load_by_document,
    parity_family_by_reflection,
    random_density,
    reflection_powers,
    saved_text_by_document,
    to_document,
)


def qubit_pair_state(vec):
    mat = np.outer(vec, np.conj(vec))
    return MultiPartyOperator(mat, SlotStructure((2,), ("A1",)))


def two_state(vec_a, vec_b, probs=(0.5, 0.5)):
    # Minimal two-party wrapper: one qubit for A1 plus a trivial slot for A2.
    slots = SlotStructure((2, 1), ("A1", "A2"))
    states = tuple(
        MultiPartyOperator(np.outer(v, np.conj(v)), slots) for v in (vec_a, vec_b)
    )
    return Ensemble(PartySet.of_size(2), probs, states)


KET0 = np.array([1.0, 0.0])
KET1 = np.array([0.0, 1.0])
KET_PLUS = np.array([1.0, 1.0]) / math.sqrt(2)


class TestEnsembleStructure:
    def test_needs_two_members(self):
        with pytest.raises(ValueError):
            two_state(KET0, KET1, probs=(1.0,))

    def test_mismatched_slots_rejected(self):
        a = qubit_pair_state(KET0)
        b = MultiPartyOperator(np.eye(4) / 4, SlotStructure((2, 2), ("A1", "A2")))
        with pytest.raises(ValueError):
            Ensemble(PartySet.of_size(2), (0.5, 0.5), (a, b))

    def test_writing_the_callers_array_changes_nothing(self):
        slots = SlotStructure((2, 1), ("A1", "A2"))
        matrix = np.diag([1.0, 0.0]).astype(complex)
        e = Ensemble(PartySet.of_size(2), (0.5, 0.5),
                     (MultiPartyOperator(matrix, slots), MultiPartyOperator(np.eye(2) / 2, slots)))
        before = e.stack.copy()
        matrix[...] = 7.0
        assert e.stack.tobytes() == before.tobytes()
        assert e.states[0].matrix.tobytes() == before[0].tobytes()

    @pytest.mark.parametrize("build", [
        lambda e: e,
        lambda e: load_ensemble(io.StringIO(saved_text_by_document(e))),
        lambda e: coarse_ensemble(FoldSpec(e, 2)),
    ], ids=["constructor", "loader", "coarse"])
    def test_states_are_read_only_views_of_one_stack(self, parity2212, build):
        e = build(parity2212)
        assert e.stack.shape == (e.n, e.dim, e.dim) and e.stack.dtype == np.complex128
        assert e.stack.flags.c_contiguous and not e.stack.flags.writeable
        for k, state in enumerate(e.states):
            assert not state.matrix.flags.writeable
            assert np.shares_memory(state.matrix, e.stack)
            assert state.matrix.tobytes() == e.stack[k].tobytes()
        with pytest.raises(ValueError):
            e.stack[0, 0, 0] = 1.0


class TestValidate:
    def test_example_family_passes(self):
        diagnostics = validate(ghz_complement_ensemble(2, 2))
        assert diagnostics.passed
        assert not diagnostics.warnings

    @pytest.mark.parametrize(
        "build",
        [
            lambda: parity_block_ensemble(ParityBlockParams(2, 2, 2, 2)),
            lambda: ghz_complement_ensemble(2, 6),
        ],
        ids=["parity-2222", "ghz-2-6"],
    )
    def test_round_off_negative_eigenvalues_do_not_warn(self, build):
        # Their smallest eigenvalues are exact zeros that LAPACK may return
        # about 1e-17 below zero; that is round-off, not file noise.
        diagnostics = validate(build())
        assert diagnostics.passed
        assert not diagnostics.warnings

    def test_probability_sum_failure(self):
        e = two_state(KET0, KET1, probs=(0.6, 0.5))
        diagnostics = validate(e)
        (fail,) = [c for c in diagnostics.checks if not c.ok]
        assert fail.name == "probability-sum"
        assert fail.residual == pytest.approx(0.1)

    def test_round_off_negative_probability_fails(self):
        # The sum is within its tolerance, but a weight below zero is still one:
        # the solver takes no negative weight, so the ensemble fails here, by name.
        e = two_state(KET0, KET1, probs=(1.0 + 1e-13, -1e-13))
        (fail,) = [c for c in validate(e).checks if not c.ok]
        assert (fail.name, fail.residual) == ("probability-nonnegative", 1e-13)

    def test_trace_failure_for_scaled_state(self):
        slots = SlotStructure((2, 1), ("A1", "A2"))
        doubled = MultiPartyOperator(2 * np.outer(KET0, KET0), slots)
        fine = MultiPartyOperator(np.outer(KET1, KET1), slots)
        e = Ensemble(PartySet.of_size(2), (0.5, 0.5), (doubled, fine))
        fails = {c.name: c for c in validate(e).checks if not c.ok}
        assert "trace[0]" in fails
        assert fails["trace[0]"].residual == pytest.approx(1.0)

    def test_slightly_negative_state_passes_with_warning(self):
        # File round-trip noise: eigenvalues within -1e-10 are tolerated.
        slots = SlotStructure((2, 1), ("A1", "A2"))
        noisy = MultiPartyOperator(np.diag([1.0 + 1e-11, -1e-11]), slots)
        fine = MultiPartyOperator(np.outer(KET1, KET1), slots)
        diagnostics = validate(Ensemble(PartySet.of_size(2), (0.5, 0.5), (noisy, fine)))
        assert diagnostics.passed
        assert any("state 0" in w for w in diagnostics.warnings)


class TestIsOrthogonal:
    def test_computational_pair(self):
        assert max_pairwise_overlap(two_state(KET0, KET1)) <= ORTHOGONALITY_TOL

    def test_overlapping_pair(self):
        e = two_state(KET0, KET_PLUS)
        assert max_pairwise_overlap(e) > ORTHOGONALITY_TOL
        overlap = np.trace(e.states[0].matrix @ e.states[1].matrix).real
        assert overlap == pytest.approx(0.5)

    def test_parity_family(self, parity2222):
        assert max_pairwise_overlap(parity2222) <= ORTHOGONALITY_TOL


class TestPairwiseOverlaps:
    def test_matches_trace_of_product_on_random_states(self):
        rng = np.random.default_rng(17)
        slots = SlotStructure((2, 3), ("A1", "A2"))
        states = tuple(MultiPartyOperator(random_density(rng, 6), slots) for _ in range(4))
        e = Ensemble(PartySet.of_size(2), (0.25,) * 4, states)
        got = pairwise_overlaps(e)
        for i, j in itertools.product(range(4), repeat=2):
            want = 0.0 if i == j else abs(np.trace(states[i].matrix @ states[j].matrix))
            assert got[i, j] == pytest.approx(want, abs=1e-14)


class TestGhzState:
    def test_bell_entries(self):
        bell = ghz_state(2, 2)
        want = np.zeros((4, 4))
        want[0, 0] = want[0, 3] = want[3, 0] = want[3, 3] = 0.5
        np.testing.assert_allclose(bell.matrix, want, atol=1e-15)

    def test_three_qubit_projector(self):
        p = ghz_state(2, 3)
        assert p.trace() == pytest.approx(1.0, abs=1e-14)
        purity = np.trace(p.matrix @ p.matrix).real
        assert purity == pytest.approx(1.0, abs=1e-12)

    def test_qutrit_transpose_minimum(self):
        # Frozen from the eigendecomposition of the transposed projector.
        p = ghz_state(3, 2)
        vals = np.linalg.eigvalsh(partial_transpose(p, {"A1"}).matrix)
        assert vals[0] == pytest.approx(-1.0 / 3.0, abs=1e-12)

    def test_parameter_and_cap_errors(self):
        with pytest.raises(ValueError):
            ghz_state(1, 2)
        with pytest.raises(ValueError):
            ghz_state(2, 1)
        with pytest.raises(DimensionCapError):
            ghz_state(2, 13)


class TestGhzComplementFamily:
    def test_probs_22(self, ghz22):
        assert ghz22.probs == (0.75, 0.25)

    def test_probs_23(self, ghz23):
        assert ghz23.probs == (0.875, 0.125)

    @pytest.mark.parametrize("d,m", [(2, 2), (2, 3), (3, 2)])
    def test_always_orthogonal(self, d, m):
        assert max_pairwise_overlap(ghz_complement_ensemble(d, m)) <= ORTHOGONALITY_TOL

    @pytest.mark.parametrize("d,m", [(2, 2), (2, 3), (3, 2)])
    def test_average_is_maximally_mixed(self, d, m):
        e = ghz_complement_ensemble(d, m)
        avg = sum(p * s.matrix for p, s in zip(e.probs, e.states))
        np.testing.assert_allclose(avg, np.eye(e.dim) / e.dim, atol=1e-12)


class TestParityBlockFamily:
    @pytest.mark.parametrize("d,m", [(2, 2), (2, 3)])
    def test_reduces_to_two_state_family(self, d, m):
        base = ghz_complement_ensemble(d, m)
        reduced = parity_block_ensemble(ParityBlockParams(d, m, 1, 1))
        assert max(
            abs(a - b) for a, b in zip(base.probs, reduced.probs)
        ) <= 1e-12
        for a, b in zip(base.states, reduced.states):
            assert float(np.max(np.abs(a.matrix - b.matrix))) <= 1e-12

    def test_2222_probabilities(self, parity2222):
        want = (25 / 64, 15 / 64, 15 / 64, 9 / 64)
        np.testing.assert_allclose(parity2222.probs, want, atol=1e-15)
        assert parity2222.dim == 256

    def test_2222_block_weight(self):
        lam0, lam1 = parity_block_ensemble(ParityBlockParams(2, 2, 2, 1)).probs
        assert lam0 == pytest.approx(5 / 8)
        assert lam1 == pytest.approx(3 / 8)

    def test_2212_heaviest_weight(self, parity2212):
        assert parity2212.probs[0] == pytest.approx(9 / 16)

    def test_size_condition_values(self):
        good = parity_block_size_condition(ParityBlockParams(2, 2, 2, 2))
        assert good.lhs == pytest.approx(0.25)
        assert good.rhs == pytest.approx(math.sqrt(2) - 1)
        assert good.holds
        bad = parity_block_size_condition(ParityBlockParams(2, 2, 1, 2))
        assert bad.lhs == pytest.approx(0.5)
        assert not bad.holds

    def test_cap_guard(self):
        with pytest.raises(DimensionCapError):
            parity_block_ensemble(ParityBlockParams(2, 2, 2, 2), cap=128)

    @pytest.mark.parametrize("d,m,s", [(2, 2, 1), (2, 2, 2), (3, 2, 1)])
    def test_parity_decomposition_of_blocks(self, d, m, s):
        # The t = 1 family is the two blocks: the normalized sum and difference of
        # the s-fold identity and the s-fold GHZ reflection, weighted by their
        # normalizers over 2 d^{ms}.
        e = parity_block_ensemble(ParityBlockParams(d, m, s, 1))
        pi0, pi1 = reflection_powers(d, m, s)
        plus = d ** (m * s) + (d**m - 2) ** s
        minus = d ** (m * s) - (d**m - 2) ** s
        assert e.probs == (plus / (2 * d ** (m * s)), minus / (2 * d ** (m * s)))
        assert np.array_equal(e.stack[0], (pi0 + pi1) / plus)
        assert np.array_equal(e.stack[1], (pi0 - pi1) / minus)

    @pytest.mark.parametrize("params", [(2, 2, 1, 2), (2, 2, 2, 2), (2, 3, 1, 3), (3, 2, 1, 2),
                                        (2, 2, 3, 1), (2, 2, 1, 3)])
    def test_bit_identical_to_the_reflection_construction(self, params):
        e = parity_block_ensemble(ParityBlockParams(*params))
        probs, stack = parity_family_by_reflection(*params)
        assert np.array_equal(e.stack, stack)
        assert e.probs == probs

    @pytest.mark.parametrize("params", [ParityBlockParams(2, 2, 1, 2),
                                        ParityBlockParams(2, 2, 2, 2)])
    def test_signed_reflection_reconstruction(self, params):
        # Every weighted member expands over the 2**t signed products of the
        # s-fold identity/reflection blocks.  The prefactor is (2 d^{ms})^-t:
        # a trace check rules out any other normalization.
        d, m, s, t = params.d, params.m, params.s, params.t
        e = parity_block_ensemble(params)
        blocks = reflection_powers(d, m, s)
        prefactor = (2.0 * d ** (m * s)) ** -t
        for i in range(e.n):
            digits = [(i >> (k - 1)) & 1 for k in range(1, t + 1)]
            total = np.zeros((e.dim, e.dim), dtype=complex)
            for bits in itertools.product((0, 1), repeat=t):
                term = blocks[bits[0]]
                for b in bits[1:]:
                    term = np.kron(term, blocks[b])
                sign = (-1) ** sum(a * b for a, b in zip(bits, digits))
                total += sign * term
            got = e.probs[i] * e.states[i].matrix
            # Weights and blocks are rounded quotients: equal to round-off, not bit for bit.
            assert float(np.max(np.abs(got - prefactor * total))) <= 1e-12

    @pytest.mark.parametrize("d,m", [(2, 2), (2, 3)])
    def test_blocks_match_two_fold_coarse_graining(self, d, m):
        # The parity blocks at s = 2 are the modulo-2 coarse classes of a
        # 2-fold preparation from the two-state family.
        blocks = parity_block_ensemble(ParityBlockParams(d, m, 2, 1))
        coarse = coarse_ensemble(FoldSpec(ghz_complement_ensemble(d, m), 2))
        assert abs(coarse.probs[0] - blocks.probs[0]) <= 1e-12
        assert abs(coarse.probs[1] - blocks.probs[1]) <= 1e-12
        assert float(np.max(np.abs(coarse.stack[0] - blocks.stack[0]))) <= 1e-10
        assert float(np.max(np.abs(coarse.stack[1] - blocks.stack[1]))) <= 1e-10


class TestTransposedComplementDecomposition:
    """Orthogonal decomposition behind the dominance certificate.

    The transposed weighted difference of the two-state family splits into a
    diagonal correlation part and signed symmetric/antisymmetric pair
    projectors; this pins the PSD property used everywhere else.
    """

    @staticmethod
    def _product_vector(slots, side, i, j, d):
        vec = np.array([1.0], dtype=complex)
        for party in slots.party_of_slot:
            local = np.zeros(d)
            local[i if party in side else j] = 1.0
            vec = np.kron(vec, local)
        return vec

    @pytest.mark.parametrize(
        "d,m,side",
        [(2, 2, {"A1"}), (3, 2, {"A1"}), (2, 3, {"A1"}), (2, 3, {"A1", "A2"})],
    )
    def test_decomposition_and_positivity(self, d, m, side):
        e = ghz_complement_ensemble(d, m)
        gamma0, gamma1 = e.probs
        diff = gamma0 * partial_transpose(e.states[0], side).matrix - gamma1 * (
            partial_transpose(e.states[1], side).matrix
        )
        dim = e.dim
        slots = e.slots

        cross = np.zeros((dim, dim), dtype=complex)
        for i in range(d):
            for j in range(d):
                u = self._product_vector(slots, side, i, j, d)
                v = self._product_vector(slots, side, j, i, d)
                cross += np.outer(u, v.conj())
        np.testing.assert_allclose(
            diff, (np.eye(dim) - (2.0 / d) * cross) / dim, atol=1e-12
        )

        diag_corr = np.zeros((dim, dim), dtype=complex)
        sym = np.zeros((dim, dim), dtype=complex)
        antisym = np.zeros((dim, dim), dtype=complex)
        for i in range(d):
            w = self._product_vector(slots, side, i, i, d)
            diag_corr += np.outer(w, w.conj())
        for i in range(d):
            for j in range(i + 1, d):
                u = self._product_vector(slots, side, i, j, d)
                v = self._product_vector(slots, side, j, i, d)
                plus = (u + v) / math.sqrt(2)
                minus = (u - v) / math.sqrt(2)
                sym += np.outer(plus, plus.conj())
                antisym += np.outer(minus, minus.conj())
        np.testing.assert_allclose(cross, diag_corr + sym - antisym, atol=1e-12)

        leftover = np.eye(dim) - diag_corr - sym
        assert np.linalg.eigvalsh(leftover)[0] >= -1e-12
        assert np.linalg.eigvalsh(diff)[0] >= -1e-12


class TestPersistence:
    def test_round_trip_is_exact(self, ghz22):
        buffer = io.StringIO()
        save_ensemble(ghz22, buffer)
        buffer.seek(0)
        loaded = load_ensemble(buffer)
        assert loaded.probs == ghz22.probs
        assert loaded.slots == ghz22.slots
        for a, b in zip(loaded.states, ghz22.states):
            assert float(np.max(np.abs(a.matrix - b.matrix))) == 0.0

    @pytest.mark.parametrize("name", ["ghz22", "ghz33", "parity2212", "parity2222"])
    def test_round_trip_stack_is_bit_identical(self, name, request):
        e = request.getfixturevalue(name)
        buffer = io.StringIO()
        save_ensemble(e, buffer)
        buffer.seek(0)
        assert load_ensemble(buffer).stack.tobytes() == e.stack.tobytes()

    def test_round_trip_parity_family(self, parity2212):
        buffer = io.StringIO()
        save_ensemble(parity2212, buffer)
        buffer.seek(0)
        loaded = load_ensemble(buffer)
        for a, b in zip(loaded.states, parity2212.states):
            assert float(np.max(np.abs(a.matrix - b.matrix))) <= 1e-15

    def test_rejects_bad_probability_sum(self, ghz22):
        doc = to_document(ghz22)
        doc["probs"] = [0.65, 0.25]
        with pytest.raises(InvalidEnsembleError) as excinfo:
            load_ensemble(io.StringIO(json.dumps(doc)))
        assert any(
            c.name == "probability-sum" for c in excinfo.value.diagnostics.failures
        )

    def test_rejects_non_hermitian_state(self, ghz22):
        doc = to_document(ghz22)
        doc["states"][0][0][1] = [9.0, 0.0]
        with pytest.raises(InvalidEnsembleError) as excinfo:
            load_ensemble(io.StringIO(json.dumps(doc)))
        assert any(
            c.name.startswith("hermitian") for c in excinfo.value.diagnostics.failures
        )

    def test_rejects_truncated_json(self):
        with pytest.raises(InvalidEnsembleError):
            load_ensemble(io.StringIO('{"parties": ["A1"'))

    def test_rejects_missing_key(self, ghz22):
        doc = to_document(ghz22)
        del doc["probs"]
        with pytest.raises(InvalidEnsembleError):
            load_ensemble(io.StringIO(json.dumps(doc)))

    def test_saved_bytes_match_fixture(self):
        slots = SlotStructure((2, 1), ("A1", "A2"))
        first = np.array(
            [[2 / 3, complex(-0.0, 1e-300)], [complex(-0.0, -1e-300), 1 / 3]]
        )
        second = np.diag([0.1, 0.9]).astype(complex)
        e = Ensemble(
            PartySet.of_size(2), (0.5, 0.5),
            (MultiPartyOperator(first, slots), MultiPartyOperator(second, slots)),
        )
        buffer = io.StringIO()
        save_ensemble(e, buffer)
        assert buffer.getvalue() == (
            '{"parties":["A1","A2"],"party_of_slot":[0,1],"probs":[0.5,0.5],'
            '"slot_dims":[2,1],"states":['
            '[[[0.6666666666666666,0.0],[-0.0,1e-300]],'
            '[[-0.0,-1e-300],[0.3333333333333333,0.0]]],'
            '[[[0.1,0.0],[0.0,0.0]],[[0.0,0.0],[0.9,0.0]]]]}'
        )
        buffer.seek(0)
        loaded = load_ensemble(buffer)
        for a, b in zip(loaded.states, e.states):
            assert a.matrix.tobytes() == b.matrix.tobytes()  # -0.0 and 1e-300 survive

    @pytest.mark.parametrize(
        "entry_00,row_1",
        [
            (["0.5", 0.0], None),  # string entry
            ([0.5, 0.0, 0.0], None),  # triple instead of a pair
            ([0.5, 0.0], [[0.0, 0.0]]),  # ragged: second row too short
        ],
        ids=["string", "triple", "ragged"],
    )
    def test_rejects_malformed_entries(self, ghz22, entry_00, row_1):
        doc = to_document(ghz22)
        doc["states"][0][0][0] = entry_00
        if row_1 is not None:
            doc["states"][0][1] = row_1
        with pytest.raises(InvalidEnsembleError) as excinfo:
            load_ensemble(io.StringIO(json.dumps(doc)))
        assert [c.name for c in excinfo.value.diagnostics.failures] == ["schema"]

    @pytest.mark.parametrize(
        "key,value",
        [
            ("party_of_slot", [-1, -2]),  # negative indexing would swap the owners
            ("party_of_slot", [0, 2]),  # past the last party
            ("party_of_slot", [True, 0]),
            ("party_of_slot", [0.5, 1]),
            ("slot_dims", [2.9, 2.0]),
            ("slot_dims", [True, 4]),  # would load as dims (1, 4)
            ("probs", ["0.75", 0.25]),
            ("probs", [True, 0.0]),
            ("parties", ["A1", 2]),
        ],
        ids=["negative-party", "party-past-end", "bool-party", "fractional-party",
             "fractional-dim", "bool-dim", "string-prob", "bool-prob", "int-party-label"],
    )
    def test_rejects_malformed_header_fields(self, ghz22, key, value):
        doc = to_document(ghz22)
        doc[key] = value
        with pytest.raises(InvalidEnsembleError) as excinfo:
            load_ensemble(io.StringIO(json.dumps(doc)))
        assert [c.name for c in excinfo.value.diagnostics.failures] == ["schema"]

    @pytest.mark.parametrize(
        "key,value,reason",
        [
            ("party_of_slot", [-1, 0],
             "schema: party_of_slot entries must be integers in 0..1, got -1"),
            ("probs", [0.65, 0.25], "probability-sum: sum deviates from 1 by 1.000e-01"),
        ],
        ids=["schema", "probability-sum"],
    )
    def test_error_message_names_the_reason(self, ghz22, key, value, reason):
        doc = to_document(ghz22)
        doc[key] = value
        with pytest.raises(InvalidEnsembleError) as excinfo:
            load_ensemble(io.StringIO(json.dumps(doc)))
        assert reason in str(excinfo.value)

    def test_integral_float_header_fields_load(self, ghz22):
        doc = to_document(ghz22)
        doc["slot_dims"] = [2.0, 2.0]
        doc["party_of_slot"] = [0.0, 1.0]
        doc["probs"] = [0.75, 0.25]
        loaded = load_ensemble(io.StringIO(json.dumps(doc)))
        assert loaded.slots == ghz22.slots
        assert loaded.probs == ghz22.probs


def random_ensemble(seed: int) -> Ensemble:
    """Two or three members on one or two slots of dimension 1..3; each state is a
    random density matrix or a basis projector, whose entries are all integral."""
    rng = np.random.default_rng(seed)
    slot_dims = tuple(int(d) for d in rng.integers(1, 4, size=rng.integers(1, 3)))
    parties = PartySet.of_size(max(2, len(slot_dims)))
    slots = SlotStructure(slot_dims + (1,) * (len(parties.labels) - len(slot_dims)),
                          parties.labels)
    n = int(rng.integers(2, 4))
    states = []
    for _ in range(n):
        if rng.random() < 0.5:
            states.append(random_density(rng, slots.dim))
        else:
            states.append(np.diag(np.eye(slots.dim)[rng.integers(slots.dim)]).astype(complex))
    return Ensemble(parties, tuple(rng.dirichlet(np.ones(n))),
                    tuple(MultiPartyOperator(m, slots) for m in states))


def _integral_as_int(value):
    if isinstance(value, list):
        return [_integral_as_int(v) for v in value]
    return int(value) if value.is_integer() else value


LAYOUTS = {
    "compact": saved_text_by_document,
    "indent": lambda e: json.dumps(to_document(e), indent=1),
    "default-separators": lambda e: json.dumps(to_document(e)),
    "integral-as-int": lambda e: json.dumps(
        dict(to_document(e), states=_integral_as_int(to_document(e)["states"]))),
}


def _outcome(load, text):
    """What a loader makes of a text: the loaded fields with each matrix's bytes,
    or the failed check names and the message."""
    try:
        e = load(text)
    except InvalidEnsembleError as exc:
        return [c.name for c in exc.diagnostics.failures], str(exc)
    return e.parties, e.slots, e.probs, [s.matrix.tobytes() for s in e.states]


def _load_text(text):
    return load_ensemble(io.StringIO(text))


#: A valid two-state document whose states are diag(0.75, 0.25) and the |+><+| projector.
PLAIN = (
    '{"parties":["A1","A2"],"party_of_slot":[0,1],"probs":[0.5,0.5],"slot_dims":[2,1],'
    '"states":[[[[0.75,0.0],[0.0,0.0]],[[0.0,0.0],[0.25,0.0]]],'
    '[[[0.5,0.0],[0.5,0.0]],[[0.5,0.0],[0.5,0.0]]]]}'
)
_HEADER, _STATES = PLAIN[1:-1].split(',"states":')

EDITED_DOCUMENTS = {
    "leading-zero": PLAIN.replace('"states":[[[[0.', '"states":[[[[00.'),
    "plus-sign": PLAIN.replace("[[[[0.75", "[[[[+0.75"),
    "bare-fraction": PLAIN.replace("[[[[0.75", "[[[[.75"),
    "bare-point": PLAIN.replace("[[[[0.75", "[[[[1."),
    "lone-minus": PLAIN.replace("[[[[0.75", "[[[[-"),
    "lone-exponent": PLAIN.replace("[[[[0.75", "[[[[e"),
    "space-in-number": PLAIN.replace("[[[[0.75", "[[[[0.7 5"),
    "nan": PLAIN.replace("[[[[0.75", "[[[[NaN"),
    "true": PLAIN.replace("[[[[0.75", "[[[[true"),
    "false": PLAIN.replace("[[[[0.75,0.0]", "[[[[0.75,false]"),
    "string": PLAIN.replace("[[[[0.75", '[[[["0.75"'),
    "overflow": PLAIN.replace("[[[[0.75", "[[[[1e999"),
    "huge-int": PLAIN.replace("[[[[0.75", "[[[[" + "9" * 400),
    "exponent-form": PLAIN.replace("[[[[0.75", "[[[[7.5E-1"),
    "int-entries": PLAIN.replace("[[[[0.75,0.0],[0.0,0.0]],[[0.0,0.0],[0.25,0.0]]]",
                                 "[[[[1,0],[0,0]],[[0,0],[0,0]]]"),
    "triple": PLAIN.replace("[[[[0.75,0.0]", "[[[[0.75,0.0,0.0]"),
    "ragged-row": PLAIN.replace("[[0.0,0.0],[0.25,0.0]]", "[[0.0,0.0]]"),
    "missing-bracket": PLAIN.replace("[0.25,0.0]]]", "[0.25,0.0]]"),
    "empty-entry": PLAIN.replace("[[[[0.75,0.0]", "[[[[,0.0]"),
    "stray-number-before-entry": PLAIN.replace("[[[[0.75,0.0]", "[[[0.75[,0.0]"),
    "stray-number-after-entry": PLAIN.replace("[0.75,0.0],[", "[0.75,0.0]5,["),
    "duplicate-states-last-empty": PLAIN[:-1] + ',"states":[]}',
    "duplicate-states-first-empty": PLAIN.replace('"states":', '"states":[],"states":'),
    "states-party-label": PLAIN.replace('["A1","A2"]', '["states","A2"]'),
    "states-first": '{"states":' + _STATES + "," + _HEADER + "}",
    "escaped-states-key": PLAIN.replace('"states":', '"st\\u0061tes":'),
    "escaped-key-nested-states": PLAIN.replace(
        '"states":', '"st\\u0061tes":[],"extra":{"states":')[:-1] + "}}",
    "escaped-quote-key": PLAIN.replace('"states":', '"st\\u0061tes":[],"x\\"states":'),
    "states-null": '{' + _HEADER + ',"states":null}',
    "count-disagrees": PLAIN.replace('"probs":[0.5,0.5]', '"probs":[0.5,0.25,0.25]'),
    "one-member": PLAIN.replace('"probs":[0.5,0.5]', '"probs":[1.0]'),
    "shape-disagrees": PLAIN.replace('"slot_dims":[2,1]', '"slot_dims":[2,2]'),
    "huge-slot-dims": PLAIN.replace('"slot_dims":[2,1]', '"slot_dims":[65536,65536]'),
    "missing-probs": PLAIN.replace('"probs":[0.5,0.5],', ""),
    "not-hermitian": PLAIN.replace("[0.75,0.0],[0.0,0.0]", "[0.75,0.0],[9.0,0.0]"),
    "probability-sum": PLAIN.replace('"probs":[0.5,0.5]', '"probs":[0.65,0.25]'),
    "whitespace": PLAIN.replace(",", " ,\n ").replace("[", "[\t").replace("]", "\r]"),
    "top-level-array": "[" + PLAIN + "]",
    "trailing-data": PLAIN + " 1",
}


class TestFlatReader:
    """``load_ensemble`` against the whole-document reader of the oracles."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), layout=st.sampled_from(sorted(LAYOUTS)))
    def test_well_formed_documents_load_bit_identical(self, seed, layout):
        text = LAYOUTS[layout](random_ensemble(seed))
        expected = _outcome(load_by_document, text)
        # The flat path reads these documents itself, with no fallback.
        assert _outcome(ensembles._load_plain, text) == expected
        assert _outcome(_load_text, text) == expected

    @pytest.mark.parametrize("text", EDITED_DOCUMENTS.values(), ids=EDITED_DOCUMENTS.keys())
    def test_edited_documents_match_document_reader(self, text):
        assert _outcome(_load_text, text) == _outcome(load_by_document, text)

    def test_edited_documents_include_accepted_and_rejected(self):
        accepted = [k for k, text in EDITED_DOCUMENTS.items()
                    if not isinstance(_outcome(load_by_document, text)[0], list)]
        assert {"int-entries", "states-first", "escaped-states-key"} <= set(accepted)
        assert "leading-zero" not in accepted

    @pytest.mark.parametrize("name", ["true", "false"])
    def test_boolean_entries_are_schema_errors(self, name):
        # Among numbers numpy would read a boolean as 1.0 or 0.0; the header checks reject it too.
        text = EDITED_DOCUMENTS[name]
        message = "invalid ensemble: schema: state entries must be numbers, got true or false"
        assert _outcome(load_by_document, text) == (["schema"], message)

    @pytest.mark.parametrize("name", ["states-first", "states-party-label", "int-entries",
                                      "exponent-form", "whitespace", "not-hermitian"])
    def test_flat_path_reads_plain_layouts_itself(self, name):
        text = EDITED_DOCUMENTS[name]
        assert _outcome(ensembles._load_plain, text) == _outcome(load_by_document, text)

    @settings(max_examples=300, deadline=None)
    @given(position=st.integers(len(_HEADER) + 11, len(PLAIN) - 1),
           cut=st.integers(0, 2), insert=st.sampled_from(list('0159.eE+-[],"N ') + [""]))
    def test_single_edits_match_document_reader(self, position, cut, insert):
        text = PLAIN[:position] + insert + PLAIN[position + cut:]
        assert _outcome(_load_text, text) == _outcome(load_by_document, text)

    @pytest.mark.parametrize("text", EDITED_DOCUMENTS.values(), ids=EDITED_DOCUMENTS.keys())
    def test_file_reads_match_text_reads(self, text, tmp_path):
        path = tmp_path / "e.json"
        path.write_bytes(text.encode("utf-8"))
        expected = _outcome(load_ensemble, io.StringIO(path.read_text(encoding="utf-8")))
        assert _outcome(load_ensemble, str(path)) == expected

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    @pytest.mark.parametrize("tail", ["", "\n1"], ids=["valid", "trailing-data"])
    def test_newlines_in_a_file_read_as_in_text_mode(self, newline, tail, tmp_path):
        # An indented file whose line ends are "\r\n" or "\r" loads as its "\n" text,
        # and a JSON error names the line and character of that text.
        text = json.dumps(to_document(random_ensemble(7)), indent=1) + tail
        path = tmp_path / "e.json"
        path.write_bytes(text.replace("\n", newline).encode("utf-8"))
        expected = _outcome(load_by_document, text)
        assert isinstance(expected[0], list) == bool(tail)
        assert _outcome(load_ensemble, str(path)) == expected

    def test_bom_file_is_a_schema_error(self, tmp_path):
        path = tmp_path / "bom.json"
        path.write_bytes(b"\xef\xbb\xbf" + PLAIN.encode("utf-8"))
        message = ("invalid ensemble: schema: not valid JSON: Unexpected UTF-8 BOM "
                   "(decode using utf-8-sig): line 1 column 1 (char 0)")
        assert _outcome(load_ensemble, str(path)) == (["schema"], message)

    def test_invalid_utf8_file_raises_as_a_text_read(self, tmp_path):
        path = tmp_path / "invalid.json"
        # The position counts bytes of the file, a "\r\n" before the bad byte included.
        path.write_bytes(b"{\r\n" + PLAIN[1:].encode("utf-8").replace(b'"A2"', b'"A\xff"'))
        with pytest.raises(UnicodeDecodeError) as text_read:
            path.read_text(encoding="utf-8")
        with pytest.raises(UnicodeDecodeError) as file_read:
            load_ensemble(str(path))
        assert str(file_read.value) == str(text_read.value) == (
            "'utf-8' codec can't decode byte 0xff in position 21: invalid start byte")

    def test_load_peak_memory_is_bounded(self, parity2222, tmp_path):
        path = tmp_path / "parity.json"  # dim 256, four states, 2.7 MB
        save_ensemble(parity2222, str(path))
        tracemalloc.start()
        try:
            load_ensemble(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The text and the stack (2.7 + 4.2 MB), once more for the read and for
        # validation's dim x dim temporaries: no copy of the states text, no nested lists.
        assert peak < 2 * (path.stat().st_size + parity2222.stack.nbytes)


SPECIAL_ENTRIES = (-0.0, 1e-300, 5e-324, 2.5e-310)
SPECIAL_PROBS = SPECIAL_ENTRIES + (math.nan, math.inf, -math.inf)


class TestWriter:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), entry=st.sampled_from(SPECIAL_ENTRIES),
           prob=st.sampled_from(SPECIAL_PROBS))
    def test_saved_bytes_match_document_writer(self, seed, entry, prob):
        # Operators reject non-finite entries; probabilities are not checked until
        # validation, so NaN and infinities are written from there.
        rng = np.random.default_rng(seed)
        e = random_ensemble(seed)
        states = []
        for state in e.states:
            matrix = state.matrix.copy()
            matrix.reshape(-1).view(np.float64)[rng.integers(2 * e.dim ** 2, size=2)] = entry
            states.append(MultiPartyOperator(matrix, state.slots))
        probs = list(e.probs)
        probs[rng.integers(e.n)] = prob
        e = Ensemble(e.parties, tuple(probs), tuple(states))
        buffer = io.StringIO()
        save_ensemble(e, buffer)
        assert buffer.getvalue() == saved_text_by_document(e)

    @pytest.mark.parametrize("name", ["ghz22", "parity2212"])
    def test_family_bytes_match_document_writer(self, name, request, tmp_path):
        e = request.getfixturevalue(name)
        save_ensemble(e, str(tmp_path / "e.json"))
        assert (tmp_path / "e.json").read_text(encoding="utf-8") == saved_text_by_document(e)


#: Entries of a sparse state's support: the zero literals, subnormals, the edges of
#: the float range, integral floats and plain floats.
SUPPORT_ENTRIES = (0.0, -0.0, 5e-324, 2.5e-310, 1e-300, 1e308, -1e308, 3.0, -7.0, 10.0, 1e16,
                   0.1, -2 / 3, 1.2345678901234567e-8)


def _unvalidated(load, text):
    """``load(text)`` with validation skipped, so that any finite stack loads."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ensembles, "_validated", lambda e: e)
        return _outcome(load, text)


def _rows_end(text, rows):
    """The position after the ``rows``-th row of the first state of a compact text."""
    pos = text.index('"states":[') + len('"states":[')
    for _ in range(rows):
        pos = text.index("]]", pos) + 2
    return pos


#: The text of a row of 256 entries [0.0, 0.0].
ZERO_ROW_256 = "[" + ",".join(["[0.0,0.0]"] * 256) + "]"


@pytest.fixture(scope="module")
def ghz28_text():
    return saved_text_by_document(ghz_complement_ensemble(2, 8))  # dim 256


class TestBlockCodec:
    """The block codec against one ``json.dumps`` and one ``json.loads`` of the document."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), density=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
           block_numbers=st.sampled_from([1, 16, 2**15]), zero_rows=st.booleans())
    def test_sparse_states_match_document_codec(self, seed, density, block_numbers, zero_rows):
        rng = np.random.default_rng(seed)
        slot_dims = tuple(int(d) for d in rng.integers(1, 5, size=rng.integers(1, 4)))
        parties = PartySet.of_size(max(2, len(slot_dims)))
        slots = SlotStructure(slot_dims + (1,) * (len(parties.labels) - len(slot_dims)),
                              parties.labels)
        n = int(rng.integers(2, 4))
        floats = np.where(rng.random((n, slots.dim, 2 * slots.dim)) < 0.5, 0.0, -0.0)
        support = rng.random(floats.shape) < density
        plain = rng.normal(size=8) * 10.0 ** rng.integers(-30, 30, 8)
        pool = np.concatenate([SUPPORT_ENTRIES, plain])
        floats[support] = rng.choice(pool, size=int(support.sum()))
        with pytest.MonkeyPatch.context() as mp:
            # Blocks of one row, of a few rows and of whole states.
            mp.setattr(ensembles, "_BLOCK_NUMBERS", block_numbers)
            if zero_rows:
                # Rows of all +0.0, which the codec writes and reads as one token: a
                # random half, the first and last rows of the first state, the rows on
                # both sides of each of its block boundaries, and the whole last state.
                forced = rng.random((n, slots.dim)) < 0.5
                boundaries = np.array(ensembles._row_blocks(slots.dim)[1:], dtype=int)
                forced[0, np.concatenate([[0, -1], boundaries - 1, boundaries])] = True
                forced[-1] = True
                floats[forced] = 0.0
            stack = floats.view(np.complex128)
            e = Ensemble(parties, tuple(rng.dirichlet(np.ones(n))),
                         tuple(MultiPartyOperator(m, slots) for m in stack))
            buffer = io.StringIO()
            save_ensemble(e, buffer)
            text = buffer.getvalue()
            assert text == saved_text_by_document(e)
            loaded = _unvalidated(_load_text, text)
            # The flat path reads the text itself, with no fallback.
            assert _unvalidated(ensembles._load_plain, text) == loaded
        assert loaded == _unvalidated(load_by_document, text)
        assert b"".join(loaded[3]) == stack.view(np.uint64).tobytes()

    @pytest.mark.parametrize("zero", ["0", "-0", "0e0", "0.00", "-0.0E+0", "0.0", "-0.0"])
    def test_zero_spellings_load_as_the_document_reader(self, zero, monkeypatch):
        text = PLAIN.replace("[[0.0,0.0],[0.25,0.0]]", f"[[{zero},0.0],[0.25,-0.0]]")
        parsed = []
        real_loads = json.loads

        def spy(payload, *args, **kwargs):
            parsed.append(payload)
            return real_loads(payload, *args, **kwargs)

        monkeypatch.setattr(json, "loads", spy)
        assert _outcome(ensembles._load_plain, text) == _outcome(load_by_document, text)
        # Only the literals 0.0 and -0.0 stay out of the numbers that json reads.
        numbers = b",".join(p[1:-1] for p in parsed if isinstance(p, bytes)).split(b",")
        assert (zero.encode() in numbers) == (zero not in ("0.0", "-0.0"))
        assert b"-0.0" not in numbers

    @pytest.mark.parametrize("edit", [
        "stray-number-after-comma", "stray-number-before-comma", "missing-open-bracket",
        "missing-close-bracket", "leading-zero", "plus-sign", "bare-point", "split-number",
        "number-moved-after-entry", "number-moved-before-entry", "number-moved-before-block",
    ])
    def test_edits_at_a_block_boundary_match_document_reader(self, ghz28_text, edit):
        rows = ensembles._row_blocks(256).step
        assert rows < 256  # the edit sits between two blocks of the first state
        cut = _rows_end(ghz28_text, rows)  # the "," between the blocks
        head, tail = ghz28_text[:cut], ghz28_text[cut + 1:]
        assert ghz28_text[cut] == "," and tail.startswith("[[0.0,")
        text = {
            "stray-number-after-comma": head + ",5" + tail,
            "stray-number-before-comma": head + "5," + tail,
            "missing-open-bracket": head + "," + tail[1:],
            "missing-close-bracket": head[:-1] + "," + tail,
            "leading-zero": head + ",[[00.0," + tail[len("[[0.0,"):],
            "plus-sign": head + ",[[+0.0," + tail[len("[[0.0,"):],
            "bare-point": head + ",[[0.," + tail[len("[[0.0,"):],
            "split-number": head + ",[[0.0 1," + tail[len("[[0.0,"):],
            # A number leaves its slot for a gap outside any entry: the count still holds.
            "number-moved-after-entry": head + ",[[,0.0]0.0," + tail[len("[[0.0,0.0],"):],
            "number-moved-before-entry":
                head + ",[[0.0,0.0],0.0[,0.0]" + tail[len("[[0.0,0.0],[0.0,0.0]"):],
            "number-moved-before-block": head + ",0.0[[,0.0]," + tail[len("[[0.0,0.0],"):],
        }[edit]
        assert _outcome(_load_text, text) == _outcome(load_by_document, text)

    @pytest.mark.parametrize("edit", [
        "comma-missing", "comma-doubled", "closed-by-bracket", "first-token-0.00",
        "first-token-0", "first-token--0.0", "first-token-+0.0", "last-token-0.00",
        "last-token-0", "last-token--0.0", "last-token-+0.0", "entry-short", "entry-long",
    ])
    @pytest.mark.parametrize("where", ["after-a-nonzero-row", "block-end", "block-start"])
    def test_edits_at_a_zero_row_match_document_reader(self, ghz28_text, where, edit):
        # Rows 1 to 254 of the GHZ projector, the second state, are all +0.0; rows 0
        # and 255 are not.  Row r of the second state is row 256 + r of the text.
        step = ensembles._row_blocks(256).step
        r = 256 + {"after-a-nonzero-row": 1, "block-end": step - 1, "block-start": step}[where]
        start, stop = _rows_end(ghz28_text, r) + 1, _rows_end(ghz28_text, r + 1)
        head, row, tail = ghz28_text[:start], ghz28_text[start:stop], ghz28_text[stop + 1:]
        assert row == ZERO_ROW_256 and ghz28_text[stop] == ","
        kind, _, token = edit.partition("-token-")
        text = {
            "comma-missing": head + row + tail,
            "comma-doubled": head + row + ",," + tail,
            "closed-by-bracket": head + row + "]" + tail,
            "first": head + row.replace("[[0.0,", f"[[{token},", 1) + "," + tail,
            "last": head + row[:-len("0.0]]")] + token + "]]," + tail,
            "entry-short": head + "[" + row[len("[[0.0,0.0],"):] + "," + tail,
            "entry-long": head + row[:-1] + ",[0.0,0.0]]," + tail,
        }[kind if token else edit]
        assert text != ghz28_text
        assert _outcome(_load_text, text) == _outcome(load_by_document, text)

    @pytest.mark.parametrize("edit", ["closed", "then-next-state-rows", "comma-then-closed",
                                      "comma-replaces-close"])
    def test_edits_at_a_zero_last_row_match_document_reader(self, ghz28_text, edit):
        # The first state's last row made all +0.0, which leaves the state not Hermitian,
        # and closed by its "]" or followed by a comma.
        start, stop = _rows_end(ghz28_text, 255) + 1, _rows_end(ghz28_text, 256)
        head, tail = ghz28_text[:start], ghz28_text[stop + 1:]
        assert ghz28_text[stop:stop + 3] == "],[" and ghz28_text[start:start + 2] == "[["
        text = {
            "closed": head + ZERO_ROW_256 + "]" + tail,
            "then-next-state-rows": head + ZERO_ROW_256 + "," + tail[len(",["):],
            "comma-then-closed": head + ZERO_ROW_256 + ",]" + tail,
            "comma-replaces-close": head + ZERO_ROW_256 + "," + tail,
        }[edit]
        expected = _outcome(load_by_document, text)
        assert _outcome(_load_text, text) == expected
        if edit == "closed":  # the flat path reads it itself, with no fallback
            assert _outcome(ensembles._load_plain, text) == expected

    def test_save_peak_memory_is_bounded(self, parity2222, tmp_path):
        state_text = min(len(json.dumps(s, separators=(",", ":")))
                         for s in to_document(parity2222)["states"])
        tracemalloc.start()
        try:
            save_ensemble(parity2222, str(tmp_path / "parity.json"))  # dim 256
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A block's tokens and text, not a whole state's token array (2 * 256**2 pointers).
        assert peak < state_text + 2**20
