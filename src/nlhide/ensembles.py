"""Validated quantum state ensembles and the built-in example families.

An ensemble pairs prior probabilities with density operators on a common slot
structure.  Two GHZ-based families are provided: a two-state family built from
a GHZ projector and its normalized complement (CLI kind 1), and a ``2**t``-state
family of parity blocks on ``s``-fold repetitions (CLI kind 2).  Ensembles
serialize to a JSON document with complex entries stored as ``[re, im]`` pairs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import IO, NamedTuple

import numpy as np

from .partitions import PartySet
from .tensor import (
    DEFAULT_DIM_CAP,
    HERMITICITY_RTOL,
    DimensionCapError,
    MultiPartyOperator,
    SlotStructure,
    hermitian_part,
    hermiticity_defect,
    identity,
    tensor,
    tensor_power,
)

PROB_SUM_TOL = 1e-12
TRACE_TOL = 1e-10
PSD_WARN_TOL = 1e-10
ORTHOGONALITY_TOL = 1e-10


class InvalidEnsembleError(ValueError):
    """An ensemble document failed validation; carries the diagnostics."""

    def __init__(self, diagnostics: "EnsembleDiagnostics"):
        self.diagnostics = diagnostics
        lines = "; ".join(
            f"{c.name}: residual {c.residual:.3e}" for c in diagnostics.failures
        )
        super().__init__(f"invalid ensemble: {lines}")


@dataclass(frozen=True)
class Ensemble:
    """Probabilities ``probs[i]`` paired with states ``states[i]``.

    Construction checks only structure (at least two members, matching
    lengths, one shared slot structure, parties consistent with the slots).
    Numerical invariants are reported by :func:`validate`.
    """

    parties: PartySet
    probs: tuple[float, ...]
    states: tuple[MultiPartyOperator, ...]

    def __post_init__(self):
        probs = tuple(float(p) for p in self.probs)
        states = tuple(self.states)
        if len(probs) != len(states):
            raise ValueError(
                f"{len(probs)} probabilities but {len(states)} states"
            )
        if len(probs) < 2:
            raise ValueError("an ensemble needs at least two members")
        slots = states[0].slots
        for k, state in enumerate(states):
            if state.slots != slots:
                raise ValueError(f"state {k} has a different slot structure")
        if set(slots.parties) != set(self.parties.labels):
            raise ValueError(
                f"slot parties {slots.parties} do not match party set {self.parties.labels}"
            )
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "states", states)

    @property
    def n(self) -> int:
        return len(self.probs)

    @property
    def dim(self) -> int:
        return self.states[0].dim

    @property
    def slots(self) -> SlotStructure:
        return self.states[0].slots


class CheckResult(NamedTuple):
    name: str
    ok: bool
    residual: float
    detail: str


@dataclass(frozen=True)
class EnsembleDiagnostics:
    """Per-invariant pass/fail results with measured residuals."""

    checks: tuple[CheckResult, ...]
    warnings: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.ok)


def validate(e: Ensemble) -> EnsembleDiagnostics:
    """Measure every ensemble invariant; reports, never raises.

    Probability-sum, nonnegativity, Hermiticity and trace violations are hard
    failures.  A state whose minimum eigenvalue is within ``-1e-10`` of zero
    passes the PSD check; it draws a warning (file round-trip noise) only when
    it lies below the eigensolver's round-off floor
    ``dim * eps * (1 + max |entry|)``.
    """
    checks: list[CheckResult] = []
    warnings: list[str] = []

    prob_residual = abs(math.fsum(e.probs) - 1.0)
    checks.append(
        CheckResult("probability-sum", prob_residual <= PROB_SUM_TOL, prob_residual,
                    f"sum deviates from 1 by {prob_residual:.3e}")
    )
    min_prob = min(e.probs)
    checks.append(
        CheckResult("probability-nonnegative", min_prob >= -PROB_SUM_TOL,
                    max(0.0, -min_prob), f"smallest probability {min_prob:.3e}")
    )

    for k, state in enumerate(e.states):
        herm = hermiticity_defect(state.matrix)
        scale = 1.0 + float(np.max(np.abs(state.matrix)))
        hermitian = herm <= HERMITICITY_RTOL * scale
        checks.append(
            CheckResult(f"hermitian[{k}]", hermitian, herm,
                        f"state {k} Hermiticity defect {herm:.3e}")
        )
        if not hermitian:
            continue  # eigenvalues of a non-Hermitian matrix are meaningless here
        trace_residual = abs(state.trace().real - 1.0) + abs(state.trace().imag)
        checks.append(
            CheckResult(f"trace[{k}]", trace_residual <= TRACE_TOL, trace_residual,
                        f"state {k} trace deviates by {trace_residual:.3e}")
        )
        min_eig = float(np.linalg.eigvalsh(hermitian_part(state.matrix))[0])
        ok = min_eig >= -PSD_WARN_TOL
        checks.append(
            CheckResult(f"psd[{k}]", ok, max(0.0, -min_eig),
                        f"state {k} minimum eigenvalue {min_eig:.3e}")
        )
        # Eigensolver round-off on a PSD matrix reaches about dim * eps * scale.
        if ok and min_eig < -state.dim * np.finfo(float).eps * scale:
            warnings.append(
                f"state {k} minimum eigenvalue {min_eig:.3e} is negative within tolerance"
            )

    return EnsembleDiagnostics(tuple(checks), tuple(warnings))


def pairwise_overlaps(e: Ensemble) -> np.ndarray:
    """Matrix of ``|Tr(rho_i rho_j)|`` for ``i != j`` (zero diagonal)."""
    n = e.n
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            # Tr(AB) = sum_kl A_kl B_lk: O(dim**2) instead of a full product.
            val = abs(np.sum(e.states[i].matrix * e.states[j].matrix.T))
            out[i, j] = out[j, i] = val
    return out


def max_pairwise_overlap(e: Ensemble) -> float:
    return float(np.max(pairwise_overlaps(e)))


def is_orthogonal(e: Ensemble, tol: float = ORTHOGONALITY_TOL) -> bool:
    """True iff all distinct states have overlap ``Tr(rho_i rho_j) <= tol``."""
    return max_pairwise_overlap(e) <= tol


def ghz_state(d: int, m: int, cap: int = DEFAULT_DIM_CAP) -> MultiPartyOperator:
    """Rank-1 projector onto the m-party, d-level maximally correlated state.

    One slot of dimension ``d`` per party ``A1..Am``.
    """
    if d < 2 or m < 2:
        raise ValueError(f"need d >= 2 and m >= 2, got d={d}, m={m}")
    dim = d**m
    if dim > cap:
        raise DimensionCapError(f"GHZ dimension {dim} exceeds the dimension cap {cap}")
    psi = np.zeros(dim, dtype=np.complex128)
    stride = (dim - 1) // (d - 1)  # index of |i i ... i> is i * (d^m - 1)/(d - 1)
    psi[np.arange(d) * stride] = 1.0 / math.sqrt(d)
    slots = SlotStructure((d,) * m, PartySet.of_size(m).labels)
    return MultiPartyOperator(np.outer(psi, psi.conj()), slots)


def ghz_complement_ensemble(d: int, m: int, cap: int = DEFAULT_DIM_CAP) -> Ensemble:
    """Two orthogonal m-qudit states: normalized GHZ complement vs GHZ.

    The heavy member has weight ``(d**m - 1)/d**m`` on the normalized
    complement of the GHZ projector; the light member is the GHZ projector
    itself with weight ``1/d**m``.  CLI example kind 1.
    """
    proj = ghz_state(d, m, cap=cap)
    dim = proj.dim
    complement = (np.eye(dim, dtype=np.complex128) - proj.matrix) / (dim - 1)
    heavy = MultiPartyOperator(complement, proj.slots)
    return Ensemble(
        PartySet.of_size(m),
        ((dim - 1) / dim, 1 / dim),
        (heavy, proj),
    )


@dataclass(frozen=True)
class ParityBlockParams:
    """Parameters of the parity-block family (CLI example kind 2)."""

    d: int
    m: int
    s: int
    t: int

    def __post_init__(self):
        if self.d < 2 or self.m < 2:
            raise ValueError(f"need d >= 2 and m >= 2, got d={self.d}, m={self.m}")
        if self.s < 1 or self.t < 1:
            raise ValueError(f"need s >= 1 and t >= 1, got s={self.s}, t={self.t}")

    @property
    def n(self) -> int:
        return 2**self.t

    @property
    def dim(self) -> int:
        return self.d ** (self.m * self.s * self.t)

    def check_cap(self, cap: int) -> None:
        if self.dim > cap:
            raise DimensionCapError(
                f"parity-block dimension {self.dim} exceeds the dimension cap {cap}"
            )


def parity_blocks(
    d: int, m: int, s: int, cap: int = DEFAULT_DIM_CAP
) -> tuple[float, float, MultiPartyOperator, MultiPartyOperator]:
    """Weights and states of the even/odd parity blocks on ``s`` repetitions.

    Returns ``(weight_even, weight_odd, block_even, block_odd)`` where the
    blocks are the normalized sum and difference of the s-fold identity and
    the s-fold GHZ reflection ``(1 - 2 P)``.
    """
    proj = ghz_state(d, m, cap=cap)
    base_dim = proj.dim
    one = identity(proj.slots)
    reflect = one.with_matrix(one.matrix - 2.0 * proj.matrix)
    pi0 = tensor_power(one, s, cap=cap)
    pi1 = tensor_power(reflect, s, cap=cap)
    plus = base_dim**s + (base_dim - 2) ** s
    minus = base_dim**s - (base_dim - 2) ** s
    weight_even = plus / (2 * base_dim**s)
    weight_odd = minus / (2 * base_dim**s)
    block_even = pi0.with_matrix((pi0.matrix + pi1.matrix) / plus)
    block_odd = pi0.with_matrix((pi0.matrix - pi1.matrix) / minus)
    return weight_even, weight_odd, block_even, block_odd


def _bit(i: int, k: int) -> int:
    # k-th binary digit of i, k = 1 least significant.
    return (i >> (k - 1)) & 1


def parity_block_ensemble(
    params: ParityBlockParams, cap: int = DEFAULT_DIM_CAP
) -> Ensemble:
    """The ``2**t``-state family of t-fold parity-block products.

    Member ``i`` takes the even or odd block in copy ``k`` according to the
    k-th binary digit of ``i`` (least significant first); its probability is
    the matching product of block weights.  Party ``Ak`` owns all of its
    ``s * t`` qudits, ordered copy-major.
    """
    params.check_cap(cap)
    lam0, lam1, sig0, sig1 = parity_blocks(params.d, params.m, params.s, cap=cap)
    weights = (lam0, lam1)
    blocks = (sig0, sig1)
    probs: list[float] = []
    states: list[MultiPartyOperator] = []
    for i in range(params.n):
        digits = [_bit(i, k) for k in range(1, params.t + 1)]
        prob = 1.0
        state = blocks[digits[0]]
        for b in digits[1:]:
            state = tensor(state, blocks[b], cap=cap)
        for b in digits:
            prob *= weights[b]
        probs.append(prob)
        states.append(state)
    return Ensemble(PartySet.of_size(params.m), tuple(probs), tuple(states))


class SizeCondition(NamedTuple):
    """Arithmetic of the parity-block admissibility margin.

    ``holds`` iff the heaviest weight stays below ``2/n``, equivalently
    ``lhs = (1 - 2/d**m)**s`` below ``rhs = 2**(1/t) - 1``.
    """

    lhs: float
    rhs: float
    holds: bool


def parity_block_size_condition(params: ParityBlockParams) -> SizeCondition:
    lhs = (1.0 - 2.0 / params.d**params.m) ** params.s
    rhs = 2.0 ** (1.0 / params.t) - 1.0
    return SizeCondition(lhs, rhs, lhs < rhs)


# ---------------------------------------------------------------------------
# JSON persistence
# ---------------------------------------------------------------------------

_REQUIRED_KEYS = ("parties", "slot_dims", "party_of_slot", "probs", "states")


def _matrix_to_pairs(matrix: np.ndarray) -> list:
    """Complex matrix as nested lists with each entry an ``[re, im]`` pair."""
    return np.stack([matrix.real, matrix.imag], -1).tolist()


def _pairs_to_matrix(raw) -> np.ndarray:
    """Inverse of :func:`_matrix_to_pairs`; rejects anything but (rows, cols, 2) numbers."""
    pairs = np.array(raw)
    if pairs.dtype.kind not in "iuf" or pairs.ndim != 3 or pairs.shape[2] != 2:
        raise ValueError(f"state must be rows of [re, im] number pairs, got {pairs.dtype} "
                         f"array of shape {pairs.shape}")
    return np.ascontiguousarray(pairs, dtype=np.float64).view(np.complex128)[..., 0]


def to_document(e: Ensemble) -> dict:
    """Schema: parties, slot_dims, party_of_slot (indices), probs, states."""
    party_index = {label: k for k, label in enumerate(e.parties.labels)}
    return {
        "parties": list(e.parties.labels),
        "slot_dims": list(e.slots.slot_dims),
        "party_of_slot": [party_index[p] for p in e.slots.party_of_slot],
        "probs": list(e.probs),
        "states": [_matrix_to_pairs(state.matrix) for state in e.states],
    }


def _document_error(name: str, detail: str) -> InvalidEnsembleError:
    check = CheckResult(name, False, float("nan"), detail)
    return InvalidEnsembleError(EnsembleDiagnostics((check,), ()))


def from_document(doc: dict) -> Ensemble:
    """Parse and validate an ensemble document; rejects with diagnostics."""
    if not isinstance(doc, dict):
        raise _document_error("schema", "document is not a JSON object")
    for key in _REQUIRED_KEYS:
        if key not in doc:
            raise _document_error("schema", f"missing key {key!r}")
    try:
        parties = PartySet(tuple(str(x) for x in doc["parties"]))
        slot_dims = tuple(int(x) for x in doc["slot_dims"])
        owners = tuple(parties.labels[int(k)] for k in doc["party_of_slot"])
        slots = SlotStructure(slot_dims, owners)
        probs = tuple(float(x) for x in doc["probs"])
        states = [MultiPartyOperator(_pairs_to_matrix(m), slots) for m in doc["states"]]
        ensemble = Ensemble(parties, probs, tuple(states))
    except InvalidEnsembleError:
        raise
    except (TypeError, ValueError, IndexError, KeyError) as exc:
        raise _document_error("schema", str(exc)) from exc
    diagnostics = validate(ensemble)
    if not diagnostics.passed:
        raise InvalidEnsembleError(diagnostics)
    return ensemble


def save_ensemble(e: Ensemble, sink: str | IO[str]) -> None:
    # json.dumps runs the C encoder; json.dump would use the pure-Python one.
    text = json.dumps(to_document(e), sort_keys=True, separators=(",", ":"))
    if isinstance(sink, str):
        with open(sink, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sink.write(text)


def load_ensemble(source: str | IO[str]) -> Ensemble:
    try:
        if isinstance(source, str):
            with open(source, "r", encoding="utf-8") as handle:
                doc = json.load(handle)
        else:
            doc = json.load(source)
    except json.JSONDecodeError as exc:
        raise _document_error("schema", f"not valid JSON: {exc}") from exc
    return from_document(doc)
