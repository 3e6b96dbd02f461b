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
import numbers
import re
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import chain
from typing import IO, Callable, Iterator, NamedTuple

import numpy as np

from .partitions import PartySet
from .tensor import (
    DEFAULT_DIM_CAP,
    DimensionCapError,
    MultiPartyOperator,
    SlotStructure,
    _blocks,
    _components,
    _eigenvalues,
    _entry_record,
    _hermitian_parts,
    _lookup,
    _mirror,
)

PROB_SUM_TOL = 1e-12
TRACE_TOL = 1e-10
PSD_WARN_TOL = 1e-10
ORTHOGONALITY_TOL = 1e-10


class InvalidEnsembleError(ValueError):
    """An ensemble document failed validation; carries the diagnostics."""

    def __init__(self, diagnostics: "EnsembleDiagnostics"):
        self.diagnostics = diagnostics
        lines = "; ".join(f"{c.name}: {c.detail}" for c in diagnostics.failures)
        super().__init__(f"invalid ensemble: {lines}")


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Probabilities ``probs[i]`` paired with states ``states[i]``.

    The states live in one C-ordered, read-only ``(n, dim, dim)`` complex128
    array, ``stack``; ``states[i].matrix`` is a view of row ``i``.  The
    constructor copies the states' matrices into a new stack.  Construction
    checks only structure (at least two members, matching lengths, one shared
    slot structure, parties consistent with the slots).  Numerical invariants
    are reported by :func:`validate`.

    ``_record``, each state's checked nonzero entries (:func:`_entry_record`), is formed
    by their first reader (:func:`validate`, the overlaps, a discrimination entry point):
    one mask pass per state, then 24 bytes per nonzero entry (key and value), held while
    the ensemble lives.  It cannot go stale: the stack it reads is read-only.
    """

    parties: PartySet
    probs: tuple[float, ...]
    states: tuple[MultiPartyOperator, ...]
    stack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        states = tuple(self.states)
        probs = _member_probs(self.probs, len(states))
        slots = states[0].slots
        for k, state in enumerate(states):
            if state.slots != slots:
                raise ValueError(f"state {k} has a different slot structure")
        self._hold(probs, np.stack([state.matrix for state in states]), slots)

    @classmethod
    def _of_stack(cls, parties: PartySet, probs, stack: np.ndarray,
                  slots: SlotStructure) -> "Ensemble":
        """The ensemble that holds ``stack`` itself, made read-only: no copy, for a
        C-ordered complex128 ``(len(probs), dim, dim)`` array that the library has
        just made and that nothing writes again.  The checks are the constructor's."""
        ensemble = object.__new__(cls)
        object.__setattr__(ensemble, "parties", parties)
        ensemble._hold(_member_probs(probs, len(stack)), stack, slots)
        return ensemble

    def _hold(self, probs: tuple[float, ...], stack: np.ndarray, slots: SlotStructure) -> None:
        if set(slots.parties) != set(self.parties.labels):
            raise ValueError(
                f"slot parties {slots.parties} do not match party set {self.parties.labels}"
            )
        stack.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "states",
                           tuple(MultiPartyOperator._frozen(row, slots) for row in stack))

    @cached_property
    def _record(self) -> list[tuple[float, tuple[np.ndarray, np.ndarray] | None]]:
        return _entry_record(self.stack)

    @property
    def n(self) -> int:
        return len(self.probs)

    @property
    def dim(self) -> int:
        return self.stack.shape[1]

    @property
    def slots(self) -> SlotStructure:
        return self.states[0].slots


def _member_probs(probs, count: int) -> tuple[float, ...]:
    """``probs`` as floats, for ``count`` members; at least two, one probability each."""
    probs = tuple(float(p) for p in probs)
    if len(probs) != count:
        raise ValueError(f"{len(probs)} probabilities but {count} states")
    if len(probs) < 2:
        raise ValueError("an ensemble needs at least two members")
    return probs


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
    ``dim * eps * (1 + max |entry|)``.  The minimum eigenvalue is the least over
    the diagonal blocks of the state's nonzero pattern, from one batched
    ``eigvalsh`` per block size; a dense state is one block.

    Each state is read from the ensemble's record of its nonzero entries.  The
    Hermiticity defect ``max|A - A^dagger|`` pairs each entry with its mirror across
    the diagonal, an entry with no mirror having the defect ``|value|``; the rule,
    the defect and the message are those of the dense check.  The blocks are
    scattered from the entries of the state's Hermitian part.
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
        CheckResult("probability-nonnegative", min_prob >= 0,
                    max(0.0, -min_prob), f"smallest probability {min_prob:.3e}")
    )

    for k, (herm, part) in enumerate(e._record):
        hermitian = part is not None
        checks.append(
            CheckResult(f"hermitian[{k}]", hermitian, herm,
                        f"state {k} Hermiticity defect {herm:.3e}")
        )
        if not hermitian:
            continue  # eigenvalues of a non-Hermitian matrix are meaningless here
        trace = complex(np.trace(e.stack[k]))
        trace_residual = abs(trace.real - 1.0) + abs(trace.imag)
        checks.append(
            CheckResult(f"trace[{k}]", trace_residual <= TRACE_TOL, trace_residual,
                        f"state {k} trace deviates by {trace_residual:.3e}")
        )
        entries = [(*np.divmod(part[0], e.dim), part[1])]
        min_eig = float(_eigenvalues(_blocks(_components(e.dim, entries), entries))[0])
        ok = min_eig >= -PSD_WARN_TOL
        checks.append(
            CheckResult(f"psd[{k}]", ok, max(0.0, -min_eig),
                        f"state {k} minimum eigenvalue {min_eig:.3e}")
        )
        # Eigensolver round-off on a PSD matrix reaches about dim * eps * (1 + max|entry|);
        # that scale is read only for a negative eigenvalue.
        if ok and min_eig < 0 and min_eig < -e.dim * np.finfo(float).eps * (
                1.0 + float(np.max(np.abs(part[1]), initial=0.0))):
            warnings.append(
                f"state {k} minimum eigenvalue {min_eig:.3e} is negative within tolerance"
            )

    return EnsembleDiagnostics(tuple(checks), tuple(warnings))


def pairwise_overlaps(e: Ensemble) -> np.ndarray:
    """Matrix of ``|Tr(rho_i rho_j)|`` for ``i != j`` (zero diagonal).

    ``Tr(AB) = sum_kl A_kl B_lk`` is summed over the nonzero entries of ``A`` alone:
    each is joined with the entry of ``B`` at its mirrored key.  Both are Hermitian parts
    from the ensemble's record: a non-Hermitian state raises :class:`ContractViolationError`."""
    n = e.n
    parts = _hermitian_parts(e._record)
    out = np.zeros((n, n))
    for i, (keys, values) in enumerate(parts):
        mirrored = _mirror(keys, e.dim)
        for j in range(i + 1, n):
            val = abs((values * _lookup(*parts[j], mirrored)).sum())
            out[i, j] = out[j, i] = val
    return out


def max_pairwise_overlap(e: Ensemble) -> float:
    return float(np.max(pairwise_overlaps(e)))


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
    return MultiPartyOperator._frozen(np.outer(psi, psi.conj()), slots)


def ghz_complement_ensemble(d: int, m: int, cap: int = DEFAULT_DIM_CAP) -> Ensemble:
    """Two orthogonal m-qudit states: normalized GHZ complement vs GHZ.

    The heavy member has weight ``(d**m - 1)/d**m`` on the normalized
    complement of the GHZ projector; the light member is the GHZ projector
    itself with weight ``1/d**m``.  CLI example kind 1.
    """
    proj = ghz_state(d, m, cap=cap)
    dim = proj.dim
    stack = np.empty((2, dim, dim), dtype=np.complex128)
    np.subtract(np.eye(dim, dtype=np.complex128), proj.matrix, out=stack[0])
    stack[0] /= dim - 1
    stack[1] = proj.matrix
    return Ensemble._of_stack(PartySet.of_size(m), ((dim - 1) / dim, 1 / dim), stack, proj.slots)


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
    proj = ghz_state(params.d, params.m, cap=cap)
    base, s = proj.dim, params.s
    # The even and odd blocks are the normalized sum and difference of the s-fold
    # identity and the s-fold GHZ reflection 1 - 2P.
    one = np.eye(base, dtype=np.complex128)
    pi0 = reduce(np.kron, [one] * s)
    pi1 = reduce(np.kron, [one - 2.0 * proj.matrix] * s)
    plus, minus = base**s + (base - 2) ** s, base**s - (base - 2) ** s
    weights = (plus / (2 * base**s), minus / (2 * base**s))
    blocks = ((pi0 + pi1) / plus, (pi0 - pi1) / minus)
    probs: list[float] = []
    stack = np.empty((params.n, params.dim, params.dim), dtype=np.complex128)
    for i, row in enumerate(stack):
        digits = [_bit(i, k) for k in range(1, params.t + 1)]
        matrix = blocks[digits[0]]
        for b in digits[1:]:
            matrix = np.kron(matrix, blocks[b])
        row[...] = matrix
        probs.append(math.prod(weights[b] for b in digits))
    slots = SlotStructure(proj.slots.slot_dims * (s * params.t),
                          proj.slots.party_of_slot * (s * params.t))
    return Ensemble._of_stack(PartySet.of_size(params.m), probs, stack, slots)


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

_STATES_KEY = re.compile(r'"states"[ \t\n\r]*:[ \t\n\r]*(?=\[)')
_SPACES = " \t\n\r"
_NO_SPACES = str.maketrans("", "", _SPACES)
#: A number character, JSON whitespace, a number character: never JSON, since
#: numbers in an array are separated by commas.
_SPLIT_NUMBER = re.compile(r"[0-9.eE+-][ \t\n\r]+[0-9.eE+-]")
_NUMBER_CHARS = b"0123456789.eE+-"
#: The most numbers the codec tokenizes at once; a block is whole rows, one at least.
_BLOCK_NUMBERS = 2**15


class _NotPlainStates(Exception):
    """The document is not one the flat reader parses; ``json.loads`` reads it."""


def _pairs_to_matrix(raw) -> np.ndarray:
    """A (rows, cols, 2) array of ``[re, im]`` number pairs as a complex matrix;
    rejects anything else, booleans among numbers included (numpy reads them as 0 and 1)."""
    pairs = np.asarray(raw)
    if pairs.dtype.kind not in "iuf" or pairs.ndim != 3 or pairs.shape[2] != 2:
        raise ValueError(f"state must be rows of [re, im] number pairs, got {pairs.dtype} "
                         f"array of shape {pairs.shape}")
    if pairs is not raw and bool in set(map(type, chain.from_iterable(chain.from_iterable(raw)))):
        raise ValueError("state entries must be numbers, got true or false")
    return np.ascontiguousarray(pairs, dtype=np.float64).view(np.complex128)[..., 0]


def _row_blocks(dim: int) -> range:
    """The first row of each block of a ``dim x dim`` state."""
    return range(0, dim, max(1, _BLOCK_NUMBERS // (2 * dim)))


def _zero_row(dim: int) -> str:
    """The text of a row of ``dim`` all-+0.0 entries, written and read as one token."""
    return "[" + ",".join(["[0.0,0.0]"] * dim) + "]"


def _state_text(matrix: np.ndarray) -> Iterator[str]:
    """The JSON text of a C-ordered complex matrix as rows of ``[re, im]`` pairs,
    one block of rows at a time; the bytes of ``json.dumps`` of its nested lists.

    A row of all +0.0 is one :func:`_zero_row` token.  In the other rows each number is
    one token that carries the brackets and commas around it: a zero is a fixed ``0.0``
    or ``-0.0`` token, by its sign bit, and only other numbers go through ``json.dumps``."""
    columns = 2 * matrix.shape[1]
    zero_row = _zero_row(matrix.shape[1]) + ","
    opens = np.where(np.arange(columns) % 2, "", "[").astype(object)
    closes = np.where(np.arange(columns) % 2, "],", ",").astype(object)
    opens[0], closes[-1] = "[[", "]],"
    zero, negative_zero = opens + "0.0" + closes, opens + "-0.0" + closes
    floats = matrix.view(np.float64)
    bounds = _row_blocks(len(matrix))
    for first in bounds:
        values = floats[first:first + bounds.step]
        other = values.view(np.uint64).any(axis=1)  # the rows not all +0.0
        cuts = np.cumsum(other)[~other].tolist()  # each zero row follows this many others
        values = values[other] if cuts else values
        tokens = np.where(np.signbit(values), negative_zero, zero)
        rows, cols = np.nonzero(values)
        if len(rows):
            numbers = json.dumps(values[rows, cols].tolist())[1:-1].split(", ")
            tokens[rows, cols] = opens[cols] + np.array(numbers, dtype=object) + closes[cols]
        text = zero_row.join(["".join(tokens[a:b].ravel().tolist())
                              for a, b in zip([0] + cuts, cuts + [len(tokens)])])
        # The last block closes the state where a row separator would follow.
        yield text if first + bounds.step < len(matrix) else text[:-1] + "]"


def _read_block(block: str, layout: bytes, out: np.ndarray) -> None:
    """Read ``block``, whole rows of ``[re, im]`` pairs and the ``,`` or ``]`` after
    them, into ``out``, their floats; raises :class:`_NotPlainStates` unless the
    non-number characters are exactly ``layout`` and each maximal run of number
    characters fills one slot of an entry.

    A ``0.0`` or ``-0.0`` token is written directly.  The other tokens go through
    one ``json.loads``, so JSON's number grammar decides what a number is; values
    that numpy would not read as int64 or float64 are left to :func:`from_document`."""
    data = block.encode("ascii")
    if data.translate(None, _NUMBER_CHARS) != layout:
        raise _NotPlainStates
    chars = np.frombuffer(data, dtype=np.uint8)
    # The layout leaves "[", "," and "]" as the only other characters.
    is_number = (chars != ord("[")) & (chars != ord(",")) & (chars != ord("]"))
    if is_number[0] or is_number[-1]:
        raise _NotPlainStates
    # The block starts and ends with a bracket or comma: the edges pair up.
    edges = np.flatnonzero(np.diff(is_number)) + 1
    starts, ends = edges[0::2], edges[1::2]
    # Each slot lies between "[" and "," or between "," and "]" of its entry, and
    # every other gap of the layout has "]" before it or "[" after it.
    if (len(starts) != out.size or np.any(chars[starts - 1] == ord("]"))
            or np.any(chars[ends] == ord("["))):
        raise _NotPlainStates
    # Where "0.0" starts; every token has at least "]]," after it.
    zero_at = (chars[:-2] == ord("0")) & (chars[1:-1] == ord(".")) & (chars[2:] == ord("0"))
    lengths = ends - starts
    negative = (lengths == 4) & (chars[starts] == ord("-")) & zero_at[starts + 1]
    other = ~(negative | ((lengths == 3) & zero_at[starts]))
    out.fill(0.0)
    out[negative] = -0.0
    if other.any():
        # The other tokens with the character after each, made a comma.
        sizes = lengths[other] + 1
        offsets = np.cumsum(sizes)
        numbers = chars[np.arange(offsets[-1]) + np.repeat(starts[other] - offsets + sizes, sizes)]
        numbers[offsets - 1] = ord(",")
        values = np.array(json.loads(b"[" + numbers[:-1].tobytes() + b"]"))
        if values.dtype.kind not in "fi":
            raise _NotPlainStates
        out[other] = values


def _document_error(name: str, detail: str) -> InvalidEnsembleError:
    check = CheckResult(name, False, float("nan"), detail)
    return InvalidEnsembleError(EnsembleDiagnostics((check,), ()))


def _is_number(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _is_integer(x) -> bool:  # an integral float such as 2.0 counts
    return _is_number(x) and (isinstance(x, numbers.Integral) or float(x).is_integer())


def _entries(values, ok: Callable[[object], bool], rule: str) -> list:
    """The entries of a header list, each passing ``ok``; else a ``ValueError`` with ``rule``."""
    values = list(values)
    for x in values:
        if not ok(x):
            raise ValueError(f"{rule}, got {x!r}")
    return values


def _header(doc: dict) -> tuple[PartySet, SlotStructure, list]:
    """Parties, slots and probabilities of a document; raises ``TypeError``,
    ``ValueError``, ``IndexError`` or ``KeyError`` on a malformed header."""
    labels = _entries(doc["parties"], lambda x: isinstance(x, str),
                      "parties entries must be strings")
    parties = PartySet(tuple(labels))
    slot_dims = _entries(doc["slot_dims"], _is_integer, "slot_dims entries must be integers")
    owners = _entries(doc["party_of_slot"], lambda k: _is_integer(k) and 0 <= k < len(labels),
                      f"party_of_slot entries must be integers in 0..{len(labels) - 1}")
    slots = SlotStructure(tuple(map(int, slot_dims)), tuple(labels[int(k)] for k in owners))
    probs = _entries(doc["probs"], _is_number, "probs entries must be numbers")
    return parties, slots, probs


def _validated(ensemble: Ensemble) -> Ensemble:
    diagnostics = validate(ensemble)
    if not diagnostics.passed:
        raise InvalidEnsembleError(diagnostics)
    return ensemble


def from_document(doc: dict) -> Ensemble:
    """Parse and validate an ensemble document; rejects with diagnostics."""
    if not isinstance(doc, dict):
        raise _document_error("schema", "document is not a JSON object")
    for key in _REQUIRED_KEYS:
        if key not in doc:
            raise _document_error("schema", f"missing key {key!r}")
    try:
        parties, slots, probs = _header(doc)
        states = [MultiPartyOperator(_pairs_to_matrix(m), slots) for m in doc["states"]]
        ensemble = Ensemble(parties, probs, tuple(states))
    except InvalidEnsembleError:
        raise
    except (TypeError, ValueError, IndexError, KeyError) as exc:
        raise _document_error("schema", str(exc)) from exc
    return _validated(ensemble)


def _states_span(text: str) -> tuple[int, int]:
    """Where the array value of the first ``"states"`` key starts and ends.

    A key that follows a backslash is the end of another key.  The value runs to
    the last ``]`` before the next ``"`` or ``}``, since an array of numbers holds
    neither.  :func:`_header_document` checks that the key is the document's one
    ``states`` key, and the layout check in :func:`_load_plain` that the span is
    its whole value."""
    match = _STATES_KEY.search(text)
    if match is None or text[match.start() - 1:match.start()] == "\\":
        raise _NotPlainStates
    start = match.end()
    stop = min((i for i in (text.find('"', start), text.find("}", start)) if i >= 0),
               default=len(text))
    return start, text.rfind("]", start, stop) + 1


def _header_document(text: str, start: int, end: int) -> dict:
    """``json.loads`` of the text with ``text[start:end]`` replaced by ``[]``; it must
    be an object whose only ``states`` key, anywhere, is its own."""
    objects: list[list] = []

    def collect(pairs: list) -> dict:
        objects.append(pairs)
        return dict(pairs)

    try:
        doc = json.loads(text[:start] + "[]" + text[end:], object_pairs_hook=collect)
    except json.JSONDecodeError as exc:
        raise _NotPlainStates from exc
    keys = [key for pairs in objects for key, _ in pairs]
    if not isinstance(doc, dict) or "states" not in doc or keys.count("states") != 1:
        raise _NotPlainStates
    return doc


def _load_plain(text: str) -> Ensemble:
    """:func:`from_document` of ``json.loads(text)``, for a document whose states
    are plain ``(n, dim, dim, 2)`` number arrays, without nested number lists.

    Only the header goes through ``json.loads`` whole.  A row whose text is
    :func:`_zero_row` is accepted by one compare and stays zero; each block's other
    rows go through one :func:`_read_block`, into the ensemble's stack.  JSON
    whitespace is first dropped from the states text, which is otherwise never
    copied whole.  The last state must close the ``states`` value.  Raises
    :class:`_NotPlainStates` for any other document, and for any malformed one, so
    that ``json.loads`` and :func:`from_document` give the diagnostics."""
    start, end = _states_span(text)
    try:
        parties, slots, probs = _header(_header_document(text, start, end))
    except (TypeError, ValueError, IndexError, KeyError) as exc:
        raise _NotPlainStates from exc
    if any(text.find(space, start, end) >= 0 for space in _SPACES):
        if _SPLIT_NUMBER.search(text, start, end):
            raise _NotPlainStates
        text = text[start:end].translate(_NO_SPACES)
        start, end = 0, len(text)
    n, dim = len(probs), slots.dim
    # An entry and the comma or bracket after it take six characters at least;
    # this bounds the stack allocated below by the size of the text.
    if 6 * n * dim * dim > end - start:
        raise _NotPlainStates
    stack = np.zeros((n, dim, dim), dtype=np.complex128)
    blocks = _row_blocks(dim)
    row = b"[" + b",".join([b"[,]"] * dim) + b"],"
    layout = row * blocks.step  # a block of rows and the comma after it
    last_layout = layout[:(dim - blocks[-1]) * len(row) - 1] + b"]"
    zero_rows = (_zero_row(dim) + ",", _zero_row(dim) + "]")  # the last row closes a state
    try:
        pos = start + 1  # after the "[" that opens the states
        for k, matrix in enumerate(stack):
            opener = ",[" if k else "["
            if not text.startswith(opener, pos):
                raise _NotPlainStates
            pos += len(opener)
            floats = matrix.view(np.float64)
            for first in blocks:
                rows = floats[first:first + blocks.step]
                zeros, cuts = [], [pos]  # where the other rows start and stop, in turn
                for r in range(first, first + len(rows)):
                    if text.startswith(zero_rows[r == dim - 1], pos):  # the row stays zero
                        zeros.append(r - first)
                        cuts += [pos, pos + len(zero_rows[0])]
                        pos = cuts[-1]
                    # Else the end of a row, which holds 6 * dim + 1 characters at least.
                    elif (pos := text.find("]]", pos + 6 * dim - 1, end) + 3) < 3:
                        raise _NotPlainStates
                block_layout = last_layout if first == blocks[-1] else layout
                if not zeros:
                    _read_block(text[cuts[0]:pos], block_layout, rows.reshape(-1))
                elif len(zeros) < len(rows):  # one read of the other rows, joined
                    other = np.ones(len(rows), dtype=bool)
                    other[zeros] = False
                    out = np.empty((len(rows) - len(zeros), 2 * dim))
                    close = block_layout[-1:] if other[-1] else b","
                    _read_block("".join(text[a:b] for a, b in zip(cuts[::2], cuts[1::2] + [pos])),
                                layout[:len(out) * len(row) - 1] + close, out.reshape(-1))
                    rows[other] = out
        if pos != end - 1:  # the "]" that closes the states
            raise _NotPlainStates
        ensemble = Ensemble._of_stack(parties, probs, stack, slots)
    except ValueError as exc:  # JSON, encoding, finiteness or member-count errors
        raise _NotPlainStates from exc
    return _validated(ensemble)


def save_ensemble(e: Ensemble, sink: str | IO[str]) -> None:
    """Write ``e`` as compact JSON with sorted keys, one block of rows at a time."""
    party_index = {label: k for k, label in enumerate(e.parties.labels)}
    header = json.dumps({
        "parties": list(e.parties.labels),
        "slot_dims": list(e.slots.slot_dims),
        "party_of_slot": [party_index[p] for p in e.slots.party_of_slot],
        "probs": list(e.probs),
    }, sort_keys=True, separators=(",", ":"))

    def write(handle: IO[str]) -> None:
        # "states" sorts after every header key, so it closes the object.
        handle.write(header[:-1] + ',"states":[')
        for k, matrix in enumerate(e.stack):
            handle.write(",[" if k else "[")
            handle.writelines(_state_text(matrix))
        handle.write("]}")

    if isinstance(sink, str):
        with open(sink, "w", encoding="utf-8") as handle:
            write(handle)
    else:
        write(sink)


def load_ensemble(source: str | IO[str]) -> Ensemble:
    """Read and validate an ensemble document; a file is read as bytes, decoded as in text mode."""
    if isinstance(source, str):
        with open(source, "rb") as handle:
            text = handle.read().decode("utf-8")
        text = text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text
    else:
        text = source.read()
    try:
        return _load_plain(text)
    except _NotPlainStates:
        pass
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _document_error("schema", f"not valid JSON: {exc}") from exc
    return from_document(doc)
