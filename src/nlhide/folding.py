"""Repeated preparations, modulo-n class coarse-graining, and bound curves.

Preparing ``L`` independent states from a base ensemble and keeping only the
modulo-n sum of the chosen indices yields a coarse ensemble with the same
member count: class probabilities and class states are the L-fold cyclic
convolutions of the base priors and of the weighted base states (states
normalized), built fold by fold without enumerating ``n**L`` index vectors.
Closed-form curves quantify how fast restricted-measurement bounds decay in
``L``; probability-only paths never materialize large matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ensembles import Ensemble
from .tensor import DEFAULT_DIM_CAP, DimensionCapError, MultiPartyOperator, SlotStructure


class DegenerateClassError(ValueError):
    """A coarse class has zero probability and cannot be normalized."""


@dataclass(frozen=True)
class FoldSpec:
    """A base ensemble and a fold count ``L >= 1``."""

    base: Ensemble
    L: int

    def __post_init__(self):
        if self.L < 1:
            raise ValueError(f"fold count must be >= 1, got {self.L}")

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def explicit_dim(self) -> int:
        return self.base.dim**self.L


def mod_sum(vec: Sequence[int], n: int) -> int:
    """Modulo-n sum of the entries; the class label of an index vector.

    The empty vector sums to 0.
    """
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    total = 0
    for k, entry in enumerate(vec):
        entry = int(entry)
        if not 0 <= entry < n:
            raise ValueError(f"entry {entry} at position {k} out of range 0..{n - 1}")
        total += entry
    return total % n


def fold_probs(probs: Sequence[float], n: int, L: int) -> np.ndarray:
    """Class probabilities of the L-fold preparation: cyclic convolution.

    Computed by iterated convolution, so no ``n**L`` enumeration happens and
    arbitrary ``L`` is cheap.
    """
    p = np.asarray([float(x) for x in probs])
    if len(p) != n:
        raise ValueError(f"expected {n} probabilities, got {len(p)}")
    if L < 0:
        raise ValueError(f"fold count must be >= 0, got {L}")
    out = np.zeros(n)
    out[0] = 1.0
    for _ in range(L):
        nxt = np.zeros(n)
        for shift in range(n):
            nxt += out[shift] * np.roll(p, shift)
        out = nxt
    return out


def _class_sums(spec: FoldSpec, members: Sequence[np.ndarray], cap: int) -> list[np.ndarray]:
    """Class ``i`` sums the Kronecker products of all index vectors with modulo-n sum ``i``:
    ``S_1 = members``, ``S_l[i] = sum_j S_{l-1}[j] (x) members[(i-j) mod n]``, in
    ``n**2 * (L-1)`` products.  Raises :class:`DimensionCapError` before any product."""
    if spec.explicit_dim > cap:
        raise DimensionCapError(
            f"explicit fold dimension {spec.explicit_dim} exceeds the dimension cap {cap}"
        )
    n = spec.n
    sums = list(members)
    for _ in range(spec.L - 1):
        folded = []
        for i in range(n):
            acc = np.kron(sums[0], members[i])
            for j in range(1, n):
                acc += np.kron(sums[j], members[(i - j) % n])
            folded.append(acc)
        sums = folded
    return sums


def coarse_ensemble(spec: FoldSpec, cap: int = DEFAULT_DIM_CAP) -> Ensemble:
    """Explicitly build the coarse ensemble of an L-fold preparation.

    Class ``i`` is the cyclic convolution of the weighted states ``p_k rho_k``
    (:func:`_class_sums`), normalized by :func:`fold_probs`.  The slot
    structure repeats the base slots ``L`` times with party labels kept, so
    partial transposition over party bipartitions needs no index surgery.
    """
    base = spec.base
    class_sums = _class_sums(spec, [p * s.matrix for p, s in zip(base.probs, base.states)], cap)
    class_probs = tuple(float(p) for p in fold_probs(base.probs, spec.n, spec.L))
    for i, prob in enumerate(class_probs):
        if prob <= 1e-15:
            raise DegenerateClassError(
                f"coarse class {i} has probability {prob:.3e}; cannot normalize"
            )
    slots = SlotStructure(base.slots.slot_dims * spec.L, base.slots.party_of_slot * spec.L)
    states = []
    for prob in class_probs:
        total = class_sums.pop(0)  # released once its normalized copy exists
        states.append(MultiPartyOperator(np.divide(total, prob, out=total), slots))
    return Ensemble(base.parties, class_probs, tuple(states))


def uniform_coarse_ensemble(spec: FoldSpec, cap: int = DEFAULT_DIM_CAP) -> Ensemble:
    """The coarse states re-weighted uniformly: the direct-encoding ensemble."""
    coarse = coarse_ensemble(spec, cap=cap)
    uniform = (1.0 / spec.n,) * spec.n
    return Ensemble(coarse.parties, uniform, coarse.states)


def exact_two_state_curve(eta0: float, lmax: int) -> list[float]:
    """Exact dominant-class probability of a two-state fold, for L = 1..lmax.

    ``1/2 + (2*eta0 - 1)**L / 2``, which is :func:`fold_bound` at ``n = 2``;
    requires ``1/2 <= eta0 <= 1`` (a dominated heavy member is what makes the
    value exact).
    """
    if not 0.5 <= eta0 <= 1.0:
        raise ValueError(f"eta0 must lie in [1/2, 1], got {eta0}")
    if lmax < 1:
        raise ValueError(f"lmax must be >= 1, got {lmax}")
    return [fold_bound(2, eta0, L) for L in range(1, lmax + 1)]


def fold_bound(n: int, qx: float, L: int) -> float:
    """Upper bound on the L-fold restricted-measurement value from a base bound.

    ``1/n + (n-1)/n * (n*qx - 1)**L``, capped at 1 since it bounds a
    probability; decays to ``1/n`` exponentially fast whenever ``qx < 2/n``.
    Values of ``qx`` below the guessing floor ``1/n`` are rejected.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if L < 1:
        raise ValueError(f"fold count must be >= 1, got {L}")
    if qx < 1.0 / n:
        raise ValueError(f"bound {qx} is below the guessing floor 1/{n}")
    return min(1.0, 1.0 / n + (n - 1.0) / n * (n * qx - 1.0) ** L)
