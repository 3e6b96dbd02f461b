"""Repeated preparations, modulo-n class coarse-graining, and bound curves.

Preparing ``L`` independent states from a base ensemble and keeping only the
modulo-n sum of the chosen indices yields a coarse ensemble with the same
member count: class probabilities and class states are the L-fold cyclic
convolutions of the base priors and of the weighted base states (states
normalized).  One convolution, :func:`_convolve`, serves both: it folds
without enumerating ``n**L`` index vectors, and forms only the classes asked.
Closed-form curves quantify how fast restricted-measurement bounds decay in
``L``; probability-only paths never materialize large matrices.
"""

from __future__ import annotations

import functools
import numbers
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .ensembles import Ensemble
from .tensor import DEFAULT_DIM_CAP, DimensionCapError, SlotStructure


class DegenerateClassError(ValueError):
    """A coarse class has zero probability and cannot be normalized."""


@dataclass(frozen=True)
class FoldSpec:
    """A base ensemble and a fold count ``L >= 1``, an integer (else ``ValueError``)."""

    base: Ensemble
    L: int

    def __post_init__(self):
        _check_fold_count(self.L)

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
    """Class probabilities of the L-fold preparation, for an integer ``L >= 0``:
    :func:`_convolve` of the priors, so no ``n**L`` enumeration happens."""
    p = [float(x) for x in probs]
    if len(p) != n:
        raise ValueError(f"expected {n} probabilities, got {len(p)}")
    _check_fold_count(L, least=0)
    return np.array(_convolve(p, L, _dot, range(n)) if L else [1.0] + [0.0] * (n - 1))


def _dot(lefts: Sequence[float], rights: Sequence[float]) -> float:
    """``sum_j lefts[j] * rights[j]``, added left to right."""
    return functools.reduce(operator.add, map(operator.mul, lefts, rights))


_KRON_CHUNK_BYTES = 1 << 20  # the largest piece of a Kronecker product formed at once


def _kron_sum(lefts: Sequence[np.ndarray], rights: Sequence[np.ndarray]) -> np.ndarray:
    """``sum_j np.kron(lefts[j], rights[j])`` for equal-shape matrices, bit for bit, with
    no full-size temporary: each product is formed in row chunks of its left factor (one
    broadcast multiply, as ``np.kron`` forms it) and added into the sum where it goes."""
    (ra, ca), (rb, cb) = lefts[0].shape, rights[0].shape
    out = np.empty((ra * rb, ca * cb), dtype=np.result_type(lefts[0], rights[0]))
    blocks = out.reshape(ra, rb, ca, cb)  # blocks[i, k, j, l] = a[i, j] * b[k, l]
    step = max(1, _KRON_CHUNK_BYTES // (rb * ca * cb * out.itemsize))
    for first in range(0, ra, step):
        rows = slice(first, first + step)
        terms = [(a[rows, None, :, None], b[None, :, None, :]) for a, b in zip(lefts, rights)]
        np.multiply(*terms[0], out=blocks[rows])
        for a, b in terms[1:]:
            blocks[rows] += a * b
    return out


def _convolve(members: Sequence, L: int, dot: Callable, classes: Sequence[int]) -> list:
    """Classes ``classes`` of the L-fold cyclic convolution of ``members``: ``S_1 =
    members``, ``S_l[i] = dot(S_{l-1}, [members[(i-j) mod n] for j in 0..n-1])``, where
    ``dot`` sums the products of its two sequences.  Each fold takes ``n**2`` products,
    except the last, which forms only the named classes."""
    n = len(members)
    sums = list(members)
    for fold in range(2, L + 1):
        sums = [dot(sums, [members[(i - j) % n] for j in range(n)])
                for i in (classes if fold == L else range(n))]
    return sums if L > 1 else [sums[i] for i in classes]


def _check_cap(spec: FoldSpec, cap: int) -> None:
    if spec.explicit_dim > cap:
        raise DimensionCapError(f"explicit fold dimension {spec.explicit_dim} exceeds the "
                                f"dimension cap {cap}")


def _coarse_states(spec: FoldSpec, cap: int, classes: Sequence[int]
                   ) -> tuple[tuple[float, ...], SlotStructure, list[np.ndarray]]:
    """All class probabilities, the folded slot structure, and the normalized state
    matrices of ``classes``.  Raises :class:`DimensionCapError`, then
    :class:`DegenerateClassError` if any class has probability zero, before any
    Kronecker product."""
    _check_cap(spec, cap)
    base = spec.base
    class_probs = tuple(float(p) for p in fold_probs(base.probs, spec.n, spec.L))
    for i, prob in enumerate(class_probs):
        if prob <= 1e-15:
            raise DegenerateClassError(f"coarse class {i} has probability {prob:.3e}; "
                                       "cannot normalize")
    sums = _convolve([p * m for p, m in zip(base.probs, base.stack)], spec.L, _kron_sum, classes)
    for i, matrix in zip(classes, sums):
        matrix /= class_probs[i]  # in place: each sum is a new array
    slots = SlotStructure(base.slots.slot_dims * spec.L, base.slots.party_of_slot * spec.L)
    return class_probs, slots, sums


def coarse_ensemble(spec: FoldSpec, cap: int = DEFAULT_DIM_CAP) -> Ensemble:
    """Explicitly build the coarse ensemble of an L-fold preparation.

    Class ``i`` is :func:`_convolve` of the weighted states ``p_k rho_k`` under
    the Kronecker product, normalized by its :func:`fold_probs` entry.  The slot
    structure repeats the base slots ``L`` times with party labels kept, so
    partial transposition over party bipartitions needs no index surgery.
    """
    class_probs, slots, sums = _coarse_states(spec, cap, range(spec.n))
    stack = np.empty((spec.n, slots.dim, slots.dim), dtype=np.complex128)
    for row in stack:
        row[...] = sums.pop(0)  # each sum is released once its row holds it
    return Ensemble._of_stack(spec.base.parties, class_probs, stack, slots)


def uniform_coarse_ensemble(spec: FoldSpec, cap: int = DEFAULT_DIM_CAP) -> Ensemble:
    """The coarse states re-weighted uniformly: the direct-encoding ensemble."""
    coarse = coarse_ensemble(spec, cap=cap)
    return Ensemble._of_stack(coarse.parties, (1.0 / spec.n,) * spec.n, coarse.stack,
                              coarse.slots)


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


def _check_fold_count(L: int, least: int = 1) -> None:
    """Raise ``ValueError`` unless ``L`` is a fold count: a Python or numpy integer, not
    a bool or a float (``2.0`` included), of at least ``least``."""
    if isinstance(L, bool) or not isinstance(L, numbers.Integral):
        raise ValueError(f"fold count must be an integer, got {L!r}")
    if L < least:
        raise ValueError(f"fold count must be >= {least}, got {L}")


def fold_bound(n: int, qx: float, L: int) -> float:
    """Upper bound on the L-fold restricted-measurement value from a base bound.

    ``1/n + (n-1)/n * (n*qx - 1)**L``, capped at 1 since it bounds a
    probability; decays to ``1/n`` exponentially fast whenever ``qx < 2/n``.
    Values of ``qx`` below the guessing floor ``1/n`` are rejected, and so is a fold
    count that :func:`_check_fold_count` refuses.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    _check_fold_count(L)
    if not qx >= 1.0 / n:  # also NaN
        raise ValueError(f"bound {qx} is below the guessing floor 1/{n}")
    return min(1.0, 1.0 / n + (n - 1.0) / n * (n * qx - 1.0) ** L)
