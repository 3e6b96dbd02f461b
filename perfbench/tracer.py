"""Spans around the calls into nlhide's layers, recorded from outside.

:meth:`Tracer.install` replaces every public function of every ``nlhide``
module in every ``nlhide`` module namespace that binds it (``from .x import
y`` copies the binding, so patching the defining module alone would miss
calls), plus ``numpy.linalg.eigh``, ``numpy.linalg.eigvalsh`` and
``numpy.kron``.  Each call becomes a span ``(name, start, end, parent)`` kept
in flat in-memory arrays; nothing is written until the run ends.  The numpy
calls are counter spans: they are attributed to the innermost open nlhide
span and do not subtract from its self time, so a layer's self time includes
the kernels it calls directly.

:func:`layer_metrics` derives the per-layer numbers of one pass from its
spans.  A layer is a module; the benchmark opens one ``cli`` span per request.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from array import array
from typing import Callable

import numpy as np

LAYERS = ("tensor", "partitions", "ensembles", "discrimination", "folding", "hiding", "cli")
COUNTERS = ("numpy.linalg.eigh", "numpy.linalg.eigvalsh", "numpy.kron")


def _file_bytes(args: tuple, kwargs: dict, position: int, keyword: str) -> int:
    path = kwargs.get(keyword, args[position] if len(args) > position else None)
    return os.path.getsize(path) if isinstance(path, str) else 0


def _size(args: tuple, kwargs: dict) -> int:
    return np.shape(kwargs.get("a", args[0] if args else None))[-1]


# Values kept per span from a call's arguments and result, as (a, b).
_HOOKS: dict[str, Callable] = {
    "discrimination.check_dominant_state": lambda args, kw, out: (int(out.passed), 0),
    "discrimination.optimal_global": lambda args, kw, out: (out.iterations, int(out.certified)),
    "ensembles.load_ensemble": lambda args, kw, out: (_file_bytes(args, kw, 0, "source"), 0),
    "ensembles.save_ensemble": lambda args, kw, out: (_file_bytes(args, kw, 1, "sink"), 0),
    "numpy.linalg.eigh": lambda args, kw, out: (_size(args, kw), 0),
    "numpy.linalg.eigvalsh": lambda args, kw, out: (_size(args, kw), 0),
}


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.a = array("q")
        self.b = array("q")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.name_id)

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        idx = len(self.name_id)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self.a.append(0)
        self.b.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, func: Callable) -> Callable:
        hook = _HOOKS.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                out = func(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                self.a[idx], self.b[idx] = hook(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Patch every binding; :meth:`uninstall` restores the originals."""
        wrappers: dict[Callable, Callable] = {}
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "nlhide" or key.startswith("nlhide.")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__name__.startswith("_")
                        or not obj.__module__.startswith("nlhide.")):
                    continue
                if obj not in wrappers:
                    layer = obj.__module__.rsplit(".", 1)[-1]
                    wrappers[obj] = self._wrap(f"{layer}.{obj.__name__}", obj)
                self._patch(module, attr, wrappers[obj])
        self._patch(np.linalg, "eigh", self._wrap("numpy.linalg.eigh", np.linalg.eigh))
        self._patch(np.linalg, "eigvalsh",
                    self._wrap("numpy.linalg.eigvalsh", np.linalg.eigvalsh))
        self._patch(np, "kron", self._wrap("numpy.kron", np.kron))

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        """Write every span as one JSON line (name, start, end, parent, a, b)."""
        with open(path, "w", encoding="utf-8") as handle:
            for i in range(len(self)):
                handle.write(json.dumps({
                    "id": i, "name": self.names[self.name_id[i]],
                    "start": self.start[i], "end": self.end[i],
                    "parent": self.parent[i], "a": self.a[i], "b": self.b[i],
                }) + "\n")


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(tr: Tracer, lo: int, hi: int) -> dict[str, float]:
    """Per-layer metrics from spans ``lo..hi-1`` (one pass)."""
    names = [tr.names[k] for k in tr.name_id[lo:hi]]
    start, end, parent = tr.start[lo:hi], tr.end[lo:hi], tr.parent[lo:hi]
    a, b = tr.a[lo:hi], tr.b[lo:hi]
    count = hi - lo
    dur = [end[i] - start[i] for i in range(count)]
    counter = [name in COUNTERS for name in names]
    par = [p - lo if p >= lo else -1 for p in parent]

    child = [0.0] * count
    for i in range(count):
        if not counter[i] and par[i] >= 0:
            child[par[i]] += dur[i]
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls: dict[str, int] = {}
    eig_calls = dict.fromkeys(LAYERS, 0)
    eig_work = dict.fromkeys(LAYERS, 0)
    kron_calls = dict.fromkeys(LAYERS, 0)
    for i, name in enumerate(names):
        calls[name] = calls.get(name, 0) + 1
        if not counter[i]:
            self_s[_layer(name)] += dur[i] - child[i]
        elif par[i] >= 0:
            owner = _layer(names[par[i]])
            if name == "numpy.kron":
                kron_calls[owner] += 1
            else:
                eig_calls[owner] += 1
                eig_work[owner] += a[i] ** 3

    def outermost(group: set[str]) -> list[int]:
        # spans of the group not nested inside another span of the group
        out = []
        for i, name in enumerate(names):
            if name not in group:
                continue
            p = par[i]
            while p >= 0 and names[p] not in group:
                p = par[p]
            if p < 0:
                out.append(i)
        return out

    def incl(*group: str) -> float:
        return sum(dur[i] for i in outermost(set(group)))

    def total(field: array, name: str) -> int:
        return sum(field[i] for i, n in enumerate(names) if n == name)

    dominance_calls = calls.get("discrimination.check_dominant_state", 0)
    solve = outermost({"discrimination.optimal_global"})
    solve_s = sum(dur[i] for i in solve)
    iterations = sum(a[i] for i in solve)
    overlaps = outermost({"ensembles.pairwise_overlaps", "ensembles.max_pairwise_overlap",
                          "ensembles.is_orthogonal"})
    return {
        "tensor.self_s": self_s["tensor"],
        "tensor.partial_transpose_calls": calls.get("tensor.partial_transpose", 0),
        "tensor.psd_calls": calls.get("tensor.is_psd", 0),
        "tensor.eigensystem_calls": calls.get("tensor.hermitian_eigensystem", 0),
        "tensor.eig_calls": eig_calls["tensor"],
        "tensor.eig_work": eig_work["tensor"],
        "partitions.self_s": self_s["partitions"],
        "partitions.calls": sum(v for k, v in calls.items() if _layer(k) == "partitions"),
        "ensembles.self_s": self_s["ensembles"],
        "ensembles.load_s": incl("ensembles.load_ensemble"),
        "ensembles.load_mb": total(a, "ensembles.load_ensemble") / 1e6,
        "ensembles.save_s": incl("ensembles.save_ensemble"),
        "ensembles.save_mb": total(a, "ensembles.save_ensemble") / 1e6,
        "ensembles.validate_s": incl("ensembles.validate"),
        "ensembles.overlap_s": sum(dur[i] for i in overlaps),
        "ensembles.overlap_calls": len(overlaps),
        "ensembles.eig_calls": eig_calls["ensembles"],
        "discrimination.self_s": self_s["discrimination"],
        "discrimination.dominance_s": incl("discrimination.check_dominant_state"),
        "discrimination.dominance_calls": dominance_calls,
        "discrimination.dominance_hit_frac": (
            total(a, "discrimination.check_dominant_state") / dominance_calls
            if dominance_calls else 0.0),
        "discrimination.solve_s": solve_s,
        "discrimination.solve_calls": len(solve),
        "discrimination.iterations": iterations,
        "discrimination.s_per_iteration": solve_s / iterations if iterations else 0.0,
        "discrimination.uncertified": sum(1 for i in solve if not b[i]),
        "discrimination.eig_calls": eig_calls["discrimination"],
        "discrimination.eig_work": eig_work["discrimination"],
        "folding.self_s": self_s["folding"],
        "folding.coarse_s": incl("folding.coarse_ensemble"),
        "folding.kron_calls": kron_calls["folding"],
        "hiding.self_s": self_s["hiding"],
        "hiding.check_hiding_calls": calls.get("hiding.check_hiding", 0),
        "hiding.run_protocol_s": incl("hiding.run_protocol"),
        "hiding.jsonl_s": incl("hiding.transcripts_to_jsonl"),
        "hiding.direct_encode_s": incl("hiding.direct_encode"),
        "hiding.class_measurement_s": incl("hiding.class_measurement"),
        "hiding.eig_calls": eig_calls["hiding"],
        "cli.self_s": self_s["cli"],
        "cli.requests": sum(v for k, v in calls.items() if _layer(k) == "cli"),
    }
