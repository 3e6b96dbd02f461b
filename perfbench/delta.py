"""Print per-workload metric rows of one or two result sets, with the change.

Usage, from the repository root:

    python3 perfbench/delta.py BASE.jsonl            # one set: median, quartiles, spread
    python3 perfbench/delta.py BASE.jsonl NEW.jsonl  # two sets: both rows and the change

A result set is a JSONL file of run records written by ``run.py --out``.
Records are grouped by workload and trace flag.  For each metric the row gives
the run count, the median, the first and third quartile (``statistics.quantiles``
with ``n=4``) and the spread, ``(q3 - q1) / median``.  With two sets the
change is ``(new median - base median) / base median``; an end-to-end metric
whose change is worse than its bound in ``BENCHMARK.json`` is marked
``REGRESSED``, and one whose base spread exceeds its bound ``UNRESOLVED``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str, units: dict[str, str]) -> dict[tuple[str, int], dict[str, list[float]]]:
    """Metric values per (workload, trace); fills ``units`` by metric name."""
    groups: dict[tuple[str, int], dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            key = (record["meta"]["workload"], record["trace"])
            for name, entry in record["metrics"].items():
                groups[key][name].append(entry["value"])
                units[name] = entry["unit"]
    return groups


def summary(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    spread = (q3 - q1) / abs(med) if med else float("nan")
    return med, q1, q3, spread


def bounds() -> dict[str, dict]:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return {}
    return {e["name"]: e for e in json.loads(spec_path.read_text())["end_to_end"]}


def row(values: list[float]) -> str:
    med, q1, q3, spread = summary(values)
    return f"{len(values):3d} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.3f}"


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    units: dict[str, str] = {}
    base = load(argv[0], units)
    new = load(argv[1], units) if len(argv) == 2 else None
    limits = bounds()
    header = f"{'n':>3} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}"
    for key in sorted(set(base) | set(new or {})):
        workload, trace = key
        print(f"\n== {workload} (trace={trace})")
        print(f"{'metric':36s} {'unit':12s} {'set':4s} {header}" + ("  change" if new else ""))
        names = list(dict.fromkeys([*base.get(key, {}), *(new or {}).get(key, {})]))
        for name in names:
            unit = units[name]
            old_vals = base.get(key, {}).get(name)
            if old_vals:
                print(f"{name:36s} {unit:12s} {'base':4s} {row(old_vals)}")
            if new is None:
                continue
            new_vals = new.get(key, {}).get(name)
            if not new_vals:
                continue
            line = f"{name:36s} {unit:12s} {'new':4s} {row(new_vals)}"
            if old_vals:
                old_med, *_, old_spread = summary(old_vals)
                new_med = summary(new_vals)[0]
                change = (new_med - old_med) / abs(old_med) if old_med else float("nan")
                line += f"  {change:+.3f}"
                limit = limits.get(name)
                if limit is not None and old_spread > limit["bound"]:
                    line += " UNRESOLVED"
                elif limit is not None:
                    worse = change if limit["better"] == "lower" else -change
                    if worse > limit["bound"]:
                        line += " REGRESSED"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
