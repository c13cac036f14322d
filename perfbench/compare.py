"""Compare two sets of benchmark runs, metric by metric.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the standard output of ``run.py`` runs, one file
per run (any name, e.g. ``sim-512n.seed3.trace0.out``).  Runs are
grouped by the workload and trace flag in their ``env`` line.  For each
workload and metric, end-to-end and per-layer alike, it prints the
median and quartiles of both sets and flags a metric whose median moved
by more than the parent's interquartile range, marking whether the move
is better or worse by the metric's direction in ``BENCHMARK.json``.
"""

import json
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

from stats import quartiles

ROOT = Path(__file__).resolve().parent.parent

Key = Tuple[str, int, str]  # workload, trace flag, metric


def load_runs(directory: Path) -> Dict[Key, List[float]]:
    """Metric values by (workload, trace, metric) from every run file."""
    values: Dict[Key, List[float]] = defaultdict(list)
    for path in sorted(p for p in directory.iterdir() if p.is_file()):
        env = result = None
        for line in path.read_text(encoding="utf-8").splitlines():
            if not line.startswith("{"):
                continue
            try:
                doc = json.loads(line)
            except ValueError:
                continue
            if "env" in doc:
                env = doc["env"]
            elif "metrics" in doc:
                result = doc
        if env is None or result is None:
            print(f"skipping {path}: no run output", file=sys.stderr)
            continue
        for name, metric in result["metrics"].items():
            values[(env["workload"], env["trace"], name)].append(metric["value"])
    return values


def directions() -> Dict[str, Tuple[str, str]]:
    """Metric name -> (unit, better) from ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        m["name"]: (m["unit"], m["better"])
        for family in ("end_to_end", "per_layer")
        for m in spec[family]
    }


def compare(parent: Dict[Key, List[float]], change: Dict[Key, List[float]]):
    """Rows of (key, unit, parent quartiles, change quartiles, flag)."""
    known = directions()
    rows = []
    for key in sorted(set(parent) & set(change)):
        unit, better = known.get(key[2], ("", "lower"))
        p, c = quartiles(parent[key]), quartiles(change[key])
        moved = c[1] - p[1]
        flag = ""
        if abs(moved) > p[2] - p[0]:
            improved = moved < 0 if better == "lower" else moved > 0
            flag = "better" if improved else "WORSE"
        rows.append((key, unit, p, c, len(parent[key]), len(change[key]), flag))
    return rows


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    rows = compare(load_runs(Path(argv[0])), load_runs(Path(argv[1])))
    header = (f"{'workload':20s} {'t':1s} {'metric':34s} {'unit':6s} "
              f"{'parent q1/med/q3 (n)':>36s} {'change q1/med/q3 (n)':>36s} "
              f"{'moved':>8s}  flag")
    print(header)
    for (workload, trace, name), unit, p, c, np_, nc, flag in rows:
        moved = (c[1] - p[1]) / p[1] if p[1] else 0.0
        print(
            f"{workload:20s} {trace:1d} {name:34s} {unit:6s} "
            f"{p[0]:10.4g} {p[1]:10.4g} {p[2]:10.4g} ({np_:2d}) "
            f"{c[0]:10.4g} {c[1]:10.4g} {c[2]:10.4g} ({nc:2d}) "
            f"{moved:+8.1%}  {flag}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
