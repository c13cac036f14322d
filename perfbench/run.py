"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sim-512n --seed 2025 --seconds 10 --trace 0

Run from the repository root.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end metrics named in
``BENCHMARK.json``; with ``--trace 1`` they are the per-layer metrics,
measured by outside-in probes (``probes.py``).  The lines above it are
for people: every metric with its unit, the workload's own figures, and
an environment stamp.

The process re-executes itself under a fixed ``PYTHONHASHSEED``; see
README.md for why.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import traceback
from pathlib import Path

HASH_SEED = "0"
#: Fresh-interpreter imports timed per run, besides the run's own.  They
#: run after the workload, once its peak memory has been read.
IMPORT_PROBES = 4
#: What every workload imports before its set-up.
SURFACE = ("repro", "repro.runtime", "repro.analysis", "repro.live",
           "repro.serve", "repro.obs")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_surface() -> float:
    """Seconds importing the surface takes, at the reference host speed."""
    from hostspeed import HostSpeed, perf

    with HostSpeed() as speed:
        start = perf()
        for module in SURFACE:
            __import__(module)
        wall = perf() - start
    return speed.adjust(wall)


def time_imports() -> float:
    """:func:`import_surface` in a fresh interpreter."""
    code = (
        f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]; "
        "from run import import_surface; print(repr(import_surface()))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True, text=True
    )
    return float(done.stdout)


def commit() -> str:
    """The checked-out commit, read from ``.git`` when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child.

    Read before any import probe runs, so the children are the
    workload's own (the request client, pool workers).
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def main(argv) -> int:
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, __file__, *argv], env)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    own_import_s = import_surface()

    import numpy

    from stats import percentile, spread
    from workloads import WORKLOADS, Run

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_run" / f"{args.workload}-{os.getpid()}"
    run = Run(args.seed, args.seconds, bool(args.trace), workdir)
    try:
        WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    run.e2e["peak_rss_mb"] = peak_rss_mb()
    import_s = [own_import_s] + [time_imports() for _ in range(IMPORT_PROBES)]
    run.e2e["setup_s"] = percentile(import_s, 50) + run.setup_s
    run.layers["setup.import_s"] = percentile(import_s, 50)

    family = "per_layer" if args.trace else "end_to_end"
    source = run.layers if args.trace else run.e2e
    metrics = {}
    for metric in spec[family]:
        name = metric["name"]
        if name not in source and not args.trace:
            raise KeyError(f"workload {args.workload} did not measure {name}")
        value = float(source.get(name, 0.0))
        metrics[name] = {"value": value, "unit": metric["unit"]}
        print(f"{name:40s} {value:14.6g} {metric['unit']}")
    for name, value in run.notes.items():
        print(f"  {name}: {value}")
    for problem in run.problems:
        print(f"  FAILED CHECK: {problem}")
    print(json.dumps({"env": {
        "commit": commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "repeats": len(run.op_seconds),
        "op_spread": spread(run.op_seconds) if run.op_seconds else 0.0,
        "failed_ops_frac": run.failed / max(1, run.attempted),
    }}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except Exception:
        traceback.print_exc()
        sys.exit(1)
