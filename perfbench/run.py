"""Run one qnroute benchmark workload and print its metrics.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload allpairs-partial --seed 0 --seconds 30 --trace 0

The package is imported from ``src/`` next to this directory. ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` runs the workload under the span
tracer, prints the per-layer metrics and writes the spans to
``.perfbench_out/traces/``. Progress, digests and failed checks are printed
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0 only
when every check passed, and 2, with no result line, when the sources are
missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
PINNED = os.path.join(HERE, "pinned_digests.json")


def source_digest() -> str:
    """sha256 over the package sources, standing in for a commit id."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "qnroute")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qnroute", "__init__.py")):
        print(f"perfbench: no qnroute sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy

    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    with open(PINNED) as fh:
        pinned = json.load(fh)

    print(
        f"perfbench {workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace} | "
        f"python {platform.python_version()} numpy {numpy.__version__} "
        f"{platform.platform()} nproc={os.cpu_count()} src sha256 {source_digest()[:16]}"
    )
    work_dir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    tracer = Tracer() if args.trace else None
    try:
        outcome = workloads.run(workload, args.seed, args.seconds, tracer, work_dir, pinned)
    except Exception:
        traceback.print_exc()
        outcome = workloads.Outcome(attempted=1)
        outcome.fail("the workload raised; see the traceback above")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    units = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    if tracer is not None and not outcome.failures:
        trace_path = os.path.join(OUT, "traces", f"{workload.name}-seed{args.seed}.jsonl")
        tracer.write(trace_path)
        outcome.notes.append(f"{len(tracer.spans)} spans written to {os.path.relpath(trace_path, ROOT)}")
    for note in outcome.notes:
        print(note)
    for failure in outcome.failures:
        print(f"FAILED {failure}")
    metrics = {}
    if not outcome.failures:
        for name, unit in units.items():
            value = outcome.metrics[name]
            print(f"{name} {value} {unit}")
            metrics[name] = {"value": value, "unit": unit}
    print(
        json.dumps(
            {
                "correct": not outcome.failures,
                "attempted": max(1, outcome.attempted),
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if not outcome.failures else 1


if __name__ == "__main__":
    sys.exit(main())
