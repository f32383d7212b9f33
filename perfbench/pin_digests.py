"""Pin the per-pair CSV digests the allpairs workloads are gated on.

Usage, from the root of a source checkout of the commit to pin against::

    python3 perfbench/pin_digests.py --seeds 0:32

For every allpairs workload and workload seed, this runs
``harness.run_experiment`` on the workload's config with outputs written and
records the sha256 of the per-pair CSV in ``perfbench/pinned_digests.json``,
keeping digests already pinned for other seeds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys

from run import OUT, PINNED, SRC


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0:32", help="half-open range start:stop")
    args = parser.parse_args()
    start, stop = (int(x) for x in args.seeds.split(":"))

    sys.path.insert(0, SRC)
    from qnroute import harness

    import workloads

    with open(PINNED) as fh:
        pinned = json.load(fh)
    work_dir = os.path.join(OUT, f"pin-{os.getpid()}")
    try:
        for workload in workloads.WORKLOADS.values():
            if workload.kind != "allpairs":
                continue
            table = pinned.setdefault(workload.name, {})
            for seed in range(start, stop):
                config = workload.config(seed, work_dir)
                report = harness.run_experiment(config)
                if not report.passed:
                    raise SystemExit(f"{workload.name} seed {seed}: report assertions failed")
                with open(os.path.join(work_dir, config.name + "_pairs.csv"), "rb") as fh:
                    table[str(seed)] = hashlib.sha256(fh.read()).hexdigest()
                print(f"{workload.name} seed {seed} {table[str(seed)]}", flush=True)
                with open(PINNED, "w") as fh:
                    json.dump(pinned, fh, indent=2, sort_keys=True)
                    fh.write("\n")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
