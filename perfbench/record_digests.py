"""Record the output digests of seed 0 in perfbench/digests.json.

    python3 perfbench/record_digests.py

A digest is the sha256 of the first units' canonical output bytes (verify
reports or correspondence packages), joined by newlines.  ``run.py`` checks
every seed-0 run against them, so a change that alters any output byte of
those units fails the benchmark's correctness check.  Re-record only for a
change that is meant to alter outputs.
"""

from __future__ import annotations

import json

import run
from workloads import make

SEED = 0


def main() -> None:
    run.load_pdisk()
    recorded = {}
    for workload, count in run.FIXED_UNITS.items():
        work = make(workload, SEED)
        units = [work.run_unit() for _ in range(count)]
        if any(u.failed for u in units):
            raise SystemExit(f"{workload}: a unit failed its checks; not recording")
        recorded[workload] = {"seed": SEED, "units": count, "sha256": run.digest(units)}
        print(workload, recorded[workload]["sha256"])
    run.DIGESTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
