"""Run the benchmark on several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --workload harmonic-deep --seeds 0-9 [--trace 1] [--json FILE]

Each seed is one ``run.py`` process, run one after another.  The spread of a
metric is the distance between the first and third quartiles of its values
(``statistics.quantiles(values, n=4)``) as a share of their median; for an
end-to-end metric it is printed next to the metric's bound.  ``--json``
stores the per-seed values and the summary in FILE under the workload's name
(with " --trace 1" appended for traced runs), keeping the other entries;
perfbench/baseline.json is made so.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spec import END_TO_END, RUN_SECONDS

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict[str, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else float("nan"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", dest="out", help="write the values and summary here")
    args = parser.parse_args()

    runs = []
    for seed in seed_range(args.seeds):
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        env = next(line[4:] for line in proc.stdout.splitlines() if line.startswith("env "))
        wall = time.perf_counter() - t0
        print(f"seed {seed}: correct={result['correct']} wall {wall:.1f} s", flush=True)
        result["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
        runs.append({"seed": seed, "wall_s": wall, "env": json.loads(env), **result})

    bounds = {name: bound for name, _, _, bound in END_TO_END}
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name] for r in runs]
        if len(values) < 3:  # quartiles of fewer values say nothing
            continue
        summary[name] = summarize(values)
        s = summary[name]
        note = f"  bound {bounds[name]:.2f}" if name in bounds else ""
        print(f"{name:50s} median {s['median']:.6g}  spread {s['spread']:.4f}{note}")
    print(f"all correct: {all(r['correct'] for r in runs)}")
    if args.out:
        out = Path(args.out)
        doc = json.loads(out.read_text()) if out.exists() else {}
        key = args.workload + (" --trace 1" if args.trace else "")
        doc[key] = {"runs": runs, "summary": summary} if summary else {"runs": runs}
        out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
