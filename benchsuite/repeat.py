"""Run workloads over several seeds and report wall time and spread.

Usage, from the root of a source checkout::

    python3 benchsuite/repeat.py --seeds 1-10 --workloads synth-commit
    python3 benchsuite/repeat.py --seeds 0          # one full pass

Each run is ``benchsuite/run.py`` in a subprocess, with ``--seconds``
from ``BENCHMARK.json`` unless given.  For every end-to-end metric the
report gives the median over the seeds and the spread: the distance
between the first and third quartiles (``statistics.quantiles(values,
n=4)``) as a share of the median, next to the metric's bound.  It also
prints each run's wall time and the total, and the projected time of
the 4 + 22 x (number of workloads) runs a full benchmark evaluation
makes.  ``--out FILE`` keeps every run's result line as JSON.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=names)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    records = []
    total = 0.0
    for workload in args.workloads:
        for seed in parse_seeds(args.seeds):
            command = [sys.executable, str(HERE / "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", "%g" % args.seconds,
                       "--trace", str(args.trace)]
            started = time.perf_counter()
            proc = subprocess.run(command, cwd=str(ROOT), capture_output=True,
                                  text=True)
            wall = time.perf_counter() - started
            total += wall
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print("%s seed %d FAILED (exit %d):\n%s"
                      % (workload, seed, proc.returncode, proc.stderr[-3000:]))
                return 1
            result = json.loads(lines[-1])
            records.append({"workload": workload, "seed": seed,
                            "wall_s": wall, "result": result})
            print("%-13s seed %3d  wall %6.1f s  correct %s  failed %d"
                  % (workload, seed, wall, result["correct"],
                     result["failed"]), flush=True)
    print("total wall %.1f s" % total)
    per_run = total / len(records)
    print("projected %d runs x %.1f s = %.0f s"
          % (4 + 22 * len(args.workloads), per_run,
             (4 + 22 * len(args.workloads)) * per_run))
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(records, indent=1))

    for workload in args.workloads:
        rows = [r["result"]["metrics"] for r in records
                if r["workload"] == workload]
        print("\n%s (%d runs)" % (workload, len(rows)))
        for name in rows[0]:
            values = [row[name]["value"] for row in rows]
            mid = statistics.median(values)
            spread = 0.0
            if len(values) >= 2 and mid:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / abs(mid)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "ok" if spread < bound / 3 else (
                    "within bound" if spread <= bound else "OVER BOUND")
            print("  %-28s median %12.5g  spread %6.3f  bound %-5s %s"
                  % (name, mid, spread, bound if bound is not None else "-",
                     flag))
    return 0


if __name__ == "__main__":
    sys.exit(main())
