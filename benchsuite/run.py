"""Run one benchmark workload and print its metrics.

Usage, from the root of a source checkout::

    python3 benchsuite/run.py --workload synth-commit --seed 0 \
        --seconds 25 --trace 0

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every
per-layer metric.  Progress and the ledger go to stderr; the last line
of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 when the run finished
(even if a check failed, which ``correct`` reports) and non-zero when
it could not run at all, e.g. outside a checkout that has ``src/``.
See README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import BenchError, emit, import_program, log  # noqa: E402

WORKLOADS = ("synth-commit", "synth-search")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    started = time.perf_counter()
    try:
        import_program()
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    import repro  # noqa: F401  (timed: importing is part of set-up)

    import_s = time.perf_counter() - started
    # Users get the defaults: no inherited kill switch or store.
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]

    import synth

    checker, metrics = synth.run(
        args.workload, args.seed, args.seconds, bool(args.trace), import_s
    )
    log("%s seed %d trace %d: run wall %.1f s"
        % (args.workload, args.seed, args.trace,
           time.perf_counter() - started))
    emit(checker, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
