"""Helpers shared by every workload: paths, statistics, checks, output.

The benchmark runs from the root of a source checkout and imports the
program from ``src/`` there; :func:`program_root` finds that root and
:func:`import_program` puts it on ``sys.path``.  Everything a run
writes goes under :data:`SCRATCH_DIR` inside the checkout and is
removed before the run exits.
"""

from __future__ import annotations

import json
import os
import pathlib
import resource
import shutil
import statistics
import sys
import tempfile
from typing import Dict, Iterable, List

#: The benchmark's own directory and the checkout root above it.
BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: Per-run scratch space (stores, trace files), inside the checkout and
#: named in ``.gitignore``; each run makes its own subdirectory and
#: deletes it, and the parent too when no other run is using it.
SCRATCH_DIR = ROOT / ".benchsuite_tmp"


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program) or a workload broke."""


def program_root() -> pathlib.Path:
    """The checkout's ``src`` directory; raises when it is missing."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchError(
            "no program to measure: %s/repro is missing (run from the root "
            "of a source checkout)" % src
        )
    return src


def import_program() -> pathlib.Path:
    """Make ``import repro`` load the checkout's program."""
    src = program_root()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    return src


class Scratch:
    """A private scratch directory under :data:`SCRATCH_DIR`.

    Use as a context manager: the directory and everything in it is
    removed on exit, so a run leaves no store or trace behind.
    """

    def __enter__(self) -> pathlib.Path:
        SCRATCH_DIR.mkdir(exist_ok=True)
        self.path = pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH_DIR))
        return self.path

    def __exit__(self, *exc) -> bool:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            SCRATCH_DIR.rmdir()
        except OSError:
            pass  # another run still owns a subdirectory
        return False


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def median(values: Iterable[float]) -> float:
    """Median of a non-empty sample."""
    values = list(values)
    if not values:
        raise BenchError("median of an empty sample")
    return statistics.median(values)


def percentile(values: Iterable[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError("percentile of an empty sample")
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0.0 when nothing was attempted."""
    return num / den if den else 0.0


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MB.

    ``ru_maxrss`` is in KiB on Linux; children count only once they
    have been waited for, so call this after every child has exited.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# ----------------------------------------------------------------------
# correctness checks
# ----------------------------------------------------------------------
class Checker:
    """Counts what a run attempted and records every failed check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    @property
    def ok_frac(self) -> float:
        return (self.attempted - self.failed) / self.attempted


def result_bytes_of(result) -> bytes:
    """Canonical bytes of a synthesis result without its run-varying
    fields (``cpu_seconds``, ``stats``) -- the same bytes the service
    puts in a response's ``result``."""
    from repro.io.result_json import result_to_dict
    from repro.io.service_json import strip_run_varying

    return json.dumps(
        strip_run_varying(result_to_dict(result)),
        sort_keys=True, separators=(",", ":"),
    ).encode("utf-8")


def oracle_violations(result, config=None) -> List[str]:
    """Violations the independent schedule and architecture validators
    find in ``result`` (empty when it is a correct, feasible design)."""
    from repro.arch.validate import validate_architecture
    from repro.core.config import CrusadeConfig
    from repro.graph.association import AssociationArray
    from repro.sched.validate import validate_schedule

    config = config or CrusadeConfig()
    spec = result.spec
    problems: List[str] = []
    if not result.feasible:
        problems.append("%s: result is infeasible" % spec.name)
    assoc = AssociationArray(spec, max_explicit_copies=config.max_explicit_copies)
    sched = validate_schedule(
        result.schedule, spec, assoc, result.clustering, result.arch
    )
    arch = validate_architecture(
        result.arch, result.clustering, spec=spec, policy=config.delay_policy
    )
    problems.extend("%s: %s" % (spec.name, v) for v in sched.violations[:3])
    problems.extend("%s: %s" % (spec.name, v) for v in arch.violations[:3])
    return problems


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def metric(value: float, unit: str) -> Dict[str, object]:
    """One entry of the result line's ``metrics`` map."""
    return {"value": float(value), "unit": unit}


def emit(checker: Checker, metrics: Dict[str, Dict[str, object]]) -> None:
    """Print the failed checks to stderr and the result line to stdout."""
    for problem in checker.problems[:20]:
        print("problem: %s" % problem, file=sys.stderr)
    line = {
        "correct": checker.failed == 0 and checker.attempted > 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    sys.stdout.write(json.dumps(line, sort_keys=True) + "\n")
    sys.stdout.flush()


def log(message: str) -> None:
    """A progress line on stderr (stdout is reserved for the result)."""
    print(message, file=sys.stderr, flush=True)


def child_env() -> Dict[str, str]:
    """Environment for program subprocesses: the checkout's ``src`` on
    the path and no inherited kill switches, so a child runs the same
    defaults a user gets."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    src = str(program_root())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env
