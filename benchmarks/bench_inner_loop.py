"""Inner-loop benchmark: production inner loop vs. the reference mode.

Times the end-to-end :func:`repro.core.crusade.crusade` run on paper
examples in two configurations, verifies the results are
byte-identical, and records the timings in ``BENCH_inner_loop.json``
at the repository root:

* ``seconds_from_scratch`` -- the reference mode
  (``CrusadeConfig(incremental=False)``): no engine, no pruning, no
  bound aborts; every candidate is rescheduled from scratch by the
  legacy scheduler on the linear reference timelines;
* ``seconds_bound_abort`` -- the production inner loop (the default
  config): engine, pruning, incumbent-driven bound aborts and
  blocked-index timelines.  The key keeps its historical name, under
  which earlier revisions recorded the same full stack.  The record
  carries the prune/abort counters and ``abort_rate``
  (``sched.abort / sched.runs``).

The headline ``speedup`` is reference over production.

* ``seconds_warm_start`` / ``seconds_exact_hit`` -- the cross-run
  warm-start legs (:mod:`repro.perf.store`): a production run
  populates a fresh store, one deadline is loosened via
  :func:`repro.perf.warmstart.tweak_deadline`, and the tweaked spec is
  synthesized cold (the denominator), then warm against the populated
  store (``speedup_warm_start``), then resubmitted unchanged for the
  full-result-tier hit latency.  Both warm results are checked
  byte-identical to the cold tweaked run.  ``--skip-warm`` drops these
  legs.

``--skip-scratch`` records large workloads (e.g. ``NGXM`` at scale
0.25) without the slow reference leg: the record carries the
production legs and ``feasible`` with ``speedup: null``.  The
regression check falls back to comparing ``seconds_bound_abort``
against the baseline's for such records, so skip-scratch rows are
still guarded rather than silently skipped.

Every record carries the same key set (:data:`RECORD_SCHEMA`): legs a
run skipped are ``null``, never absent, and ``merge_records``
back-fills records written by older revisions of this script so the
committed JSON stays schema-uniform.  Historical keys no current leg
writes: ``timeline``, ``seconds_incremental``/``speedup_incremental``
(engine without pruning), ``seconds_pruned`` (engine and pruning
without bound aborts; the old ``speedup`` denominator),
``speedup_bound_abort`` (what ``speedup`` now measures), and
``transport_sweep`` (the A1TR@0.05 parallel-scoring sweep that showed
the since-deleted process-pool scorer slower than serial scoring).

Run directly (not under pytest)::

    PYTHONPATH=src python benchmarks/bench_inner_loop.py \
        --example A1TR --scale 0.1

Records merge by (example, scale) so repeated runs update in place.
``--check-against`` compares each fresh record to a committed
baseline file and exits non-zero when a deterministic field
(:data:`EXACT_FIELDS`) differs or the speedup regresses beyond
``--max-regression`` (CI's guard).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import tempfile
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.bench.examples import EXAMPLE_NAMES, build_example  # noqa: E402
from repro.core.config import CrusadeConfig  # noqa: E402
from repro.core.crusade import crusade  # noqa: E402
from repro.io.result_json import result_to_dict  # noqa: E402
from repro.obs.trace import Tracer  # noqa: E402
from repro.perf.warmstart import tweak_deadline  # noqa: E402

DEFAULT_OUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_inner_loop.json"

#: The uniform record shape.  Every record written by this script
#: carries exactly these keys (plus nothing else); ``None`` means the
#: leg was skipped, predates the key, or is historical (see the module
#: docstring).  ``merge_records`` normalizes
#: previously committed records against this schema.
RECORD_SCHEMA = {
    "example": None,
    "scale": None,
    "timeline": None,
    "tasks": None,
    "seconds_from_scratch": None,
    "seconds_incremental": None,
    "seconds_pruned": None,
    "seconds_bound_abort": None,
    "seconds_warm_start": None,
    "seconds_exact_hit": None,
    "speedup": None,
    "speedup_incremental": None,
    "speedup_bound_abort": None,
    "speedup_warm_start": None,
    "prune_cut": None,
    "sched_abort": None,
    "sched_runs": None,
    "abort_rate": None,
    "fragments_preloaded": None,
    "transport_sweep": None,
    "cost": None,
    "feasible": None,
    "identical": None,
}


#: Record fields that are deterministic for an (example, scale): the
#: work counters and the synthesized cost.  Any difference from the
#: baseline is a behaviour change, never noise, so the gate compares
#: them exactly.
EXACT_FIELDS = ("sched_runs", "prune_cut", "sched_abort", "cost")


def normalize_record(record: dict) -> dict:
    """``record`` back-filled to the full uniform key set."""
    full = dict(RECORD_SCHEMA)
    full.update(record)
    return full


def _canonical(result) -> str:
    """Result JSON with the run-dependent fields removed."""
    payload = result_to_dict(result)
    payload.pop("cpu_seconds", None)
    payload.pop("stats", None)
    return json.dumps(payload, sort_keys=True)


def _timed_run(spec, incremental: bool = True, cache_dir=None):
    config = CrusadeConfig(incremental=incremental, cache_dir=cache_dir)
    tracer = Tracer()
    started = time.perf_counter()
    result = crusade(spec, config=config, tracer=tracer)
    return time.perf_counter() - started, result, tracer.counters.as_dict()


def warm_start_legs(spec, store_parent=None) -> dict:
    """The cross-run legs: populate, tweak one deadline, resubmit.

    The denominator is a *cold* production run of the tweaked spec
    (the store-less behavior a resubmitting user would otherwise get);
    the warm run sees a store populated by the original spec and must
    be byte-identical to the cold run.  A second, unchanged
    resubmission measures the full-result-tier exact-hit latency.

    The throwaway store lives under ``store_parent`` (default: next to
    this script's output, i.e. the repository checkout) rather than the
    system temp dir: on hosts where ``/tmp`` is a slow mount, placing a
    write-heavy cache there would benchmark the wrong filesystem.
    """
    with tempfile.TemporaryDirectory(
        prefix="crusade-store-",
        dir=str(store_parent) if store_parent else None,
    ) as cache_dir:
        _timed_run(spec, cache_dir=cache_dir)
        tweaked = tweak_deadline(spec)
        seconds_cold, cold, _ = _timed_run(tweaked)
        print("  cold tweaked: %.2fs" % (seconds_cold,))
        seconds_warm, warm, counters = _timed_run(tweaked, cache_dir=cache_dir)
        preloaded = counters.get("perf.store.fragments_preloaded", 0)
        print("  warm-start:   %.2fs (%d fragments preloaded)" % (
            seconds_warm, preloaded))
        seconds_hit, hit, hit_counters = _timed_run(
            tweaked, cache_dir=cache_dir
        )
        print("  exact hit:    %.4fs (perf.store.hit %d)" % (
            seconds_hit, hit_counters.get("perf.store.hit", 0)))
        canonical_cold = _canonical(cold)
        return {
            "seconds_warm_start": round(seconds_warm, 3),
            "seconds_exact_hit": round(seconds_hit, 4),
            "speedup_warm_start": round(
                seconds_cold / max(seconds_warm, 1e-9), 3
            ),
            "fragments_preloaded": preloaded,
            "identical_warm": (
                canonical_cold == _canonical(warm)
                and canonical_cold == _canonical(hit)
            ),
        }


def bench_example(name: str, scale: float, skip_scratch: bool = False,
                  skip_warm: bool = False, store_parent=None) -> dict:
    """One record: the leg timings plus the identity checks."""
    spec = build_example(name, scale=scale)
    seconds_prod, prod, counters = _timed_run(spec)
    prune_cut = counters.get("prune.cut", 0)
    sched_abort = counters.get("sched.abort", 0)
    sched_runs = counters.get("sched.runs", 0)
    abort_rate = (
        round(sched_abort / sched_runs, 4) if sched_runs else None
    )
    print("  production:   %.2fs (cost $%.0f, %s, prune.cut %d, "
          "sched.abort %d / sched.runs %d)" % (
              seconds_prod, prod.cost,
              "feasible" if prod.feasible else "INFEASIBLE", prune_cut,
              sched_abort, sched_runs))
    record = {
        "example": name,
        "scale": scale,
        "tasks": spec.total_tasks,
        "seconds_bound_abort": round(seconds_prod, 3),
        "prune_cut": prune_cut,
        "sched_abort": sched_abort,
        "sched_runs": sched_runs,
        "abort_rate": abort_rate,
        "cost": round(prod.cost, 2),
        "feasible": prod.feasible,
        "identical": True,
    }
    if not skip_warm:
        warm = warm_start_legs(spec, store_parent=store_parent)
        record["identical"] = warm.pop("identical_warm")
        record.update(warm)
    if skip_scratch:
        print("  reference leg skipped (--skip-scratch)")
        return normalize_record(record)

    seconds_scratch, scratch, _ = _timed_run(spec, incremental=False)
    print("  from-scratch: %.2fs" % (seconds_scratch,))
    record.update({
        "seconds_from_scratch": round(seconds_scratch, 3),
        "speedup": round(seconds_scratch / max(seconds_prod, 1e-9), 3),
        "identical": (
            record["identical"] and _canonical(scratch) == _canonical(prod)
        ),
    })
    return normalize_record(record)


def merge_records(path: pathlib.Path, fresh: list) -> list:
    """Update ``path``'s records in place, keyed by (example, scale).

    Every surviving record -- freshly measured or previously committed
    -- is normalized against :data:`RECORD_SCHEMA`, so records written
    before a leg existed gain its keys (as ``null``) instead of
    leaving the file with drifting per-record shapes.  A re-measured
    record keeps its predecessor's ``transport_sweep``: no leg
    re-measures it, and EXPERIMENTS.md cites it as the evidence that
    deleted the process-pool scorer.
    """
    existing = []
    if path.exists():
        existing = json.loads(path.read_text()).get("records", [])
    by_key = {(r["example"], r["scale"]): normalize_record(r)
              for r in existing}
    for record in fresh:
        key = (record["example"], record["scale"])
        previous = by_key.get(key)
        record = normalize_record(record)
        if previous is not None and record["transport_sweep"] is None:
            record["transport_sweep"] = previous["transport_sweep"]
        by_key[key] = record
    return [by_key[k] for k in sorted(by_key)]


def check_regression(records: list, baseline_path: pathlib.Path,
                     max_regression: float) -> list:
    """Changed work and speedup regressions vs. a committed baseline.

    Every :data:`EXACT_FIELDS` value the baseline records must match
    exactly.  Records with a measured ``speedup`` compare it against the
    baseline's.  Records without one (``--skip-scratch`` rows, where
    the reference leg is too slow to run) are *not* skipped: their
    production wall time (``seconds_bound_abort``) is compared against
    the previous one instead, failing when the new run is more than
    ``max_regression`` slower.  A record is only ever skipped when the
    baseline has no comparable leg at all.
    """
    baseline = json.loads(baseline_path.read_text()).get("records", [])
    reference = {(r["example"], r["scale"]): r for r in baseline}
    failures = []
    for record in records:
        ref = reference.get((record["example"], record["scale"]))
        if ref is None:
            continue
        for key in EXACT_FIELDS:
            if ref.get(key) is not None and record.get(key) != ref[key]:
                failures.append(
                    "%s@%s: %s %r differs from baseline %r"
                    % (record["example"], record["scale"], key,
                       record.get(key), ref[key])
                )
        if record.get("speedup") is not None and ref.get("speedup") is not None:
            floor = ref["speedup"] * (1.0 - max_regression)
            if record["speedup"] < floor:
                failures.append(
                    "%s@%s: speedup %.2fx below %.2fx (baseline %.2fx - %d%%)"
                    % (record["example"], record["scale"], record["speedup"],
                       floor, ref["speedup"], round(max_regression * 100))
                )
            continue
        # Production-vs-previous-production fallback for
        # skip-scratch rows.
        seconds = record.get("seconds_bound_abort")
        ref_seconds = ref.get("seconds_bound_abort")
        if seconds is None or ref_seconds is None:
            continue
        ceiling = ref_seconds * (1.0 + max_regression)
        if seconds > ceiling:
            failures.append(
                "%s@%s: production %.2fs above %.2fs "
                "(baseline %.2fs + %d%%)"
                % (record["example"], record["scale"], seconds,
                   ceiling, ref_seconds, round(max_regression * 100))
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--example", action="append", dest="examples",
                        choices=EXAMPLE_NAMES, metavar="NAME",
                        help="example to benchmark (repeatable; default A1TR)")
    parser.add_argument("--scale", type=float, default=0.1,
                        help="example scale factor (default 0.1)")
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT,
                        help="output JSON (default BENCH_inner_loop.json)")
    parser.add_argument("--skip-scratch", action="store_true",
                        help="record only the production legs (no "
                             "reference leg, no speedup) -- for large "
                             "workloads")
    parser.add_argument("--skip-warm", action="store_true",
                        help="drop the warm-start / exact-hit legs")
    parser.add_argument("--check-against", type=pathlib.Path, default=None,
                        metavar="BASELINE.json",
                        help="fail on changed work counters or cost, or "
                             "a speedup regression, vs this file")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="tolerated fractional speedup loss (default .25)")
    args = parser.parse_args(argv)

    fresh = []
    for name in args.examples or ["A1TR"]:
        print("%s @ scale %g" % (name, args.scale))
        record = bench_example(name, args.scale,
                               skip_scratch=args.skip_scratch,
                               skip_warm=args.skip_warm,
                               store_parent=args.out.resolve().parent)
        if record["speedup"] is not None:
            print("  speedup: %.2fx, identical: %s" % (
                record["speedup"], record["identical"]))
        if record["speedup_warm_start"] is not None:
            print("  warm-start speedup: %.2fx, exact hit: %.4fs" % (
                record["speedup_warm_start"], record["seconds_exact_hit"]))
        fresh.append(record)

    records = merge_records(args.out, fresh)
    args.out.write_text(json.dumps(
        {"benchmark": "inner_loop", "records": records},
        indent=2, sort_keys=True) + "\n")
    print("wrote %s" % args.out)

    status = 0
    broken = [r for r in fresh if not r["identical"]]
    if broken:
        print("ERROR: production results differ from the reference for: %s"
              % ", ".join(r["example"] for r in broken))
        status = 1
    if args.check_against is not None:
        failures = check_regression(fresh, args.check_against,
                                    args.max_regression)
        for line in failures:
            print("REGRESSION: %s" % line)
        if failures:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
