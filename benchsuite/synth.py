"""The ``synth-commit`` and ``synth-search`` workloads.

Both call ``repro.crusade(spec)`` back to back in this process with the
default ``CrusadeConfig`` and no store: every call is a cold synthesis
of the same spec.  ``synth-commit`` uses A1TR at scale 0.05, where
nearly every cluster commits an early candidate, so time goes to
allocation-array builds, the list scheduler, timelines and priority
recompute.  ``synth-search`` uses a 72-task generated spec on which
98 % of candidate applies are reverted, bound aborts fire and the
repair stage runs, so a change that speeds the commit path at the
expense of the reject path shows here.

A timed run synthesizes for ``--seconds``.  With no store, a repeated,
fresh or near request is a cold synthesis too, so the hit, miss and
near metrics read the same latencies as ``synth_s`` (README.md).

A traced run spends half of ``--seconds`` alternating an untraced
synthesis with a traced one (span ledger installed, a counting
``Tracer`` passed in), then runs the service session of
:mod:`service` with a load of a third of ``--seconds`` for the
service, pool, exec, io and store layers.
"""

from __future__ import annotations

import gc
import time
from typing import Dict, List

import inputs
from common import (
    Checker, log, median, metric, oracle_violations, peak_rss_mb,
    percentile, result_bytes_of,
)
from ledger import Ledger, import_layers
from metrics import DETERMINISTIC_COUNTS, END_TO_END, PER_LAYER, synthesis_layers
from service import service_layers

BASES = {
    "synth-commit": inputs.synth_commit_base,
    "synth-search": inputs.synth_search_base,
}

#: Cold syntheses per run, at least, however short ``--seconds`` is.
MIN_SYNTHESES = 3

#: Set-up repetitions whose median is ``setup_s``.
SETUP_REPEATS = 3


class ResultChecker(Checker):
    """Checks every result of one spec against the first one."""

    def __init__(self) -> None:
        super().__init__()
        self.reference = None

    def check(self, result) -> None:
        self.attempted += 1
        problems = oracle_violations(result)
        data = result_bytes_of(result)
        if self.reference is None:
            self.reference = data
        elif data != self.reference:
            problems.append("%s: result differs from the run's first result"
                            % result.spec.name)
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def _setup(workload: str, seed: int):
    """Build the workload's spec ``SETUP_REPEATS`` times; returns the
    spec and the median build time."""
    times = []
    spec = None
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        spec = inputs.seeded(BASES[workload](), seed)
        times.append(time.perf_counter() - started)
    return spec, median(times)


def _cold(spec, tracer=None):
    """One timed cold synthesis, started from an empty collector so
    garbage left by the previous one is not charged to it."""
    from repro import crusade

    gc.collect()
    started = time.perf_counter()
    result = crusade(spec, tracer=tracer)
    return result, time.perf_counter() - started


def run_timed(workload: str, seed: int, seconds: float, import_s: float):
    spec, build_s = _setup(workload, seed)
    checker = ResultChecker()
    times: List[float] = []
    cost = None
    deadline = time.perf_counter() + seconds
    while len(times) < MIN_SYNTHESES or time.perf_counter() < deadline:
        result, elapsed = _cold(spec)
        times.append(elapsed)
        checker.check(result)
        cost = result.cost
    log("%s: %d cold syntheses, median %.3f s, min %.3f s, max %.3f s"
        % (workload, len(times), median(times), min(times), max(times)))
    cold_s = median(times)
    values = {
        "setup_s": import_s + build_s,
        "synth_s": cold_s,
        "arch_cost": cost,
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": checker.ok_frac,
        # No store: a repeated, a fresh and a near request are all cold
        # syntheses, so every request kind reads the cold latencies.
        "hit_p50_ms": cold_s * 1e3,
        "hit_p95_ms": percentile(times, 95) * 1e3,
        "miss_p50_s": cold_s,
        "near_p50_s": cold_s,
    }
    metrics = {name: metric(values[name], unit) for name, unit in END_TO_END}
    return checker, metrics


def run_traced(workload: str, seed: int, seconds: float):
    from repro import Tracer

    spec, _ = _setup(workload, seed)
    import_layers()
    checker = ResultChecker()
    ledger = Ledger()
    plain: List[float] = []
    traced: List[float] = []
    layers: List[Dict[str, float]] = []
    deadline = time.perf_counter() + seconds / 2
    while len(traced) < 2 or time.perf_counter() < deadline:
        result, elapsed = _cold(spec)
        plain.append(elapsed)
        checker.check(result)
        tracer = Tracer()
        ledger.reset()
        with ledger:
            result, elapsed = _cold(spec, tracer)
        traced.append(elapsed)
        checker.check(result)
        layers.append(synthesis_layers(ledger, tracer.stats()))
    log(ledger.render())
    for name in DETERMINISTIC_COUNTS:
        seen = sorted({sample[name] for sample in layers})
        if len(seen) != 1:
            checker.fail("count %s differs between traced syntheses: %s"
                         % (name, seen))
    values = {
        name: (layers[0][name] if unit == "count"
               else median(sample[name] for sample in layers))
        for name, unit in PER_LAYER if name in layers[0]
    }
    values["trace.overhead_frac"] = median(traced) / median(plain) - 1.0
    values.update(service_layers(seed, seconds / 3, checker))
    metrics = {name: metric(values[name], unit) for name, unit in PER_LAYER}
    return checker, metrics


def run(workload: str, seed: int, seconds: float, trace: bool,
        import_s: float):
    """Run one workload; returns (checker, metrics).  ``import_s`` is the
    time this process took to import the program, part of set-up."""
    if trace:
        return run_traced(workload, seed, seconds)
    return run_timed(workload, seed, seconds, import_s)
