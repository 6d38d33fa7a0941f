"""Metric names, units and the per-layer values of one traced synthesis.

``END_TO_END`` and ``PER_LAYER`` list every metric the benchmark
prints, in the order ``BENCHMARK.json`` declares them; each run prints
all of them (a layer a workload does not exercise reads 0, see
README.md).  ``synthesis_layers`` turns one traced synthesis -- its
ledger spans plus the program's own counters and phase timers -- into
the per-layer values.
"""

from __future__ import annotations

from typing import Dict, Tuple

from common import ratio

#: (name, unit) of every end-to-end metric.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("synth_s", "s"),
    ("arch_cost", "usd"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
    ("hit_p50_ms", "ms"),
    ("hit_p95_ms", "ms"),
    ("miss_p50_s", "s"),
    ("near_p50_s", "s"),
)

#: Pipeline stages timed by the program's own phase timers.
STAGES = ("preprocess", "clustering", "allocation", "repair", "merge",
          "interface", "full_check")

#: (name, unit) of every per-layer metric.
PER_LAYER: Tuple[Tuple[str, str], ...] = tuple(
    ("stages.%s.s" % stage, "s") for stage in STAGES
) + (
    ("alloc.array.s", "s"),
    ("alloc.array.calls", "count"),
    ("alloc.options", "count"),
    ("alloc.evaluate.s", "s"),
    ("alloc.evaluations", "count"),
    ("engine.evaluate.s", "s"),
    ("engine.schedule_hit_ratio", "ratio"),
    ("sched.s", "s"),
    ("sched.runs", "count"),
    ("sched.tasks.real", "count"),
    ("sched.abort_ratio", "ratio"),
    ("timeline.s", "s"),
    ("timeline.ops", "count"),
    ("prune.s", "s"),
    ("prune.cut_ratio", "ratio"),
    ("cow.s", "s"),
    ("cow.applies", "count"),
    ("cow.revert_ratio", "ratio"),
    ("priorities.s", "s"),
    ("priorities.reuse_ratio", "ratio"),
    ("fingerprint.s", "s"),
    ("fingerprint.calls", "count"),
    ("merge.s", "s"),
    ("merge.accept_ratio", "ratio"),
    ("io.validate_ms", "ms"),
    ("io.encode_ms", "ms"),
    ("http.response_bytes", "bytes"),
    ("store.digest_ms", "ms"),
    ("store.load_result_ms", "ms"),
    ("store.fragment.load_s", "s"),
    ("engine.fragment_hit_ratio", "ratio"),
    ("service.hit_ratio", "ratio"),
    ("service.coalesced", "count"),
    ("service.probe_ms", "ms"),
    ("service.queue_wait_s", "s"),
    ("service.worker_wall_s", "s"),
    ("service.jobs.retried", "count"),
    ("exec.workers.restarts", "count"),
    ("gen.late_p95_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
)

#: Work counts that must repeat exactly between traced runs of one
#: input; a run whose traced syntheses disagree on them is incorrect.
DETERMINISTIC_COUNTS = ("sched.runs", "sched.tasks.real", "timeline.ops",
                        "cow.applies", "alloc.evaluations")


def synthesis_layers(ledger, stats) -> Dict[str, float]:
    """Per-layer values of one traced synthesis.

    ``ledger`` holds the spans of exactly that synthesis; ``stats`` is
    its tracer's :class:`~repro.obs.report.SynthesisStats`.  Every
    ``<layer>.s`` is the layer's self time (its spans minus their
    child spans); counts and ratios come from the program's counters.
    """
    c = stats.counters
    phases = stats.phase_seconds
    values = {"stages.%s.s" % s: phases.get(s, 0.0) for s in STAGES}
    values.update({
        "alloc.array.s": ledger.self_s("alloc.array"),
        "alloc.array.calls": ledger.calls("alloc.array"),
        "alloc.options": c.get("alloc.options.considered", 0),
        "alloc.evaluate.s": ledger.self_s("alloc.evaluate"),
        "alloc.evaluations": c.get("alloc.evaluations", 0),
        "engine.evaluate.s": ledger.self_s("engine.evaluate"),
        "engine.schedule_hit_ratio": ratio(
            c.get("perf.schedule.hits", 0),
            c.get("perf.schedule.hits", 0) + c.get("perf.schedule.misses", 0)),
        "sched.s": ledger.self_s("sched"),
        "sched.runs": c.get("sched.runs", 0),
        "sched.tasks.real": c.get("sched.tasks.real", 0),
        "sched.abort_ratio": ratio(c.get("sched.abort", 0),
                                   c.get("sched.runs", 0)),
        "timeline.s": ledger.self_s("timeline"),
        "timeline.ops": ledger.calls("timeline"),
        "prune.s": ledger.self_s("prune"),
        "prune.cut_ratio": ratio(
            c.get("prune.cut", 0), c.get("prune.cut", 0) + c.get("prune.kept", 0)),
        "cow.s": ledger.self_s("cow"),
        "cow.applies": c.get("perf.cow.applies", 0),
        "cow.revert_ratio": ratio(c.get("perf.cow.reverts", 0),
                                  c.get("perf.cow.applies", 0)),
        "priorities.s": ledger.self_s("priorities"),
        "priorities.reuse_ratio": ratio(
            c.get("perf.priorities.reused", 0),
            c.get("perf.priorities.reused", 0)
            + c.get("perf.priorities.recomputed", 0)),
        "fingerprint.s": ledger.self_s("fingerprint"),
        "fingerprint.calls": ledger.calls("fingerprint"),
        "merge.s": ledger.self_s("merge"),
        "merge.accept_ratio": ratio(c.get("merge.accepts", 0),
                                    c.get("merge.candidates", 0)),
        "store.fragment.load_s": ledger.total_s("store.fragment.load"),
        "engine.fragment_hit_ratio": ratio(
            c.get("perf.store.fragments_preloaded", 0),
            ledger.calls("store.fragment.load")),
    })
    return values
