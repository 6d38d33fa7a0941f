"""The incremental engine is an optimization, not a semantics change.

Property suite fuzzing generated workloads: the synthesized result --
architecture, schedule, deadline report, costs -- must be byte
identical with the engine on, off, killed via the environment, and
under parallel candidate scoring; the decision counters (which options
were considered/rejected) must match exactly between the
copy-on-write and the clone-based inner loops.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import CrusadeConfig, GeneratorConfig, Tracer, crusade, generate_spec
from repro.io.result_json import result_to_dict

PROPERTY_SETTINGS = settings(
    max_examples=8,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Counters that must not depend on the evaluation strategy: they
#: record the allocation loop's *decisions*, not its bookkeeping.
DECISION_COUNTERS = (
    "alloc.clusters",
    "alloc.clusters.fallback",
    "alloc.options.considered",
    "alloc.options.apply_failed",
    "repair.rounds",
    "repair.rehomings_tried",
    "repair.rehomings_kept",
    "merge.candidates",
    "merge.accepts",
)


def make_spec(seed):
    return generate_spec(GeneratorConfig(
        seed=seed, n_graphs=2, tasks_per_graph=5, compat_group_size=2,
        utilization=0.2, hw_only_fraction=0.35, mixed_fraction=0.15,
    ))


def canonical(seed, tracer=None, **config_kw):
    config = CrusadeConfig(max_explicit_copies=2, **config_kw)
    result = crusade(make_spec(seed), config=config, tracer=tracer)
    payload = result_to_dict(result)
    payload.pop("cpu_seconds", None)
    payload.pop("stats", None)
    return json.dumps(payload, sort_keys=True)


@PROPERTY_SETTINGS
@given(seed=st.integers(min_value=0, max_value=60), reconfig=st.booleans())
def test_incremental_equals_from_scratch(seed, reconfig):
    scratch = canonical(seed, reconfiguration=reconfig, incremental=False)
    incremental = canonical(seed, reconfiguration=reconfig, incremental=True)
    assert scratch == incremental


@PROPERTY_SETTINGS
@given(seed=st.integers(min_value=0, max_value=60))
def test_traced_incremental_equals_untraced(seed):
    untraced = canonical(seed, incremental=True)
    traced = canonical(seed, tracer=Tracer(), incremental=True)
    assert untraced == traced


@PROPERTY_SETTINGS
@given(seed=st.integers(min_value=0, max_value=30))
def test_env_kill_switch_equals_enabled(seed):
    import os

    enabled = canonical(seed, incremental=True)
    os.environ["REPRO_NO_INCREMENTAL"] = "1"
    try:
        killed = canonical(seed, incremental=True)
    finally:
        del os.environ["REPRO_NO_INCREMENTAL"]
    assert enabled == killed


@PROPERTY_SETTINGS
@given(seed=st.integers(min_value=0, max_value=60), reconfig=st.booleans())
def test_decision_counters_match_from_scratch(seed, reconfig):
    """COW + fragment caching change *what is computed*, never *what is
    decided*: every option-level decision counter matches exactly."""

    def counters(incremental):
        tracer = Tracer()
        config = CrusadeConfig(
            reconfiguration=reconfig, max_explicit_copies=2,
            incremental=incremental,
        )
        result = crusade(make_spec(seed), config=config, tracer=tracer)
        return result.stats

    scratch = counters(False)
    incremental = counters(True)
    for name in DECISION_COUNTERS:
        assert scratch.counter(name) == incremental.counter(name), name
    # Evaluation counts are bookkeeping: the reference mode evaluates
    # every candidate production prunes or aborts, never fewer.
    for name in ("alloc.options.infeasible", "alloc.evaluations"):
        assert scratch.counter(name) >= incremental.counter(name), name
    # Every engine scheduler run is a fragment-cache miss (one run per
    # component, vs one per evaluation from scratch -- so the counts
    # are not comparable across modes, but this equality is exact).
    assert incremental.counter("sched.runs") == \
        incremental.counter("perf.schedule.misses")
    # COW bookkeeping balances: every apply is committed or reverted.
    applies = incremental.counter("perf.cow.applies")
    assert applies > 0
    assert applies == incremental.counter("perf.cow.commits") + \
        incremental.counter("perf.cow.reverts")


@PROPERTY_SETTINGS
@given(seed=st.integers(min_value=0, max_value=30))
def test_incremental_priorities_are_exact(seed):
    """Reused priority maps equal full recomputation: synthesis
    decisions (which depend on priority order) already pin this down,
    but the counters prove reuse actually happened."""
    tracer = Tracer()
    config = CrusadeConfig(max_explicit_copies=2, incremental=True)
    result = crusade(make_spec(seed), config=config, tracer=tracer)
    stats = result.stats
    recomputed = stats.counter("perf.priorities.recomputed")
    reused = stats.counter("perf.priorities.reused")
    assert recomputed > 0
    # Two graphs sharing nothing: most placements touch one graph only.
    assert recomputed + reused > 0
