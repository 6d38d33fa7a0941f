"""Candidate pruning is dominance pruning, not a heuristic.

Property suite fuzzing generated workloads (plus one pinned spec of
51-task graphs): the synthesized result
must be byte-identical with pruning on, patched off (engine and bound
aborts left on), and in the reference mode -- including workloads that
drive the deferred least-infeasible fallback reconstruction.  Unit tests pin the bound
primitives: a deliberately deadline-infeasible candidate is cut
without any scheduler call, and the finish-time floor never exceeds
the real schedule.
"""

import json
import types
from contextlib import ExitStack
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro import (
    CrusadeConfig,
    GeneratorConfig,
    SystemSpec,
    Task,
    TaskGraph,
    Tracer,
    crusade,
    generate_spec,
)
from repro.arch.architecture import Architecture
from repro.cluster.clustering import trivial_clustering
from repro.graph.association import AssociationArray
from repro.graph.task import MemoryRequirement
from repro.io.result_json import result_to_dict
from repro.perf.engine import KILL_SWITCH_ENV
from repro.perf.prune import CandidatePruner, RepairBound, pruning_active
from repro.sched.bounds import (
    best_case_exec_vector,
    demand_floor,
    finish_time_floor,
)

PROPERTY_SETTINGS = settings(
    max_examples=8,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def make_spec(seed, utilization=0.5, tasks_per_graph=6):
    return generate_spec(GeneratorConfig(
        seed=seed, n_graphs=2, tasks_per_graph=tasks_per_graph,
        compat_group_size=2,
        utilization=utilization, hw_only_fraction=0.2, mixed_fraction=0.15,
    ))


def canonical(spec, tracer=None, **config_kw):
    config = CrusadeConfig(max_explicit_copies=2, **config_kw)
    result = crusade(spec, config=config, tracer=tracer)
    payload = result_to_dict(result)
    payload.pop("cpu_seconds", None)
    payload.pop("stats", None)
    return json.dumps(payload, sort_keys=True)


def exhaustive(spec, **config_kw):
    """``canonical`` with pruning patched off and every other layer on
    (no config knob isolates pruning; the reference mode drops it
    together with the engine and bound aborts)."""
    with ExitStack() as stack:
        for module in ("allocation", "repair"):
            stack.enter_context(mock.patch(
                "repro.core.stages.%s.pruning_active" % module,
                lambda config: False,
            ))
        return canonical(spec, **config_kw)


@PROPERTY_SETTINGS
@given(
    seed=st.integers(min_value=0, max_value=40),
    reconfig=st.booleans(),
    tasks_per_graph=st.just(6),
)
# Two 51-task graphs: floor sweeps over large DAGs, with deadline cuts.
@example(seed=2, reconfig=True, tasks_per_graph=40)
def test_pruned_equals_exhaustive(seed, reconfig, tasks_per_graph):
    spec = make_spec(seed, tasks_per_graph=tasks_per_graph)
    pruned = canonical(spec, reconfiguration=reconfig)
    assert pruned == exhaustive(spec, reconfiguration=reconfig)


@PROPERTY_SETTINGS
@given(seed=st.integers(min_value=0, max_value=20))
def test_pruned_equals_exhaustive_under_pressure(seed):
    """Full-utilization workloads: many candidates are provably
    infeasible, so the cut rate is high and infeasible clusters route
    through the deferred fallback reconstruction."""
    spec = generate_spec(GeneratorConfig(
        seed=seed, n_graphs=3, tasks_per_graph=7, compat_group_size=2,
        utilization=1.0, hw_only_fraction=0.1, mixed_fraction=0.1,
    ))
    assert canonical(spec) == exhaustive(spec)


@PROPERTY_SETTINGS
@given(seed=st.integers(min_value=0, max_value=20))
def test_env_kill_switch_equals_config_off(seed):
    """``REPRO_NO_INCREMENTAL`` turns pruning off exactly like
    ``incremental=False`` does."""
    import os

    spec = make_spec(seed)
    enabled = canonical(spec)
    assert pruning_active(CrusadeConfig())
    assert not pruning_active(CrusadeConfig(incremental=False))
    os.environ[KILL_SWITCH_ENV] = "1"
    try:
        assert not pruning_active(CrusadeConfig())
        killed = canonical(spec)
    finally:
        del os.environ[KILL_SWITCH_ENV]
    assert canonical(spec, incremental=False) == killed
    assert enabled == killed


def test_prune_cuts_and_counters_balance():
    """Pinned workload with a high cut rate: the decision identity
    prune.cut + prune.kept == considered - apply_failed holds on the
    allocation loop's counters, and the fallback reconstruction both
    evaluates and skips pruned candidates."""
    spec = generate_spec(GeneratorConfig(
        seed=12, n_graphs=3, tasks_per_graph=7, compat_group_size=2,
        utilization=1.0, hw_only_fraction=0.1, mixed_fraction=0.1,
    ))
    tracer = Tracer()
    crusade(spec, config=CrusadeConfig(max_explicit_copies=2), tracer=tracer)
    c = tracer.counters.as_dict()
    assert c.get("prune.cut", 0) > 0
    assert c.get("prune.fallback_evals", 0) > 0
    assert c.get("prune.fallback_skipped", 0) > 0
    # Reason counters partition the cuts.
    reasons = sum(v for k, v in c.items() if k.startswith("prune.cut."))
    assert reasons == c["prune.cut"]
    # Decision identity on the allocation loop: every applied candidate
    # is either cut or kept (repair and merge shares counted apart).
    alloc_cut = c["prune.cut"] - c.get("prune.cut.repair", 0) \
        - c.get("prune.cut.merge", 0)
    alloc_kept = c["prune.kept"] - c.get("prune.kept.repair", 0)
    assert alloc_cut + alloc_kept == (
        c["alloc.options.considered"] - c.get("alloc.options.apply_failed", 0)
    )


def test_decision_counters_match_across_engine_paths():
    """The production loop and the reference mode consider the same
    candidates and fall back on the same clusters; only production
    prunes."""
    spec = make_spec(3, utilization=1.0)
    names = (
        "alloc.options.considered", "alloc.options.apply_failed",
        "alloc.clusters.fallback",
    )

    def counters(incremental):
        tracer = Tracer()
        config = CrusadeConfig(max_explicit_copies=2, incremental=incremental)
        crusade(spec, config=config, tracer=tracer)
        return tracer.counters.as_dict()

    cow = counters(True)
    clone = counters(False)
    assert cow.get("prune.cut", 0) > 0
    for name in names:
        assert cow.get(name, 0) == clone.get(name, 0), name
    assert not any(name.startswith("prune.") for name in clone)


# ---------------------------------------------------------------- units

def _mem():
    return MemoryRequirement(program=1024, data=512, stack=128)


def _late_chain_setup(small_library, deadline=0.0008):
    """A three-task CPU chain whose critical path (3 x (0.5 ms + ctx))
    provably exceeds the deadline."""
    g = TaskGraph(name="late", period=0.01, deadline=deadline)
    for name in ("a", "b", "c"):
        g.add_task(Task(name=name, exec_times={"CPU": 0.0005}, memory=_mem()))
    g.add_edge("a", "b", bytes_=64)
    g.add_edge("b", "c", bytes_=64)
    spec = SystemSpec("late", [g])
    clustering = trivial_clustering(spec, small_library)
    arch = Architecture(small_library)
    pe = arch.new_pe(small_library.pe_type("CPU"))
    for cluster in clustering.ordered_by_priority():
        arch.allocate_cluster(
            cluster.name, pe.id, 0, gates=cluster.area_gates,
            pins=cluster.pins, memory=cluster.memory,
        )
    assoc = AssociationArray(spec, max_explicit_copies=2)
    return spec, assoc, clustering, arch, pe


def test_deadline_infeasible_candidate_cut_without_scheduling(
    small_library, monkeypatch
):
    spec, assoc, clustering, arch, pe = _late_chain_setup(small_library)

    def boom(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("the pruner must not invoke the scheduler")

    import repro.sched.scheduler as scheduler

    monkeypatch.setattr(scheduler, "build_schedule", boom)

    cluster = clustering.clusters[
        clustering.task_to_cluster[("late", "c")]
    ]
    pruner = CandidatePruner(spec, assoc, clustering, cluster)
    option = types.SimpleNamespace(
        kind="existing", pe_id=pe.id, pe_type_name="CPU",
        mode_index=0, replicate=(),
    )
    verdict = pruner.bound(arch, option, graphs=None)
    assert verdict is not None
    assert verdict.reason == "deadline"
    assert verdict.floor[0] >= 1
    assert verdict.floor[1] > 0.0
    # Memoized second call, still no scheduler.
    assert pruner.bound(arch, option, graphs=None) is verdict


def test_feasible_candidate_is_not_cut(small_library):
    # Same chain with a comfortable deadline: no cut.
    spec, assoc, clustering, arch, pe = _late_chain_setup(
        small_library, deadline=0.008
    )
    cluster = clustering.clusters[clustering.task_to_cluster[("late", "a")]]
    pruner = CandidatePruner(spec, assoc, clustering, cluster)
    option = types.SimpleNamespace(
        kind="existing", pe_id=pe.id, pe_type_name="CPU",
        mode_index=0, replicate=(),
    )
    assert pruner.bound(arch, option, graphs=None) is None


def test_finish_time_floor_is_dominated_by_real_schedule(small_library):
    """The copy-0 floor never exceeds the scheduler's finish times."""
    from repro.cluster.priority import PriorityContext
    from repro.core.crusade import _compute_priorities
    from repro.sched.scheduler import ScheduleRequest, build_schedule

    spec, assoc, clustering, arch, pe = _late_chain_setup(
        small_library, deadline=0.008
    )
    graph = spec.graph("late")
    floor = finish_time_floor(graph, arch, clustering)
    priorities = _compute_priorities(
        spec, PriorityContext.pessimistic(small_library)
    )
    schedule = build_schedule(ScheduleRequest(
        spec=spec, assoc=assoc, clustering=clustering, arch=arch,
        priorities=priorities, preemption=True,
    ))
    for task_name in graph.topological_order():
        actual = schedule.tasks[("late", 0, task_name)].finish
        assert floor[task_name] <= actual, task_name


def test_demand_floor_sums_serial_occupancy(small_library):
    spec, assoc, clustering, arch, pe = _late_chain_setup(small_library)
    demand = demand_floor(arch, clustering, spec, assoc)
    ctx = small_library.pe_type("CPU").context_switch_time
    copies = assoc.n_copies("late")
    expected = 3 * (0.0005 + ctx) * copies
    assert demand[pe.id] == pytest.approx(expected, rel=1e-12)


def test_best_case_exec_vector_charges_context_switch(small_library):
    spec, assoc, clustering, arch, pe = _late_chain_setup(small_library)
    vector = best_case_exec_vector(spec.graph("late"), arch, clustering)
    ctx = small_library.pe_type("CPU").context_switch_time
    assert vector["a"] == pytest.approx(0.0005 + ctx, rel=1e-12)


def test_repair_bound_floor_is_admissible(small_library):
    """The full-scope floor counts the chain's provable miss."""
    spec, assoc, clustering, arch, pe = _late_chain_setup(small_library)
    bound = RepairBound(spec, assoc, clustering)
    floor = bound.badness_floor(arch)
    assert floor[0] >= 1
    assert floor[2] == pytest.approx(arch.cost)
