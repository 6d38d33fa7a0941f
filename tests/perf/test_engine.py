"""Engine internals: fragment cache hits, LRU bound, kill switches.

The equivalence suite (test_equivalence.py) proves the engine never
changes the synthesized result; these tests pin down *how* it wins --
repeated evaluations hit the cache -- and that both kill switches
really disable it.
"""

import pytest

from repro import CrusadeConfig, GeneratorConfig, Tracer, crusade, generate_spec
from repro.cluster.clustering import cluster_spec
from repro.core.crusade import _allocation_aware_context, _compute_priorities
from repro.graph.association import AssociationArray
from repro.obs.trace import NULL_TRACER
from repro.resources.catalog import default_library
from repro.alloc.evaluate import evaluate_architecture
from repro.perf.engine import (
    IncrementalEngine,
    incremental_disabled_by_env,
    resolve_engine,
)


@pytest.fixture
def workload():
    spec = generate_spec(GeneratorConfig(
        seed=7, n_graphs=3, tasks_per_graph=5, compat_group_size=2,
        utilization=0.2, hw_only_fraction=0.35, mixed_fraction=0.15,
    ))
    library = default_library()
    result = crusade(spec, library=library,
                     config=CrusadeConfig(max_explicit_copies=2))
    clustering = result.clustering
    assoc = AssociationArray(spec, max_explicit_copies=2)
    context = _allocation_aware_context(library, result.arch, clustering)
    priorities = _compute_priorities(spec, context)
    return spec, assoc, clustering, result.arch, priorities


def evaluate(workload, engine, tracer=NULL_TRACER):
    spec, assoc, clustering, arch, priorities = workload
    return evaluate_architecture(
        spec, assoc, clustering, arch, priorities, tracer=tracer,
        engine=engine,
    )


def test_repeated_evaluation_hits_the_cache(workload):
    engine = IncrementalEngine()
    tracer = Tracer()
    evaluate(workload, engine, tracer)
    misses_first = tracer.counters.as_dict().get("perf.schedule.misses", 0)
    assert misses_first > 0
    evaluate(workload, engine, tracer)
    counters = tracer.counters.as_dict()
    assert counters.get("perf.schedule.misses", 0) == misses_first
    assert counters.get("perf.schedule.hits", 0) == misses_first


def test_engine_verdict_matches_from_scratch(workload):
    with_engine = evaluate(workload, IncrementalEngine())
    scratch = evaluate(workload, None)
    assert with_engine.cost == scratch.cost
    assert with_engine.report.lateness == scratch.report.lateness
    assert list(with_engine.report.lateness) == list(scratch.report.lateness)
    assert with_engine.report.overloaded == scratch.report.overloaded
    wanted = {
        k: (v.pe_id, v.mode, v.start, v.finish)
        for k, v in scratch.schedule.tasks.items()
    }
    got = {
        k: (v.pe_id, v.mode, v.start, v.finish)
        for k, v in with_engine.schedule.tasks.items()
    }
    assert wanted == got


def test_lru_bound_is_enforced(workload):
    engine = IncrementalEngine(max_entries=1)
    tracer = Tracer()
    evaluate(workload, engine, tracer)
    info = engine.cache_info()
    assert info["entries"] <= 1
    assert info["max_entries"] == 1
    counters = tracer.counters.as_dict()
    misses = counters.get("perf.schedule.misses", 0)
    if misses > 1:
        assert counters.get("perf.schedule.evictions", 0) == misses - 1


def test_max_entries_validated():
    with pytest.raises(ValueError):
        IncrementalEngine(max_entries=0)


def test_resolve_engine_kill_switches(monkeypatch):
    monkeypatch.delenv("REPRO_NO_INCREMENTAL", raising=False)
    assert not incremental_disabled_by_env()
    assert resolve_engine(CrusadeConfig()) is not None
    assert resolve_engine(CrusadeConfig(incremental=False)) is None
    donated = IncrementalEngine()
    assert resolve_engine(CrusadeConfig(), donated) is donated

    monkeypatch.setenv("REPRO_NO_INCREMENTAL", "1")
    assert incremental_disabled_by_env()
    assert resolve_engine(CrusadeConfig()) is None
    assert resolve_engine(CrusadeConfig(), donated) is None
    # "0" and "" mean "not disabled".
    monkeypatch.setenv("REPRO_NO_INCREMENTAL", "0")
    assert not incremental_disabled_by_env()
