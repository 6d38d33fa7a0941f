"""The vectorized floor kernel is a transparent accelerator.

``deadline_floor_stats`` routes large graphs through a numpy kernel
whose stats must be *bit-identical* to the pure-python DP -- identical
operand-for-operand float arithmetic, not merely close.  These tests
pin that parity on real generated workloads and prove that an absent
numpy (patched here as ``repro.sched.bounds._np = None``) restores the
python path end to end.
"""

import json

import pytest

from repro import (
    CrusadeConfig,
    GeneratorConfig,
    Tracer,
    crusade,
    generate_spec,
)
from repro.arch.architecture import Architecture
from repro.cluster.clustering import trivial_clustering
from repro.io.result_json import result_to_dict
from repro.resources.catalog import default_library
from repro.sched import bounds
from repro.sched.bounds import NUMPY_MIN_TASKS, deadline_floor_stats

numpy = pytest.importorskip("numpy")


def big_spec(seed, tasks=56, utilization=0.6):
    """One graph big enough to cross the numpy dispatch threshold."""
    spec = generate_spec(GeneratorConfig(
        seed=seed, n_graphs=1, tasks_per_graph=tasks, compat_group_size=2,
        utilization=utilization, hw_only_fraction=0.0, mixed_fraction=0.0,
    ))
    assert len(next(iter(spec.graphs.values()))) >= NUMPY_MIN_TASKS
    return spec


def _allocated_setup(seed, stride=1):
    """Trivial clustering with every ``stride``-th cluster allocated
    onto its own processor: a partial allocation mid-inner-loop."""
    library = default_library()
    spec = big_spec(seed)
    clustering = trivial_clustering(spec, library)
    arch = Architecture(library)
    cpu = library.pe_type("MC68360")
    for i, cluster in enumerate(clustering.ordered_by_priority()):
        if i % stride:
            continue
        pe = arch.new_pe(cpu)
        arch.allocate_cluster(
            cluster.name, pe.id, 0, gates=cluster.area_gates,
            pins=cluster.pins, memory=cluster.memory,
        )
    return next(iter(spec.graphs.values())), arch, clustering


@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kernel_stats_bit_identical_to_python(seed, stride, monkeypatch):
    graph, arch, clustering = _allocated_setup(seed, stride)
    fast = deadline_floor_stats(graph, arch, clustering)
    monkeypatch.setattr(bounds, "_np", None)
    slow = deadline_floor_stats(graph, arch, clustering)
    # Tuple equality on (int, float): bit parity, no tolerance.
    assert fast == slow


def test_numpy_path_actually_engages():
    """The parity test must compare two different code paths: the
    kernel cache grows when the fast path runs."""
    graph, arch, clustering = _allocated_setup(5)
    bounds._kernel_cache.clear()
    deadline_floor_stats(graph, arch, clustering)
    assert len(bounds._kernel_cache) == 1
    kernel = next(iter(bounds._kernel_cache.values()))
    assert kernel.graph is graph


def test_small_graphs_stay_on_python_path():
    spec = generate_spec(GeneratorConfig(
        seed=3, n_graphs=1, tasks_per_graph=6, utilization=0.2,
        hw_only_fraction=0.0, mixed_fraction=0.0,
    ))
    library = default_library()
    clustering = trivial_clustering(spec, library)
    arch = Architecture(library)
    bounds._kernel_cache.clear()
    deadline_floor_stats(next(iter(spec.graphs.values())), arch, clustering)
    assert not bounds._kernel_cache


def canonical(spec, **config_kw):
    config = CrusadeConfig(max_explicit_copies=2, **config_kw)
    result = crusade(spec, config=config, tracer=Tracer())
    payload = result_to_dict(result)
    payload.pop("cpu_seconds", None)
    payload.pop("stats", None)
    return json.dumps(payload, sort_keys=True)


def test_synthesis_identical_under_kill_switch(monkeypatch):
    """End to end: a workload whose graphs dispatch to the kernel
    synthesizes the same architecture without numpy."""
    spec = big_spec(9, utilization=0.8)
    fast = canonical(spec)
    monkeypatch.setattr(bounds, "_np", None)
    assert canonical(spec) == fast


def test_absent_numpy_skips_the_kernel(monkeypatch):
    """Without numpy, graphs above the dispatch threshold take the
    python loop: no kernel is ever built."""
    graph, arch, clustering = _allocated_setup(5)
    assert len(graph) >= NUMPY_MIN_TASKS
    monkeypatch.setattr(bounds, "_np", None)
    bounds._kernel_cache.clear()
    deadline_floor_stats(graph, arch, clustering)
    assert not bounds._kernel_cache
