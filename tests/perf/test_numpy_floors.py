"""The deadline floors are one pure-python DP, on graphs of any size.

Large graphs once dispatched to a vectorized numpy kernel; that
kernel is gone, and what stays pinned here is its end-to-end
contract: a workload of big task graphs, where the floors drive
deadline cuts and bound aborts, synthesizes the same architecture in
production as under the reference kill switch (``incremental=False``:
no pruning, no bound aborts, so no floor is consulted).
"""

import json

from repro import CrusadeConfig, GeneratorConfig, Tracer, crusade, generate_spec
from repro.io.result_json import result_to_dict


def big_spec(seed, tasks_per_graph=40, utilization=0.5):
    """Two graphs of 51 tasks each at the default seed."""
    return generate_spec(GeneratorConfig(
        seed=seed, n_graphs=2, tasks_per_graph=tasks_per_graph,
        compat_group_size=2, utilization=utilization,
        hw_only_fraction=0.2, mixed_fraction=0.15,
    ))


def canonical(spec, **config_kw):
    config = CrusadeConfig(max_explicit_copies=2, **config_kw)
    result = crusade(spec, config=config, tracer=Tracer())
    payload = result_to_dict(result)
    payload.pop("cpu_seconds", None)
    payload.pop("stats", None)
    return json.dumps(payload, sort_keys=True)


def test_synthesis_identical_under_kill_switch():
    spec = big_spec(2)
    assert min(len(graph) for graph in spec.graphs.values()) >= 32
    production = canonical(spec, reconfiguration=True)
    assert production == canonical(
        spec, reconfiguration=True, incremental=False,
    )
