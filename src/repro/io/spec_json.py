"""JSON (de)serialization of system specifications.

The format is versioned and deliberately explicit -- every vector of
the paper's execution model appears under its own key -- so task
graphs can be authored by hand or emitted by external tools:

.. code-block:: json

    {
      "format": "crusade-spec",
      "version": 1,
      "name": "demo",
      "boot_time_requirement": 0.25,
      "compatibility": [["ga", "gb"]],
      "unavailability": {"ga": 12.0},
      "graphs": [
        {
          "name": "ga", "period": 0.01, "deadline": 0.008, "est": 0.0,
          "tasks": [
            {"name": "t0",
             "exec_times": {"MC68360": 0.0004},
             "preference": {"MC68360": 1.0},
             "exclusions": [],
             "memory": {"program": 8192, "data": 2048, "stack": 512},
             "area_gates": 0, "pins": 0, "deadline": null,
             "error_transparent": false,
             "assertions": [
               {"name": "parity", "coverage": 0.95,
                "exec_times": {"MC68360": 6e-05}, "comm_bytes": 16}
             ]}
          ],
          "edges": [{"src": "t0", "dst": "t1", "bytes": 256}]
        }
      ]
    }
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, Union

from repro.errors import SpecificationError
from repro.graph.spec import SystemSpec
from repro.graph.task import AssertionSpec, MemoryRequirement, Task
from repro.graph.taskgraph import TaskGraph

FORMAT_NAME = "crusade-spec"
FORMAT_VERSION = 1


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------
def _assertion_to_dict(assertion: AssertionSpec) -> Dict[str, Any]:
    return {
        "name": assertion.name,
        "coverage": assertion.coverage,
        "exec_times": dict(assertion.exec_times),
        "comm_bytes": assertion.comm_bytes,
    }


def _task_to_dict(task: Task) -> Dict[str, Any]:
    return {
        "name": task.name,
        "exec_times": dict(task.exec_times),
        "preference": dict(task.preference),
        "exclusions": sorted(task.exclusions),
        "memory": {
            "program": task.memory.program,
            "data": task.memory.data,
            "stack": task.memory.stack,
        },
        "area_gates": task.area_gates,
        "pins": task.pins,
        "deadline": task.deadline,
        "error_transparent": task.error_transparent,
        "assertions": [_assertion_to_dict(a) for a in task.assertions],
    }


def _graph_to_dict(graph: TaskGraph) -> Dict[str, Any]:
    return {
        "name": graph.name,
        "period": graph.period,
        "deadline": graph.deadline,
        "est": graph.est,
        "tasks": [_task_to_dict(graph.task(n)) for n in graph.topological_order()],
        "edges": [
            {"src": e.src, "dst": e.dst, "bytes": e.bytes_}
            for e in graph.iter_edges()
        ],
    }


def graph_to_dict(graph: TaskGraph) -> Dict[str, Any]:
    """Serialize one task graph to plain JSON-ready structures.

    Tasks appear in topological order and every scheduling-visible
    vector appears under its own key, so the payload doubles as the
    canonical content the persistent store's per-graph digests hash
    (:mod:`repro.perf.store.digests`).
    """
    return _graph_to_dict(graph)


def spec_to_dict(spec: SystemSpec) -> Dict[str, Any]:
    """Serialize a specification to plain JSON-ready structures."""
    compatibility = None
    if spec.has_explicit_compatibility:
        names = spec.graph_names()
        compatibility = [
            [a, b]
            for i, a in enumerate(names)
            for b in names[i + 1 :]
            if spec.compatible(a, b)
        ]
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "name": spec.name,
        "boot_time_requirement": spec.boot_time_requirement,
        "compatibility": compatibility,
        "unavailability": dict(spec.unavailability),
        "graphs": [_graph_to_dict(spec.graph(n)) for n in spec.graph_names()],
    }


def save_spec_file(spec: SystemSpec, path: Union[str, pathlib.Path]) -> None:
    """Write a specification to a JSON file."""
    payload = spec_to_dict(spec)
    pathlib.Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))


# ----------------------------------------------------------------------
# deserialization
# ----------------------------------------------------------------------
def _task_from_dict(data: Dict[str, Any]) -> Task:
    memory = data.get("memory") or {}
    assertions = tuple(
        AssertionSpec(
            name=a["name"],
            coverage=a["coverage"],
            exec_times=dict(a.get("exec_times") or {}),
            comm_bytes=a.get("comm_bytes", 64),
        )
        for a in data.get("assertions") or ()
    )
    return Task(
        name=data["name"],
        exec_times=dict(data["exec_times"]),
        preference=dict(data.get("preference") or {}),
        exclusions=frozenset(data.get("exclusions") or ()),
        memory=MemoryRequirement(
            program=memory.get("program", 0),
            data=memory.get("data", 0),
            stack=memory.get("stack", 0),
        ),
        area_gates=data.get("area_gates", 0),
        pins=data.get("pins", 0),
        deadline=data.get("deadline"),
        assertions=assertions,
        error_transparent=data.get("error_transparent", False),
    )


def _graph_from_dict(data: Dict[str, Any]) -> TaskGraph:
    graph = TaskGraph(
        name=data["name"],
        period=data["period"],
        deadline=data.get("deadline"),
        est=data.get("est", 0.0),
    )
    for task_data in data.get("tasks") or ():
        graph.add_task(_task_from_dict(task_data))
    for edge_data in data.get("edges") or ():
        graph.add_edge(
            edge_data["src"], edge_data["dst"], bytes_=edge_data.get("bytes", 0)
        )
    return graph


def spec_from_dict(data: Dict[str, Any]) -> SystemSpec:
    """Rebuild a specification from its JSON structures."""
    if not isinstance(data, dict):
        raise SpecificationError(
            "not a %s document (a JSON %s)"
            % (FORMAT_NAME, type(data).__name__)
        )
    if data.get("format") != FORMAT_NAME:
        raise SpecificationError(
            "not a %s document (format=%r)" % (FORMAT_NAME, data.get("format"))
        )
    version = data.get("version")
    if version != FORMAT_VERSION:
        raise SpecificationError(
            "unsupported %s version %r (supported: %d)"
            % (FORMAT_NAME, version, FORMAT_VERSION)
        )
    compatibility = data.get("compatibility")
    if compatibility is not None:
        compatibility = [tuple(pair) for pair in compatibility]
    return SystemSpec(
        name=data["name"],
        graphs=[_graph_from_dict(g) for g in data.get("graphs") or ()],
        compatibility=compatibility,
        boot_time_requirement=data.get("boot_time_requirement", 0.2),
        unavailability=data.get("unavailability") or {},
    )


def load_spec(text: str) -> SystemSpec:
    """Parse a specification from a JSON string."""
    return spec_from_dict(json.loads(text))


def load_spec_file(path: Union[str, pathlib.Path]) -> SystemSpec:
    """Read a specification from a JSON file."""
    return load_spec(pathlib.Path(path).read_text())
