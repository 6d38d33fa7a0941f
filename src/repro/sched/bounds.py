"""Admissible lower bounds on schedule finish times and resource demand.

These are the scheduler-side primitives of the candidate pruning layer
(:mod:`repro.perf.prune`): *best-case execution vectors* and a
critical-path finish-time floor that provably never exceeds what
:func:`repro.sched.scheduler.build_schedule` would produce for the
same architecture, so a candidate whose floor already misses a
deadline can be discarded without scheduling at all.

Admissibility argument
----------------------

Every inequality below mirrors an identical-or-looser constraint the
scheduler enforces:

* A task placed on a **processor** occupies its timeline for
  ``wcet + context_switch_time`` (more when the restricted-preemption
  path splits it), so its finish is at least ``start`` plus that
  duration.  **ASIC** tasks run contention-free for exactly ``wcet``;
  **PPE** tasks occupy a mode window for exactly ``wcet``; tasks of
  unallocated clusters run *virtually* for ``task.min_exec_time``.
* A task starts no earlier than its copy's arrival, and no earlier
  than any predecessor's finish (inter-task communication only adds
  non-negative link time, so the floor prices it at zero).
* When an edge connects two clusters placed on the *same* programmable
  device whose permitted mode sets are **disjoint**, the successor's
  mode window cannot be its predecessor's window.  By induction over
  the device's time-ordered windows, the first permitted-mode window
  after the predecessor's pays its full reboot (its time-predecessor
  has a different mode -- window 0 never applies because the
  predecessor's window precedes it), and every later permitted window
  starts later still; so the successor start is delayed by at least
  ``min(boot(mode) for mode in its permitted set)``.  The bound is
  skipped for near-zero durations, where the window-ordering argument
  degenerates.

Floating-point safety: IEEE-754 rounding is monotone, and the floor
is accumulated with the same operation shapes (``max`` over
predecessors, then one addition) the scheduler uses, so the copy-0
floor is dominated by the real schedule *bit-for-bit*, not merely up
to an epsilon.  Demand floors are summed in a different order than
:func:`repro.sched.finish_time.resource_demand`, so their consumers
apply a small relative margin (see :mod:`repro.perf.prune`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, Iterable, Optional, Tuple

from repro.arch.architecture import Architecture
from repro.arch.pe_instance import PEInstance
from repro.cluster.clustering import ClusteringResult
from repro.graph.association import AssociationArray
from repro.graph.spec import SystemSpec
from repro.graph.taskgraph import TaskGraph
from repro.reconfig.reboot import default_boot_time
from repro.resources.pe import PEKind
from repro.units import TIME_EPS

#: Durations at or below this are excluded from the reboot bound: the
#: window-ordering argument needs the successor's occupancy to be
#: strictly positive even after rounding.
BOOT_BOUND_MIN_DURATION = 1e-6


def best_case_exec_time(task, pe: Optional[PEInstance]) -> float:
    """The exact duration floor the scheduler charges for ``task``.

    ``pe`` is the instance hosting the task's cluster, or None for a
    virtual (not-yet-allocated) placement.
    """
    if pe is None:
        return task.min_exec_time
    wcet = task.wcet_on(pe.pe_type.name)
    if pe.pe_type.kind is PEKind.PROCESSOR:
        return wcet + pe.pe_type.context_switch_time
    return wcet


def best_case_exec_vector(
    graph: TaskGraph, arch: Architecture, clustering: ClusteringResult
) -> Dict[str, float]:
    """Per-task duration floors for ``graph`` under a (partial)
    allocation: the best-case execution vector of the pruning layer."""
    vector: Dict[str, float] = {}
    for name in graph.topological_order():
        cluster_name = clustering.task_to_cluster.get((graph.name, name))
        pe = None
        if cluster_name is not None and arch.is_allocated(cluster_name):
            pe = arch.pe(arch.placement_of(cluster_name)[0])
        vector[name] = best_case_exec_time(graph.task(name), pe)
    return vector


def finish_time_floor(
    graph: TaskGraph,
    arch: Architecture,
    clustering: ClusteringResult,
    boot_time_fn: Optional[Callable[[PEInstance, int], float]] = None,
) -> Dict[str, float]:
    """Copy-0 absolute finish-time floors for every task of ``graph``.

    A longest-path pass over the DAG using the best-case execution
    vector, zero communication time, and the mode-switch reboot bound
    for same-PPE edges between clusters with disjoint mode sets.  The
    value for each task is a true lower bound on the finish time of
    its copy-0 instance in any schedule the scheduler can emit for
    ``arch`` (see the module docstring for the argument).
    """
    boot_fn = boot_time_fn or default_boot_time
    placements: Dict[str, tuple] = {}
    for name in graph.topological_order():
        cluster_name = clustering.task_to_cluster.get((graph.name, name))
        pe = None
        if cluster_name is not None and arch.is_allocated(cluster_name):
            pe = arch.pe(arch.placement_of(cluster_name)[0])
        placements[name] = (pe, cluster_name)

    est = graph.est
    floor: Dict[str, float] = {}
    for name in graph.topological_order():
        pe, cluster_name = placements[name]
        exec_floor = best_case_exec_time(graph.task(name), pe)
        base = est
        for pred in graph.predecessors(name):
            ready = floor[pred]
            pred_pe, pred_cluster = placements[pred]
            if (
                pe is not None
                and pred_pe is pe
                and pred_cluster != cluster_name
                and pe.pe_type.kind not in (PEKind.PROCESSOR, PEKind.ASIC)
                and exec_floor > BOOT_BOUND_MIN_DURATION
            ):
                own = pe.modes_of_cluster(cluster_name)
                theirs = pe.modes_of_cluster(pred_cluster)
                if own and theirs and not set(own) & set(theirs):
                    reboot = min(boot_fn(pe, m) for m in own)
                    if reboot > 0.0:
                        ready = ready + reboot
            if ready > base:
                base = ready
        floor[name] = base + exec_floor
    return floor


def deadline_floor_stats(
    graph: TaskGraph,
    arch: Architecture,
    clustering: ClusteringResult,
    boot_time_fn: Optional[Callable[[PEInstance, int], float]] = None,
) -> Tuple[int, float]:
    """(missed deadline count, total lateness) of the copy-0 floor.

    The admissible deadline statistic every pruning bound consumes:
    for each deadline-carrying task, ``finish_time_floor - (est +
    deadline)``, counted/summed when above ``TIME_EPS``.
    """
    floor = finish_time_floor(graph, arch, clustering, boot_time_fn)
    est = graph.est
    misses = 0
    lateness = 0.0
    for task_name in graph.deadline_tasks():
        late = floor[task_name] - (est + graph.effective_deadline(task_name))
        if late > TIME_EPS:
            misses += 1
            lateness += late
    return misses, lateness


#: id(ClusteringResult) -> (clustering, {(cluster, PE type, copies) ->
#: busy-time total}).  Cluster contents, WCETs and copy counts are
#: fixed for a synthesis, so each cluster's per-type total is computed
#: once -- by the exact sequential loop below, so memoized and fresh
#: values are the same floats.  ClusteringResult is unhashable, hence
#: the identity key with the held-object double-check, evicted LRU.
_DEMAND_CACHE_MAX = 16
_demand_totals: "OrderedDict[int, tuple]" = OrderedDict()
_demand_lock = threading.Lock()


def demand_floor(
    arch: Architecture,
    clustering: ClusteringResult,
    spec: SystemSpec,
    assoc: AssociationArray,
    graph_names: Optional[Iterable[str]] = None,
) -> Dict[str, float]:
    """Per-serial-resource busy-time floors over the hyperperiod.

    For every allocated cluster (optionally restricted to
    ``graph_names``), each task must occupy its processor for at least
    ``wcet + context_switch_time`` (exactly ``wcet`` on a PPE) per
    copy; ASICs have no serial timeline and are skipped, as are link
    demands (communication floors are zero).  The result is summed in
    deterministic cluster order, which differs from the schedule
    insertion order :func:`~repro.sched.finish_time.resource_demand`
    uses -- consumers must leave a small relative margin.

    Per-cluster totals are memoized per clustering keyed by (cluster,
    PE type, copy count): the inner loop's inputs never change during
    a synthesis, only which clusters are allocated where.  ``copies``
    is part of the key because scoped associations multiply each term
    before summing, so totals differ per copy count bit-for-bit.
    """
    wanted = None if graph_names is None else set(graph_names)
    ckey = id(clustering)
    with _demand_lock:
        entry = _demand_totals.get(ckey)
        if entry is None or entry[0] is not clustering:
            entry = (clustering, {})
            _demand_totals[ckey] = entry
            while len(_demand_totals) > _DEMAND_CACHE_MAX:
                _demand_totals.popitem(last=False)
        else:
            _demand_totals.move_to_end(ckey)
        totals = entry[1]
    demand: Dict[str, float] = {}
    for cluster_name in sorted(arch.cluster_alloc):
        pe_id, _ = arch.cluster_alloc[cluster_name]
        cluster = clustering.clusters[cluster_name]
        if wanted is not None and cluster.graph not in wanted:
            continue
        pe = arch.pe(pe_id)
        kind = pe.pe_type.kind
        if kind is PEKind.ASIC:
            continue
        pe_type_name = pe.pe_type.name
        copies = assoc.n_copies(cluster.graph)
        mkey = (cluster_name, pe_type_name, copies)
        total = totals.get(mkey)
        if total is None:
            ctx = (
                pe.pe_type.context_switch_time
                if kind is PEKind.PROCESSOR else 0.0
            )
            graph = spec.graph(cluster.graph)
            total = 0.0
            for task_name in cluster.task_names:
                total += (
                    graph.task(task_name).wcet_on(pe_type_name) + ctx
                ) * copies
            totals[mkey] = total
        demand[pe_id] = demand.get(pe_id, 0.0) + total
    return demand
