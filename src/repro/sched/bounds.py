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

try:  # numpy accelerates the DP sweeps; everything falls back cleanly
    import numpy as _np
except Exception:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None

#: Below this many tasks the per-level numpy calls cost more than the
#: python loop they replace; both paths return bit-identical stats, so
#: mixing by size is safe.
NUMPY_MIN_TASKS = 32

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


class _GraphFloorKernel:
    """Vectorized deadline-floor DP for one (graph, clustering) pair.

    The DAG structure -- topological order, per-level edge groups,
    cluster membership, deadline rows -- never changes during a
    synthesis, so it is frozen into index arrays once; each call only
    rebuilds what the (partial) allocation changes: the per-task
    duration floor vector and the same-PPE reboot extras.

    Bit-parity with :func:`finish_time_floor` is by construction, not
    tolerance: ``max`` over floats is exact regardless of grouping
    (``np.maximum.reduceat`` included), and every addition the python
    loop performs (``wcet + context_switch``, ``ready + reboot``,
    ``base + exec``, ``est + deadline``) is mirrored as an elementwise
    float64 addition of the same operands -- so the resulting stats
    are identical to the pure-python pass, and mixing the two paths by
    graph size or numpy availability cannot change synthesis decisions.
    """

    def __init__(self, np_, graph: TaskGraph, clustering: ClusteringResult):
        """Freeze the DAG's index arrays for repeated floor sweeps."""
        self._np = np_
        self.graph = graph
        self.clustering = clustering
        names = graph.topological_order()
        index = {name: i for i, name in enumerate(names)}
        tasks = [graph.task(name) for name in names]
        self._est = graph.est
        self._min_exec = np_.array(
            [task.min_exec_time for task in tasks], dtype=float
        )

        # Cluster membership: node index arrays per distinct cluster.
        cluster_index: Dict[str, int] = {}
        cluster_names: list = []
        cluster_nodes: list = []
        node_cluster = [-1] * len(names)
        for i, name in enumerate(names):
            cname = clustering.task_to_cluster.get((graph.name, name))
            if cname is None:
                continue
            ci = cluster_index.get(cname)
            if ci is None:
                ci = cluster_index[cname] = len(cluster_names)
                cluster_names.append(cname)
                cluster_nodes.append([])
            cluster_nodes[ci].append(i)
            node_cluster[i] = ci
        self._cluster_names = cluster_names
        self._cluster_nodes = [
            np_.array(nodes, dtype=np_.intp) for nodes in cluster_nodes
        ]
        self._cluster_tasks = [
            [tasks[i] for i in nodes] for nodes in cluster_nodes
        ]
        #: (cluster index, PE type name) -> wcet vector, built lazily so
        #: a type a cluster never lands on costs nothing (and cannot
        #: fault on tasks that do not support it).
        self._wcet: Dict[tuple, object] = {}

        # Longest-path levels and per-level edge groups for reduceat.
        levels = [0] * len(names)
        edges = []  # (level of succ, succ index, pred index)
        for name in names:
            i = index[name]
            level = 0
            for pred in graph.predecessors(name):
                p = index[pred]
                if levels[p] + 1 > level:
                    level = levels[p] + 1
                edges.append((p, i))
            levels[i] = level
        edges.sort(key=lambda e: (levels[e[1]], e[1]))
        self._edge_pred = np_.array([e[0] for e in edges], dtype=np_.intp)
        self._edge_succ = np_.array([e[1] for e in edges], dtype=np_.intp)
        self._n_edges = len(edges)
        self._roots = np_.array(
            [i for i in range(len(names)) if levels[i] == 0], dtype=np_.intp
        )
        #: per level >= 1: (edge slice lo, hi, reduceat offsets within
        #: the slice, succ node array in slice group order).
        level_groups: list = []
        pos = 0
        while pos < len(edges):
            level = levels[edges[pos][1]]
            lo = pos
            offsets = []
            succs = []
            last_succ = -1
            while pos < len(edges) and levels[edges[pos][1]] == level:
                succ = edges[pos][1]
                if succ != last_succ:
                    offsets.append(pos - lo)
                    succs.append(succ)
                    last_succ = succ
                pos += 1
            level_groups.append((
                lo, pos,
                np_.array(offsets, dtype=np_.intp),
                np_.array(succs, dtype=np_.intp),
            ))
        self._levels = level_groups

        #: (pred cluster, succ cluster) -> global edge positions, the
        #: candidates for the same-PPE reboot extra.
        pair_edges: Dict[tuple, list] = {}
        for pos, (p, i) in enumerate(edges):
            cp, ci = node_cluster[p], node_cluster[i]
            if cp >= 0 and ci >= 0 and cp != ci:
                pair_edges.setdefault((cp, ci), []).append(pos)
        self._pair_edges = {
            key: np_.array(positions, dtype=np_.intp)
            for key, positions in pair_edges.items()
        }

        # Deadline rows in deadline_tasks() order; the absolute
        # deadline is the same ``est + relative`` float the python
        # stats loop computes.
        dl_names = graph.deadline_tasks()
        self._dl_idx = np_.array(
            [index[name] for name in dl_names], dtype=np_.intp
        )
        self._dl_abs = np_.array(
            [self._est + graph.effective_deadline(name) for name in dl_names],
            dtype=float,
        )

    def _cluster_wcet(self, ci: int, type_name: str):
        key = (ci, type_name)
        arr = self._wcet.get(key)
        if arr is None:
            arr = self._wcet[key] = self._np.array(
                [t.wcet_on(type_name) for t in self._cluster_tasks[ci]],
                dtype=float,
            )
        return arr

    def stats(self, arch: Architecture, boot_fn) -> Tuple[int, float]:
        """(missed deadline count, total lateness) of the floor sweep
        under ``arch``'s current placements -- bit-identical to the
        pure-python :func:`finish_time_floor` consumption loop."""
        np_ = self._np
        exec_vec = self._min_exec.copy()
        placed: list = []
        for ci, cname in enumerate(self._cluster_names):
            if not arch.is_allocated(cname):
                placed.append(None)
                continue
            pe = arch.pe(arch.placement_of(cname)[0])
            placed.append(pe)
            pe_type = pe.pe_type
            wcet = self._cluster_wcet(ci, pe_type.name)
            idx = self._cluster_nodes[ci]
            if pe_type.kind is PEKind.PROCESSOR:
                exec_vec[idx] = wcet + pe_type.context_switch_time
            else:
                exec_vec[idx] = wcet

        # Same-PPE cross-cluster reboot extras (see the module
        # docstring's window-ordering argument) as a per-edge vector.
        reboot_vec = None
        by_pe: Dict[int, tuple] = {}
        for ci, pe in enumerate(placed):
            if pe is not None and pe.pe_type.kind not in (
                PEKind.PROCESSOR, PEKind.ASIC,
            ):
                by_pe.setdefault(id(pe), (pe, []))[1].append(ci)
        for pe, cis in by_pe.values():
            if len(cis) < 2:
                continue
            mode_sets = {
                ci: pe.modes_of_cluster(self._cluster_names[ci]) for ci in cis
            }
            for succ_ci in cis:
                own = mode_sets[succ_ci]
                if not own:
                    continue
                own_set = set(own)
                reboot = None
                for pred_ci in cis:
                    if pred_ci == succ_ci:
                        continue
                    positions = self._pair_edges.get((pred_ci, succ_ci))
                    if positions is None:
                        continue
                    theirs = mode_sets[pred_ci]
                    if not theirs or own_set & set(theirs):
                        continue
                    if reboot is None:
                        reboot = min(boot_fn(pe, m) for m in own)
                    if reboot <= 0.0:
                        break
                    hot = positions[
                        exec_vec[self._edge_succ[positions]]
                        > BOOT_BOUND_MIN_DURATION
                    ]
                    if hot.size:
                        if reboot_vec is None:
                            reboot_vec = np_.zeros(self._n_edges)
                        reboot_vec[hot] = reboot

        floor = np_.empty(len(exec_vec))
        roots = self._roots
        floor[roots] = self._est + exec_vec[roots]
        edge_pred = self._edge_pred
        for lo, hi, offsets, succs in self._levels:
            ready = floor[edge_pred[lo:hi]]
            if reboot_vec is not None:
                ready = ready + reboot_vec[lo:hi]
            base = np_.maximum(np_.maximum.reduceat(ready, offsets), self._est)
            floor[succs] = base + exec_vec[succs]

        misses = 0
        lateness = 0.0
        if self._dl_idx.size:
            for late in (floor[self._dl_idx] - self._dl_abs).tolist():
                if late > TIME_EPS:
                    misses += 1
                    lateness += late
        return misses, lateness


#: (id(graph), id(clustering)) -> kernel; the kernel holds strong refs
#: to both inputs, so id reuse cannot alias a live entry.
_KERNEL_CACHE_MAX = 64
_kernel_cache: "OrderedDict[tuple, _GraphFloorKernel]" = OrderedDict()
_kernel_lock = threading.Lock()


def _kernel_for(np_, graph: TaskGraph, clustering: ClusteringResult):
    key = (id(graph), id(clustering))
    with _kernel_lock:
        kernel = _kernel_cache.get(key)
        if kernel is not None and (
            kernel.graph is graph and kernel.clustering is clustering
        ):
            _kernel_cache.move_to_end(key)
            return kernel
    kernel = _GraphFloorKernel(np_, graph, clustering)
    with _kernel_lock:
        _kernel_cache[key] = kernel
        while len(_kernel_cache) > _KERNEL_CACHE_MAX:
            _kernel_cache.popitem(last=False)
    return kernel


def deadline_floor_stats(
    graph: TaskGraph,
    arch: Architecture,
    clustering: ClusteringResult,
    boot_time_fn: Optional[Callable[[PEInstance, int], float]] = None,
) -> Tuple[int, float]:
    """(missed deadline count, total lateness) of the copy-0 floor.

    The admissible deadline statistic every pruning bound consumes:
    for each deadline-carrying task, ``finish_time_floor - (est +
    deadline)``, counted/summed when above ``TIME_EPS``.  Runs the
    vectorized kernel for graphs of :data:`NUMPY_MIN_TASKS` tasks or
    more when numpy is importable (``_np`` is read per call, so tests
    can patch it to None); both paths produce bit-identical results
    (see :class:`_GraphFloorKernel`), so the fallback never changes
    behavior.
    """
    np_ = _np
    if np_ is not None and len(graph) >= NUMPY_MIN_TASKS:
        kernel = _kernel_for(np_, graph, clustering)
        return kernel.stats(arch, boot_time_fn or default_boot_time)
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
#: the identity key with the held-object double-check (the same LRU
#: shape as :data:`_kernel_cache`).
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
