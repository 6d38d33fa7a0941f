"""Priority-driven static list scheduler (Section 5).

Tasks and edges are scheduled in deadline-priority order.  The
scheduler is the inner-loop workhorse of co-synthesis: every candidate
allocation is scheduled and its finish times estimated before the
allocation is accepted.

Semantics per resource kind:

* general-purpose processors serialize their tasks (busy-interval
  timeline, first-fit gap placement); a per-task dispatch overhead of
  one context switch is charged, and *restricted preemption* lets a
  delayed task split across the free gaps between already-reserved
  higher-priority work -- it starts, is preempted by each reservation,
  resumes afterwards, and pays the processor's preemption overhead per
  resumption (the paper's "preemptive scheduling is used in restricted
  scenarios"); the split is taken only when it strictly improves the
  task's finish time;
* ASICs run each mapped task as an independent circuit block, so tasks
  never contend;
* programmable PEs run same-mode tasks concurrently but serialize
  across modes with a reboot of the device boot time between mode
  windows (the implicit ``reboot_task`` of Section 4.3);
* links serialize transfers (busy-interval timeline); transfers
  between tasks on the same PE instance are free.

Copies beyond the association array's explicit set are not
materialized; their timing is the representative copy's shifted by
whole periods (see :mod:`repro.graph.association`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import AllocationError, SchedulingError
from repro.arch.architecture import Architecture
from repro.arch.pe_instance import PEInstance
from repro.cluster.clustering import ClusteringResult
from repro.graph.association import AssociationArray
from repro.graph.spec import SystemSpec
from repro.obs.trace import NULL_TRACER, Tracer
from repro.reconfig.reboot import default_boot_time
from repro.resources.pe import PEKind, ProcessorType
from repro.sched.timeline import IntervalTimeline, PpeModeTimeline
from repro.units import TIME_EPS

#: (graph name, copy index, task name)
TaskKey = Tuple[str, int, str]
#: (graph name, copy index, src task, dst task)
EdgeKey = Tuple[str, int, str, str]


class ScheduleAbort(Exception):
    """Bounded-search abort: the partial schedule already loses.

    Raised (only when :attr:`ScheduleRequest.bound` is set) the moment
    the number of *proven* violations -- deadline instances already
    placed late, plus serial resources whose copy-0 demand already
    crossed the overload tolerance, plus ``bound_base`` violations
    carried from earlier schedule fragments -- exceeds the bound's
    first badness component.  Violation counts only grow as scheduling
    proceeds, so an aborted candidate's final badness would necessarily
    compare greater than the bound: aborting is pure dominance, and
    the caller may drop the candidate without changing the synthesized
    result (see :mod:`repro.perf.prune` for the switch plumbing).

    ``reason`` is ``"deadline"`` or ``"overload"`` for in-schedule
    triggers, ``"carried"`` when the incremental engine's cross-
    fragment accumulation tips the count between fragments.
    """

    def __init__(self, reason: str) -> None:
        """Record which violation kind tipped the count."""
        super().__init__(reason)
        self.reason = reason


@dataclass
class ScheduledTask:
    """Placement of one task instance in the schedule.

    ``pe_id`` is None for *virtual* placements: tasks whose cluster is
    not yet allocated are estimated at their best-case execution time
    on no resource, so partial architectures can still be finish-time
    checked (the COSYN estimation convention).
    """

    key: TaskKey
    pe_id: Optional[str]
    mode: int
    start: float
    finish: float
    preempted: bool = False


@dataclass
class ScheduledEdge:
    """Placement of one edge instance (None link = same-PE transfer)."""

    key: EdgeKey
    link_id: Optional[str]
    start: float
    finish: float


@dataclass
class ScheduleRequest:
    """Everything the scheduler needs for one run.

    Attributes
    ----------
    priorities:
        graph name -> task name -> priority level (larger = more
        urgent); recomputed by CRUSADE after each allocation.
    boot_time_fn:
        (PE instance, mode index) -> reconfiguration time in seconds.
        Defaults to :func:`repro.reconfig.reboot.default_boot_time`.
    preemption:
        Enable the restricted-preemption path on processors.
    tracer:
        Observability sink for scheduler-decision counters; the null
        tracer by default (no overhead, no behavior change).
    graphs:
        Optional graph-name filter: only copies of these graphs are
        scheduled.  Unlike the scoped sub-spec path this keeps the
        *full* association array, so arrivals and copy counts match
        the unfiltered run exactly -- the incremental engine uses it
        to schedule one resource-coupled component at a time.
    context:
        Optional :class:`repro.perf.fastsched.SchedulerContext`.  When
        set, scheduling runs over the context's cached plan on the
        production timeline pair
        (:class:`~repro.perf.treetimeline.TreeTimeline` /
        :class:`~repro.perf.fasttimeline.FastPpeModeTimeline`); None
        keeps the from-scratch path below on the reference pair
        (:class:`~repro.sched.timeline.IntervalTimeline` /
        :class:`~repro.sched.timeline.PpeModeTimeline`).  Both pairs
        give byte-identical results, enforced by the differential
        oracle in ``tests/sched``.
    bound:
        Optional incumbent badness tuple (as returned by
        ``DeadlineReport.badness()`` or ``EvalResult.badness()``;
        only element 0, the violation count, is consulted).  When set,
        scheduling raises :class:`ScheduleAbort` as soon as the number
        of proven violations in the partial schedule *exceeds*
        ``bound[0]`` -- the candidate then provably loses to the
        incumbent and the caller may discard it.  None (the default)
        disables the check entirely.
    bound_base:
        Violations already proven before this run starts; the
        incremental engine carries deadline misses and overloads from
        earlier schedule fragments here so the abort trigger matches
        a monolithic run.
    """

    spec: SystemSpec
    assoc: AssociationArray
    clustering: ClusteringResult
    arch: Architecture
    priorities: Dict[str, Dict[str, float]]
    boot_time_fn: Optional[Callable[[PEInstance, int], float]] = None
    preemption: bool = True
    tracer: Tracer = NULL_TRACER
    graphs: Optional[frozenset] = None
    context: Optional[object] = None
    bound: Optional[tuple] = None
    bound_base: int = 0


@dataclass
class Schedule:
    """Complete output of one scheduling run."""

    tasks: Dict[TaskKey, ScheduledTask] = field(default_factory=dict)
    edges: Dict[EdgeKey, ScheduledEdge] = field(default_factory=dict)
    proc_timelines: Dict[str, IntervalTimeline] = field(default_factory=dict)
    ppe_timelines: Dict[str, PpeModeTimeline] = field(default_factory=dict)
    link_timelines: Dict[str, IntervalTimeline] = field(default_factory=dict)
    preemptions: int = 0

    @property
    def reconfigurations(self) -> int:
        """Total mode switches across all programmable PEs."""
        return sum(t.reconfigurations for t in self.ppe_timelines.values())

    def finish_of(self, key: TaskKey) -> float:
        """Finish time of a scheduled task instance."""
        try:
            return self.tasks[key].finish
        except KeyError:
            raise SchedulingError("task %r not scheduled" % (key,)) from None

    def makespan(self) -> float:
        """Latest finish across all scheduled task instances."""
        if not self.tasks:
            return 0.0
        return max(t.finish for t in self.tasks.values())


def _placement_of_task(
    request: ScheduleRequest, graph_name: str, task_name: str
) -> Tuple[Optional[PEInstance], int]:
    """(PE instance, mode) a task is allocated to via its cluster, or
    (None, -1) when the cluster has no placement yet."""
    cluster = request.clustering.cluster_of(graph_name, task_name)
    if not request.arch.is_allocated(cluster.name):
        return None, -1
    pe_id, mode = request.arch.placement_of(cluster.name)
    return request.arch.pe(pe_id), mode


def _best_case_comm(request: ScheduleRequest) -> "Callable[[int], float]":
    """Best-case transfer-time estimator over the link library, used
    for edges touching virtually placed tasks."""
    links = request.arch.library.links_by_cost()

    def comm(bytes_: int) -> float:
        if bytes_ == 0 or not links:
            return 0.0
        return min(l.comm_time(bytes_) for l in links)

    return comm


def build_schedule(request: ScheduleRequest) -> Schedule:
    """Run the list scheduler over all explicit copy instances.

    Raises :class:`SchedulingError` on internal inconsistencies (e.g.
    an unallocated task) and :class:`AllocationError` when two
    communicating tasks sit on unconnected PEs.  Missed deadlines do
    *not* raise; they are reported by finish-time evaluation.
    """
    if request.context is not None:
        from repro.perf.fastsched import build_schedule_planned

        return build_schedule_planned(request, request.context)
    schedule = Schedule()
    spec = request.spec
    boot_time_fn = request.boot_time_fn or default_boot_time
    tracer = request.tracer
    tracer.incr("sched.runs")

    # Bounded-search bookkeeping (only when a bound is supplied): the
    # copy-0 demand per serial resource and the absolute deadline per
    # deadline-task instance are tracked inline, mirroring exactly what
    # finish-time evaluation would recompute afterwards, so the abort
    # trigger (violations > bound[0]) is a pure-dominance test.
    bound = request.bound
    if bound is not None:
        from repro.sched.finish_time import _OVERLOAD_TOLERANCE

        bound_limit = bound[0]
        violations = request.bound_base
        capacity = request.assoc.hyperperiod
        crossed: set = set()
        bound_demand: Dict[str, float] = {}
        bound_ncopies: Dict[str, int] = {}
        deadline_by_key: Dict[TaskKey, float] = {}

    # Build instance-level precedence bookkeeping.
    indegree: Dict[TaskKey, int] = {}
    arrival: Dict[TaskKey, float] = {}
    heap: List[Tuple[float, float, TaskKey]] = []
    for instance in request.assoc.iter_explicit():
        if request.graphs is not None and instance.graph not in request.graphs:
            continue
        graph = spec.graph(instance.graph)
        if bound is not None:
            bound_ncopies[instance.graph] = request.assoc.n_copies(
                instance.graph
            )
            for task_name in graph.deadline_tasks():
                deadline_by_key[(instance.graph, instance.copy, task_name)] = (
                    instance.arrival + graph.effective_deadline(task_name)
                )
        for task_name in graph.topological_order():
            key = (instance.graph, instance.copy, task_name)
            indegree[key] = len(graph.predecessors(task_name))
            arrival[key] = instance.arrival
            if indegree[key] == 0:
                priority = request.priorities[instance.graph][task_name]
                heapq.heappush(heap, (-priority, instance.arrival, key))

    scheduled_count = 0
    total_instances = len(indegree)
    best_comm = _best_case_comm(request)
    while heap:
        _, _, key = heapq.heappop(heap)
        graph_name, copy_index, task_name = key
        graph = spec.graph(graph_name)
        task = graph.task(task_name)
        pe, mode = _placement_of_task(request, graph_name, task_name)

        # 1. Schedule incoming edges; compute data-ready time.
        ready = arrival[key]
        for pred_name in graph.predecessors(task_name):
            pred_key = (graph_name, copy_index, pred_name)
            pred_finish = schedule.finish_of(pred_key)
            pred_pe_id = schedule.tasks[pred_key].pe_id
            edge = graph.edge(pred_name, task_name)
            edge_key = (graph_name, copy_index, pred_name, task_name)
            if pe is None or pred_pe_id is None:
                # Virtual endpoint: best-case communication estimate,
                # no link occupied.
                finish = pred_finish + best_comm(edge.bytes_)
                schedule.edges[edge_key] = ScheduledEdge(
                    key=edge_key, link_id=None, start=pred_finish, finish=finish
                )
                ready = max(ready, finish)
                continue
            if pred_pe_id == pe.id or edge.bytes_ == 0:
                schedule.edges[edge_key] = ScheduledEdge(
                    key=edge_key, link_id=None, start=pred_finish, finish=pred_finish
                )
                ready = max(ready, pred_finish)
                continue
            link = request.arch.find_link_between(pred_pe_id, pe.id)
            if link is None:
                raise AllocationError(
                    "no link connects %r and %r for edge %s->%s"
                    % (pred_pe_id, pe.id, pred_name, task_name)
                )
            timeline = schedule.link_timelines.setdefault(
                link.id, IntervalTimeline()
            )
            duration = link.comm_time(edge.bytes_)
            start = timeline.earliest_fit(pred_finish, duration)
            start, finish = timeline.occupy(start, duration, edge_key)
            schedule.edges[edge_key] = ScheduledEdge(
                key=edge_key, link_id=link.id, start=start, finish=finish
            )
            ready = max(ready, finish)
            if bound is not None and copy_index == 0:
                load = bound_demand.get(link.id, 0.0) + (
                    finish - start
                ) * bound_ncopies[graph_name]
                bound_demand[link.id] = load
                if (
                    link.id not in crossed
                    and load / capacity > _OVERLOAD_TOLERANCE
                ):
                    crossed.add(link.id)
                    violations += 1
                    if violations > bound_limit:
                        raise ScheduleAbort("overload")

        # 2. Place the task on its resource.
        was_split = False
        if pe is None:
            # Virtual placement: best-case execution, no contention.
            tracer.incr("sched.tasks.virtual")
            start, finish = ready, ready + task.min_exec_time
        else:
            tracer.incr("sched.tasks.real")
            wcet = task.wcet_on(pe.pe_type.name)
            if pe.pe_type.kind is PEKind.PROCESSOR:
                start, finish, was_split = _place_on_processor(
                    schedule, request, pe, key, ready, wcet
                )
            elif pe.pe_type.kind is PEKind.ASIC:
                # Independent circuit block: no contention.
                start, finish = ready, ready + wcet
            else:
                timeline = schedule.ppe_timelines.setdefault(
                    pe.id, PpeModeTimeline()
                )
                cluster = request.clustering.cluster_of(graph_name, task_name)
                allowed = {
                    m: boot_time_fn(pe, m)
                    for m in pe.modes_of_cluster(cluster.name)
                }
                start, finish = timeline.place(
                    mode, ready, wcet, boot_time_fn(pe, mode), allowed=allowed
                )
            if (
                bound is not None
                and copy_index == 0
                and pe.pe_type.kind is not PEKind.ASIC
            ):
                # Serial resource (processor or PPE): accumulate the
                # same per-PE demand finish-time evaluation sums.
                load = bound_demand.get(pe.id, 0.0) + (
                    finish - start
                ) * bound_ncopies[graph_name]
                bound_demand[pe.id] = load
                if (
                    pe.id not in crossed
                    and load / capacity > _OVERLOAD_TOLERANCE
                ):
                    crossed.add(pe.id)
                    violations += 1
                    if violations > bound_limit:
                        raise ScheduleAbort("overload")
        schedule.tasks[key] = ScheduledTask(
            key=key,
            pe_id=pe.id if pe is not None else None,
            mode=mode,
            start=start,
            finish=finish,
            preempted=was_split,
        )
        scheduled_count += 1
        if bound is not None:
            absolute = deadline_by_key.get(key)
            if absolute is not None and finish - absolute > TIME_EPS:
                violations += 1
                if violations > bound_limit:
                    raise ScheduleAbort("deadline")

        # 3. Release successors.
        priority_table = request.priorities[graph_name]
        for succ_name in graph.successors(task_name):
            succ_key = (graph_name, copy_index, succ_name)
            indegree[succ_key] -= 1
            if indegree[succ_key] == 0:
                heapq.heappush(
                    heap,
                    (-priority_table[succ_name], arrival[succ_key], succ_key),
                )

    if scheduled_count != total_instances:
        raise SchedulingError(
            "scheduled %d of %d task instances; precedence graph is inconsistent"
            % (scheduled_count, total_instances)
        )
    return schedule


def _priority_of_key(request: ScheduleRequest, key: TaskKey) -> float:
    graph_name, _, task_name = key
    return request.priorities[graph_name][task_name]


def _place_on_processor(
    schedule: Schedule,
    request: ScheduleRequest,
    pe: PEInstance,
    key: TaskKey,
    ready: float,
    wcet: float,
    timeline_cls: type = IntervalTimeline,
    split_counts: Optional[list] = None,
) -> Tuple[float, float, bool]:
    """Place a task on a processor.

    Non-preemptive first-fit by default.  With preemption enabled, a
    task that would be delayed behind already-reserved (higher-
    priority) work may instead *split* across the free gaps -- it
    starts, is preempted by each reservation, and resumes afterwards,
    paying the processor's preemption overhead per resumption
    (Section 5's restricted preemptive scheduling).  The split is used
    only when it strictly improves the task's finish time.

    ``timeline_cls`` is any :class:`~repro.sched.timeline.Timeline`
    factory; the legacy path passes the linear reference, the planned
    fast path threads its context's configured implementation
    (flat-bisected or blocked -- all bit-for-bit interchangeable).

    ``split_counts`` (a ``[declined, taken]`` pair) batches the split
    decision counters for the planned fast path, which flushes them to
    the tracer once per run; without it each decision is traced
    directly.
    """
    processor = pe.pe_type
    assert isinstance(processor, ProcessorType)
    duration = wcet + processor.context_switch_time
    timeline = schedule.proc_timelines.get(pe.id)
    if timeline is None:
        timeline = schedule.proc_timelines[pe.id] = timeline_cls()
    start = timeline.earliest_fit(ready, duration)
    if start <= ready or not request.preemption:
        return timeline.occupy(start, duration, key) + (False,)

    segments = timeline.split_fit(
        ready, duration, processor.preemption_overhead
    )
    if segments is None or len(segments) < 2:
        if split_counts is None:
            request.tracer.incr("sched.preemption.splits_declined")
        else:
            split_counts[0] += 1
        return timeline.occupy(start, duration, key) + (False,)
    contiguous_finish = start + duration
    split_finish = segments[-1][1]
    if split_finish >= contiguous_finish:
        if split_counts is None:
            request.tracer.incr("sched.preemption.splits_declined")
        else:
            split_counts[0] += 1
        return timeline.occupy(start, duration, key) + (False,)
    for seg_start, seg_end in segments:
        timeline.occupy(seg_start, seg_end - seg_start, key)
    schedule.preemptions += 1
    if split_counts is None:
        request.tracer.incr("sched.preemption.splits_taken")
    else:
        split_counts[1] += 1
    return segments[0][0], split_finish, True
