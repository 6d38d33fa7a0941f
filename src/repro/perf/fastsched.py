"""Planned scheduling: the engine-side fast path of the list scheduler.

Every candidate evaluation re-runs the list scheduler, and the legacy
:func:`repro.sched.scheduler.build_schedule` re-derives from the
specification -- on every one of thousands of runs -- structures that
never change across a synthesis: the explicit task instances and their
arrival times, the per-instance predecessor/successor keys with edge
payloads, each task's cluster, and the initial in-degrees.  It also
re-resolves PE-to-PE routes (``Architecture.find_link_between`` sorts
the link list per call) and link transfer times that are pure
functions of (link type, payload).

:class:`SchedulerContext` -- owned by the
:class:`repro.perf.engine.IncrementalEngine` and threaded into
:class:`~repro.sched.scheduler.ScheduleRequest` -- caches all of the
above across runs:

* a **plan** per (spec, association, clustering, graph filter): the
  instance records, seed order, and in-degree template;
* a **route cache** per architecture, invalidated exactly by
  ``Architecture.topo_version`` (bumped on every link attach/detach/
  create/delete, including copy-on-write reverts);
* **transfer-time memos** for ``LinkType.comm_time`` and the
  best-case estimator used for virtually placed endpoints;
* the production timeline factories:
  :class:`repro.perf.treetimeline.TreeTimeline` for processor and
  link timelines, :class:`repro.perf.fasttimeline.FastPpeModeTimeline`
  for programmable devices.

:func:`build_schedule_planned` is a transcription of the legacy
scheduling loop over those cached structures.  Every decision input --
heap keys, iteration orders, epsilon comparisons, tie-breaks -- is
preserved, so the resulting schedule is byte-identical; the
equivalence suite (tests/perf) pins this down against the legacy
path.  The reference mode disables the engine and with it this path.
"""

from __future__ import annotations

import heapq
import threading
import weakref
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.errors import AllocationError, SchedulingError
from repro.reconfig.reboot import default_boot_time
from repro.resources.pe import PEKind
from repro.perf.fasttimeline import FastPpeModeTimeline
from repro.perf.treetimeline import TreeTimeline
from repro.sched import tlrecord
from repro.sched.finish_time import _OVERLOAD_TOLERANCE
from repro.units import TIME_EPS

#: Plans are tiny next to schedule fragments, but the scoped sub-spec
#: cache they key off is itself LRU-bounded -- keep a little headroom.
PLAN_CACHE_MAX_ENTRIES = 128


class _Plan:
    """Spec-derived constants for one (spec, assoc, filter) triple."""

    __slots__ = (
        "records", "roots", "indegree", "total", "keepalive", "wcet",
        "deadline_rows", "ncopies", "_deadline_by_key",
    )

    def __init__(
        self, records, roots, indegree, total, keepalive,
        deadline_rows, ncopies,
    ):
        """Freeze one (spec, assoc, filter) triple's plan tables."""
        #: key -> (arrival, preds, succs, task, cluster_name); preds
        #: are (pred_key, bytes, edge_key) in ``graph.predecessors``
        #: order, succs are (succ_key, succ_name) in
        #: ``graph.successors`` order.
        self.records = records
        #: zero-in-degree keys in legacy heap-seeding order.
        self.roots = roots
        #: in-degree template, copied at the start of every run.
        self.indegree = indegree
        self.total = total
        #: strong refs pinning the id()-keyed cache inputs alive.
        self.keepalive = keepalive
        #: (task object id, PE type name) -> worst-case execution
        #: time.  Static per plan (execution times never change, and
        #: ``keepalive`` pins the spec's task objects), and most
        #: placements are stable across the runs sharing a plan.
        self.wcet: Dict[tuple, float] = {}
        #: graph name -> ((instance key, absolute deadline), ...) in
        #: the exact insertion order of
        #: :func:`repro.sched.finish_time.deadline_lateness`
        #: (explicit copy major, deadline task minor); the absolute
        #: deadline is the same ``arrival + relative`` float.
        self.deadline_rows = deadline_rows
        #: graph name -> association copy count (demand multiplier).
        self.ncopies = ncopies
        #: lazy flat view of ``deadline_rows`` for the bound-abort
        #: deadline check (key -> absolute deadline).
        self._deadline_by_key = None

    def deadline_map(self) -> dict:
        """Instance key -> absolute deadline, flattened lazily from
        ``deadline_rows`` (same floats, so the inline deadline check
        matches the post-pass lateness exactly)."""
        flat = self._deadline_by_key
        if flat is None:
            flat = {}
            for rows in self.deadline_rows.values():
                for row_key, absolute in rows:
                    flat[row_key] = absolute
            self._deadline_by_key = flat
        return flat


def _build_plan(request) -> _Plan:
    spec = request.spec
    clustering = request.clustering
    records: Dict[tuple, tuple] = {}
    roots: List[tuple] = []
    indegree: Dict[tuple, int] = {}
    for instance in request.assoc.iter_explicit():
        if request.graphs is not None and instance.graph not in request.graphs:
            continue
        graph = spec.graph(instance.graph)
        for task_name in graph.topological_order():
            key = (instance.graph, instance.copy, task_name)
            preds = []
            for pred_name in graph.predecessors(task_name):
                edge = graph.edge(pred_name, task_name)
                preds.append((
                    (instance.graph, instance.copy, pred_name),
                    edge.bytes_,
                    (instance.graph, instance.copy, pred_name, task_name),
                ))
            succs = tuple(
                ((instance.graph, instance.copy, succ_name), succ_name)
                for succ_name in graph.successors(task_name)
            )
            cluster = clustering.cluster_of(instance.graph, task_name)
            records[key] = (
                instance.arrival,
                tuple(preds),
                succs,
                graph.task(task_name),
                cluster.name,
            )
            indegree[key] = len(preds)
            if not preds:
                roots.append(key)
    deadline_rows: Dict[str, tuple] = {}
    ncopies: Dict[str, int] = {}
    for name in spec.graph_names():
        if request.graphs is not None and name not in request.graphs:
            continue
        graph = spec.graph(name)
        deadline_tasks = [
            (t, graph.effective_deadline(t)) for t in graph.deadline_tasks()
        ]
        rows = []
        for instance in request.assoc.explicit_copies(name):
            arrival = instance.arrival
            for task_name, rel_deadline in deadline_tasks:
                rows.append((
                    (name, instance.copy, task_name),
                    arrival + rel_deadline,
                ))
        deadline_rows[name] = tuple(rows)
        ncopies[name] = request.assoc.n_copies(name)
    return _Plan(
        records, roots, indegree, len(records),
        (spec, request.assoc, clustering),
        deadline_rows, ncopies,
    )


class SchedulerContext:
    """Cross-run scheduler caches owned by one incremental engine.

    Every schedule this context builds uses :class:`~repro.perf.
    treetimeline.TreeTimeline` (flat, converting to the blocked index
    past its length threshold) for serial resources and
    :class:`~repro.perf.fasttimeline.FastPpeModeTimeline` for
    programmable devices.
    """

    def __init__(self) -> None:
        """Create empty plan/route/transfer-time caches."""
        self.timeline_cls = TreeTimeline
        self.ppe_timeline_cls = FastPpeModeTimeline
        self.recorder = None
        record_to = tlrecord.trace_path()
        if record_to is not None:
            # REPRO_TIMELINE_TRACE: wrap both factories so every
            # timeline this context builds appends its operation
            # stream (replayed by the differential oracle).
            self.recorder = tlrecord.TimelineRecorder(record_to)
            self.timeline_cls = self.recorder.wrap_serial(self.timeline_cls)
            self.ppe_timeline_cls = self.recorder.wrap_ppe(
                self.ppe_timeline_cls
            )
        self._plans: "OrderedDict[tuple, _Plan]" = OrderedDict()
        self._lock = threading.Lock()
        #: Architecture -> [topo_version, {(pe_a, pe_b): link | None}].
        self._routes: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._library = None
        self._comm: Dict[Tuple[str, int], float] = {}
        self._best_comm: Dict[int, float] = {}

    # ------------------------------------------------------------------
    def plan_for(self, request) -> _Plan:
        """The cached (or freshly built) plan for a request's
        (spec, assoc, clustering, graphs) identity."""
        key = (
            id(request.spec), id(request.assoc), id(request.clustering),
            request.graphs,
        )
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
        if plan is not None:
            request.tracer.incr("perf.plan.hits")
            return plan
        request.tracer.incr("perf.plan.misses")
        plan = _build_plan(request)
        with self._lock:
            self._plans[key] = plan
            while len(self._plans) > PLAN_CACHE_MAX_ENTRIES:
                self._plans.popitem(last=False)
        return plan

    # ------------------------------------------------------------------
    def route_table(self, arch) -> dict:
        """The (pe_a, pe_b) -> link memo for ``arch``'s *current* link
        topology, invalidated by ``Architecture.topo_version``.  The
        scheduler never mutates the architecture, so one lookup per run
        suffices -- callers index the returned dict directly."""
        entry = self._routes.get(arch)
        if entry is None or entry[0] != arch.topo_version:
            entry = [arch.topo_version, {}]
            with self._lock:
                self._routes[arch] = entry
        return entry[1]

    def route(self, arch, pe_a: str, pe_b: str):
        """Memoized ``arch.find_link_between``: exact while the
        architecture's link topology is unchanged."""
        cache = self.route_table(arch)
        key = (pe_a, pe_b)
        try:
            return cache[key]
        except KeyError:
            link = arch.find_link_between(pe_a, pe_b)
            cache[key] = link
            return link

    # ------------------------------------------------------------------
    def _sync_library(self, library) -> None:
        if library is not self._library:
            self._library = library
            self._comm = {}
            self._best_comm = {}

    def comm_time(self, link, bytes_: int) -> float:
        """Memoized transfer time of ``bytes_`` over ``link``."""
        # The instance transfer time depends on the *current* port
        # count (the paper's recomputed communication vectors).
        key = (link.link_type.name, max(2, link.ports_used), bytes_)
        try:
            return self._comm[key]
        except KeyError:
            value = link.comm_time(bytes_)
            self._comm[key] = value
            return value

    def best_comm(self, library, bytes_: int) -> float:
        """Best-case transfer estimate (legacy ``_best_case_comm``)."""
        self._sync_library(library)
        try:
            return self._best_comm[bytes_]
        except KeyError:
            links = library.links_by_cost()
            if bytes_ == 0 or not links:
                value = 0.0
            else:
                value = min(l.comm_time(bytes_) for l in links)
            self._best_comm[bytes_] = value
            return value


def build_schedule_planned(request, context: SchedulerContext):
    """The legacy scheduling loop over the context's cached plan.

    Imports from :mod:`repro.sched.scheduler` are deferred: that module
    dispatches here when a request carries a context.
    """
    from repro.sched.scheduler import (
        Schedule,
        ScheduleAbort,
        ScheduledEdge,
        ScheduledTask,
        _place_on_processor,
    )

    schedule = Schedule()
    arch = request.arch
    priorities = request.priorities
    boot_time_fn = request.boot_time_fn or default_boot_time
    tracer = request.tracer
    tracer.incr("sched.runs")
    context._sync_library(arch.library)
    timeline_cls = context.timeline_cls
    ppe_timeline_cls = context.ppe_timeline_cls
    # The architecture is frozen for the duration of one scheduler run,
    # so per-arch/per-run lookups hoist out of the task loop entirely:
    # the route memo for the current topology, the transfer-time memo,
    # and per-run memos for the PPE placement inputs (a device's modes
    # carrying a cluster, and boot times, are pure functions of the
    # frozen architecture -- the fingerprint layer already relies on
    # boot_time_fn purity).
    route_table = context.route_table(arch)
    comm_cache = context._comm
    #: (pe id, cluster) -> ({mode: boot}, sorted items) for PPE hosts.
    allowed_memo: Dict[tuple, tuple] = {}
    boot_memo: Dict[tuple, float] = {}

    plan = context.plan_for(request)
    records = plan.records
    wcet_memo = plan.wcet
    ncopies = plan.ncopies
    # Bounded-search bookkeeping: the inline demand map below is
    # already bit-identical to the post-pass recomputation, so the
    # abort trigger (violations > bound[0]) only needs the crossing
    # checks and the plan's absolute deadlines (see
    # :class:`repro.sched.scheduler.ScheduleAbort`).
    bound = request.bound
    if bound is not None:
        bound_limit = bound[0]
        violations = request.bound_base
        capacity = request.assoc.hyperperiod
        crossed: set = set()
        deadline_by_key = plan.deadline_map()
    indegree = dict(plan.indegree)
    heap: List[Tuple[float, float, tuple]] = []
    for key in plan.roots:
        record = records[key]
        heapq.heappush(heap, (-priorities[key[0]][key[2]], record[0], key))

    cluster_alloc = arch.cluster_alloc
    pes = arch.pes
    library = arch.library
    tasks = schedule.tasks
    edges = schedule.edges
    scheduled_count = 0
    # Per-run decision counters, flushed in one batch after the loop
    # (identical totals, a fraction of the Tracer.incr call volume).
    n_virtual = 0
    n_real = 0
    split_counts = [0, 0]
    # Copy-0 hyperperiod demand, accumulated inline.  Per-resource
    # accumulation order equals the post-pass
    # :func:`repro.sched.finish_time.resource_demand` order (schedule
    # insertion order; processor/PPE buckets touched only from task
    # placements, link buckets only from edge placements), so the
    # float sums are bit-identical; consumers sort the keys.
    demand: Dict[str, float] = {}
    while heap:
        _, _, key = heapq.heappop(heap)
        graph_name, _, task_name = key
        arrival, preds, succs, task, cluster_name = records[key]
        placement = cluster_alloc.get(cluster_name)
        if placement is None:
            pe, mode, pe_id = None, -1, None
        else:
            pe_id, mode = placement
            pe = pes[pe_id]

        # 1. Schedule incoming edges; compute data-ready time.
        ready = arrival
        for pred_key, bytes_, edge_key in preds:
            pred_task = tasks[pred_key]
            pred_finish = pred_task.finish
            pred_pe_id = pred_task.pe_id
            if pe is None or pred_pe_id is None:
                finish = pred_finish + context.best_comm(library, bytes_)
                edges[edge_key] = ScheduledEdge(
                    key=edge_key, link_id=None, start=pred_finish, finish=finish
                )
                if finish > ready:
                    ready = finish
                continue
            if pred_pe_id == pe_id or bytes_ == 0:
                edges[edge_key] = ScheduledEdge(
                    key=edge_key, link_id=None, start=pred_finish,
                    finish=pred_finish,
                )
                if pred_finish > ready:
                    ready = pred_finish
                continue
            pair = (pred_pe_id, pe_id)
            try:
                link = route_table[pair]
            except KeyError:
                link = route_table[pair] = arch.find_link_between(
                    pred_pe_id, pe_id
                )
            if link is None:
                raise AllocationError(
                    "no link connects %r and %r for edge %s->%s"
                    % (pred_pe_id, pe_id, pred_key[2], task_name)
                )
            timeline = schedule.link_timelines.get(link.id)
            if timeline is None:
                timeline = schedule.link_timelines[link.id] = timeline_cls()
            # Inlined context.comm_time: transfer time is a pure
            # function of (link type, current port count, payload).
            ports = link.ports_used
            ckey = (link.link_type.name, ports if ports > 2 else 2, bytes_)
            try:
                duration = comm_cache[ckey]
            except KeyError:
                duration = comm_cache[ckey] = link.comm_time(bytes_)
            start = timeline.earliest_fit(pred_finish, duration)
            start, finish = timeline.occupy(start, duration, edge_key)
            link_id = link.id
            edges[edge_key] = ScheduledEdge(
                key=edge_key, link_id=link_id, start=start, finish=finish
            )
            if key[1] == 0:
                load = demand.get(link_id, 0.0) + (
                    finish - start
                ) * ncopies[graph_name]
                demand[link_id] = load
                if (
                    bound is not None
                    and link_id not in crossed
                    and load / capacity > _OVERLOAD_TOLERANCE
                ):
                    crossed.add(link_id)
                    violations += 1
                    if violations > bound_limit:
                        raise ScheduleAbort("overload")
            if finish > ready:
                ready = finish

        # 2. Place the task on its resource.
        was_split = False
        if pe is None:
            n_virtual += 1
            start, finish = ready, ready + task.min_exec_time
        else:
            n_real += 1
            pe_type = pe.pe_type
            wkey = (id(task), pe_type.name)
            wcet = wcet_memo.get(wkey)
            if wcet is None:
                wcet = wcet_memo[wkey] = task.wcet_on(pe_type.name)
            kind = pe_type.kind
            if kind is PEKind.PROCESSOR:
                start, finish, was_split = _place_on_processor(
                    schedule, request, pe, key, ready, wcet,
                    timeline_cls=timeline_cls, split_counts=split_counts,
                )
                if key[1] == 0:
                    load = demand.get(pe_id, 0.0) + (
                        finish - start
                    ) * ncopies[graph_name]
                    demand[pe_id] = load
                    if (
                        bound is not None
                        and pe_id not in crossed
                        and load / capacity > _OVERLOAD_TOLERANCE
                    ):
                        crossed.add(pe_id)
                        violations += 1
                        if violations > bound_limit:
                            raise ScheduleAbort("overload")
            elif kind is PEKind.ASIC:
                start, finish = ready, ready + wcet
            else:
                timeline = schedule.ppe_timelines.get(pe_id)
                if timeline is None:
                    timeline = schedule.ppe_timelines[pe_id] = ppe_timeline_cls()
                akey = (pe_id, cluster_name)
                entry = allowed_memo.get(akey)
                if entry is None:
                    allowed = {
                        m: boot_time_fn(pe, m)
                        for m in pe.modes_of_cluster(cluster_name)
                    }
                    entry = allowed_memo[akey] = (
                        allowed, sorted(allowed.items()),
                    )
                allowed, allowed_sorted = entry
                bkey = (pe_id, mode)
                boot = boot_memo.get(bkey)
                if boot is None:
                    boot = boot_memo[bkey] = boot_time_fn(pe, mode)
                start, finish = timeline.place(
                    mode, ready, wcet, boot, allowed=allowed,
                    allowed_sorted=allowed_sorted,
                )
                if key[1] == 0:
                    load = demand.get(pe_id, 0.0) + (
                        finish - start
                    ) * ncopies[graph_name]
                    demand[pe_id] = load
                    if (
                        bound is not None
                        and pe_id not in crossed
                        and load / capacity > _OVERLOAD_TOLERANCE
                    ):
                        crossed.add(pe_id)
                        violations += 1
                        if violations > bound_limit:
                            raise ScheduleAbort("overload")
        tasks[key] = ScheduledTask(
            key=key,
            pe_id=pe_id,
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
        if succs:
            priority_table = priorities[graph_name]
            for succ_key, succ_name in succs:
                remaining = indegree[succ_key] - 1
                indegree[succ_key] = remaining
                if remaining == 0:
                    heapq.heappush(
                        heap,
                        (
                            -priority_table[succ_name],
                            records[succ_key][0],
                            succ_key,
                        ),
                    )

    if scheduled_count != plan.total:
        raise SchedulingError(
            "scheduled %d of %d task instances; precedence graph is inconsistent"
            % (scheduled_count, plan.total)
        )
    if n_real:
        tracer.incr("sched.tasks.real", n_real)
    if n_virtual:
        tracer.incr("sched.tasks.virtual", n_virtual)
    if split_counts[0]:
        tracer.incr("sched.preemption.splits_declined", split_counts[0])
    if split_counts[1]:
        tracer.incr("sched.preemption.splits_taken", split_counts[1])

    # Verdict by-products for the engine: per-graph lateness in the
    # contract insertion order (the plan's rows) and the inline demand
    # map -- both bit-identical to the post-pass recomputation.
    lateness: Dict[str, dict] = {}
    for name, rows in plan.deadline_rows.items():
        per_graph: Dict[tuple, float] = {}
        for row_key, absolute in rows:
            placed = tasks.get(row_key)
            if placed is not None:
                per_graph[row_key] = placed.finish - absolute
        lateness[name] = per_graph
    schedule.planned_lateness = lateness
    schedule.planned_demand = demand
    return schedule
