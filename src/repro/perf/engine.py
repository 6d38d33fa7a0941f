"""The incremental evaluation engine: per-component schedule caching.

``evaluate_architecture`` used to reschedule every graph of the (scoped)
specification for every candidate placement.  The engine splits the
graphs into components coupled through shared serial resources (see
:mod:`repro.perf.fingerprint`), schedules each component *alone* and
caches the resulting fragment keyed by the component's value
fingerprint.  Because components are resource-disjoint, the solo
schedule of each component is byte-identical to its slice of the full
interleaved run: at every heap pop the scheduler picks the minimum key
among the component's ready tasks, and that choice is unaffected by
entries of other components (task keys are distinct and totally
ordered, and timelines are per-resource).

A candidate placement typically dirties one component's fingerprint
and leaves the rest untouched, so repair rounds, merge trials, full
checks and the nested baseline synthesis (which shares the engine)
mostly replay cached fragments.

The merged verdict reproduces the from-scratch one exactly:

* lateness entries are inserted in ``spec.graph_names()`` order (the
  order ``evaluate_deadlines`` uses), preserving downstream tie-breaks
  that depend on dict insertion order;
* per-resource demand sums accumulate in the same per-resource term
  order as the interleaved run (the solo subsequence), so the float
  sums are identical, and overloads are derived from the globally
  sorted demand map exactly as before.

Fragment caching only pays off when evaluations repeat component
states exactly; on workloads whose graphs all couple through shared
processors or buses (e.g. the large Table 2 examples) nearly every
evaluation is a fresh single component.  The engine therefore also
owns a :class:`repro.perf.fastsched.SchedulerContext`: cache misses
are scheduled over precomputed per-spec plans, memoized routes and
transfer times, and bisect-indexed timelines
(:mod:`repro.perf.fasttimeline`) -- byte-identical to the legacy
scheduler but roughly twice as fast, which is where the engine's
speedup comes from when fingerprints never repeat.

The engine is enabled by default (``CrusadeConfig.incremental``) and
killed, together with pruning and bound aborts, by the reference mode
(``incremental=False`` or the ``REPRO_NO_INCREMENTAL=1`` environment
variable).  All cache traffic is reported through the
tracer as ``perf.schedule.hits`` / ``perf.schedule.misses`` /
``perf.schedule.evictions`` and ``perf.plan.hits`` /
``perf.plan.misses``.

When a persistent store is configured (``CrusadeConfig.cache_dir``,
see :mod:`repro.perf.store`), :meth:`IncrementalEngine.bind_store`
turns the in-memory cache into a read-through/write-through view of
the on-disk fragment tier: lookups that miss the LRU consult the
store (hits counted as ``perf.store.fragments_preloaded``), and every
freshly built fragment is persisted for future runs.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple

from repro.arch.architecture import Architecture
from repro.arch.pe_instance import PEInstance
from repro.cluster.clustering import ClusteringResult
from repro.graph.association import AssociationArray
from repro.graph.spec import SystemSpec
from repro.obs.trace import Tracer
from repro.reconfig.reboot import default_boot_time
from repro.sched.finish_time import (
    _OVERLOAD_TOLERANCE,
    DeadlineReport,
)
from repro.sched.scheduler import (
    Schedule,
    ScheduleAbort,
    ScheduleRequest,
    build_schedule,
)
from repro.perf.fastsched import SchedulerContext
from repro.perf.fingerprint import component_fingerprint, partition_components
from repro.units import TIME_EPS

#: Environment kill switch: restore the from-scratch evaluation path.
KILL_SWITCH_ENV = "REPRO_NO_INCREMENTAL"


class Fragment:
    """Cached verdict for one resource-coupled component."""

    __slots__ = ("schedule", "lateness", "demand", "misses")

    def __init__(
        self,
        schedule: Schedule,
        lateness: Dict[str, Dict[tuple, float]],
        demand: Dict[str, float],
        misses: int,
    ) -> None:
        """Freeze one component's schedule, lateness and demand."""
        self.schedule = schedule
        #: graph name -> {task key -> lateness}, per-graph insertion
        #: order identical to the from-scratch evaluation's.
        self.lateness = lateness
        self.demand = demand
        #: Count of missed deadline instances (lateness > TIME_EPS).
        #: Stored because it is capacity-independent; the overload
        #: contribution is *not* stored -- cached fragments can be
        #: replayed under scoped associations with different
        #: hyperperiods, so it is derived from ``demand`` per call.
        self.misses = misses


class IncrementalEngine:
    """Schedule/verdict cache shared across one synthesis run.

    Thread-safe: concurrent evaluations may share one engine.  Cached
    fragments are immutable once stored (schedules handed out are
    never mutated by consumers), so sharing them across evaluations is
    safe.
    """

    def __init__(self, max_entries: int = 32) -> None:
        """Create an empty engine holding up to ``max_entries``
        cached fragments (LRU beyond that)."""
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._fragments: "OrderedDict[tuple, Fragment]" = OrderedDict()
        #: Cross-run scheduler caches (plans, routes, transfer times)
        #: -- the engine's second, and on workloads whose graphs all
        #: couple through shared resources its main, source of reuse.
        self.context = SchedulerContext()
        self._lock = threading.Lock()
        self._cluster_map: Optional[
            Tuple[ClusteringResult, Dict[str, list]]
        ] = None
        #: Optional cross-run persistence: a
        #: :class:`repro.perf.warmstart.StoreBinding` making the
        #: in-memory fragment cache a read-through/write-through view
        #: of the on-disk fragment tier (:mod:`repro.perf.store`).
        self.store = None
        self._hits = 0
        self._misses = 0
        self._disk_hits = 0

    # ------------------------------------------------------------------
    def bind_store(self, binding) -> None:
        """Attach the persistent fragment-tier binding for this run.

        After binding, a fingerprint that misses the in-memory LRU
        consults the on-disk store before scheduling from scratch, and
        every freshly built fragment is written through.  Disk hits
        are inserted into the LRU like any other entry, so a component
        replayed repeatedly is only read off disk once.
        """
        self.store = binding

    # ------------------------------------------------------------------
    def _clusters_of_graph(self, clustering: ClusteringResult):
        """Memoized ``clustering.clusters_of_graph`` lookup (the
        clustering is fixed for a whole synthesis run, but fingerprints
        ask for the per-graph cluster lists on every evaluation)."""
        with self._lock:
            if self._cluster_map is None or self._cluster_map[0] is not clustering:
                mapping: Dict[str, list] = {}
                for cluster in clustering.clusters.values():
                    mapping.setdefault(cluster.graph, []).append(cluster)
                for clusters in mapping.values():
                    clusters.sort(key=lambda c: c.name)
                self._cluster_map = (clustering, mapping)
            mapping = self._cluster_map[1]
        return lambda graph_name: mapping.get(graph_name, ())

    # ------------------------------------------------------------------
    def evaluate(
        self,
        spec: SystemSpec,
        assoc: AssociationArray,
        clustering: ClusteringResult,
        arch: Architecture,
        priorities: Dict[str, Dict[str, float]],
        boot_time_fn: Optional[Callable[[PEInstance, int], float]],
        preemption: bool,
        tracer: Tracer,
        bound: Optional[tuple] = None,
    ) -> Tuple[Schedule, DeadlineReport]:
        """Schedule ``arch`` against ``spec``, reusing cached fragments
        for components whose fingerprints are unchanged.

        ``bound`` enables bounded search: each fragment is scheduled
        with the violations of all earlier fragments carried as its
        ``bound_base``, and a cache-hit fragment that tips the running
        count raises :class:`~repro.sched.scheduler.ScheduleAbort`
        (reason ``"carried"``) -- so the abort decision matches a
        monolithic run exactly.  Fragments completed before an abort
        are cached normally (they are valid verdicts).
        """
        names = spec.graph_names()
        clusters_of_graph = self._clusters_of_graph(clustering)
        boot_fn = boot_time_fn or default_boot_time
        components = partition_components(names, arch, clusters_of_graph)

        base = 0
        capacity = assoc.hyperperiod
        fragments: List[Fragment] = []
        for component in components:
            key = component_fingerprint(
                component, spec, assoc, clusters_of_graph, arch,
                priorities, boot_fn, preemption,
            )
            with self._lock:
                fragment = self._fragments.get(key)
                if fragment is not None:
                    self._fragments.move_to_end(key)
            from_disk = False
            if fragment is None and self.store is not None:
                # Cross-run read-through: a still-valid persisted
                # fragment behaves exactly like an in-memory hit
                # (including the carried-abort accounting below).
                fragment = self.store.load(key, component, tracer)
                from_disk = fragment is not None
            if fragment is not None:
                tracer.incr("perf.schedule.hits")
                with self._lock:
                    self._hits += 1
                if from_disk:
                    with self._lock:
                        self._disk_hits += 1
                    self._insert(key, fragment, tracer)
            else:
                tracer.incr("perf.schedule.misses")
                with self._lock:
                    self._misses += 1
                fragment = self._build_fragment(
                    component, spec, assoc, clustering, arch, priorities,
                    boot_time_fn, preemption, tracer,
                    bound=bound, bound_base=base,
                )
                self._insert(key, fragment, tracer)
                if self.store is not None:
                    self.store.save(key, component, fragment, tracer)
            fragments.append(fragment)
            if bound is not None:
                base += fragment.misses
                for load in fragment.demand.values():
                    if load / capacity > _OVERLOAD_TOLERANCE:
                        base += 1
                if base > bound[0]:
                    raise ScheduleAbort("carried")

        return self._merge(names, components, fragments, assoc)

    # ------------------------------------------------------------------
    def _insert(self, key: tuple, fragment: "Fragment", tracer: Tracer) -> None:
        """Insert one fragment into the LRU, evicting past capacity."""
        with self._lock:
            self._fragments[key] = fragment
            self._fragments.move_to_end(key)
            while len(self._fragments) > self.max_entries:
                self._fragments.popitem(last=False)
                tracer.incr("perf.schedule.evictions")

    # ------------------------------------------------------------------
    def _build_fragment(
        self,
        component: List[str],
        spec: SystemSpec,
        assoc: AssociationArray,
        clustering: ClusteringResult,
        arch: Architecture,
        priorities: Dict[str, Dict[str, float]],
        boot_time_fn,
        preemption: bool,
        tracer: Tracer,
        bound: Optional[tuple] = None,
        bound_base: int = 0,
    ) -> Fragment:
        request = ScheduleRequest(
            spec=spec,
            assoc=assoc,
            clustering=clustering,
            arch=arch,
            priorities=priorities,
            boot_time_fn=boot_time_fn,
            preemption=preemption,
            tracer=tracer,
            graphs=frozenset(component),
            context=self.context,
            bound=bound,
            bound_base=bound_base,
        )
        schedule = build_schedule(request)
        # The engine's context routes every request to the planned
        # scheduler, which emits both verdict by-products inline (same
        # insertion orders, same float accumulation -- see
        # build_schedule_planned).
        lateness = schedule.planned_lateness
        demand = schedule.planned_demand
        misses = 0
        for per_graph in lateness.values():
            for value in per_graph.values():
                if value > TIME_EPS:
                    misses += 1
        return Fragment(schedule, lateness, demand, misses)

    # ------------------------------------------------------------------
    @staticmethod
    def _merge(
        names: List[str],
        components: List[List[str]],
        fragments: List[Fragment],
        assoc: AssociationArray,
    ) -> Tuple[Schedule, DeadlineReport]:
        if len(fragments) == 1:
            schedule = fragments[0].schedule
        else:
            schedule = Schedule()
            for fragment in fragments:
                schedule.tasks.update(fragment.schedule.tasks)
                schedule.edges.update(fragment.schedule.edges)
                schedule.proc_timelines.update(fragment.schedule.proc_timelines)
                schedule.ppe_timelines.update(fragment.schedule.ppe_timelines)
                schedule.link_timelines.update(fragment.schedule.link_timelines)
                schedule.preemptions += fragment.schedule.preemptions

        report = DeadlineReport()
        by_graph: Dict[str, Fragment] = {}
        for component, fragment in zip(components, fragments):
            for name in component:
                by_graph[name] = fragment
        # Canonical order: evaluate_deadlines inserts lateness keys per
        # graph in spec order; downstream tie-breaks (repair offender
        # selection) depend on that insertion order.
        for name in names:
            report.lateness.update(by_graph[name].lateness[name])
        demand: Dict[str, float] = {}
        for fragment in fragments:
            demand.update(fragment.demand)
        capacity = assoc.hyperperiod
        for resource, load in sorted(demand.items()):
            utilization = load / capacity
            if utilization > _OVERLOAD_TOLERANCE:
                report.overloaded[resource] = utilization
        return schedule, report

    # ------------------------------------------------------------------
    def cache_info(self) -> Dict[str, int]:
        """Snapshot for diagnostics, ``--stats`` and tests.

        ``hits``/``misses`` count fragment lookups over the engine's
        lifetime; ``disk_hits`` is the subset of hits served by the
        persistent fragment tier (0 without a bound store).
        """
        with self._lock:
            return {
                "entries": len(self._fragments),
                "max_entries": self.max_entries,
                "hits": self._hits,
                "misses": self._misses,
                "disk_hits": self._disk_hits,
            }


def incremental_disabled_by_env() -> bool:
    """True when the environment kill switch is set (non-empty, not 0)."""
    value = os.environ.get(KILL_SWITCH_ENV, "")
    return value not in ("", "0")


def incremental_active(config) -> bool:
    """Whether the acceleration layers run under ``config``.

    ``config.incremental=False`` and ``REPRO_NO_INCREMENTAL=1`` both
    select the reference mode: no engine, no pruning, no bound aborts.
    """
    return bool(getattr(config, "incremental", True)) and not (
        incremental_disabled_by_env()
    )


def resolve_engine(config, engine: Optional[IncrementalEngine] = None):
    """The engine a ``crusade`` call should use, or None.

    Reference mode (see :func:`incremental_active`) forces the
    from-scratch path even when a caller donates an engine (the nested
    baseline synthesis shares its parent's).
    """
    if not incremental_active(config):
        return None
    if engine is not None:
        return engine
    return IncrementalEngine()
