"""Repair stage: bounded re-allocation of deadline-missing clusters.

The fast inner loop verifies only resource-coupled graphs, so
transitive interference may surface only at the full check; this stage
repairs by re-homing the clusters of late tasks (a bounded
re-allocation pass -- the heuristic still cannot guarantee
optimality).
"""

from __future__ import annotations

import logging
from dataclasses import replace
from typing import Dict, List, Optional

from repro.errors import AllocationError
from repro.cluster.clustering import ClusteringResult
from repro.core.config import CrusadeConfig
from repro.core.stages.base import Stage
from repro.core.stages.context import SynthesisContext
from repro.core.stages.support import (
    allocation_aware_context,
    compute_priorities,
)
from repro.graph.association import AssociationArray
from repro.graph.spec import SystemSpec
from repro.obs.trace import Tracer
from repro.perf.engine import IncrementalEngine
from repro.perf.prune import RepairBound, bound_abort_active, pruning_active
from repro.sched.scheduler import ScheduleAbort
from repro.alloc.array import build_allocation_array
from repro.alloc.evaluate import (
    EvalResult,
    apply_option,
    apply_option_cow,
    evaluate_architecture,
)

_log = logging.getLogger("repro.crusade")


def repair_pass(
    spec: SystemSpec,
    assoc: AssociationArray,
    clustering: ClusteringResult,
    current: EvalResult,
    priorities: Dict[str, Dict[str, float]],
    compat,
    config: CrusadeConfig,
    tracer: Tracer,
    max_rounds: int = 8,
    candidates_per_round: int = 5,
    engine: Optional[IncrementalEngine] = None,
) -> EvalResult:
    """Re-home clusters of deadline-missing tasks until feasible or
    out of rounds.

    Each round takes the latest full evaluation's worst offenders,
    deallocates each offender's cluster on a cloned architecture, and
    retries its allocation array under *full* (not subset) evaluation;
    the first strictly-badness-reducing placement wins.  With the
    incremental engine, each re-homing is applied as a copy-on-write
    overlay on the stripped architecture (cloned only when kept) and
    its evaluation reuses cached component fragments -- repair moves
    one cluster at a time, so almost every component is a cache hit.

    With pruning active, each re-homing's full-scope badness floor
    (:class:`~repro.perf.prune.RepairBound`) is checked first: a
    candidate whose floor is already >= the incumbent's badness can
    neither be feasible (its floor then has >= 1 miss/overload) nor
    strictly improve, so it is skipped without scheduling.
    """
    repair_bound = (
        RepairBound(spec, assoc, clustering) if pruning_active(config) else None
    )
    bounding = bound_abort_active(config)

    def abort_bound(round_best: Optional[EvalResult]) -> Optional[tuple]:
        """Badness an evaluation may abort against: the tightest
        incumbent the keep rule compares with.  A kept re-homing must
        beat *both* ``current`` and ``round_best`` (or meet every
        deadline, impossible with > bound[0] >= 1 violations), so an
        abort against their minimum is pure dominance."""
        if not bounding:
            return None
        tightest = current.badness()
        if round_best is not None:
            challenger = round_best.badness()
            if challenger < tightest:
                tightest = challenger
        return tightest

    for _ in range(max_rounds):
        if current.report.all_met:
            break
        tracer.incr("repair.rounds")
        late_keys = sorted(
            (k for k, v in current.report.lateness.items() if v > 1e-12),
            key=lambda k: -current.report.lateness[k],
        )
        offender_clusters: List[str] = []

        def add_offender(graph_name: str, task_name: str) -> None:
            """Queue the task's cluster for re-homing (once)."""
            cluster = clustering.cluster_of(graph_name, task_name)
            if cluster.name not in offender_clusters:
                offender_clusters.append(cluster.name)

        for key in late_keys:
            graph_name, copy_index, task_name = key
            # The late task's own cluster, then the critical chain
            # upstream: predecessors whose data arrival dominated the
            # task's start are the actual bottleneck.
            add_offender(graph_name, task_name)
            graph = spec.graph(graph_name)
            walker = task_name
            for _ in range(3):
                preds = graph.predecessors(walker)
                if not preds:
                    break
                walker = max(
                    preds,
                    key=lambda p: current.schedule.finish_of(
                        (graph_name, copy_index, p)
                    ),
                )
                add_offender(graph_name, walker)
            if len(offender_clusters) >= candidates_per_round:
                break
        # Oversubscribed resources (utilization > 1 over the
        # hyperperiod) may carry no late *explicit* copy; shed load by
        # re-homing their busiest clusters of the fastest graphs.
        for resource in sorted(current.report.overloaded):
            residents = [
                name
                for name, (pe_id, _) in current.arch.cluster_alloc.items()
                if pe_id == resource
            ]
            residents.sort(
                key=lambda name: (
                    spec.graph(clustering.clusters[name].graph).period,
                    -clustering.clusters[name].size,
                    name,
                )
            )
            for name in residents:
                if name not in offender_clusters:
                    offender_clusters.append(name)
                if len(offender_clusters) >= 2 * candidates_per_round:
                    break
        round_best: Optional[EvalResult] = None
        solved = False
        for cluster_name in offender_clusters:
            cluster = clustering.clusters[cluster_name]
            stripped = current.arch.clone()
            old_pe, _ = stripped.deallocate_cluster(
                cluster_name,
                gates=cluster.area_gates,
                pins=cluster.pins,
                memory=cluster.memory,
            )
            if not stripped.pe(old_pe).cluster_modes:
                stripped.remove_pe(old_pe)
            options = build_allocation_array(
                cluster,
                stripped,
                clustering,
                spec,
                config.delay_policy,
                compat=compat,
                max_existing_options=config.max_existing_options,
                allow_new_modes=config.reconfiguration,
                tracer=tracer,
            )
            for option in options:
                tracer.incr("repair.rehomings_tried")
                handle = None
                if engine is not None:
                    try:
                        handle = apply_option_cow(
                            option, stripped, cluster, clustering, spec,
                            "fastest",
                        )
                    except AllocationError:
                        continue
                    tracer.incr("perf.cow.applies")
                    trial = stripped
                else:
                    trial = stripped.clone()
                    try:
                        apply_option(
                            option, trial, cluster, clustering, spec, "fastest"
                        )
                    except AllocationError:
                        continue
                try:
                    if repair_bound is not None:
                        floor = repair_bound.badness_floor(trial)
                        if floor >= current.badness():
                            tracer.incr("prune.cut")
                            tracer.incr("prune.cut.repair")
                            continue
                        tracer.incr("prune.kept")
                        tracer.incr("prune.kept.repair")
                    try:
                        verdict = evaluate_architecture(
                            spec,
                            assoc,
                            clustering,
                            trial,
                            priorities,
                            preemption=config.preemption,
                            tracer=tracer,
                            engine=engine,
                            bound=abort_bound(round_best),
                        )
                    except ScheduleAbort as abort:
                        tracer.incr("sched.abort")
                        tracer.incr("sched.abort." + abort.reason)
                        continue
                    # Materialize a copy-on-write applied state only
                    # for verdicts the selection below will keep.
                    if handle is not None and (
                        verdict.report.all_met
                        or (
                            verdict.badness() < current.badness()
                            and (
                                round_best is None
                                or verdict.badness() < round_best.badness()
                            )
                        )
                    ):
                        verdict = replace(verdict, arch=stripped.clone())
                finally:
                    if handle is not None:
                        handle.revert()
                        tracer.incr("perf.cow.reverts")
                if verdict.report.all_met:
                    current = verdict
                    solved = True
                    tracer.incr("repair.rehomings_kept")
                    tracer.event(
                        "repair.solved", cluster=cluster_name,
                        placement=option.describe(),
                    )
                    break
                if verdict.badness() < current.badness() and (
                    round_best is None or verdict.badness() < round_best.badness()
                ):
                    round_best = verdict
            if solved:
                break
        if solved:
            break
        if round_best is None:
            break
        tracer.incr("repair.rehomings_kept")
        current = round_best
    return current


class Repair(Stage):
    """Re-home late clusters when the full check missed deadlines."""

    name = "repair"

    def should_run(self, ctx: SynthesisContext) -> bool:
        """Only when the full check found missed deadlines."""
        return not ctx.full.report.all_met

    def run(self, ctx: SynthesisContext) -> None:
        """Run the repair pass and adopt whatever it ends up with."""
        ctx.full = repair_pass(
            ctx.spec, ctx.assoc, ctx.clustering, ctx.full, ctx.priorities,
            ctx.compat, ctx.config, ctx.tracer, engine=ctx.engine,
        )
        ctx.best = ctx.full
        ctx.arch = ctx.full.arch
        context = allocation_aware_context(ctx.library, ctx.arch,
                                           ctx.clustering)
        ctx.priorities = compute_priorities(ctx.spec, context)
        ctx.allocation_feasible = ctx.full.report.all_met
