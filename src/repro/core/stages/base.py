"""Stage protocol and the stage runner.

A stage is one named step of the synthesis pipeline: it reads and
writes its slice of the shared :class:`~repro.core.stages.context.
SynthesisContext` and nothing else.  The runner owns the cross-cutting
wiring every stage gets uniformly -- the ``tracer.phase`` timing
window and the ``stage.<name>.runs`` / ``stage.<name>.skipped``
counters -- so individual stages contain only phase logic.

Field ownership (who writes what):

========================  =============================================
stage                     context fields written
========================  =============================================
``Preprocess``            ``warnings``, ``assoc``, ``pessimistic``,
                          ``compat``
``Clustering``            ``clustering`` (skipped when donated)
``Allocation``            ``arch``, ``priorities``, ``fast``,
                          ``prune_on``, ``allocation_feasible``,
                          ``allocation_aware``
``FullCheck``             ``full``, ``best``
``Repair``                ``full``, ``best``, ``arch``, ``priorities``,
                          ``allocation_feasible``
``ModeMerge``             ``best``, ``arch``, ``interface``,
                          ``merge_stats``, ``baseline``
``InterfaceSynthesis``    ``best``, ``interface``
``Finalize``              ``result``
========================  =============================================
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.core.stages.context import SynthesisContext


class Stage:
    """One named step of the synthesis pipeline."""

    #: Stage name (also the default tracer phase name).
    name: str = "stage"

    @property
    def phase_name(self) -> Optional[str]:
        """Tracer phase to run under; ``None`` opts out of timing
        (only ``Finalize``, which snapshots the timers itself)."""
        return self.name

    def should_run(self, ctx: SynthesisContext) -> bool:
        """Whether this stage applies to the run (default: always)."""
        return True

    def run(self, ctx: SynthesisContext) -> None:
        """Execute the stage against the shared context."""
        raise NotImplementedError


def run_stages(
    ctx: SynthesisContext, stages: Iterable[Stage]
) -> SynthesisContext:
    """Run ``stages`` in order against ``ctx`` (the stage runner).

    Every executed stage is timed under its phase name and counted as
    ``stage.<name>.runs``; stages whose :meth:`~Stage.should_run`
    declines are counted as ``stage.<name>.skipped`` and never entered,
    so phase timers only ever contain stages that actually did work.
    """
    for stage in stages:
        if not stage.should_run(ctx):
            ctx.tracer.incr("stage.%s.skipped" % stage.name)
            continue
        ctx.tracer.incr("stage.%s.runs" % stage.name)
        phase = stage.phase_name
        if phase is None:
            stage.run(ctx)
        else:
            with ctx.tracer.phase(phase):
                stage.run(ctx)
    return ctx
