"""A span ledger wrapped around the program's public layer functions.

The ledger measures each layer from outside: :func:`install` replaces
the named functions and methods with wrappers that open a span on
entry and close it on exit, and :func:`uninstall` puts the originals
back.  Spans are aggregated as they close -- per span name a call
count, total (inclusive) seconds and self seconds (total minus the time
covered by child spans) -- and per (parent, child) pair a call count,
so the run can print a call tree without keeping every span.

A call nested directly in a span of the same name (a subclass method
calling ``super()``, ``build_schedule`` handing over to the planned
scheduler) is not counted again: ``calls`` counts layer entries.

Wrappers add a fixed cost per call, which is why the timed runs never
install the ledger; ``trace.overhead_frac`` reports what it costs.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Dict, List, Tuple

#: (span name, module, attribute path) for every wrapped layer entry.
#: Functions are replaced in their defining module and in every
#: ``repro`` module that imported them by name; methods on the class.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("alloc.array", "repro.alloc.array", "build_allocation_array"),
    ("alloc.evaluate", "repro.alloc.evaluate", "evaluate_architecture"),
    ("engine.evaluate", "repro.perf.engine", "IncrementalEngine.evaluate"),
    ("sched", "repro.sched.scheduler", "build_schedule"),
    ("sched", "repro.perf.fastsched", "build_schedule_planned"),
    ("timeline", "repro.perf.fasttimeline", "FastTimeline.earliest_fit"),
    ("timeline", "repro.perf.fasttimeline", "FastTimeline.occupy"),
    ("timeline", "repro.perf.fasttimeline", "FastTimeline.split_fit"),
    ("timeline", "repro.perf.fasttimeline", "FastTimeline.preempt_split"),
    ("timeline", "repro.perf.fasttimeline", "FastPpeModeTimeline.place"),
    ("timeline", "repro.perf.treetimeline", "TreeTimeline.occupy"),
    ("timeline", "repro.perf.treetimeline", "TreeTimeline.preempt_split"),
    ("timeline", "repro.perf.treetimeline", "_BlockedTimeline.earliest_fit"),
    ("timeline", "repro.perf.treetimeline", "_BlockedTimeline.occupy"),
    ("timeline", "repro.perf.treetimeline", "_BlockedTimeline.split_fit"),
    ("timeline", "repro.perf.treetimeline", "_BlockedTimeline.preempt_split"),
    ("prune", "repro.perf.prune", "CandidatePruner.bound"),
    ("prune", "repro.perf.prune", "RepairBound.badness_floor"),
    ("cow", "repro.alloc.evaluate", "apply_option_cow"),
    ("cow", "repro.perf.cow", "AppliedOption.revert"),
    ("priorities", "repro.cluster.priority", "compute_task_priorities"),
    ("priorities", "repro.cluster.priority", "recompute_priorities"),
    ("priorities", "repro.cluster.priority", "compute_edge_priorities"),
    ("fingerprint", "repro.perf.fingerprint", "partition_components"),
    ("fingerprint", "repro.perf.fingerprint", "component_fingerprint"),
    ("merge", "repro.reconfig.merge", "merge_reconfigurable_pes"),
    ("store.fragment.load", "repro.perf.store.disk",
     "SynthesisStore.load_fragment"),
    ("store.load_result", "repro.perf.store.disk", "SynthesisStore.load_result"),
)


class Ledger:
    """Aggregated spans of one traced region."""

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        #: name -> [calls, total seconds, self seconds]
        self.spans: Dict[str, List[float]] = {}
        #: (parent name, child name) -> calls
        self.edges: Dict[Tuple[str, str], int] = {}
        #: open spans: [name, seconds covered by children]
        self._stack: List[list] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------
    def wrap(self, name: str, fn):
        """``fn`` wrapped in a span called ``name``."""
        clock = self._clock
        stack = self._stack
        spans = self.spans
        edges = self.edges
        spans.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                record = spans[name]
                record[2] += elapsed - frame[1]
                if parent is None:
                    record[0] += 1
                    record[1] += elapsed
                    edges[("-", name)] = edges.get(("-", name), 0) + 1
                else:
                    parent[1] += elapsed
                    if parent[0] != name:
                        record[0] += 1
                        record[1] += elapsed
                        pair = (parent[0], name)
                        edges[pair] = edges.get(pair, 0) + 1

        span.__wrapped_by_ledger__ = fn
        return span

    def calls(self, name: str) -> int:
        return int(self.spans.get(name, (0, 0.0, 0.0))[0])

    def self_s(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[2]

    def total_s(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[1]

    def reset(self) -> None:
        """Forget the spans recorded so far (wrappers stay installed)."""
        for record in self.spans.values():
            record[:] = [0, 0.0, 0.0]
        self.edges.clear()

    # -- installation --------------------------------------------------
    def install(self, targets=TARGETS) -> "Ledger":
        """Wrap every target; returns ``self``."""
        for name, module_name, attr in targets:
            module = importlib.import_module(module_name)
            owner_name, _, fn_name = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[fn_name]
                self._patch(owner, fn_name, original, self.wrap(name, original))
                continue
            original = getattr(module, fn_name)
            wrapped = self.wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if not (mod_name == "repro" or mod_name.startswith("repro.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapped)
        return self

    def _patch(self, owner, key: str, original, wrapped) -> None:
        setattr(owner, key, wrapped)
        self._patches.append((owner, key, original))

    def uninstall(self) -> None:
        """Restore every wrapped function and method, including copies
        a module imported while the ledger was installed took by name."""
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)
        for mod_name, mod in list(sys.modules.items()):
            if not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                original = getattr(value, "__wrapped_by_ledger__", None)
                if original is not None:
                    setattr(mod, key, original)

    def __enter__(self) -> "Ledger":
        return self.install()

    def __exit__(self, *exc) -> bool:
        self.uninstall()
        return False

    # -- reporting -----------------------------------------------------
    def render(self) -> str:
        """The aggregated call tree as text (for stderr)."""
        lines = ["%-22s %9s %10s %10s" % ("span", "calls", "total_s", "self_s")]
        for name in sorted(self.spans, key=lambda n: -self.spans[n][2]):
            calls, total, own = self.spans[name]
            if calls:
                lines.append("%-22s %9d %10.4f %10.4f" % (name, calls, total, own))
        lines.append("callers (parent -> child: calls):")
        for (parent, child), calls in sorted(self.edges.items()):
            lines.append("  %s -> %s: %d" % (parent, child, calls))
        return "\n".join(lines)


def import_layers() -> None:
    """Import every module the ledger or the program binds lazily, so
    :meth:`Ledger.install` finds all by-name references."""
    import repro  # noqa: F401

    for module_name in sorted({module for _, module, _ in TARGETS}) + [
        "repro.core.stages.allocation",
        "repro.core.stages.repair",
        "repro.core.stages.modemerge",
        "repro.core.stages.pipeline",
        "repro.perf.warmstart",
    ]:
        importlib.import_module(module_name)
