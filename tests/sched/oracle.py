"""Differential timeline oracle: replay one op stream, compare all
implementations.

The repo's byte-identity contract says every timeline implementation
-- the naive linear :class:`~repro.sched.timeline.IntervalTimeline`
(the reference semantics), the bisect-indexed
:class:`~repro.perf.fasttimeline.FastTimeline`, and the blocked-index
:class:`~repro.perf.treetimeline.TreeTimeline` in each of its phases
-- must be observationally indistinguishable: same return values,
same exceptions (type *and* message, since error text reaches
reports), same interval/window dumps after every operation.

This module is the reusable harness behind that claim.  It replays an
explicit operation sequence against every registered implementation
simultaneously and asserts lock-step agreement after each step; the
stateful Hypothesis machines in ``test_timeline_oracle.py`` drive it
with randomized and epsilon-adversarial streams, and
:func:`replay_trace` feeds it operation streams recorded from real
synthesis runs (``REPRO_TIMELINE_TRACE``, see
:mod:`repro.sched.tlrecord`).

Operations are plain tuples, first element the op name, the rest its
arguments -- e.g. ``("occupy", 0.0, 1.0, ("task", 3))`` -- so traces,
fuzzers and regression cases all share one vocabulary:

* serial ops: ``occupy``, ``earliest_fit``, ``split_fit``,
  ``busy_time``, ``span``, ``running_at``, ``free_until_after``,
  ``len``;
* mode ops: ``place`` (mode, ready, duration, boot_time, allowed),
  ``busy_time``, ``span``, ``reconfigurations``, ``boot_time_total``.
"""

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import SchedulingError
from repro.perf.fasttimeline import FastPpeModeTimeline, FastTimeline
from repro.perf.treetimeline import TreeTimeline
from repro.sched.timeline import IntervalTimeline, PpeModeTimeline


def _tree_eager() -> TreeTimeline:
    return TreeTimeline(convert_at=0)


def _tree_small() -> TreeTimeline:
    # Converts after a handful of intervals: a short fuzz run still
    # exercises the flat phase, the conversion, and the blocked phase.
    return TreeTimeline(convert_at=12)


#: name -> zero-arg factory; every serial-timeline implementation the
#: oracle holds to identical behaviour.  ``linear`` is the reference.
SERIAL_FACTORIES: Dict[str, Callable[[], IntervalTimeline]] = {
    "linear": IntervalTimeline,
    "fast": FastTimeline,
    "tree-eager": _tree_eager,
    "tree-auto": _tree_small,
}

#: name -> zero-arg factory for the programmable-device timelines.
PPE_FACTORIES: Dict[str, Callable[[], PpeModeTimeline]] = {
    "linear": PpeModeTimeline,
    "fast": FastPpeModeTimeline,
}


def run_serial_op(tl, op: tuple):
    """One serial-timeline operation; ``("ok", value)`` or
    ``("err", message)``."""
    kind = op[0]
    try:
        if kind == "occupy":
            return ("ok", tl.occupy(op[1], op[2], op[3]))
        if kind == "earliest_fit":
            return ("ok", tl.earliest_fit(op[1], op[2]))
        if kind == "split_fit":
            return ("ok", tl.split_fit(*op[1:]))
        if kind == "busy_time":
            return ("ok", tl.busy_time())
        if kind == "span":
            return ("ok", tl.span())
        if kind == "running_at":
            hit = tl.running_at(op[1])
            return ("ok", None if hit is None else (hit.start, hit.end, hit.owner))
        if kind == "free_until_after":
            return ("ok", tl.free_until_after(op[1]))
        if kind == "len":
            return ("ok", len(tl))
    except SchedulingError as exc:
        return ("err", str(exc))
    raise AssertionError("unknown serial op %r" % (kind,))


def run_ppe_op(tl, op: tuple):
    """One mode-timeline operation; ``("ok", value)`` or
    ``("err", message)``."""
    kind = op[0]
    try:
        if kind == "place":
            return ("ok", tl.place(*op[1:]))
        if kind == "busy_time":
            return ("ok", tl.busy_time())
        if kind == "span":
            return ("ok", tl.span())
        if kind == "reconfigurations":
            return ("ok", tl.reconfigurations)
        if kind == "boot_time_total":
            return ("ok", tl.boot_time_total)
    except SchedulingError as exc:
        return ("err", str(exc))
    raise AssertionError("unknown ppe op %r" % (kind,))


def dump_serial(tl) -> List[Tuple[float, float, tuple]]:
    """Exact state of a serial timeline: (start, end, owner) rows."""
    return [(iv.start, iv.end, iv.owner) for iv in tl.intervals]


def dump_ppe(tl) -> List[Tuple[int, float, float, float]]:
    """Exact state of a mode timeline: (mode, start, end, boot) rows."""
    return [(w.mode, w.start, w.end, w.boot_time) for w in tl.windows]


class _Differential:
    """Lock-step executor over one implementation family."""

    def __init__(self, factories: Dict[str, Callable], run_op, dump) -> None:
        self.names = list(factories)
        self.timelines = {name: factories[name]() for name in self.names}
        self._run_op = run_op
        self._dump = dump
        self.history: List[tuple] = []

    def step(self, op: tuple):
        """Run ``op`` everywhere; assert identical outcome and state.

        Returns the reference outcome ``("ok", value)`` /
        ``("err", message)``.
        """
        self.history.append(op)
        outcomes = {
            name: self._run_op(self.timelines[name], op) for name in self.names
        }
        reference = outcomes[self.names[0]]
        for name in self.names[1:]:
            assert outcomes[name] == reference, (
                "op %r diverged: %s=%r, %s=%r\nhistory: %r"
                % (op, self.names[0], reference, name, outcomes[name],
                   self.history)
            )
        dumps = {
            name: self._dump(self.timelines[name]) for name in self.names
        }
        ref_dump = dumps[self.names[0]]
        for name in self.names[1:]:
            assert dumps[name] == ref_dump, (
                "state diverged after %r: %s=%r, %s=%r\nhistory: %r"
                % (op, self.names[0], ref_dump, name, dumps[name],
                   self.history)
            )
        return reference


class SerialDifferential(_Differential):
    """Lock-step serial timelines across every implementation."""

    def __init__(self, factories: Optional[Dict[str, Callable]] = None) -> None:
        """Fresh timelines from ``factories`` (default: all
        registered serial implementations)."""
        super().__init__(
            factories or SERIAL_FACTORIES, run_serial_op, dump_serial
        )


class PpeDifferential(_Differential):
    """Lock-step mode timelines across every implementation."""

    def __init__(self, factories: Optional[Dict[str, Callable]] = None) -> None:
        """Fresh timelines from ``factories`` (default: all
        registered PPE implementations)."""
        super().__init__(factories or PPE_FACTORIES, run_ppe_op, dump_ppe)


def check_serial(ops: Sequence[tuple]) -> SerialDifferential:
    """Replay ``ops`` through a :class:`SerialDifferential`; returns
    it (post-state inspection) after asserting lock-step agreement."""
    diff = SerialDifferential()
    for op in ops:
        diff.step(op)
    return diff


def check_ppe(ops: Sequence[tuple]) -> PpeDifferential:
    """Replay ``ops`` through a :class:`PpeDifferential`; returns it
    after asserting lock-step agreement."""
    diff = PpeDifferential()
    for op in ops:
        diff.step(op)
    return diff


def _detuple(value):
    """JSON round-trip recovery: lists back to tuples (owners)."""
    if isinstance(value, list):
        return tuple(_detuple(v) for v in value)
    return value


def replay_trace(path: str) -> Tuple[int, int]:
    """Replay a recorded operation trace (see
    :mod:`repro.sched.tlrecord`) differentially.

    Reconstructs the per-timeline operation streams from the JSONL
    events and replays each through the matching differential
    (serial or PPE), asserting lock-step agreement on every step.
    Returns (serial timeline count, ppe timeline count) replayed.
    """
    from repro.sched.tlrecord import load_trace

    events = load_trace(path)
    kinds: Dict[int, str] = {}
    diffs: Dict[int, _Differential] = {}
    n_serial = n_ppe = 0
    for event in events:
        if "new" in event:
            tl_id = event["new"]
            kinds[tl_id] = event["kind"]
            if event["kind"] == "serial":
                diffs[tl_id] = SerialDifferential()
                n_serial += 1
            else:
                diffs[tl_id] = PpeDifferential()
                n_ppe += 1
            continue
        if "t" not in event:
            continue  # header / future metadata
        tl_id = event["t"]
        args = event["a"]
        if event["op"] == "occupy":
            op = ("occupy", args[0], args[1], _detuple(args[2]))
        elif event["op"] == "place":
            allowed = args[4]
            if allowed is not None:
                allowed = {int(k): v for k, v in allowed.items()}
            op = ("place", args[0], args[1], args[2], args[3], allowed)
        else:
            op = (event["op"], *args)
        diffs[tl_id].step(op)
    return n_serial, n_ppe
