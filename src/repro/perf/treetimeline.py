"""Blocked-index timelines for long, fragmented schedules.

:class:`repro.perf.fasttimeline.FastTimeline` bisects its hot queries
but still stores intervals in flat Python lists, so every ``occupy``
pays an O(n) ``list.insert`` memmove across three parallel arrays.
At the scales the paper's largest telecom examples produce (NGXM at
full scale schedules 7416 tasks; per-resource timelines grow into the
thousands of intervals, rebuilt across millions of candidate
evaluations) those memmoves turn the build-up of each timeline
quadratic.

:class:`TreeTimeline` replaces the flat arrays with a **blocked
index** -- the shallow-B-tree layout sorted-container libraries use: a
list of bounded-size blocks, each holding intervals plus parallel
start/end key arrays, under two top-level arrays of per-block maximum
keys.  Every query double-bisects (block, then offset) in O(log n)
and every insert memmoves at most one block, while in-order walks
chain blocks with zero per-item overhead.  On scheduler-shaped
operation streams the measured crossover against the flat lists sits
near 1000 intervals (1.2x at 4000, 1.5x at 8000, 2.2x at 16000).

Short timelines must pay **nothing**, so the conversion is a class
swap rather than a per-call mode check: a :class:`TreeTimeline`
starts as a :class:`FastTimeline` whose only override is ``occupy``
(the flat fast body plus a length check), and crossing
:attr:`~TreeTimeline.convert_at` intervals rebinds ``__class__`` to
the blocked implementation, whose methods are direct -- no
flat-or-blocked branching on either side of the threshold.

Byte-identity is preserved by construction: below the threshold the
timeline *is* the flat implementation, and every blocked algorithm
performs the *same float comparisons in the same order* as its flat
counterpart (which the equivalence suite already pins to the naive
linear semantics).  The degraded-mode escape hatch survives the
conversion: an epsilon-sliver insert that breaks the end-sorted
invariant flattens the blocks back and flips the timeline into
:class:`FastTimeline`'s degraded linear mode.  The differential
oracle (``tests/sched/oracle.py``) replays randomized, adversarial
and trace-recorded operation streams against all implementations
simultaneously to enforce exactly this.

Programmable devices keep
:class:`~repro.perf.fasttimeline.FastPpeModeTimeline`'s bisected flat
layout: mode-window lists stay two orders of magnitude shorter than
interval timelines (64 windows max across 1.4 million placements at
NGXM@0.1, because same-mode tasks join existing windows instead of
inserting), so a blocked index would tax every placement and recoup
nothing.

The engine's scheduler context builds every serial-resource timeline
as a :class:`TreeTimeline` converting past
:data:`DEFAULT_CONVERT_AT`; ``convert_at=0`` (blocked from the first
interval) exists for the differential oracle.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import List, Optional, Tuple

from repro.errors import SchedulingError
from repro.sched.timeline import BusyInterval
from repro.perf.fasttimeline import FastTimeline
from repro.units import TIME_EPS

#: Interval count past which a :class:`TreeTimeline` converts to the
#: blocked index.  Below this the flat memmove (a C memcpy of a few
#: KB) is cheaper than block bookkeeping; the measured crossover on
#: scheduler-shaped op streams sits near 1000 intervals, with the
#: blocked index pulling clearly ahead past ~2000 (1.5x at 8000).
DEFAULT_CONVERT_AT = 1024

#: Target block size after a split; blocks split at twice this.
_LOAD = 128


class TreeTimeline(FastTimeline):
    """Length-switched :class:`~repro.sched.timeline.Timeline`.

    Starts life as a :class:`FastTimeline` -- every method except
    ``occupy`` is the inherited flat implementation, untouched -- and
    converts to the blocked index (:class:`_BlockedTimeline`, via a
    ``__class__`` swap) when the interval count crosses
    ``convert_at``; 0 means blocked from the first interval.  All
    placements are bit-for-bit the flat implementation's; see the
    module docstring.
    """

    def __init__(self, convert_at: Optional[int] = None) -> None:
        """Empty timeline converting to blocks at ``convert_at``
        intervals (default :data:`DEFAULT_CONVERT_AT`)."""
        super().__init__()
        self.convert_at = (
            DEFAULT_CONVERT_AT if convert_at is None else convert_at
        )
        #: Blocked-index state, unused until conversion: parallel
        #: per-block arrays (intervals / start keys / end keys), the
        #: per-block last-key arrays the top-level bisects run on, and
        #: the interval count.
        self._n = 0
        self._bivs: List[List[BusyInterval]] = []
        self._bsts: List[List[float]] = []
        self._bens: List[List[float]] = []
        self._last_start: List[float] = []
        self._last_end: List[float] = []

    # ------------------------------------------------------------------
    def _convert(self) -> None:
        """Chunk the flat arrays into blocks and swap to the blocked
        class (requires the end-sorted invariant, i.e. not degraded)."""
        ivs, sts, ens = self._intervals, self._starts, self._ends
        self._n = len(ivs)
        self._bivs = [ivs[i:i + _LOAD] for i in range(0, len(ivs), _LOAD)] or [[]]
        self._bsts = [sts[i:i + _LOAD] for i in range(0, len(sts), _LOAD)] or [[]]
        self._bens = [ens[i:i + _LOAD] for i in range(0, len(ens), _LOAD)] or [[]]
        self._last_start = [b[-1] if b else float("-inf") for b in self._bsts]
        self._last_end = [b[-1] if b else float("-inf") for b in self._bens]
        self._intervals = []
        self._starts = []
        self._ends = []
        self.__class__ = _BlockedTimeline

    # ------------------------------------------------------------------
    def occupy(
        self, start: float, duration: float, owner: tuple
    ) -> Tuple[float, float]:
        """Flat-phase insert -- :class:`FastTimeline`'s exact body --
        converting to the blocked index past ``convert_at``."""
        if self._degraded:
            return super().occupy(start, duration, owner)
        result = super().occupy(start, duration, owner)
        if not self._degraded and len(self._intervals) >= self.convert_at:
            self._convert()
        return result

    def preempt_split(
        self,
        victim: BusyInterval,
        preempt_at: float,
        inserted_duration: float,
        overhead: float,
        new_owner: tuple,
    ) -> Tuple[Tuple[float, float], float]:
        """Preempt ``victim`` (cold path): the flat implementation,
        plus the conversion check."""
        result = super().preempt_split(
            victim, preempt_at, inserted_duration, overhead, new_owner
        )
        if not self._degraded and len(self._intervals) >= self.convert_at:
            self._convert()
        return result


class _BlockedTimeline(TreeTimeline):
    """The blocked phase of a :class:`TreeTimeline`.

    Never constructed directly -- instances *become* this class when
    :meth:`TreeTimeline._convert` rebinds ``__class__``, and revert to
    :class:`TreeTimeline` when :meth:`_flatten` does (degradation and
    the rare preemption rebuild).  Blocked instances are never
    degraded: every invariant-breaking mutation flattens first, so the
    methods here branch on nothing.
    """

    # -- representation management -------------------------------------
    def _flatten(self) -> None:
        """Rebuild the flat arrays from the blocks and swap back to
        the flat class."""
        self._intervals = [iv for block in self._bivs for iv in block]
        self._starts = [s for block in self._bsts for s in block]
        self._ends = [e for block in self._bens for e in block]
        self._bivs = []
        self._bsts = []
        self._bens = []
        self._last_start = []
        self._last_end = []
        self._n = 0
        self.__class__ = TreeTimeline

    def _split_block(self, b: int) -> None:
        half = len(self._bivs[b]) // 2
        self._bivs.insert(b + 1, self._bivs[b][half:])
        self._bsts.insert(b + 1, self._bsts[b][half:])
        self._bens.insert(b + 1, self._bens[b][half:])
        del self._bivs[b][half:]
        del self._bsts[b][half:]
        del self._bens[b][half:]
        # The old block's last keys already sit at position b -- they
        # now describe the new block b+1 (the old tail); insert the
        # shrunken block b's keys before them.
        self._last_start.insert(b, self._bsts[b][-1])
        self._last_end.insert(b, self._bens[b][-1])

    # -- read side ------------------------------------------------------
    def __len__(self) -> int:
        """Number of busy intervals."""
        return self._n

    @property
    def intervals(self) -> List[BusyInterval]:
        """Busy intervals in time order (materialized; do not mutate)."""
        return [iv for block in self._bivs for iv in block]

    def busy_time(self) -> float:
        """Total occupied time (the flat walk's summation order)."""
        return sum(iv.end - iv.start for block in self._bivs for iv in block)

    def span(self) -> Tuple[float, float]:
        """(first start, last end), or (0, 0) when empty."""
        if not self._n:
            return (0.0, 0.0)
        return (self._bivs[0][0].start, max(self._last_end))

    def running_at(self, when: float) -> Optional[BusyInterval]:
        """The interval covering ``when``, if any (linear semantics)."""
        for block in self._bivs:
            for interval in block:
                if interval.start <= when + TIME_EPS and when < interval.end - TIME_EPS:
                    return interval
                if interval.start > when:
                    return None
        return None

    def free_until_after(self, when: float) -> float:
        """First moment at or after ``when`` with nothing running."""
        moment = when
        for block in self._bivs:
            for interval in block:
                if interval.end <= moment + TIME_EPS:
                    continue
                if moment < interval.start - TIME_EPS:
                    return moment
                moment = interval.end
        return moment

    # -- hot path ------------------------------------------------------
    def earliest_fit(self, ready: float, duration: float) -> float:
        """Earliest start >= ``ready`` with ``duration`` free; double
        bisect past every interval ending at or before ``ready``."""
        if duration < 0:
            raise SchedulingError("duration must be non-negative")
        candidate = ready
        key = candidate + TIME_EPS
        bivs = self._bivs
        bens = self._bens
        b0 = bisect_right(self._last_end, key)
        for b in range(b0, len(bivs)):
            ends = bens[b]
            items = bivs[b]
            for i in range(bisect_right(ends, key) if b == b0 else 0,
                           len(items)):
                end = ends[i]
                if end <= candidate + TIME_EPS:  # time_leq(end, candidate)
                    continue
                start = items[i].start
                # time_leq(candidate + duration, start)
                if candidate + duration <= start + TIME_EPS:
                    return candidate
                if end > candidate:
                    candidate = end
        return candidate

    def occupy(
        self, start: float, duration: float, owner: tuple
    ) -> Tuple[float, float]:
        """Insert a busy interval into its block (memmove bounded by
        the block size), keeping every index array sorted."""
        end = start + duration
        last_start = self._last_start
        bsts = self._bsts
        bens = self._bens
        bivs = self._bivs
        nb = len(bivs)
        # Global bisect_right on starts, as (block, offset): all
        # blocks whose last start is <= start precede the insertion.
        b = bisect_right(last_start, start)
        if b == nb:
            b = nb - 1
            i = len(bsts[b])
        else:
            i = bisect_right(bsts[b], start)
        # Collision window, exactly as the flat fast path: any
        # collider has other.end > start and other.start < end, so it
        # lies in [bisect_right(ends, start), bisect_left(starts, end))
        # -- walked here in (block, offset) form, in index order, so
        # the first collider raises the linear scan's exact error.
        cb = bisect_right(self._last_end, start)
        ci = bisect_right(bens[cb], start) if cb < nb else 0
        while cb < nb:
            block = bivs[cb]
            if ci >= len(block):
                cb += 1
                ci = 0
                continue
            other = block[ci]
            if other.start >= end:  # reached bisect_left(starts, end)
                break
            # time_lt(start, other.end) and time_lt(other.start, end)
            if start < other.end - TIME_EPS and other.start < end - TIME_EPS:
                raise SchedulingError(
                    "overlap: [%g, %g) collides with [%g, %g) owned by %r"
                    % (start, end, other.start, other.end, other.owner)
                )
            ci += 1
        # End-order (degradation) check against the global neighbors,
        # same comparisons as the flat inlined insert.
        prev_end = None
        if i > 0:
            prev_end = bens[b][i - 1]
        elif b > 0:
            prev_end = self._last_end[b - 1]
        next_end = None
        if i < len(bens[b]):
            next_end = bens[b][i]
        elif b + 1 < nb:
            next_end = bens[b + 1][0]
        if (prev_end is not None and prev_end > end) or (
            next_end is not None and end > next_end
        ):
            # Epsilon-sliver placement broke the end order: flatten,
            # degrade to the linear algorithms, and insert at the same
            # global position the flat path would have used.
            self._flatten()
            self._degraded = True
            index = bisect_right(self._starts, start)
            self._intervals.insert(
                index, BusyInterval(start=start, end=end, owner=owner)
            )
            self._starts.insert(index, start)
            self._ends.insert(index, end)
            return start, end
        bivs[b].insert(i, BusyInterval(start=start, end=end, owner=owner))
        bsts[b].insert(i, start)
        bens[b].insert(i, end)
        self._n += 1
        if i == len(bsts[b]) - 1:
            last_start[b] = start
            self._last_end[b] = end
        if len(bivs[b]) >= 2 * _LOAD:
            self._split_block(b)
        return start, end

    def split_fit(
        self,
        ready: float,
        duration: float,
        overhead: float,
        max_segments: int = 4,
    ) -> Optional[List[Tuple[float, float]]]:
        """Fit ``duration`` across free gaps (restricted preemption);
        the flat walk re-expressed over a (block, offset) cursor."""
        if duration < 0 or overhead < 0:
            raise SchedulingError("durations must be non-negative")
        segments: List[Tuple[float, float]] = []
        remaining = duration
        cursor = ready
        bivs = self._bivs
        bens = self._bens
        nb = len(bivs)
        key = ready + TIME_EPS
        b = bisect_right(self._last_end, key)
        i = bisect_right(bens[b], key) if b < nb else 0
        while remaining > TIME_EPS and len(segments) < max_segments:
            # Advance past busy intervals ending at or before cursor.
            while b < nb:
                if i >= len(bivs[b]):
                    b += 1
                    i = 0
                    continue
                if bens[b][i] <= cursor + TIME_EPS:
                    i += 1
                    continue
                break
            current = bivs[b][i] if b < nb else None
            if current is not None and current.start <= cursor + TIME_EPS:
                cursor = current.end
                continue
            gap_end = current.start if current is not None else float("inf")
            cost = remaining + (overhead if segments else 0.0)
            available = gap_end - cursor
            if cost <= available + TIME_EPS:  # time_leq(cost, available)
                segments.append((cursor, cursor + cost))
                remaining = 0.0
                break
            useful = available - (overhead if segments else 0.0)
            if useful > TIME_EPS:
                segments.append((cursor, gap_end))
                remaining -= useful
            cursor = gap_end
        if remaining > TIME_EPS:
            return None
        return segments

    def preempt_split(
        self,
        victim: BusyInterval,
        preempt_at: float,
        inserted_duration: float,
        overhead: float,
        new_owner: tuple,
    ) -> Tuple[Tuple[float, float], float]:
        """Preempt ``victim`` (cold path): flatten, delegate to the
        exact flat implementation, re-block if still warranted."""
        self._flatten()
        return self.preempt_split(
            victim, preempt_at, inserted_duration, overhead, new_owner
        )
