"""Differential oracle tests: every timeline implementation, one
behaviour.

Three layers, all driving ``tests/sched/oracle.py``:

* deterministic regression cases -- most notably the epsilon-sliver
  ``occupy`` collision the old neighbor-only fast-path check bisected
  past (found by this very oracle);
* Hypothesis stateful machines fuzzing serial and mode timelines with
  values snapped near TIME_EPS multiples, so comparisons land exactly
  on the epsilon boundaries the inlined fast-path arithmetic must
  reproduce;
* replay of committed operation traces recorded from real synthesis
  runs (``REPRO_TIMELINE_TRACE``; see ``tests/sched/traces/``).

On failure Hypothesis prints a ``reproduce_failure`` blob
(``print_blob=True``) -- paste it onto the failing test to replay the
exact sequence locally; CI's ``timeline-identity`` job surfaces it in
the log.
"""

import pathlib

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

import repro.perf.treetimeline as treetimeline
from repro.perf.treetimeline import TreeTimeline
from repro.units import TIME_EPS
from tests.sched.oracle import (
    PpeDifferential,
    SerialDifferential,
    check_ppe,
    check_serial,
    replay_trace,
)

TRACE_DIR = pathlib.Path(__file__).parent / "traces"

# Times snapped to a coarse grid mixed with TIME_EPS-scale offsets:
# sums and differences land within an epsilon of each other, which is
# exactly where the inlined comparisons could drift from time_lt /
# time_leq if an implementation cut a corner.
_coarse = st.integers(min_value=0, max_value=40).map(lambda k: k * 0.25)
_eps_jitter = st.integers(min_value=-3, max_value=3).map(
    lambda k: k * TIME_EPS
)
eps_times = st.builds(lambda a, b: max(0.0, a + b), _coarse, _eps_jitter)
eps_durations = st.one_of(
    st.just(0.0),
    st.integers(min_value=0, max_value=3).map(lambda k: k * TIME_EPS),
    st.integers(min_value=1, max_value=12).map(lambda k: k * 0.25),
)


class SerialOracleMachine(RuleBasedStateMachine):
    """Fuzz all serial implementations in lock-step.

    Every rule funnels through :meth:`SerialDifferential.step`, which
    asserts identical outcomes *and* identical interval dumps after
    each operation -- the invariant needs no separate @invariant.
    """

    def __init__(self):
        """Fresh differential per example."""
        super().__init__()
        self.diff = SerialDifferential()
        self.occupied = 0

    @rule(start=eps_times, duration=eps_durations)
    def occupy_somewhere(self, start, duration):
        """Raw occupy at an arbitrary (possibly colliding) position."""
        self.diff.step(("occupy", start, duration, ("raw", self.occupied)))
        self.occupied += 1

    @rule(ready=eps_times, duration=eps_durations)
    def occupy_at_fit(self, ready, duration):
        """The scheduler's idiom: earliest_fit then occupy there --
        must always succeed identically."""
        outcome, value = self.diff.step(("earliest_fit", ready, duration))
        assert outcome == "ok"
        result = self.diff.step(
            ("occupy", value, duration, ("fit", self.occupied))
        )
        assert result[0] == "ok", "fit placement may never collide"
        self.occupied += 1

    @rule(ready=eps_times, duration=eps_durations)
    def query_fit(self, ready, duration):
        """Pure gap query."""
        self.diff.step(("earliest_fit", ready, duration))

    @rule(
        ready=eps_times,
        duration=eps_durations,
        overhead=st.sampled_from([0.0, TIME_EPS, 0.05, 0.25]),
        max_segments=st.integers(min_value=1, max_value=5),
    )
    def query_split(self, ready, duration, overhead, max_segments):
        """Restricted-preemption splitting sweep."""
        self.diff.step(("split_fit", ready, duration, overhead, max_segments))

    @rule(when=eps_times)
    def query_point(self, when):
        """Point queries and reductions."""
        self.diff.step(("running_at", when))
        self.diff.step(("free_until_after", when))
        self.diff.step(("busy_time",))
        self.diff.step(("span",))
        self.diff.step(("len",))


class PpeOracleMachine(RuleBasedStateMachine):
    """Fuzz all mode-timeline implementations in lock-step.

    ``place`` with multi-mode ``allowed`` maps exercises the
    reconfiguration-window logic: joins into existing windows,
    inserts paying boot time after a different-mode predecessor, and
    the reboot-gap guard before a different-mode successor.
    """

    def __init__(self):
        """Fresh differential per example."""
        super().__init__()
        self.diff = PpeDifferential()

    @rule(
        mode=st.integers(min_value=0, max_value=3),
        ready=eps_times,
        duration=eps_durations,
        boot=st.sampled_from([0.0, TIME_EPS, 0.125, 0.5]),
    )
    def place_single(self, mode, ready, duration, boot):
        """Single-mode placement (the common scheduler call)."""
        result = self.diff.step(("place", mode, ready, duration, boot, None))
        assert result[0] == "ok"

    @rule(
        ready=eps_times,
        duration=eps_durations,
        allowed=st.dictionaries(
            st.integers(min_value=0, max_value=3),
            st.sampled_from([0.0, 0.125, 0.5]),
            min_size=1,
            max_size=4,
        ),
    )
    def place_multi(self, ready, duration, allowed):
        """Multi-mode placement (cluster replicated across modes)."""
        mode = min(allowed)
        result = self.diff.step(
            ("place", mode, ready, duration, allowed[mode], allowed)
        )
        assert result[0] == "ok"

    @rule()
    def reductions(self):
        """Reboot accounting and span reductions."""
        self.diff.step(("busy_time",))
        self.diff.step(("span",))
        self.diff.step(("reconfigurations",))
        self.diff.step(("boot_time_total",))


_fuzz_settings = settings(
    max_examples=60,
    stateful_step_count=40,
    deadline=None,
    print_blob=True,
    suppress_health_check=[HealthCheck.too_slow],
)

TestSerialOracle = SerialOracleMachine.TestCase
TestSerialOracle.settings = _fuzz_settings
TestPpeOracle = PpeOracleMachine.TestCase
TestPpeOracle.settings = _fuzz_settings


@pytest.fixture(autouse=True)
def _small_blocks(monkeypatch):
    """Shrink the block size so short fuzz runs cross block splits."""
    monkeypatch.setattr(treetimeline, "_LOAD", 8)


class TestRegressions:
    """Deterministic cases the fuzzers once found (or nearly missed)."""

    def test_occupy_collision_behind_epsilon_sliver(self):
        """The latent fast-path edge: an interval inserted exactly at
        ``ready + TIME_EPS`` used to be bisected past during the
        collision check, letting a genuinely overlapping occupy
        through on the fast timeline while the linear reference
        raised.  All implementations must raise, with the reference's
        exact message."""
        ops = [
            ("occupy", 2 * TIME_EPS, 0.3, ("long",)),
            ("occupy", TIME_EPS, 0.0, ("sliver",)),
            # Collides with "long" (which hides past the sliver at the
            # bisected insertion index).
            ("occupy", TIME_EPS, 2 * TIME_EPS, ("collider",)),
        ]
        diff = check_serial(ops)
        outcome, message = diff.step(("len",))
        assert outcome == "ok" and message == 2
        # The linear reference rejected the collider; so must all.
        assert diff.step(("busy_time",))[0] == "ok"

    def test_collider_rejected_with_reference_message(self):
        """The collision error is part of the observable contract."""
        diff = SerialDifferential()
        diff.step(("occupy", 2 * TIME_EPS, 0.3, ("long",)))
        diff.step(("occupy", TIME_EPS, 0.0, ("sliver",)))
        outcome, message = diff.step(("occupy", TIME_EPS, 2 * TIME_EPS, ("c",)))
        assert outcome == "err"
        assert message.startswith("overlap:")

    def test_end_order_degradation_stays_identical(self):
        """An epsilon-sliver insert that breaks the end-sorted
        invariant must flip fast/tree timelines into their degraded
        linear fallback without an observable difference."""
        ops = [("occupy", float(i), 0.9, ("base", i)) for i in range(30)]
        # Zero-length sliver within epsilon of interval 5's start:
        # legal (no overlap) but end-order breaking.
        ops.append(("occupy", 5.0 + TIME_EPS, 0.0, ("sliver",)))
        ops.extend(
            ("earliest_fit", q, 0.5)
            for q in [0.0, 3.3, 5.0, 5.0 + TIME_EPS, 29.95, 100.0]
        )
        ops.append(("split_fit", 0.0, 3.0, 0.05, 4))
        check_serial(ops)

    def test_mode_window_reconfiguration_boundaries(self):
        """Reconfiguration windows at epsilon-adjacent boundaries:
        joins, different-mode inserts paying boot, and the
        reboot-gap guard before a following window."""
        ops = [
            ("place", 0, 0.0, 1.0, 0.5, None),
            ("place", 1, 0.0, 1.0, 0.5, None),        # must boot after
            ("place", 0, 0.5, 0.25, 0.5, None),       # join window 0
            ("place", 1, 1.5 + TIME_EPS, 0.5, 0.5, None),
            ("place", 2, 0.0, 0.125, 0.25, {0: 0.5, 2: 0.25}),
            ("reconfigurations",),
            ("boot_time_total",),
            ("busy_time",),
            ("span",),
        ]
        check_ppe(ops)

    def test_blocked_phase_spans_block_splits(self):
        """Enough in-order inserts to force several block splits; gap
        queries then walk across block boundaries."""
        ops = []
        for i in range(120):
            ops.append(("occupy", i * 1.0, 0.75, ("t", i)))
        ops.extend(("earliest_fit", q + 0.5, 0.25) for q in range(0, 120, 7))
        ops.append(("split_fit", 0.25, 2.0, 0.05, 6))
        diff = check_serial(ops)
        tree = diff.timelines["tree-eager"]
        assert type(tree).__name__ == "_BlockedTimeline"
        assert len(tree._bivs) > 3, "fuzz must actually cross block splits"


class TestResolveTimeline:
    """The timelines the engine path resolves to and schedules on."""

    def test_engine_context_builds_the_production_pair(self, monkeypatch):
        from repro.perf.fastsched import SchedulerContext
        from repro.perf.fasttimeline import FastPpeModeTimeline
        from repro.sched.tlrecord import TRACE_ENV

        monkeypatch.delenv(TRACE_ENV, raising=False)
        context = SchedulerContext()
        assert context.timeline_cls is TreeTimeline
        assert context.ppe_timeline_cls is FastPpeModeTimeline

    def test_eager_tree_converts_immediately(self):
        tl = TreeTimeline(convert_at=0)
        tl.occupy(0.0, 1.0, ("a",))
        assert type(tl).__name__ == "_BlockedTimeline"


class TestTraceReplay:
    """Committed real-workload traces replayed through the oracle."""

    @pytest.mark.parametrize(
        "trace", sorted(TRACE_DIR.glob("*.jsonl.gz")), ids=lambda p: p.stem
    )
    def test_recorded_trace(self, trace):
        n_serial, n_ppe = replay_trace(str(trace))
        assert n_serial > 0, "trace must exercise serial timelines"

    def test_traces_exist(self):
        """The committed NGXM capture must stay in the tree."""
        assert list(TRACE_DIR.glob("*.jsonl.gz")), (
            "no committed timeline traces under tests/sched/traces/"
        )
