"""SupervisedWorker: one state machine, typed outcomes.

Each scenario runs against real forked pipe workers -- the
crash/timeout/error verdicts asserted here were produced by actual
process deaths, hangs and tracebacks.
"""

from __future__ import annotations

import pytest

from repro.exec import (
    CRASH,
    CRASH_DETAIL,
    ERROR,
    OK,
    SupervisedWorker,
    TIMEOUT,
    TIMEOUT_DETAIL,
    make_job_transport,
)
from repro.obs.trace import Tracer

from tests.exec.test_transport import JOB_TARGET, selftest_job

def test_clean_attempt_is_ok_with_the_result():
    worker = SupervisedWorker(make_job_transport(JOB_TARGET))
    try:
        outcome = worker.attempt("j1", 1, selftest_job("j1"), timeout_s=60.0)
        assert outcome.ok and outcome.kind == OK
        assert outcome.value["echo"] == "ping"
        assert worker.jobs_done == 1 and worker.restarts == 0
    finally:
        worker.stop()


def test_crash_is_typed_and_the_worker_respawned():
    tracer = Tracer()
    worker = SupervisedWorker(make_job_transport(JOB_TARGET), tracer=tracer)
    try:
        outcome = worker.attempt(
            "j1", 1, selftest_job("j1", inject={"crash_attempts": 1}),
            timeout_s=60.0,
        )
        assert outcome.kind == CRASH and outcome.value == CRASH_DETAIL
        assert worker.restarts == 1 and worker.alive
        # The respawned worker is immediately usable.
        again = worker.attempt("j2", 1, selftest_job("j2"), timeout_s=60.0)
        assert again.ok
        counters = tracer.counters.as_dict()
        assert counters["exec.workers.restarts"] == 1
        assert counters["exec.workers.spawned"] >= 1
    finally:
        worker.stop()


def test_error_is_typed_with_the_traceback():
    worker = SupervisedWorker(make_job_transport(JOB_TARGET))
    try:
        outcome = worker.attempt(
            "j1", 1, selftest_job("j1", inject={"error_attempts": 1}),
            timeout_s=60.0,
        )
        assert outcome.kind == ERROR
        assert "injected failure" in outcome.value
        assert worker.alive  # an error is the job's fault, not the worker's
    finally:
        worker.stop()


def test_timeout_kills_the_hung_worker_and_is_typed():
    worker = SupervisedWorker(make_job_transport(JOB_TARGET))
    try:
        outcome = worker.attempt(
            "j1", 1,
            selftest_job("j1", inject={
                "hang_attempts": 1, "hang_seconds": 60.0,
            }),
            timeout_s=1.0,
        )
        assert outcome.kind == TIMEOUT and outcome.value == TIMEOUT_DETAIL
        assert worker.restarts == 1 and worker.alive
    finally:
        worker.stop()


def test_submit_poll_is_the_nonblocking_face():
    import time

    worker = SupervisedWorker(make_job_transport(JOB_TARGET))
    try:
        worker.spawn()
        worker.submit("j1", 1, selftest_job("j1"))
        assert worker.busy
        deadline = time.monotonic() + 30.0
        outcome = None
        while outcome is None and time.monotonic() < deadline:
            outcome = worker.poll(time.monotonic())
            time.sleep(0.01)
        assert outcome is not None and outcome.ok
        assert not worker.busy
    finally:
        worker.stop()


def test_double_submit_is_refused():
    worker = SupervisedWorker(make_job_transport(JOB_TARGET))
    try:
        worker.spawn()
        worker.submit("j1", 1, selftest_job("j1"))
        with pytest.raises(RuntimeError):
            worker.submit("j2", 1, selftest_job("j2"))
    finally:
        worker.stop()


def test_describe_reports_supervision_state():
    worker = SupervisedWorker(make_job_transport(JOB_TARGET))
    try:
        info = worker.describe()
        assert info["alive"] is False and info["pid"] is None
        assert info["restarts"] == 0 and info["jobs_done"] == 0
        assert info["busy"] is False
    finally:
        worker.stop()
