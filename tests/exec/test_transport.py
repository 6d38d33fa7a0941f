"""Pipe worker contract tests: escalation and lifecycle.

This file owns THE SIGTERM -> SIGKILL escalation suite: every layer's
kill delegates to :func:`repro.exec.transport.terminate_process`, so a
wedged SIGTERM-masking worker is exercised here once instead of once
per pool.
"""

from __future__ import annotations

import time

import pytest

from repro.campaign.jobs import Job
from repro.exec import transport as transport_mod
from repro.exec import (
    PipeTransport,
    TransportDead,
    job_worker_main,
    make_job_transport,
)

JOB_TARGET = "repro.campaign.jobs:execute_job"


def selftest_job(job_id, inject=None, value="ping"):
    """A selftest job payload, optionally fault-injected."""
    params = {"value": value}
    if inject:
        params["inject"] = inject
    return Job(
        id=job_id, kind="selftest", example="A1TR", scale=0.05,
        variant="default", config={}, params=params,
    ).to_dict()


# ----------------------------------------------------------------------
# THE escalation suite (satellite: exactly one implementation)
# ----------------------------------------------------------------------
def _wedge(transport, tmp_path):
    """Drive ``transport``'s worker into a SIGTERM-masked hang."""
    ready = tmp_path / "wedged"
    transport.spawn()
    transport.send(("job", "wedge", 1, selftest_job("wedge", inject={
        "ignore_sigterm": True,
        "touch": str(ready),
        "hang_attempts": 1,
        "hang_seconds": 60.0,
    })))
    deadline = time.monotonic() + 10.0
    while not ready.exists():  # wait until SIGTERM is masked
        assert time.monotonic() < deadline, "worker never reached the hang"
        time.sleep(0.01)


def test_kill_escalates_to_sigkill_on_a_wedged_worker(tmp_path, monkeypatch):
    """A worker that masks SIGTERM must not outlive kill(): after the
    grace period terminate_process escalates to SIGKILL rather than
    leaking the process beside its respawned replacement."""
    monkeypatch.setattr(transport_mod, "TERM_GRACE_S", 0.2)
    transport = make_job_transport(JOB_TARGET)
    _wedge(transport, tmp_path)
    proc = transport._proc
    transport.kill()
    assert not proc.is_alive()
    assert transport._proc is None and not transport.alive


def test_terminate_process_is_safe_on_dead_and_none():
    transport_mod.terminate_process(None)  # must not raise
    ctx = transport_mod.pool_context()
    proc = ctx.Process(target=_exit_now, daemon=True)
    proc.start()
    proc.join(10.0)
    transport_mod.terminate_process(proc)  # already dead: no-op
    assert not proc.is_alive()


def _exit_now():
    """Child target: exit immediately."""


def test_every_layer_reads_the_one_grace_constant():
    """repro.exec re-exports (not copies) the substrate's grace
    period: there is exactly one escalation knob."""
    import repro.exec

    assert repro.exec.TERM_GRACE_S is transport_mod.TERM_GRACE_S


# ----------------------------------------------------------------------
# pipe transport lifecycle
# ----------------------------------------------------------------------
def test_pipe_transport_round_trips_a_job():
    transport = PipeTransport(job_worker_main, (JOB_TARGET,))
    try:
        transport.spawn()
        transport.send(("job", "j1", 1, selftest_job("j1")))
        reply = transport.recv(timeout=30.0)
        assert reply[0] == "ok" and reply[1] == "j1"
        assert reply[2]["echo"] == "ping"
    finally:
        transport.stop()
    assert not transport.alive


def test_pipe_spawn_is_idempotent_and_reaps_dead_workers():
    transport = PipeTransport(job_worker_main, (JOB_TARGET,))
    try:
        transport.spawn()
        pid = transport.pid
        transport.spawn()  # no-op while alive
        assert transport.pid == pid
        transport.send(("job", "j1", 1, selftest_job(
            "j1", inject={"crash_attempts": 1}
        )))
        deadline = time.monotonic() + 10.0
        while transport.alive and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not transport.alive
        transport.spawn()  # reaps the corpse, starts a replacement
        assert transport.alive and transport.pid != pid
    finally:
        transport.stop()


def test_dead_pipe_surfaces_as_transport_dead():
    transport = PipeTransport(job_worker_main, (JOB_TARGET,))
    transport.spawn()
    transport.send(("job", "j1", 1, selftest_job(
        "j1", inject={"crash_attempts": 1}
    )))
    with pytest.raises(TransportDead):
        transport.recv(timeout=30.0)
    transport.kill()
