"""The fault-tolerant campaign supervisor.

:func:`run_campaign` drives one campaign to completion: it expands
the grid, skips jobs the checkpoint log already settled, dispatches
the rest to persistent forked pipe workers supervised by
:class:`~repro.exec.supervise.SupervisedWorker` (the execution
substrate's single crash/timeout/error state machine), and survives
the three failure shapes a long campaign meets --

* **worker crash** (hard process death: segfault, OOM kill,
  ``os._exit``): detected via the process sentinel / a dead pipe;
  the worker is respawned and the job re-attempted;
* **per-job timeout**: a worker past its attempt deadline is killed
  and respawned, and the attempt counts as a failure;
* **job error** (an exception inside the job): the traceback comes
  back over the pipe and the attempt counts as a failure.

Failed attempts retry under the spec's bounded-exponential
:class:`~repro.campaign.grid.RetryPolicy`; a job that exhausts its
retries is recorded as **failed** -- with its traceback -- and the
campaign keeps going (graceful degradation), so one poisoned grid
cell cannot abort a night of synthesis.  Every terminal record is
fsynced to ``jobs.jsonl`` before the runner moves on, which is what
makes ``resume`` lossless.

Progress streams through :mod:`repro.obs`: ``campaign.*`` events
(``job.start/done/retry/failed`` with per-job wall seconds) and the
``campaign.jobs.done/failed/retried/skipped`` counters.
"""

from __future__ import annotations

import collections
import pathlib
import time
from dataclasses import dataclass
from multiprocessing.connection import wait as _conn_wait
from typing import Any, Dict, List, Optional, Union

from repro.obs import JsonlSink, Tracer
from repro.obs.trace import resolve_tracer
from repro.exec import SupervisedWorker, make_job_transport
from repro.exec import supervise as _supervision
from repro.campaign.checkpoint import CampaignDir
from repro.campaign.grid import CampaignSpec, expand_jobs
from repro.campaign.jobs import Job
from repro.campaign.manifest import build_manifest, error_summary, render_manifest

#: Worker target resolved inside each worker process.
JOB_TARGET = "repro.campaign.jobs:execute_job"

#: Supervision tick: the longest the loop sleeps with work in flight.
_TICK_S = 0.25

#: Terminal-failure details for crash/timeout, shared with the
#: execution substrate.  Deliberately **policy-independent** -- no
#: attempt counts, no timeout budgets -- because ``error_summary`` of
#: this text lands in the manifest's per-job ``error`` field, and a
#: resume under ``policy_override`` must still produce byte-identical
#: manifest output.  Attempt counts live in the checkpoint record and
#: the obs events instead.
_CRASH_DETAIL = _supervision.CRASH_DETAIL
_TIMEOUT_DETAIL = _supervision.TIMEOUT_DETAIL


@dataclass
class CampaignOutcome:
    """What one ``run``/``resume`` invocation accomplished."""

    directory: pathlib.Path
    complete: bool
    done: int
    failed: int
    skipped: int
    retried: int
    #: The final manifest payload; None while jobs remain.
    manifest: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        """Complete with zero failed jobs."""
        return self.complete and self.failed == 0


class _Slot:
    """Parent-side supervision state for one worker."""

    __slots__ = ("worker", "job", "attempt", "started_at", "deadline")

    def __init__(self, worker: SupervisedWorker) -> None:
        """Wrap ``worker`` with idle supervision state."""
        self.worker = worker
        self.job: Optional[Job] = None
        self.attempt = 0
        self.started_at = 0.0
        self.deadline: Optional[float] = None

    @property
    def busy(self) -> bool:
        """Whether a job is in flight on this slot."""
        return self.job is not None

    def clear(self) -> None:
        """Mark the slot idle."""
        self.job = None
        self.attempt = 0
        self.deadline = None


def run_campaign(
    directory: Union[str, pathlib.Path],
    spec: Optional[CampaignSpec] = None,
    workers: int = 1,
    resume: bool = False,
    retry_failed: bool = True,
    tracer: Optional[Tracer] = None,
    stop_after: Optional[int] = None,
    policy_override=None,
) -> CampaignOutcome:
    """Run (or resume) a campaign; returns what this invocation did.

    ``run`` mode needs ``spec`` and refuses a directory holding a
    different campaign; ``resume=True`` reloads the stored spec.
    Jobs with a ``done`` checkpoint record are skipped; previously
    ``failed`` jobs are re-attempted unless ``retry_failed=False``.
    ``stop_after`` stops the invocation after that many *new*
    terminal records -- the test hook simulating a mid-campaign kill
    (in-flight work is discarded exactly as a real kill would).
    ``tracer`` overrides the default tracer that streams events to
    ``events.jsonl`` in the campaign directory.  ``policy_override``
    substitutes the retry policy for *this invocation only* -- the
    stored spec, and therefore the manifest, keep the original, so
    resuming with a different timeout cannot change the final bytes.
    """
    cdir = CampaignDir(directory)
    if resume:
        spec = cdir.load_spec()
    else:
        if spec is None:
            raise ValueError("run_campaign needs a spec unless resume=True")
        cdir.write_spec(spec)
    policy = policy_override if policy_override is not None else spec.policy

    own_tracer = tracer is None
    if own_tracer:
        tracer = Tracer(sinks=[JsonlSink(cdir.events_path)])
    tracer = resolve_tracer(tracer)

    jobs = expand_jobs(spec)
    records = cdir.load_records()
    pending: "collections.deque" = collections.deque()
    skipped = 0
    for job in jobs:
        record = records.get(job.id)
        if record is not None and record["status"] == "done":
            skipped += 1
        elif (
            record is not None
            and record["status"] == "failed"
            and not retry_failed
        ):
            skipped += 1
        else:
            # (job, attempt, ready_at) -- monotonic-clock gate for
            # backoff; 0.0 means ready now.
            pending.append((job, 1, 0.0))
    tracer.incr("campaign.jobs.skipped", skipped)
    tracer.event(
        "campaign.start",
        campaign=spec.name,
        jobs=len(jobs),
        pending=len(pending),
        skipped=skipped,
        resume=resume,
    )

    counts = {"done": 0, "failed": 0, "retried": 0}
    interrupted = False
    slots: List[_Slot] = []
    try:
        if pending:
            n_workers = max(1, min(workers, len(pending)))
            slots = [
                _Slot(SupervisedWorker(
                    make_job_transport(JOB_TARGET), tracer=tracer
                ))
                for _ in range(n_workers)
            ]
            interrupted = not _supervise(
                slots, pending, policy, cdir, tracer, counts, stop_after
            )
    except KeyboardInterrupt:
        interrupted = True
    finally:
        for slot in slots:
            slot.worker.stop()
        cdir.close()

    records = cdir.load_records()
    complete = not interrupted and all(job.id in records for job in jobs)
    manifest = None
    if complete:
        manifest = build_manifest(spec, jobs, records)
        cdir.write_manifest(manifest)
        cdir.table_path.write_text(render_manifest(manifest) + "\n")
    tracer.event(
        "campaign.end",
        complete=complete,
        done=counts["done"],
        failed=counts["failed"],
    )
    if own_tracer:
        tracer.close()
    return CampaignOutcome(
        directory=pathlib.Path(directory),
        complete=complete,
        done=counts["done"],
        failed=counts["failed"],
        skipped=skipped,
        retried=counts["retried"],
        manifest=manifest,
    )


# ----------------------------------------------------------------------
def _supervise(
    slots: List[_Slot],
    pending: "collections.deque",
    policy,
    cdir: CampaignDir,
    tracer: Tracer,
    counts: Dict[str, int],
    stop_after: Optional[int],
) -> bool:
    """The dispatch/supervision loop; False if stopped early."""
    terminal_this_run = 0

    def finish(slot: _Slot, record: Dict[str, Any]) -> None:
        """Durably checkpoint a terminal record and idle the slot."""
        cdir.append_record(record)
        slot.clear()

    while pending or any(s.busy for s in slots):
        now = time.monotonic()
        # -- dispatch ready jobs onto idle workers ---------------------
        for slot in slots:
            if slot.busy or not pending:
                continue
            entry = _pop_ready(pending, now)
            if entry is None:
                break
            job, attempt, _ = entry
            if not slot.worker.alive:
                slot.worker.spawn()
            slot.job = job
            slot.attempt = attempt
            slot.started_at = now
            slot.deadline = (
                now + policy.timeout_s if policy.timeout_s else None
            )
            slot.worker.submit(job.id, attempt, job.to_dict())
            tracer.event("campaign.job.start", job=job.id, attempt=attempt)

        busy = [s for s in slots if s.busy]
        if not busy:
            # Everything pending is backing off; sleep to the nearest
            # ready time.
            wake = min(ready_at for _, _, ready_at in pending)
            time.sleep(max(0.0, min(_TICK_S, wake - now)))
            continue

        # -- wait for a reply, a death, or a deadline ------------------
        timeout = _TICK_S
        for slot in busy:
            if slot.deadline is not None:
                timeout = min(timeout, max(0.0, slot.deadline - now))
        waitables = []
        for slot in busy:
            waitables.extend(slot.worker.wait_handles())
        if waitables:
            _conn_wait(waitables, timeout=timeout)
        now = time.monotonic()

        for slot in busy:
            job, attempt = slot.job, slot.attempt
            wall_s = now - slot.started_at
            # The substrate's state machine classifies the attempt:
            # reply (ok/error), transport death (crash; the worker is
            # already replaced), or deadline (timeout; killed with the
            # escalated terminate and replaced).
            outcome = slot.worker.poll(now, deadline=slot.deadline)
            if outcome is None:
                continue
            if outcome.kind == _supervision.OK:
                finish(slot, {
                    "job": job.id,
                    "status": "done",
                    "attempts": attempt,
                    "result": outcome.value,
                    "wall_s": round(wall_s, 3),
                })
                counts["done"] += 1
                terminal_this_run += 1
                tracer.incr("campaign.jobs.done")
                tracer.event(
                    "campaign.job.done",
                    job=job.id, attempt=attempt,
                    wall_s=round(wall_s, 3),
                )
            else:
                # crash -> the policy-independent crash detail;
                # timeout -> the timeout detail; error -> traceback.
                terminal_this_run += _attempt_failed(
                    slot, outcome.kind, outcome.value,
                    pending, policy, tracer, counts, finish, wall_s,
                )
            if stop_after is not None and terminal_this_run >= stop_after:
                return False
    return True


def _pop_ready(pending: "collections.deque", now: float):
    """Pop the first queue entry whose backoff gate has passed.

    Retried jobs sit in the same FIFO as fresh ones but carry a
    future ``ready_at``; skipping over them keeps a long backoff from
    head-blocking work that is ready now.
    """
    for i in range(len(pending)):
        if pending[i][2] <= now:
            entry = pending[i]
            del pending[i]
            return entry
    return None


def _attempt_failed(
    slot: _Slot,
    reason: str,
    detail: str,
    pending: "collections.deque",
    policy,
    tracer: Tracer,
    counts: Dict[str, int],
    finish,
    wall_s: float,
) -> int:
    """Route one failed attempt: retry with backoff, or record failed.

    Returns 1 when the failure was terminal (a ``failed`` checkpoint
    record was written), 0 when the job was re-queued for another
    attempt.  Either way the slot is idle afterwards.
    """
    job, attempt = slot.job, slot.attempt
    if attempt <= policy.retries:
        delay = policy.delay(attempt + 1)
        pending.append((job, attempt + 1, time.monotonic() + delay))
        slot.clear()
        counts["retried"] += 1
        tracer.incr("campaign.jobs.retried")
        tracer.event(
            "campaign.job.retry",
            job=job.id, attempt=attempt, reason=reason,
            backoff_s=round(delay, 3),
        )
        return 0
    finish(slot, {
        "job": job.id,
        "status": "failed",
        "attempts": attempt,
        "reason": reason,
        "error": error_summary(detail),
        "traceback": detail,
        "wall_s": round(wall_s, 3),
    })
    counts["failed"] += 1
    tracer.incr("campaign.jobs.failed")
    tracer.event(
        "campaign.job.failed",
        job=job.id, attempts=attempt, reason=reason,
    )
    return 1


# ----------------------------------------------------------------------
def campaign_status(
    directory: Union[str, pathlib.Path]
) -> Dict[str, Any]:
    """Summarize a campaign directory without running anything.

    Returns total/done/failed/pending counts, the failed job ids with
    their one-line errors, and whether a final manifest exists.
    """
    cdir = CampaignDir(directory)
    spec = cdir.load_spec()
    jobs = expand_jobs(spec)
    records = cdir.load_records()
    done = [j.id for j in jobs if records.get(j.id, {}).get("status") == "done"]
    failed = {
        j.id: records[j.id].get("error", "?")
        for j in jobs
        if records.get(j.id, {}).get("status") == "failed"
    }
    pending = [j.id for j in jobs if j.id not in records]
    return {
        "name": spec.name,
        "kind": spec.kind,
        "jobs": len(jobs),
        "done": len(done),
        "failed": failed,
        "pending": pending,
        "complete": cdir.manifest_path.exists(),
    }
