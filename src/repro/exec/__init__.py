"""The execution substrate: supervised forked workers over pipes.

``repro.exec`` is the one home for "run jobs in worker processes and
survive their failures".  It factors what two layers used to
reimplement -- the campaign runner's slot loop and the service's
shard pool -- into:

* :class:`~repro.exec.transport.PipeTransport` -- one forked worker
  process behind a duplex pickle pipe, with the single SIGTERM ->
  SIGKILL escalation;
* :func:`~repro.exec.worker.job_worker_main` -- the job loop every
  worker runs;
* :class:`~repro.exec.supervise.SupervisedWorker` -- the single
  crash/timeout/error/retry/escalation state machine.
"""

from repro.exec.transport import (
    PipeTransport,
    TERM_GRACE_S,
    TransportDead,
    pool_context,
    terminate_process,
)
from repro.exec.supervise import (
    AttemptOutcome,
    CRASH,
    CRASH_DETAIL,
    ERROR,
    OK,
    SupervisedWorker,
    TIMEOUT,
    TIMEOUT_DETAIL,
)
from repro.exec.worker import job_worker_main


def make_job_transport(target: str) -> PipeTransport:
    """A pipe worker running the ``"module:function"`` job executor
    ``target``."""
    return PipeTransport(job_worker_main, (target,))


__all__ = [
    "AttemptOutcome",
    "CRASH",
    "CRASH_DETAIL",
    "ERROR",
    "OK",
    "PipeTransport",
    "SupervisedWorker",
    "TERM_GRACE_S",
    "TIMEOUT",
    "TIMEOUT_DETAIL",
    "TransportDead",
    "job_worker_main",
    "make_job_transport",
    "pool_context",
    "terminate_process",
]
