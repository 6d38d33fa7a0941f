"""The execution substrate: transport-abstract supervised workers.

``repro.exec`` is the one home for "run jobs in worker processes and
survive their failures".  It factors what two layers used to
reimplement -- the campaign runner's slot loop and the service's
shard pool -- into:

* :class:`~repro.exec.transport.WorkerTransport` -- how one worker
  starts, speaks, proves liveness and dies;
* :class:`~repro.exec.transport.PipeTransport` -- fork + duplex
  pickle pipe, byte-identical to the pre-refactor behavior;
* :class:`~repro.exec.sockets.SocketTransport` -- length-prefixed
  canonical-JSON frames over TCP with heartbeat liveness, covering
  both locally spawned children and remote ``repro worker --connect``
  dial-ins (adopted via :class:`~repro.exec.sockets.WorkerListener`);
* :class:`~repro.exec.supervise.SupervisedWorker` -- the single
  crash/timeout/error/retry/escalation state machine.

Transport selection is per call site (``repro serve
--exec-transport``; the campaign runner takes the default) with the
``REPRO_EXEC_TRANSPORT`` environment variable as the global kill
switch.
"""

from repro.exec.frames import (
    FrameConnection,
    FrameError,
    MAX_FRAME_BYTES,
    RecvTimeout,
    decode_body,
    encode_frame,
)
from repro.exec.transport import (
    PipeTransport,
    TERM_GRACE_S,
    TRANSPORT_ENV,
    TRANSPORT_KINDS,
    TransportDead,
    WorkerTransport,
    pool_context,
    resolve_transport_name,
    terminate_process,
)
from repro.exec.sockets import (
    HEARTBEAT_S,
    HEARTBEAT_TIMEOUT_S,
    SocketTransport,
    WorkerListener,
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
from repro.exec.worker import (
    connect_and_serve,
    job_worker_main,
    welcome_message,
)


def make_job_transport(target: str, kind=None) -> WorkerTransport:
    """A job-role transport of the resolved kind for ``target``.

    ``target`` is the ``"module:function"`` job executor; ``kind`` is
    ``"pipe"`` / ``"socket"`` / ``None`` (resolve the default), always
    subject to the ``REPRO_EXEC_TRANSPORT`` override.
    """
    kind = resolve_transport_name(kind)
    if kind == "socket":
        return SocketTransport("job", {"target": target})
    return PipeTransport(job_worker_main, (target,))


__all__ = [
    "AttemptOutcome",
    "CRASH",
    "CRASH_DETAIL",
    "ERROR",
    "FrameConnection",
    "FrameError",
    "HEARTBEAT_S",
    "HEARTBEAT_TIMEOUT_S",
    "MAX_FRAME_BYTES",
    "OK",
    "PipeTransport",
    "RecvTimeout",
    "SocketTransport",
    "SupervisedWorker",
    "TERM_GRACE_S",
    "TIMEOUT",
    "TIMEOUT_DETAIL",
    "TRANSPORT_ENV",
    "TRANSPORT_KINDS",
    "TransportDead",
    "WorkerListener",
    "WorkerTransport",
    "connect_and_serve",
    "decode_body",
    "encode_frame",
    "job_worker_main",
    "make_job_transport",
    "pool_context",
    "resolve_transport_name",
    "terminate_process",
    "welcome_message",
]
