"""The ``WorkerTransport`` abstraction and the pipe implementation.

A *transport* owns exactly one worker: how it starts (a forked local
process, or a remote process that dialed in), how messages travel
(pickle pipe, or canonical-JSON frames over TCP), how liveness is
judged (process sentinel, or heartbeat freshness) and how it dies
(the single SIGTERM -> SIGKILL escalation that used to be
reimplemented per layer).  The supervision state machine
(:mod:`repro.exec.supervise`) is written against this interface
only, so the two call sites -- the campaign runner and the service
``ShardPool`` -- share one substrate and one fault model.

Contract highlights:

* :meth:`WorkerTransport.try_recv` never blocks past one in-flight
  frame; it returns ``None`` when no complete application message is
  available.  Heartbeat frames are consumed internally and never
  surface.
* :meth:`WorkerTransport.wait_handles` returns objects usable with
  ``multiprocessing.connection.wait`` whose readability means "calling
  :meth:`try_recv` may yield progress".
* Every receive-side failure -- dead pipe, dropped connection, torn
  frame, stale heartbeat -- surfaces as :class:`TransportDead`, the
  one exception supervision maps to a ``crash`` verdict.

The transport *kind* is selected per call site (``repro serve
--exec-transport``; the campaign runner takes the default) and is
globally overridable with the ``REPRO_EXEC_TRANSPORT`` environment
variable -- the kill switch that forces everything back onto pipes if
the socket path misbehaves.
"""

from __future__ import annotations

import multiprocessing
import os
from abc import ABC, abstractmethod
from typing import Any, Dict, List, Optional

#: Seconds a kill waits after SIGTERM before escalating to an
#: unignorable SIGKILL.  This is the *only* escalation implementation;
#: every layer's kill goes through :func:`terminate_process`.
TERM_GRACE_S = 5.0

#: Transport kinds :func:`resolve_transport_name` accepts.
TRANSPORT_KINDS = ("pipe", "socket")

#: Environment kill switch: force every transport selection to this
#: kind regardless of config or flags.
TRANSPORT_ENV = "REPRO_EXEC_TRANSPORT"


class TransportDead(RuntimeError):
    """The worker behind a transport is gone (process death, dropped
    connection, torn frame, or stale heartbeat)."""


def resolve_transport_name(requested: Optional[str] = None) -> str:
    """The effective transport kind for a call site.

    ``REPRO_EXEC_TRANSPORT`` (when set) beats ``requested``; an unset
    ``requested`` means ``"pipe"``.  Unknown kinds raise ``ValueError``
    so a typo'd kill switch fails loudly instead of silently running
    the wrong substrate.
    """
    name = os.environ.get(TRANSPORT_ENV) or requested or "pipe"
    if name not in TRANSPORT_KINDS:
        raise ValueError(
            "unknown exec transport %r (expected one of %s)"
            % (name, ", ".join(TRANSPORT_KINDS))
        )
    return name


def pool_context():
    """The multiprocessing context every local worker uses: ``fork``
    where available (workers inherit the warm interpreter), ``spawn``
    otherwise."""
    return multiprocessing.get_context(
        "fork"
        if "fork" in multiprocessing.get_all_start_methods()
        else "spawn"
    )


def terminate_process(proc, grace_s: Optional[float] = None) -> None:
    """The one SIGTERM -> SIGKILL escalation.

    SIGTERM first; a process still alive after ``grace_s`` (default
    :data:`TERM_GRACE_S` -- masked signal, uninterruptible state) gets
    an unignorable SIGKILL, so a wedged worker can never be leaked to
    run on beside its respawned replacement.  Safe on an
    already-dead process.
    """
    if proc is None:
        return
    if proc.is_alive():
        proc.terminate()
    proc.join(timeout=TERM_GRACE_S if grace_s is None else grace_s)
    if proc.is_alive():
        proc.kill()
        proc.join()


class WorkerTransport(ABC):
    """One worker's lifecycle + message channel, transport-agnostic.

    Implementations: :class:`PipeTransport` (fork + duplex pickle
    pipe, today's semantics byte-for-byte) and
    :class:`~repro.exec.sockets.SocketTransport` (length-prefixed
    canonical-JSON frames over TCP with heartbeat liveness, local
    spawn or adopted remote).
    """

    #: Transport kind string ("pipe" | "socket").
    kind: str = "?"

    @abstractmethod
    def spawn(self) -> None:
        """Start the worker (idempotent while alive)."""

    @abstractmethod
    def send(self, message: Any) -> None:
        """Send one message; :class:`TransportDead` if the worker is
        unreachable."""

    @abstractmethod
    def try_recv(self) -> Optional[Any]:
        """The next application message, or ``None`` when no complete
        one is available.  Never blocks longer than one in-flight
        frame body; raises :class:`TransportDead` on a dead worker."""

    @abstractmethod
    def wait_handles(self) -> List[Any]:
        """Objects for ``multiprocessing.connection.wait``; readiness
        of any of them means :meth:`try_recv`/:attr:`alive` may have
        news."""

    @property
    @abstractmethod
    def alive(self) -> bool:
        """Whether the worker is currently considered live."""

    @property
    def can_respawn(self) -> bool:
        """Whether this transport can start a replacement worker
        itself (false for adopted remote workers)."""
        return True

    @abstractmethod
    def kill(self) -> None:
        """Hard-stop the worker and release the channel (idempotent)."""

    def stop(self) -> None:
        """Politely stop the worker, then :meth:`kill` whatever is
        left (the polite half is best-effort)."""
        try:
            self.send(("stop",))
        except (TransportDead, OSError):
            pass
        self.kill()

    def recv(self, timeout: Optional[float] = None) -> Any:
        """Block up to ``timeout`` for the next application message.

        Built on :meth:`try_recv` + :meth:`wait_handles`; raises
        :class:`TransportDead` when the worker dies while waiting and
        ``TimeoutError`` when ``timeout`` elapses first.
        """
        from multiprocessing.connection import wait as _conn_wait
        import time

        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            message = self.try_recv()
            if message is not None:
                return message
            if not self.alive:
                # One last drain: the worker may have replied and then
                # exited before we looked.
                message = self.try_recv()
                if message is not None:
                    return message
                raise TransportDead("worker died while awaited")
            slice_s = 0.5
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0.0:
                    raise TimeoutError("no message within %.3fs" % timeout)
                slice_s = min(slice_s, remaining)
            _conn_wait(self.wait_handles(), timeout=slice_s)

    def describe(self) -> Dict[str, Any]:
        """A JSON-able summary for ``/stats`` and trace events."""
        return {"kind": self.kind, "alive": self.alive}


class PipeTransport(WorkerTransport):
    """Today's fork + duplex-pipe worker, behind the transport ABC.

    ``main`` is a picklable module-level callable executed in the
    child as ``main(child_conn, *args)``; crash detection rides the
    process sentinel and messages travel the usual pickle pipe, so
    semantics (and synthesis bytes) are identical to the
    pre-``repro.exec`` code.
    """

    kind = "pipe"

    def __init__(self, main, args: tuple = (), ctx=None) -> None:
        """Configure an unspawned pipe worker running ``main``."""
        self._main = main
        self._args = tuple(args)
        self._ctx = ctx if ctx is not None else pool_context()
        self._proc = None
        self._conn = None

    # ------------------------------------------------------------------
    def spawn(self) -> None:
        """Fork the worker process and keep the parent pipe end."""
        if self.alive:
            return
        if self._proc is not None:
            self.kill()  # reap a dead-while-idle worker and its pipe
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=self._main,
            args=(child_conn,) + self._args,
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._proc = proc
        self._conn = parent_conn

    def send(self, message: Any) -> None:
        """Send over the pipe; a broken pipe is a dead worker."""
        if self._conn is None:
            raise TransportDead("pipe worker is not spawned")
        try:
            self._conn.send(message)
        except (BrokenPipeError, OSError) as exc:
            raise TransportDead("pipe worker is gone: %s" % (exc,)) from exc

    def try_recv(self) -> Optional[Any]:
        """One pending message, or ``None``; EOF means a dead worker."""
        if self._conn is None:
            raise TransportDead("pipe worker is not spawned")
        try:
            if not self._conn.poll(0):
                return None
            return self._conn.recv()
        except (EOFError, OSError) as exc:
            raise TransportDead(
                "pipe worker died before replying"
            ) from exc

    def wait_handles(self) -> List[Any]:
        """The pipe connection plus the process sentinel."""
        handles: List[Any] = []
        if self._conn is not None:
            handles.append(self._conn)
        if self._proc is not None:
            handles.append(self._proc.sentinel)
        return handles

    @property
    def alive(self) -> bool:
        """Whether the worker process exists and is running."""
        return self._proc is not None and self._proc.is_alive()

    @property
    def pid(self) -> Optional[int]:
        """The worker's pid while spawned (for tests/diagnostics)."""
        return self._proc.pid if self._proc is not None else None

    def kill(self) -> None:
        """Escalated terminate (:func:`terminate_process`) + close."""
        terminate_process(self._proc)
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:
                pass
        self._proc = None
        self._conn = None

    def describe(self) -> Dict[str, Any]:
        """Pipe summary: kind, liveness, pid."""
        info = super().describe()
        info["pid"] = self.pid
        return info
