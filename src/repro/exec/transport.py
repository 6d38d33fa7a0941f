"""The pipe worker: one forked process behind a duplex pickle pipe.

A :class:`PipeTransport` owns exactly one worker: it starts it (a
forked local process), carries its messages (pickled objects over an
OS pipe), judges its liveness (the process sentinel) and kills it
(the single SIGTERM -> SIGKILL escalation, :func:`terminate_process`,
that used to be reimplemented per layer).  The supervision state
machine (:mod:`repro.exec.supervise`) drives it, so the two call
sites -- the campaign runner and the service ``ShardPool`` -- share
one substrate and one fault model.

Contract highlights:

* :meth:`PipeTransport.try_recv` never blocks; it returns ``None``
  when no message is pending.
* :meth:`PipeTransport.wait_handles` returns objects usable with
  ``multiprocessing.connection.wait`` whose readability means "calling
  :meth:`~PipeTransport.try_recv` may yield progress".
* Every receive-side failure -- a dead pipe, EOF, a dead process --
  surfaces as :class:`TransportDead`, the one exception supervision
  maps to a ``crash`` verdict.
"""

from __future__ import annotations

import multiprocessing
import time
from multiprocessing.connection import wait as _conn_wait
from typing import Any, Dict, List, Optional

#: Seconds a kill waits after SIGTERM before escalating to an
#: unignorable SIGKILL.  This is the *only* escalation implementation;
#: every layer's kill goes through :func:`terminate_process`.
TERM_GRACE_S = 5.0


class TransportDead(RuntimeError):
    """The worker behind a transport is gone (process death or a
    broken pipe)."""


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


class PipeTransport:
    """One fork + duplex-pipe worker.

    ``main`` is a picklable module-level callable executed in the
    child as ``main(child_conn, *args)``; crash detection rides the
    process sentinel and messages travel the pickle pipe.
    """

    def __init__(self, main, args: tuple = (), ctx=None) -> None:
        """Configure an unspawned pipe worker running ``main``."""
        self._main = main
        self._args = tuple(args)
        self._ctx = ctx if ctx is not None else pool_context()
        self._proc = None
        self._conn = None

    # ------------------------------------------------------------------
    def spawn(self) -> None:
        """Fork the worker process and keep the parent pipe end
        (idempotent while alive)."""
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

    def recv(self, timeout: Optional[float] = None) -> Any:
        """Block up to ``timeout`` for the next message.

        Raises :class:`TransportDead` when the worker dies while
        waiting and ``TimeoutError`` when ``timeout`` elapses first.
        """
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
        """Escalated terminate (:func:`terminate_process`) + close
        (idempotent)."""
        terminate_process(self._proc)
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:
                pass
        self._proc = None
        self._conn = None

    def stop(self) -> None:
        """Politely stop the worker, then :meth:`kill` whatever is
        left (the polite half is best-effort)."""
        try:
            self.send(("stop",))
        except TransportDead:
            pass
        self.kill()

    def describe(self) -> Dict[str, Any]:
        """A JSON-able summary for ``/stats``: liveness and pid."""
        return {"alive": self.alive, "pid": self.pid}
