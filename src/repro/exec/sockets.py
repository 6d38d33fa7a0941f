"""TCP socket transport: framed messages, heartbeats, dial-in workers.

Two ways a socket worker comes to exist:

* **local spawn** -- :class:`SocketTransport` opens a private
  loopback listener, forks the child with the address, and the child
  connects back.  Process-level supervision (sentinel, SIGTERM ->
  SIGKILL escalation) still applies, which is what makes this mode a
  drop-in stand-in for the pipe transport in tests and benchmarks.
* **adoption** -- a remote ``repro worker --connect HOST:PORT``
  process dials a :class:`WorkerListener`, sends a hello frame, and
  the adopting pool answers with a *welcome* frame naming the role
  (``job``) and its arguments.  The resulting
  :meth:`SocketTransport.adopted` transport has no local process:
  liveness is heartbeat freshness, and "kill" is closing the
  connection (the remote worker exits on EOF).

Liveness: every worker child runs a daemon thread sending a
``("hb",)`` frame each :data:`HEARTBEAT_S`; the parent transport
consumes them invisibly and tracks ``last_seen``.  A worker silent
longer than ``heartbeat_timeout_s`` is declared dead
(:class:`~repro.exec.transport.TransportDead`), which supervision
converts into a typed ``crash`` verdict -- a remote host that
vanishes mid-job can therefore never hang a caller.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Any, Callable, Dict, List, Optional

from repro.exec.frames import FrameConnection, FrameError, RecvTimeout
from repro.exec.transport import (
    TransportDead,
    WorkerTransport,
    pool_context,
    terminate_process,
)

#: Seconds between heartbeat frames sent by every socket worker child.
HEARTBEAT_S = 1.0

#: Parent-side staleness threshold: a socket worker silent this long
#: (no frames of any kind) is declared dead.
HEARTBEAT_TIMEOUT_S = 15.0

#: Seconds a dialing worker (or a locally spawning transport) waits
#: for the TCP connection + handshake to complete.
CONNECT_TIMEOUT_S = 10.0

#: Hello-frame magic; a connector that says anything else is refused.
HELLO_MAGIC = "repro-worker"

#: Version of the hello/welcome handshake.
PROTOCOL_VERSION = 1


def _is_heartbeat(message: Any) -> bool:
    """Whether a decoded frame is the heartbeat marker."""
    return (
        isinstance(message, (list, tuple))
        and len(message) == 1
        and message[0] == "hb"
    )


class SocketTransport(WorkerTransport):
    """A worker reached over framed TCP (see module docstring).

    Build with the constructor for local spawn mode, or with
    :meth:`adopted` for a dialed-in remote worker.
    """

    kind = "socket"

    def __init__(
        self,
        role: str,
        kwargs: Optional[Dict[str, Any]] = None,
        heartbeat_timeout_s: float = HEARTBEAT_TIMEOUT_S,
        ctx=None,
    ) -> None:
        """Configure an unspawned local socket worker for ``role``
        (``"job"``) with role arguments ``kwargs``."""
        self.role = role
        self.role_kwargs = dict(kwargs or {})
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self._ctx = ctx if ctx is not None else pool_context()
        self._proc = None
        self._conn: Optional[FrameConnection] = None
        self._pending: List[Any] = []
        self._last_seen = 0.0
        self._remote: Optional[str] = None

    @classmethod
    def adopted(
        cls,
        conn: FrameConnection,
        remote: str,
        heartbeat_timeout_s: float = HEARTBEAT_TIMEOUT_S,
    ) -> "SocketTransport":
        """Wrap an already-welcomed dial-in connection from ``remote``
        (a ``host:port`` label for diagnostics)."""
        transport = cls("adopted", heartbeat_timeout_s=heartbeat_timeout_s)
        transport._conn = conn
        transport._remote = remote
        transport._last_seen = time.monotonic()
        return transport

    # ------------------------------------------------------------------
    @property
    def is_remote(self) -> bool:
        """Whether this transport adopted a dial-in worker."""
        return self._remote is not None

    @property
    def can_respawn(self) -> bool:
        """Local spawns can be replaced; adopted remotes cannot."""
        return not self.is_remote

    def spawn(self) -> None:
        """Start the local worker child and accept its connection.

        No-op while alive.  Raises :class:`TransportDead` for an
        adopted transport (the parent cannot restart a remote host's
        process) and on a child that never connects back.
        """
        if self.is_remote:
            if self._conn is None or self._conn.closed:
                raise TransportDead(
                    "adopted worker %s cannot be respawned" % (self._remote,)
                )
            return
        if self.alive:
            return
        if self._proc is not None or self._conn is not None:
            self.kill()  # reap a dead-while-idle worker first
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            listener.settimeout(CONNECT_TIMEOUT_S)
            host, port = listener.getsockname()
            from repro.exec.worker import socket_child_main

            proc = self._ctx.Process(
                target=socket_child_main,
                args=(host, port, self.role, self.role_kwargs),
                daemon=True,
            )
            proc.start()
            try:
                sock, _addr = listener.accept()
            except socket.timeout:
                terminate_process(proc)
                raise TransportDead(
                    "socket worker never connected back"
                ) from None
        finally:
            listener.close()
        self._proc = proc
        self._conn = FrameConnection(sock)
        self._pending = []
        self._last_seen = time.monotonic()

    # ------------------------------------------------------------------
    def send(self, message: Any) -> None:
        """Send one frame; an unreachable peer is a dead worker."""
        if self._conn is None or self._conn.closed:
            raise TransportDead("socket worker is not connected")
        try:
            self._conn.send(message)
        except (OSError, FrameError) as exc:
            raise TransportDead(
                "socket worker unreachable: %s" % (exc,)
            ) from exc

    def _drain(self) -> None:
        """Consume every complete pending frame; heartbeats refresh
        ``last_seen``, everything else queues for :meth:`try_recv`."""
        conn = self._conn
        if conn is None or conn.closed:
            raise TransportDead("socket worker is not connected")
        while conn.poll(0):
            try:
                message = conn.recv(timeout=conn.body_timeout_s)
            except RecvTimeout:  # pragma: no cover - poll said readable
                break
            except (EOFError, OSError) as exc:
                raise TransportDead(
                    "socket worker dropped the connection"
                ) from exc
            except FrameError as exc:
                raise TransportDead(
                    "torn frame from socket worker: %s" % (exc,)
                ) from exc
            self._last_seen = time.monotonic()
            if _is_heartbeat(message):
                continue
            self._pending.append(message)

    def try_recv(self) -> Optional[Any]:
        """The next queued application message, or ``None``."""
        self._drain()
        if self._pending:
            return self._pending.pop(0)
        return None

    def wait_handles(self) -> List[Any]:
        """The framed socket (+ the child sentinel when local)."""
        handles: List[Any] = []
        if self._conn is not None and not self._conn.closed:
            handles.append(self._conn)
        if self._proc is not None:
            handles.append(self._proc.sentinel)
        return handles

    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        """Connection open, process (if local) running, heartbeat
        fresh.  Pending frames are drained first so a worker that just
        spoke is never misjudged stale."""
        if self._conn is None or self._conn.closed:
            return False
        if self._proc is not None and not self._proc.is_alive():
            return False
        try:
            self._drain()
        except TransportDead:
            return False
        return (
            time.monotonic() - self._last_seen <= self.heartbeat_timeout_s
        )

    def kill(self) -> None:
        """Hard stop: escalated terminate for a local child, then
        close the connection (a remote worker exits on the EOF)."""
        terminate_process(self._proc)
        self._proc = None
        if self._conn is not None:
            self._conn.close()
            self._conn = None
        self._pending = []

    def describe(self) -> Dict[str, Any]:
        """Socket summary: kind, liveness, locality, peer."""
        info = super().describe()
        info["remote"] = self._remote
        return info


class WorkerListener:
    """Accept loop for ``repro worker --connect`` dial-ins.

    Binds immediately (so :attr:`port` is known even with ``port=0``),
    accepts on a daemon thread, validates each connector's hello
    frame, and hands ``(FrameConnection, hello_dict, "host:port")`` to
    ``on_worker`` -- typically a thread-safe trampoline into the
    adopting pool.  A connector that fails the handshake is dropped
    without disturbing the pool.
    """

    def __init__(
        self,
        host: str,
        port: int,
        on_worker: Callable[[FrameConnection, Dict[str, Any], str], None],
    ) -> None:
        """Bind ``host:port`` (0 = ephemeral) and remember the hook."""
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(16)
        self.host, self.port = self._sock.getsockname()[:2]
        self._on_worker = on_worker
        self._thread: Optional[threading.Thread] = None
        self._closed = False

    def start(self) -> None:
        """Start the accept thread (idempotent)."""
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._accept_loop, name="repro-worker-listener",
            daemon=True,
        )
        self._thread.start()

    def _accept_loop(self) -> None:
        """Accept, handshake, hand off; forever until closed."""
        while not self._closed:
            try:
                sock, addr = self._sock.accept()
            except OSError:
                return  # listener closed
            conn = FrameConnection(sock)
            try:
                hello = conn.recv(timeout=CONNECT_TIMEOUT_S)
            except (RecvTimeout, EOFError, OSError, FrameError):
                conn.close()
                continue
            if (
                not isinstance(hello, dict)
                or hello.get("hello") != HELLO_MAGIC
                or hello.get("v") != PROTOCOL_VERSION
            ):
                conn.close()
                continue
            try:
                self._on_worker(conn, hello, "%s:%s" % (addr[0], addr[1]))
            except Exception:
                conn.close()

    def close(self) -> None:
        """Stop accepting (idempotent; the thread exits on its own)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.close()
        except OSError:
            pass
