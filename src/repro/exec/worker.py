"""Worker-side entry points: child loops and the dial-in client.

Three ways a worker process starts, all converging on the same job
loop:

* :func:`job_worker_main` runs directly over a forked pipe
  (``PipeTransport``);
* :func:`socket_child_main` is the local socket spawn: the child
  connects back to its parent transport's private loopback listener,
  starts the heartbeat thread, and runs its role loop over frames;
* :func:`connect_and_serve` is ``repro worker --connect HOST:PORT``:
  dial a pool's :class:`~repro.exec.sockets.WorkerListener`, send the
  hello frame, let the *welcome* frame name the role (``job``) and
  its arguments, then serve until the pool closes the connection.

Because the job loop only uses ``recv``/``send``/``close``, the very
same function runs over a ``multiprocessing`` pipe connection and a
:class:`~repro.exec.frames.FrameConnection` -- which is what makes
the pipe and socket transports byte-equivalent in behavior.
"""

from __future__ import annotations

import importlib
import os
import socket
import sys
import threading
import traceback
from typing import Any, Dict, Optional

from repro.exec.frames import FrameConnection, FrameError, RecvTimeout
from repro.exec.sockets import (
    CONNECT_TIMEOUT_S,
    HEARTBEAT_S,
    HELLO_MAGIC,
    PROTOCOL_VERSION,
)


def job_worker_main(conn, target: str) -> None:
    """Generic persistent-worker loop executing ``fn(payload, attempt)``.

    Resolves ``target`` (a ``"module:function"`` dotted name, so it
    survives the ``spawn`` start method) and executes one job per
    ``("job", job_id, attempt, payload)`` message, replying
    ``("ok", job_id, result)`` or ``("error", job_id, traceback)``.
    Anything that escapes this loop entirely -- ``os._exit``, a
    segfault, a kill -- is what the parent's supervision exists for.
    """
    module_name, _, fn_name = target.partition(":")
    fn = getattr(importlib.import_module(module_name), fn_name)
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError, FrameError):
            break
        if msg[0] == "stop":
            break
        _, job_id, attempt, payload = msg
        try:
            result = fn(payload, attempt)
        except BaseException:
            conn.send(("error", job_id, traceback.format_exc()))
        else:
            conn.send(("ok", job_id, result))
    conn.close()


def _serve_role(conn, role: str, kwargs: Dict[str, Any]) -> None:
    """Dispatch one connection to its role loop."""
    if role == "job":
        job_worker_main(conn, kwargs["target"])
    else:
        conn.close()
        raise ValueError("unknown worker role %r" % (role,))


def start_heartbeat(conn: FrameConnection,
                    interval_s: float = HEARTBEAT_S) -> threading.Thread:
    """Start the daemon thread that keeps ``conn``'s peer convinced
    this worker is alive; it exits when the connection dies."""

    def beat() -> None:
        """Send ``("hb",)`` every ``interval_s`` until the peer dies."""
        import time

        while True:
            time.sleep(interval_s)
            try:
                conn.send(("hb",))
            except (OSError, FrameError):
                return

    thread = threading.Thread(
        target=beat, name="repro-worker-heartbeat", daemon=True
    )
    thread.start()
    return thread


def socket_child_main(
    host: str, port: int, role: str, kwargs: Dict[str, Any]
) -> None:
    """Local socket spawn: connect back to the parent and serve."""
    sock = socket.create_connection((host, port), timeout=CONNECT_TIMEOUT_S)
    conn = FrameConnection(sock)
    start_heartbeat(conn)
    _serve_role(conn, role, kwargs)


def connect_and_serve(
    host: str,
    port: int,
    connect_timeout_s: float = CONNECT_TIMEOUT_S,
    log=None,
) -> int:
    """Dial a pool and serve whatever role its welcome assigns.

    The ``repro worker --connect`` entry: returns a process exit code
    -- 0 after a clean stop (the pool said ``stop`` or closed the
    connection), 1 when the dial or handshake fails.  ``log`` is a
    ``print``-like hook for progress lines (default: stderr).
    """
    emit = log if log is not None else (
        lambda line: print(line, file=sys.stderr)
    )
    try:
        sock = socket.create_connection(
            (host, port), timeout=connect_timeout_s
        )
    except OSError as exc:
        emit("repro worker: cannot connect to %s:%d: %s" % (host, port, exc))
        return 1
    conn = FrameConnection(sock)
    try:
        conn.send({
            "hello": HELLO_MAGIC,
            "v": PROTOCOL_VERSION,
            "pid": os.getpid(),
        })
        welcome = conn.recv(timeout=connect_timeout_s)
    except (RecvTimeout, EOFError, OSError, FrameError) as exc:
        emit("repro worker: handshake with %s:%d failed: %s"
             % (host, port, exc))
        conn.close()
        return 1
    if not isinstance(welcome, dict) or "role" not in welcome:
        emit("repro worker: %s:%d sent an invalid welcome" % (host, port))
        conn.close()
        return 1
    role = welcome["role"]
    kwargs = {k: v for k, v in welcome.items() if k != "role"}
    emit("repro worker: joined %s:%d as a %r worker" % (host, port, role))
    start_heartbeat(conn)
    try:
        _serve_role(conn, role, kwargs)
    except ValueError as exc:
        emit("repro worker: %s" % (exc,))
        return 1
    emit("repro worker: pool at %s:%d released this worker" % (host, port))
    return 0


def welcome_message(role: str, **kwargs: Any) -> Dict[str, Any]:
    """The welcome frame a pool sends when adopting a dial-in."""
    message: Dict[str, Any] = {"role": role}
    message.update(kwargs)
    return message
