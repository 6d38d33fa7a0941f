"""Length-prefixed canonical-JSON framing for socket transports.

Every message on a :class:`FrameConnection` is one *frame*: a 4-byte
big-endian length header followed by that many bytes of canonical
JSON (sorted keys, compact separators, UTF-8).  Canonical encoding
means the same message always produces the same bytes, so frames can
be logged, diffed and replayed deterministically.

Frames carry plain JSON only: :func:`encode_frame` refuses any other
value (``bytes``, sets, arbitrary objects) with :class:`FrameError`,
and a received body is decoded by ``json.loads`` alone -- nothing on
the wire is ever unpickled, whatever shape it takes.  The job
payloads and results of the campaign runner and service shard pool
are JSON documents already.

Tuples serialize as JSON arrays and come back as lists.

Reads are *exact*: :meth:`FrameConnection.recv` never reads past the
end of one frame, so the underlying socket file descriptor stays
usable with ``multiprocessing.connection.wait`` -- readability always
means "a new frame has started".  A frame that starts but never
finishes (the half-written-frame fault) trips
:data:`FRAME_BODY_TIMEOUT_S` and raises :class:`FrameError` instead
of hanging.
"""

from __future__ import annotations

import json
import select
import socket
import struct
import threading
from typing import Any, Optional

#: 4-byte big-endian unsigned frame-length header.
_HEADER = struct.Struct(">I")

#: Hard cap on one frame's body; a peer announcing more is corrupt or
#: hostile and the connection is declared dead rather than buffered.
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: Longest a reader waits for the *rest* of a frame whose header (or
#: first bytes) already arrived.  A peer that stalls mid-frame is
#: dead-or-wedged either way; this converts the hang into a typed
#: :class:`FrameError`.
FRAME_BODY_TIMEOUT_S = 30.0


class FrameError(RuntimeError):
    """A protocol violation on a framed connection (oversize frame,
    torn frame, undecodable body)."""


class RecvTimeout(Exception):
    """No frame started within the ``timeout`` passed to ``recv``."""


def encode_frame(message: Any) -> bytes:
    """One message -> header + canonical-JSON body bytes.

    Raises :class:`FrameError` when ``message`` is not plain JSON.
    """
    try:
        body = json.dumps(
            message, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise FrameError("frame is not plain JSON: %s" % (exc,)) from exc
    if len(body) > MAX_FRAME_BYTES:
        raise FrameError(
            "frame of %d bytes exceeds the %d-byte cap"
            % (len(body), MAX_FRAME_BYTES)
        )
    return _HEADER.pack(len(body)) + body


def decode_body(body: bytes) -> Any:
    """One frame body's bytes -> the message it encodes."""
    try:
        return json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise FrameError("undecodable frame body: %s" % (exc,)) from exc


class FrameConnection:
    """A message connection over one TCP socket, one frame at a time.

    Mirrors the subset of ``multiprocessing.Connection`` the worker
    loops use -- :meth:`send`, :meth:`recv`, :meth:`poll`,
    :meth:`fileno`, :meth:`close` -- so a child worker loop runs
    unchanged over either.  ``send`` is serialized by a lock so a
    heartbeat thread can interleave frames with the main loop's
    replies without tearing either.
    """

    def __init__(
        self, sock: socket.socket,
        body_timeout_s: float = FRAME_BODY_TIMEOUT_S,
    ) -> None:
        """Wrap ``sock``; ``body_timeout_s`` bounds mid-frame stalls."""
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # not TCP (e.g. a unix socketpair standing in for one)
        self._sock: Optional[socket.socket] = sock
        self._send_lock = threading.Lock()
        self.body_timeout_s = body_timeout_s

    # ------------------------------------------------------------------
    def fileno(self) -> int:
        """The socket fd (waitable; readable == a frame has started)."""
        if self._sock is None:
            raise OSError("framed connection is closed")
        return self._sock.fileno()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._sock is None

    # ------------------------------------------------------------------
    def send(self, message: Any) -> None:
        """Frame and send one message (thread-safe).

        Raises ``OSError``/``BrokenPipeError`` when the peer is gone,
        exactly as a dead pipe would, and :class:`FrameError` when
        ``message`` is not plain JSON.
        """
        data = encode_frame(message)
        with self._send_lock:
            if self._sock is None:
                raise OSError("framed connection is closed")
            self._sock.sendall(data)

    def poll(self, timeout: float = 0.0) -> bool:
        """Whether a frame has started arriving within ``timeout``."""
        if self._sock is None:
            return False
        ready, _, _ = select.select([self._sock], [], [], timeout)
        return bool(ready)

    def recv(self, timeout: Optional[float] = None) -> Any:
        """Read exactly one frame and decode it.

        Blocks up to ``timeout`` (``None`` = forever) for the frame to
        *start*; once the first byte has arrived the rest must follow
        within :attr:`body_timeout_s`.  Raises :class:`RecvTimeout`
        when no frame starts in time, :class:`EOFError` on a clean
        peer close at a frame boundary, and :class:`FrameError` on a
        torn/oversize/undecodable frame.
        """
        header = self._read_exact(_HEADER.size, boundary_timeout=timeout)
        (length,) = _HEADER.unpack(header)
        if length > MAX_FRAME_BYTES:
            raise FrameError(
                "peer announced a %d-byte frame (cap %d)"
                % (length, MAX_FRAME_BYTES)
            )
        body = self._read_exact(length)
        return decode_body(body)

    def _read_exact(self, n: int, boundary_timeout=False) -> bytes:
        """Read exactly ``n`` bytes or raise.

        ``boundary_timeout`` other than ``False`` marks a read that
        starts at a frame boundary: there, a timeout is a clean
        :class:`RecvTimeout` and EOF a clean :class:`EOFError`.
        Inside a frame, a stall or EOF is a torn frame
        (:class:`FrameError`).
        """
        if self._sock is None:
            raise EOFError("framed connection is closed")
        chunks = []
        got = 0
        at_boundary = boundary_timeout is not False
        while got < n:
            clean = at_boundary and got == 0
            self._sock.settimeout(
                boundary_timeout if clean else self.body_timeout_s
            )
            try:
                chunk = self._sock.recv(n - got)
            except socket.timeout:
                if clean:
                    raise RecvTimeout() from None
                raise FrameError(
                    "frame stalled after %d of %d bytes" % (got, n)
                ) from None
            except OSError as exc:
                raise EOFError("connection lost: %s" % (exc,)) from exc
            if not chunk:
                if clean:
                    raise EOFError("peer closed the connection")
                raise FrameError(
                    "peer closed mid-frame after %d of %d bytes" % (got, n)
                )
            chunks.append(chunk)
            got += len(chunk)
        return b"".join(chunks)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the socket (idempotent)."""
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass
