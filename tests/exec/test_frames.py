"""Framing: canonical round-trips, JSON-only payloads, torn frames.

Every test that touches a live connection uses a unix socketpair --
one peer scripted byte-by-byte -- so the half-written and oversize
faults are exact, not timing-dependent.
"""

from __future__ import annotations

import json
import socket
import struct

import pytest

from repro.exec.frames import (
    MAX_FRAME_BYTES,
    FrameConnection,
    FrameError,
    RecvTimeout,
    decode_body,
    encode_frame,
)


def frame_pair():
    """Two connected FrameConnections (left, right)."""
    a, b = socket.socketpair()
    return FrameConnection(a, body_timeout_s=0.5), \
        FrameConnection(b, body_timeout_s=0.5)


def test_round_trip_preserves_json_values():
    for message in (
        {"b": 2, "a": 1},
        ["x", 1, 2.5, None, True],
        "plain string",
        {"nested": {"list": [1, [2, [3]]]}},
        "unicode: éµ",
    ):
        assert decode_body(encode_frame(message)[4:]) == message


def test_encoding_is_canonical():
    assert encode_frame({"b": 2, "a": 1}) == encode_frame({"a": 1, "b": 2})
    body = encode_frame({"a": 1, "b": 2})[4:]
    assert body == b'{"a":1,"b":2}'


def test_tuples_come_back_as_lists():
    assert decode_body(encode_frame(("bound", 3, (1, 2)))[4:]) == \
        ["bound", 3, [1, 2]]


def test_bytes_are_refused_on_send():
    with pytest.raises(FrameError):
        encode_frame({"blob": bytes(range(256))})


@pytest.mark.parametrize("value", [complex(1, 2), {1, 2, 3}, object()],
                         ids=["complex", "set", "object"])
def test_opaque_objects_are_refused_on_send(value):
    with pytest.raises(FrameError):
        encode_frame({"value": value})


def test_pickle_shaped_body_decodes_as_a_plain_dict():
    """A ``__pickle_b64__`` object is just JSON: never unpickled."""
    import base64
    import pickle

    blob = base64.b64encode(pickle.dumps({1, 2, 3})).decode("ascii")
    body = json.dumps({"__pickle_b64__": blob}).encode("utf-8")
    assert decode_body(body) == {"__pickle_b64__": blob}


def test_oversize_frame_is_refused_on_send(monkeypatch):
    from repro.exec import frames

    monkeypatch.setattr(frames, "MAX_FRAME_BYTES", 64)
    with pytest.raises(FrameError):
        encode_frame({"blob": "z" * 128})


def test_oversize_header_is_refused_on_recv():
    left, right = frame_pair()
    try:
        right._sock.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
        with pytest.raises(FrameError):
            left.recv(timeout=0.5)
    finally:
        left.close()
        right.close()


def test_connection_send_recv_round_trip():
    left, right = frame_pair()
    try:
        left.send(("job", "j1", 1, {"params": {}}))
        assert right.recv(timeout=1.0) == ["job", "j1", 1, {"params": {}}]
        right.send(("ok", "j1", {"echo": "pong"}))
        assert left.recv(timeout=1.0) == ["ok", "j1", {"echo": "pong"}]
    finally:
        left.close()
        right.close()


def test_recv_timeout_when_no_frame_starts():
    left, right = frame_pair()
    try:
        with pytest.raises(RecvTimeout):
            left.recv(timeout=0.05)
    finally:
        left.close()
        right.close()


def test_clean_close_at_boundary_is_eof():
    left, right = frame_pair()
    right.close()
    try:
        with pytest.raises(EOFError):
            left.recv(timeout=0.5)
    finally:
        left.close()


def test_half_written_frame_is_a_typed_frame_error_not_a_hang():
    """A peer that stalls mid-frame trips the body timeout: recv
    raises FrameError within body_timeout_s instead of waiting on
    bytes that will never come."""
    import time

    left, right = frame_pair()
    try:
        encoded = encode_frame({"payload": "x" * 64})
        right._sock.sendall(encoded[: len(encoded) // 2])  # ...then stall
        started = time.monotonic()
        with pytest.raises(FrameError, match="stalled"):
            left.recv(timeout=5.0)
        assert time.monotonic() - started < 3.0
    finally:
        left.close()
        right.close()


def test_close_mid_frame_is_a_torn_frame():
    left, right = frame_pair()
    encoded = encode_frame({"payload": "y" * 64})
    right._sock.sendall(encoded[: len(encoded) // 2])
    right.close()
    try:
        with pytest.raises(FrameError, match="mid-frame"):
            left.recv(timeout=0.5)
    finally:
        left.close()


def test_exact_reads_leave_the_next_frame_for_the_next_recv():
    """recv never over-reads: two frames sent back-to-back arrive as
    two distinct messages, and the fd stays poll()-able in between."""
    left, right = frame_pair()
    try:
        right._sock.sendall(encode_frame({"n": 1}) + encode_frame({"n": 2}))
        assert left.recv(timeout=1.0) == {"n": 1}
        assert left.poll(0.5)
        assert left.recv(timeout=1.0) == {"n": 2}
    finally:
        left.close()
        right.close()
