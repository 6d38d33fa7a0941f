"""Worker-side entry point: the persistent job loop.

:func:`job_worker_main` runs in every forked worker process
(:class:`~repro.exec.transport.PipeTransport`), reading jobs from its
end of the pipe and replying with each job's result or traceback.
"""

from __future__ import annotations

import importlib
import traceback


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
        except (EOFError, OSError):
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
