"""Remote dial-in: ``repro worker --connect`` joins real pools.

These spawn the actual CLI as a subprocess against a listening pool
on localhost, so the hello/welcome handshake, role assignment and
clean-release paths are exercised end to end.
"""

from __future__ import annotations

import asyncio
import subprocess
import sys
import time

import pytest

from repro.exec import connect_and_serve
from repro.obs.trace import Tracer

from tests.exec.test_transport import selftest_job


def start_worker(port):
    """One ``repro worker --connect`` subprocess against ``port``."""
    import os

    import repro

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__
    )))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src_dir] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "worker",
         "--connect", "127.0.0.1:%d" % port],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )


def test_remote_worker_joins_a_service_pool_and_runs_jobs():
    from repro.service.pool import ShardPool

    tracer = Tracer()

    async def main():
        pool = ShardPool(
            workers=0, worker_port=0, worker_host="127.0.0.1",
            tracer=tracer,
        )
        await pool.start()
        proc = start_worker(pool.listen_port)
        try:
            deadline = time.monotonic() + 20.0
            while pool.alive_workers == 0:
                assert time.monotonic() < deadline, "worker never joined"
                await asyncio.sleep(0.05)
            verdict = await pool.submit("j1", selftest_job("j1"))
            assert verdict["status"] == "done"
            assert verdict["result"]["echo"] == "ping"
            info = pool.worker_info()
            assert len(info) == 1 and info[0]["kind"] == "socket"
            assert info[0]["remote"] and info[0]["jobs_done"] == 1
        finally:
            await pool.drain()
            assert proc.wait(timeout=20.0) == 0  # released cleanly
        counters = tracer.counters.as_dict()
        assert counters["service.workers.joined"] == 1
        assert counters["exec.workers.transport.socket"] == 1

    asyncio.run(main())


def test_connect_to_a_dead_port_fails_fast_with_exit_1():
    import socket

    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()  # nothing listens here now
    lines = []
    code = connect_and_serve("127.0.0.1", port, log=lines.append)
    assert code == 1
    assert any("cannot connect" in line for line in lines)


def test_worker_cli_rejects_a_malformed_address():
    from repro.cli import main

    assert main(["worker", "--connect", "not-an-address"]) == 2


def test_worker_cli_requires_connect():
    from repro.cli import build_parser

    with pytest.raises(SystemExit):
        build_parser().parse_args(["worker"])
