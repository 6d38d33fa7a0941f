"""Shard-pool supervision: crash, error, timeout, retry, drain.

These run real worker processes against the ``selftest`` job kind and
its fault-injection hook (``params["inject"]``), the same mechanism
the campaign runner's fault tests use -- so every verdict asserted
here was produced by an actual dead process, not a mock.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.campaign.jobs import Job
from repro.obs.trace import Tracer
from repro.service.pool import PoolClosed, ShardPool


def selftest_payload(job_id: str, inject=None) -> dict:
    """A minimal selftest job payload, optionally fault-injected."""
    params = {"value": "ping"}
    if inject:
        params["inject"] = inject
    return Job(
        id=job_id, kind="selftest", example="A1TR", scale=0.05,
        variant="default", config={}, params=params,
    ).to_dict()


def run_pool_scenario(scenario, **pool_kwargs):
    """Start a pool, run ``scenario(pool)``, always drain."""

    async def main():
        pool = ShardPool(**pool_kwargs)
        await pool.start()
        try:
            return await scenario(pool)
        finally:
            await pool.drain()

    return asyncio.run(main())


def test_clean_job_resolves_done_with_result_and_trace():
    tracer = Tracer()

    async def scenario(pool):
        return await pool.submit("j1", selftest_payload("j1"))

    verdict = run_pool_scenario(scenario, workers=1, tracer=tracer)
    assert verdict["status"] == "done"
    assert verdict["result"]["echo"] == "ping"
    assert verdict["attempts"] == 1
    assert verdict["shard"] == 0
    assert verdict["queue_wait_s"] >= 0.0
    assert tracer.counters.as_dict()["service.jobs.done"] == 1


def test_crashed_worker_is_respawned_and_the_job_retried():
    tracer = Tracer()

    async def scenario(pool):
        payload = selftest_payload("j1", inject={"crash_attempts": 1})
        verdict = await pool.submit("j1", payload)
        assert pool.alive_workers == 1  # the shard got a fresh process
        return verdict

    verdict = run_pool_scenario(scenario, workers=1, retries=1, tracer=tracer)
    assert verdict["status"] == "done"
    assert verdict["attempts"] == 2
    counters = tracer.counters.as_dict()
    assert counters["service.jobs.crash"] == 1
    assert counters["service.jobs.retried"] == 1
    assert counters["exec.workers.restarts"] == 1


def test_exhausted_retries_resolve_to_a_structured_crash_failure():
    async def scenario(pool):
        payload = selftest_payload("j1", inject={"crash_attempts": 5})
        return await pool.submit("j1", payload)

    verdict = run_pool_scenario(scenario, workers=1, retries=1)
    assert verdict["status"] == "failed"
    assert verdict["error"]["kind"] == "crash"
    assert verdict["attempts"] == 2


def test_job_exception_surfaces_as_an_error_verdict_with_traceback():
    async def scenario(pool):
        payload = selftest_payload("j1", inject={"error_attempts": 1})
        return await pool.submit("j1", payload)

    verdict = run_pool_scenario(scenario, workers=1, retries=0)
    assert verdict["status"] == "failed"
    assert verdict["error"]["kind"] == "error"
    assert "injected failure" in verdict["error"]["detail"]


def test_hung_worker_is_killed_and_reported_as_timeout():
    async def scenario(pool):
        payload = selftest_payload(
            "j1", inject={"hang_attempts": 1, "hang_seconds": 60.0}
        )
        return await pool.submit("j1", payload)

    verdict = run_pool_scenario(
        scenario, workers=1, retries=0, timeout_s=1.0
    )
    assert verdict["status"] == "failed"
    assert verdict["error"]["kind"] == "timeout"


def test_two_shards_share_one_queue():
    async def scenario(pool):
        verdicts = await asyncio.gather(*[
            pool.submit("j%d" % i, selftest_payload("j%d" % i))
            for i in range(4)
        ])
        return verdicts

    verdicts = run_pool_scenario(scenario, workers=2)
    assert all(v["status"] == "done" for v in verdicts)
    assert {v["shard"] for v in verdicts} <= {0, 1}


def test_draining_pool_refuses_new_jobs_and_stops_workers():
    async def main():
        pool = ShardPool(workers=1)
        await pool.start()
        first = await pool.submit("j1", selftest_payload("j1"))
        await pool.drain()
        assert first["status"] == "done"
        assert pool.alive_workers == 0
        with pytest.raises(PoolClosed):
            await pool.submit("j2", selftest_payload("j2"))

    asyncio.run(main())


def test_unstarted_pool_refuses_jobs():
    async def main():
        pool = ShardPool(workers=1)
        with pytest.raises(PoolClosed):
            await pool.submit("j1", selftest_payload("j1"))

    asyncio.run(main())


def test_constructor_rejects_nonsense():
    with pytest.raises(ValueError):
        ShardPool(workers=0)
    with pytest.raises(ValueError):
        ShardPool(workers=-1)
    with pytest.raises(ValueError):
        ShardPool(retries=-1)


def test_worker_info_reports_shard_health():
    async def scenario(pool):
        await pool.submit("j1", selftest_payload("j1"))
        info = pool.worker_info()
        assert len(info) == 1
        assert info[0]["shard"] == 0
        assert isinstance(info[0]["pid"], int)
        assert info[0]["alive"] is True
        assert info[0]["jobs_done"] == 1
        assert info[0]["restarts"] == 0

    run_pool_scenario(scenario, workers=1)
