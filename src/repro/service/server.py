"""The synthesis job server: admission, dedupe, coalescing, dispatch.

:class:`SynthesisServer` is one long-running asyncio process serving
synthesis over HTTP (see :mod:`repro.service.http` for the deliberate
protocol subset).  A ``POST /synthesize`` request travels four
stations, each cheaper than the next would be:

1. **Admission** -- the body is parsed and schema-validated
   (:func:`repro.io.service_json.validate_request`) *before* anything
   touches the engine; malformed requests cost one parse and get a
   400 with the full error list.
2. **Exact-hit cache probe** -- the request's content-address triple
   (spec digest, catalog digest, semantic config digest -- the same
   key :mod:`repro.perf.store` files results under) is computed and
   the store's full-result tier probed; a hit is served without
   queueing anything (``cache_hit: true``).
3. **In-flight coalescing** -- a request whose triple matches a job
   already queued or running attaches to that job's future instead of
   dispatching a duplicate (``coalesced: true``); N identical
   concurrent submissions cost one synthesis.
4. **Dispatch** -- a novel request becomes a ``synthesize`` job
   (:mod:`repro.campaign.jobs`) on the pull-based shard pool
   (:mod:`repro.service.pool`).  The worker's own ``crusade`` call
   write-throughs the store, so the *next* exact resubmission stops
   at station 2.

Failure is structured at every station: worker crashes/timeouts/
errors surface as ``status: "failed"`` response documents (HTTP 200
-- the request was valid; the *job* failed), never hung connections.
``GET /healthz`` and ``GET /stats`` expose liveness and the
``service.*`` obs counters; ``POST /drain`` is the graceful
shutdown used by rolling deploys: stop admitting, finish the
backlog, stop the workers, then report ``drained``.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Any, Dict, Optional

from repro.core.config import CrusadeConfig
from repro.io.service_json import (
    RequestValidationError,
    SERVICE_SCHEMA_VERSION,
    done_response,
    error_body,
    failed_response,
    validate_request,
)
from repro.io.result_json import result_to_dict
from repro.io.spec_json import spec_to_dict
from repro.obs.trace import Tracer
from repro.perf.store import (
    SynthesisStore,
    catalog_digest,
    config_digest,
    spec_digest,
    store_reads_enabled,
)
from repro.resources.catalog import default_library
from repro.service.http import HttpError, read_request, render_response
from repro.service.pool import PoolClosed, ShardPool


class SynthesisServer:
    """One synthesis-as-a-service front end.

    ``workers`` shard processes compute novel requests; ``cache_dir``
    (optional but strongly recommended) opens the persistent
    content-addressed store that serves exact resubmissions without
    computing.  ``retries``/``timeout_s`` are the shard pool's
    supervision policy.  ``port=0`` binds an ephemeral port,
    re-published on :attr:`port` after :meth:`start`.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 1,
        cache_dir: Optional[str] = None,
        retries: int = 1,
        timeout_s: Optional[float] = None,
        tracer: Optional[Tracer] = None,
        pool: Optional[ShardPool] = None,
    ) -> None:
        """Configure the server; nothing binds or spawns until
        :meth:`start`.  ``pool`` substitutes a pre-built (or fake)
        shard pool -- the test seam."""
        self.host = host
        self.port = port
        self.cache_dir = cache_dir
        # A served process always counts: /stats must answer with real
        # numbers even when nobody asked for event sinks, so the null
        # tracer is not an acceptable default here.
        self.tracer = Tracer() if tracer is None else tracer
        self.pool = pool if pool is not None else ShardPool(
            workers=workers, retries=retries, timeout_s=timeout_s,
            tracer=self.tracer,
        )
        self.store: Optional[SynthesisStore] = (
            SynthesisStore(cache_dir) if cache_dir else None
        )
        self._library = default_library()
        self._catalog_digest = catalog_digest(self._library)
        #: key -> Future resolving to the leader's outcome dict.
        self._inflight: Dict[str, asyncio.Future] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        #: Set by the first drain() caller; later callers await it, so
        #: the pool drains exactly once (py3.9-safe: no loop-bound
        #: primitives are created outside a running loop).
        self._drain_task: Optional[asyncio.Task] = None
        self._started_at = time.monotonic()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Start the shard pool and bind the listening socket."""
        await self.pool.start()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.monotonic()
        self.tracer.event(
            "service.start", host=self.host, port=self.port,
            workers=getattr(self.pool, "workers", 0),
            cache_dir=self.cache_dir or "",
        )

    async def drain(self) -> None:
        """Graceful shutdown: refuse new work, finish the backlog.

        New ``/synthesize`` requests are refused with 503 the moment
        this is called; queued and in-flight jobs run to completion
        (their clients get real responses); then the shard workers are
        stopped.  ``/healthz`` and ``/stats`` keep answering so
        orchestrators can watch the drain finish.
        """
        if self._drain_task is None:
            self._drain_task = asyncio.get_running_loop().create_task(
                self._drain_once()
            )
        await asyncio.shield(self._drain_task)

    async def _drain_once(self) -> None:
        """The single real drain behind :meth:`drain`."""
        await self.pool.drain()
        self.tracer.event("service.drain", backlog=self.pool.backlog)

    async def close(self) -> None:
        """Stop listening and tear the pool down (drains first)."""
        await self.drain()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.tracer.event("service.end")

    @property
    def draining(self) -> bool:
        """Whether :meth:`drain` has been initiated."""
        return self._drain_task is not None

    @property
    def drained(self) -> bool:
        """Whether the backlog is finished and workers are stopped."""
        return self._drain_task is not None and self._drain_task.done()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        """Serve one request/response exchange, then close."""
        try:
            status, payload = await self._respond(reader)
            if status is None:
                return
            writer.write(render_response(status, payload))
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass  # the client went away; nothing to salvage
        finally:
            try:
                writer.close()
                if hasattr(writer, "wait_closed"):
                    await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _respond(self, reader):
        """Route one parsed request to ``(status, payload)``."""
        try:
            request = await read_request(reader)
        except HttpError as exc:
            kind = "payload-too-large" if exc.status == 413 else "invalid-json"
            self.tracer.incr("service.rejected")
            return exc.status, error_body(kind, exc.detail)
        if request is None:
            return None, None  # bare TCP probe; no response owed
        method, path, _headers, body = request
        self.tracer.incr("service.requests")
        try:
            return await self._route(method, path, body)
        except Exception as exc:  # the server must answer, whatever broke
            self.tracer.incr("service.errors.internal")
            return 500, error_body(
                "internal", "%s: %s" % (type(exc).__name__, exc)
            )

    async def _route(self, method: str, path: str, body: bytes):
        """Dispatch on (method, path); the endpoint table."""
        path = path.split("?", 1)[0]
        if path == "/healthz":
            if method != "GET":
                return self._method_not_allowed(method, path)
            return 200, self._healthz()
        if path == "/stats":
            if method != "GET":
                return self._method_not_allowed(method, path)
            return 200, self._stats()
        if path == "/synthesize":
            if method != "POST":
                return self._method_not_allowed(method, path)
            return await self._synthesize(body)
        if path == "/drain":
            if method != "POST":
                return self._method_not_allowed(method, path)
            await self.drain()
            return 200, {"status": "drained", "backlog": self.pool.backlog}
        self.tracer.incr("service.rejected")
        return 404, error_body("not-found", "no endpoint %r" % (path,))

    def _method_not_allowed(self, method: str, path: str):
        """The 405 shape for a known path with the wrong method."""
        self.tracer.incr("service.rejected")
        return 405, error_body(
            "method-not-allowed", "%s is not allowed on %s" % (method, path)
        )

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    def _healthz(self) -> Dict[str, Any]:
        """The liveness document: worker and drain state."""
        status = "ok"
        if self.draining:
            status = "drained" if self.drained else "draining"
        return {
            "status": status,
            "version": SERVICE_SCHEMA_VERSION,
            "workers": getattr(self.pool, "workers", 0),
            "alive_workers": getattr(self.pool, "alive_workers", 0),
            "backlog": self.pool.backlog,
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "cache": bool(self.store),
        }

    def _stats(self) -> Dict[str, Any]:
        """The observability document: every ``service.*`` and
        ``exec.workers.*`` counter, plus per-shard worker health."""
        worker_info = getattr(self.pool, "worker_info", None)
        return {
            "version": SERVICE_SCHEMA_VERSION,
            "counters": self.tracer.counters.as_dict(),
            "inflight_keys": len(self._inflight),
            "backlog": self.pool.backlog,
            "draining": self.draining,
            "workers": worker_info() if callable(worker_info) else [],
        }

    async def _synthesize(self, body: bytes):
        """Stations 1-4: admit, probe, coalesce, dispatch."""
        if self.draining:
            self.tracer.incr("service.rejected.draining")
            return 503, error_body(
                "draining", "the server is draining; resubmit elsewhere"
            )
        # -- station 1: admission ------------------------------------
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            self.tracer.incr("service.rejected.invalid")
            return 400, error_body("invalid-json", "body is not JSON: %s" % exc)
        try:
            spec, overrides = validate_request(payload)
        except RequestValidationError as exc:
            self.tracer.incr("service.rejected.invalid")
            return 400, error_body(
                "bad-request", "request failed validation", errors=exc.errors
            )
        config = CrusadeConfig(cache_dir=self.cache_dir, **overrides)
        key_parts = {
            "spec": spec_digest(spec),
            "catalog": self._catalog_digest,
            "config": config_digest(config),
        }
        key = "%(spec)s-%(catalog)s-%(config)s" % key_parts
        # -- station 2: exact-hit probe ------------------------------
        probe_started = time.perf_counter()
        if self.store is not None and store_reads_enabled(config):
            cached = self.store.load_result(key, tracer=self.tracer)
            probe_s = time.perf_counter() - probe_started
            if cached is not None:
                self.tracer.incr("service.cache.hit")
                self.tracer.event(
                    "service.request", key=key, outcome="cache_hit",
                    probe_s=round(probe_s, 6),
                )
                return 200, done_response(
                    key_parts, result_to_dict(cached),
                    cache_hit=True, coalesced=False,
                )
        self.tracer.incr("service.cache.miss")
        # -- station 3: in-flight coalescing -------------------------
        leader_future = self._inflight.get(key)
        if leader_future is not None:
            self.tracer.incr("service.coalesced")
            outcome = await asyncio.shield(leader_future)
            self.tracer.event(
                "service.request", key=key, outcome="coalesced",
                status=outcome["status"],
            )
            return 200, self._job_response(key_parts, outcome, coalesced=True)
        # -- station 4: dispatch to the shard pool -------------------
        future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        try:
            outcome = await self._dispatch(key, spec, overrides)
            future.set_result(outcome)
        except BaseException as exc:
            future.set_exception(exc)
            # A coalesced waiter may already hold this future; the
            # exception must not also explode out of *this* frame
            # unobserved there.
            raise
        finally:
            self._inflight.pop(key, None)
        return 200, self._job_response(key_parts, outcome, coalesced=False)

    async def _dispatch(
        self, key: str, spec, overrides: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Run one novel request on the pool; returns its verdict."""
        from repro.campaign.jobs import Job

        job_config = dict(overrides)
        if self.cache_dir:
            # The worker's own crusade() call read-probes (a racing
            # duplicate may have landed first) and write-throughs the
            # store, keyed identically: cache_dir is digest-neutral.
            job_config["cache_dir"] = self.cache_dir
        job = Job(
            id=key,
            kind="synthesize",
            example=spec.name,
            scale=1.0,
            variant="service",
            config=job_config,
            params={"spec": spec_to_dict(spec)},
        )
        dispatch_started = time.perf_counter()
        try:
            verdict = await self.pool.submit(key, job.to_dict())
        except PoolClosed:
            # Drain won the race after admission; degrade like a 503.
            verdict = {
                "status": "failed",
                "error": {"kind": "draining",
                          "detail": "the pool drained before dispatch"},
                "attempts": 0, "queue_wait_s": 0.0,
            }
        wall_s = time.perf_counter() - dispatch_started
        self.tracer.event(
            "service.request", key=key, outcome="computed",
            status=verdict["status"],
            queue_wait_s=verdict.get("queue_wait_s", 0.0),
            worker_wall_s=round(wall_s, 6),
            attempts=verdict.get("attempts", 0),
            shard=verdict.get("shard", -1),
        )
        return verdict

    def _job_response(
        self, key_parts: Dict[str, str], outcome: Dict[str, Any],
        coalesced: bool,
    ):
        """Map one pool verdict onto the response document."""
        if outcome["status"] == "done":
            return done_response(
                key_parts, outcome["result"]["result"],
                cache_hit=False, coalesced=coalesced,
            )
        error = outcome.get("error") or {}
        return failed_response(
            key_parts, error.get("kind", "error"), error.get("detail", ""),
            coalesced=coalesced,
        )


async def serve(server: SynthesisServer) -> None:
    """Start ``server`` and run until cancelled (the CLI's core)."""
    await server.start()
    try:
        await asyncio.Event().wait()  # cancelled by signal handlers
    finally:
        await server.close()
