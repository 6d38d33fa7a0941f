"""Synthesis-as-a-service: the long-running job server over the engine.

Assembled from pieces the repo already trusts: supervised
:mod:`repro.exec` worker processes (forked locally, one pipe each)
compute, the persistent content-addressed store
(:mod:`repro.perf.store`) remembers, and this package adds the front
end that turns both into a service --

* :mod:`repro.service.server` -- the asyncio HTTP server: schema
  validation at admission, exact-hit serving from the store's
  full-result tier, in-flight duplicate coalescing, structured
  failure responses, ``/healthz`` + ``/stats``, graceful drain;
* :mod:`repro.service.pool` -- the pull-based shard pool supervising
  the workers (timeouts, SIGTERM -> SIGKILL escalation, bounded
  retry), lifted attempt-for-attempt from
  :mod:`repro.campaign.runner`;
* :mod:`repro.service.http` -- the stdlib-only HTTP/1.1 subset (no
  new dependencies, hard request limits);
* :mod:`repro.service.client` -- the blocking reference client behind
  ``repro submit``;
* :mod:`repro.io.service_json` -- the versioned request/response/
  error schemas both sides validate against.

The serving contract in one sentence: a resubmitted request is served
from the store **byte-identical** to its first computation, duplicate
in-flight requests coalesce onto **one** worker job, and every
failure mode an operator can hit is a structured JSON document
catalogued in docs/SERVICE.md.

Start one with ``repro serve --port 8100 --workers 4 --cache-dir
store/``; script against it with ``repro submit spec.json --port
8100`` (README.md, "Serving").
"""

from repro.service.client import ServiceUnreachable, healthz, stats, submit
from repro.service.pool import PoolClosed, ShardPool
from repro.service.server import SynthesisServer

__all__ = [
    "PoolClosed",
    "ServiceUnreachable",
    "ShardPool",
    "SynthesisServer",
    "healthz",
    "stats",
    "submit",
]
