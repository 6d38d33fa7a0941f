"""In-process replay of the service's exact-hit path.

:func:`replay_hit` calls, in the server's order, the same public
functions ``SynthesisServer`` runs for a cache hit -- admission
(``json.loads`` + :func:`~repro.io.service_json.validate_request`),
the content-address digests, the result-tier load
(:meth:`~repro.perf.store.SynthesisStore.load_result`) and response
encoding (:func:`~repro.io.result_json.result_to_dict`,
:func:`~repro.io.service_json.done_response`,
:func:`~repro.service.http.render_response`) -- and times each step,
so the hit latency measured over HTTP can be split by layer.
"""

from __future__ import annotations

import json
import time
from typing import Dict

from common import median


class HitReplayer:
    """Replays hits against one store directory."""

    def __init__(self, store_dir: str) -> None:
        from repro.perf.store import SynthesisStore, catalog_digest
        from repro.resources.catalog import default_library

        self.store_dir = store_dir
        self.store = SynthesisStore(store_dir)
        self.catalog = catalog_digest(default_library())

    def replay(self, body: bytes) -> Dict[str, float]:
        """One hit: step timings in ms, response size, and the response
        bytes (``response``) for the caller to check."""
        from repro.core.config import CrusadeConfig
        from repro.io.result_json import result_to_dict
        from repro.io.service_json import done_response, validate_request
        from repro.perf.store import config_digest, spec_digest
        from repro.service.http import render_response

        clock = time.perf_counter
        t0 = clock()
        spec, overrides = validate_request(json.loads(body.decode("utf-8")))
        t1 = clock()
        config = CrusadeConfig(cache_dir=self.store_dir, **overrides)
        key_parts = {
            "spec": spec_digest(spec),
            "catalog": self.catalog,
            "config": config_digest(config),
        }
        key = "%(spec)s-%(catalog)s-%(config)s" % key_parts
        t2 = clock()
        cached = self.store.load_result(key)
        t3 = clock()
        if cached is None:
            raise LookupError("hit replay missed the store for %s" % spec.name)
        response = render_response(200, done_response(
            key_parts, result_to_dict(cached), cache_hit=True, coalesced=False,
        ))
        t4 = clock()
        return {
            "validate_ms": (t1 - t0) * 1e3,
            "digest_ms": (t2 - t1) * 1e3,
            "load_result_ms": (t3 - t2) * 1e3,
            "encode_ms": (t4 - t3) * 1e3,
            "response_bytes": float(len(response)),
            "response": response,
        }


def hit_path_metrics(samples) -> Dict[str, float]:
    """Per-layer hit-path metrics: medians over replayed hits."""
    return {
        "io.validate_ms": median(s["validate_ms"] for s in samples),
        "io.encode_ms": median(s["encode_ms"] for s in samples),
        "http.response_bytes": median(s["response_bytes"] for s in samples),
        "store.digest_ms": median(s["digest_ms"] for s in samples),
        "store.load_result_ms": median(s["load_result_ms"] for s in samples),
    }
