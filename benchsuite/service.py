"""The service session of a traced run: ``repro serve`` under open-loop load.

``repro serve --workers 1 --trace`` runs as a subprocess with a fresh
store in the run's scratch directory.  The session warms the store by
submitting three warm specs (responses of about 43, 82 and 210 KB),
then drives an open loop at :data:`inputs.RATE_PER_S` requests per
second on two connections: mostly exact hits on the warm specs, plus
fresh misses (relabelled copies of a 22-task spec), near resubmits (one
graph deadline of the smallest warm spec loosened by 5 or 10 %) and
duplicate pairs sent together so they coalesce.  It reports the
service, pool, exec, io and store layers from the server's
``service.request`` events, its ``/stats`` counter deltas over the
load, an in-process replay of the hit path on the warm requests, and
one further near resubmit synthesized in-process under the span ledger.

The session only feeds per-layer metrics.  Its end-to-end latencies
are printed on stderr but gate nothing: on the 2-core shared host this
benchmark was written on they moved by a third between runs minutes
apart (see README.md), wider than any bound a benchmark may set.
"""

from __future__ import annotations

import hashlib
import json
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

import inputs
from common import (
    ROOT, BenchError, Checker, Scratch, child_env, log, median,
    oracle_violations, percentile, result_bytes_of,
)
from hitpath import HitReplayer, hit_path_metrics
from ledger import Ledger, import_layers
from metrics import synthesis_layers

#: Seconds to wait for the server to print its port, for one request,
#: and for the server to drain and exit.
START_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 60.0

#: In-process hit-path replays per warm spec in a traced run.
REPLAYS_PER_SPEC = 10

_PORT_LINE = re.compile(rb"serving on http://[^:]+:(\d+)")


# ----------------------------------------------------------------------
# the server subprocess and the client
# ----------------------------------------------------------------------
class Server:
    """``repro serve`` as a child process; always stopped by :meth:`stop`."""

    def __init__(self, store_dir: str, log_path, trace_path=None) -> None:
        command = [sys.executable, "-m", "repro", "serve", "--port", "0",
                   "--workers", "1", "--cache-dir", store_dir]
        if trace_path is not None:
            command += ["--trace", str(trace_path)]
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            command, cwd=str(ROOT), env=child_env(),
            stdout=subprocess.PIPE, stderr=self._log,
        )
        self.port = self._read_port()

    def _read_port(self) -> int:
        found: Dict[str, int] = {}

        def reader() -> None:
            for line in self.proc.stdout:
                match = _PORT_LINE.search(line)
                if match and "port" not in found:
                    found["port"] = int(match.group(1))
                    break

        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        thread.join(START_TIMEOUT_S)
        if "port" not in found:
            self.stop()
            raise BenchError("the server did not report its port")
        return found["port"]

    def stop(self) -> None:
        """Drain and stop the server (SIGTERM), killing it on timeout."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def exchange(port: int, method: str, path: str, body: bytes = b""):
    """One HTTP exchange on a fresh connection: (status, body bytes)."""
    head = ("%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            "Content-Type: application/json\r\nContent-Length: %d\r\n"
            "Connection: close\r\n\r\n" % (method, path, len(body)))
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=REQUEST_TIMEOUT_S) as sock:
        sock.sendall(head.encode("ascii") + body)
        chunks = []
        while True:
            chunk = sock.recv(1 << 18)
            if not chunk:
                break
            chunks.append(chunk)
    raw = b"".join(chunks)
    head_bytes, _, payload = raw.partition(b"\r\n\r\n")
    try:
        status = int(head_bytes.split(b" ", 2)[1])
    except (IndexError, ValueError):
        raise BenchError("malformed HTTP response") from None
    return status, payload


def get_json(port: int, path: str):
    status, payload = exchange(port, "GET", path)
    if status != 200:
        raise BenchError("GET %s answered %d" % (path, status))
    return json.loads(payload)


# ----------------------------------------------------------------------
# the open loop
# ----------------------------------------------------------------------
class Outcome:
    """What one request of the open loop saw."""

    __slots__ = ("late", "latency", "status", "body", "digest", "error")

    def __init__(self) -> None:
        self.late = self.latency = 0.0
        self.status = 0
        self.body: Optional[bytes] = None
        self.digest = ""
        self.error = ""


def lanes(requests: List[inputs.Request]) -> List[List[int]]:
    """Split request indices over the generator's two connections:
    hits on one, compute requests on the other, and the two halves of
    a duplicate pair one on each so they arrive together.  A slow
    synthesis therefore delays the compute requests behind it (the
    single worker would make them wait anyway) but never stops hits
    from being sent."""
    hit_lane: List[int] = []
    compute_lane: List[int] = []
    for index, request in enumerate(requests):
        second_of_pair = (request.kind == "dup" and index > 0
                          and requests[index - 1].kind == "dup"
                          and requests[index - 1].key == request.key)
        if request.kind == "hit" or second_of_pair:
            hit_lane.append(index)
        else:
            compute_lane.append(index)
    return [hit_lane, compute_lane]


def open_loop(port: int, requests: List[inputs.Request]):
    """Send ``requests`` on their schedule, each lane of :func:`lanes`
    on its own connection, one exchange at a time.

    Returns one :class:`Outcome` per request, and the first body seen
    for each distinct hit-body digest (hits keep only a digest, so the
    run checks each distinct hit body once instead of decoding every
    response).
    """
    outcomes = [Outcome() for _ in requests]
    hit_bodies: Dict[str, bytes] = {}
    lock = threading.Lock()
    start = time.perf_counter() + 0.05

    def sender(lane: List[int]) -> None:
        for index in lane:
            request, outcome = requests[index], outcomes[index]
            due = start + request.due
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            outcome.late = time.perf_counter() - due
            try:
                outcome.status, body = exchange(port, "POST", "/synthesize",
                                                request.body)
            except (OSError, BenchError) as exc:
                outcome.error = "%s: %s" % (type(exc).__name__, exc)
                body = b""
            outcome.latency = time.perf_counter() - due
            if request.kind == "hit":
                outcome.digest = hashlib.sha256(body).hexdigest()
                with lock:
                    hit_bodies.setdefault(outcome.digest, body)
            else:
                outcome.body = body

    threads = [threading.Thread(target=sender, args=(lane,))
               for lane in lanes(requests)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes, hit_bodies


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------
def done_document(status: int, body: bytes, what: str, checker: Checker):
    """The decoded ``done`` response, or None after recording why not."""
    if status != 200:
        checker.fail("%s: HTTP %d" % (what, status))
        return None
    document = json.loads(body)
    if document.get("status") != "done":
        checker.fail("%s: status %r (%s)" % (what, document.get("status"),
                                             document.get("error")))
        return None
    return document


def check_computed(store_dir: str, document: dict, what: str,
                   checker: Checker) -> None:
    """A computed response must equal the stored result, and the stored
    result must pass the independent validators."""
    from repro.io.service_json import result_bytes
    from repro.perf.store import SynthesisStore

    if document.get("cache_hit"):
        checker.fail("%s: fresh request answered from the cache" % what)
        return
    key = "%(spec)s-%(catalog)s-%(config)s" % document["key"]
    stored = SynthesisStore(store_dir).load_result(key)
    if stored is None:
        checker.fail("%s: result missing from the store" % what)
        return
    problems = oracle_violations(stored)
    if result_bytes_of(stored) != result_bytes(document):
        problems.append("%s: response differs from the stored result" % what)
    for problem in problems:
        checker.fail(problem)


def check_load(store_dir: str, requests, outcomes, hit_bodies,
               references: Dict[str, bytes], checker: Checker) -> None:
    """Check every response of the open loop.

    Every hit must be byte-identical to the response computed for its
    key during warm-up; computed responses must match the store and
    pass the validators; the two halves of a duplicate pair must agree.
    """
    from repro.io.service_json import result_bytes

    checker.attempted += len(requests)
    digest_key: Dict[str, str] = {}
    pairs: Dict[str, List[bytes]] = {}
    for index, (request, outcome) in enumerate(zip(requests, outcomes)):
        what = "%s %s #%d" % (request.kind, request.key, index)
        if outcome.error:
            checker.fail("%s: %s" % (what, outcome.error))
        elif request.kind == "hit":
            if outcome.status != 200:
                checker.fail("%s: HTTP %d" % (what, outcome.status))
            elif digest_key.setdefault(outcome.digest, request.key) != request.key:
                checker.fail("%s: body equals a hit on another spec" % what)
        else:
            document = done_document(outcome.status, outcome.body, what, checker)
            if document is None:
                continue
            check_computed(store_dir, document, what, checker)
            if request.kind == "dup":
                pairs.setdefault(request.key, []).append(result_bytes(document))
    for key, results in pairs.items():
        if len(set(results)) != 1:
            checker.fail("dup %s: the pair's results differ" % key)
    for digest, key in digest_key.items():
        what = "hit %s" % key
        document = done_document(200, hit_bodies[digest], what, checker)
        if document is None:
            continue
        if not document.get("cache_hit"):
            checker.fail("%s: not served from the cache" % what)
        if result_bytes(document) != references[key]:
            checker.fail("%s: differs from the response computed for it" % what)


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
def warm_up(port: int, warm, warm_bodies: Dict[str, bytes]):
    """Submit each warm spec once (cold); returns ``{name: (status,
    body)}``."""
    return {spec.name: exchange(port, "POST", "/synthesize",
                                warm_bodies[spec.name])
            for spec in warm}


def wait_healthy(port: int) -> None:
    deadline = time.perf_counter() + START_TIMEOUT_S
    while True:
        try:
            if get_json(port, "/healthz").get("status") == "ok":
                return
        except (OSError, BenchError, ValueError):
            pass
        if time.perf_counter() > deadline:
            raise BenchError("the server never became healthy")
        time.sleep(0.05)


def counter_delta(before: Dict[str, int], after: Dict[str, int], name: str):
    return after.get(name, 0) - before.get(name, 0)


# ----------------------------------------------------------------------
# the traced extras
# ----------------------------------------------------------------------
def service_events(trace_path, warm_keys) -> Dict[str, List[float]]:
    """Probe, queue-wait and worker-wall samples of the load, from the
    server's ``service.request`` events (warm-up jobs excluded)."""
    samples = {"probe_s": [], "queue_wait_s": [], "worker_wall_s": []}
    with open(trace_path) as handle:
        for line in handle:
            event = json.loads(line)
            if event["event"] != "service.request":
                continue
            fields = event["fields"]
            if fields.get("outcome") == "cache_hit":
                samples["probe_s"].append(fields["probe_s"])
            elif (fields.get("outcome") == "computed"
                  and fields["key"] not in warm_keys):
                samples["queue_wait_s"].append(fields["queue_wait_s"])
                samples["worker_wall_s"].append(fields["worker_wall_s"])
    return samples


def replay_hits(store_dir, warm_bodies, hit_bodies, checker) -> Dict[str, float]:
    """Replay the hit path in-process on the warm requests; each replayed
    response must be byte-identical to one the server sent."""
    replayer = HitReplayer(store_dir)
    samples = []
    for name, body in warm_bodies.items():
        for _ in range(REPLAYS_PER_SPEC):
            sample = replayer.replay(body)
            payload = sample.pop("response").partition(b"\r\n\r\n")[2]
            if hashlib.sha256(payload).hexdigest() not in hit_bodies:
                checker.fail("replayed hit on %s differs from the served one"
                             % name)
            samples.append(sample)
    return hit_path_metrics(samples)


def replay_near(store_dir: str, warm, checker) -> Dict[str, float]:
    """One near resubmit outside the load, synthesized in-process under
    the span ledger: the fragment-tier values."""
    from repro import Tracer, crusade
    from repro.core.config import CrusadeConfig
    from repro.perf.warmstart import tweak_deadline

    base = warm[1]
    spec = tweak_deadline(base, sorted(base.graph_names())[0], 1.10)
    import_layers()
    tracer = Tracer()
    with Ledger() as ledger:
        result = crusade(spec, config=CrusadeConfig(cache_dir=store_dir),
                         tracer=tracer)
    checker.attempted += 1
    for problem in oracle_violations(result):
        checker.fail("near replay: %s" % problem)
    values = synthesis_layers(ledger, tracer.stats())
    return {name: values[name]
            for name in ("store.fragment.load_s", "engine.fragment_hit_ratio")}


def service_layers(seed: int, seconds: float, checker) -> Dict[str, float]:
    """Run the session with a load of ``seconds``; returns the service,
    pool, exec, io, store and generator per-layer values."""
    from repro.io.service_json import result_bytes

    with Scratch() as scratch:
        store_dir = str(scratch / "store")
        trace_path = scratch / "trace.jsonl"
        warm = [inputs.seeded(base, seed) for base in inputs.warm_bases()]
        warm_bodies = {spec.name: inputs.request_body(spec) for spec in warm}
        requests = inputs.service_schedule(seed, seconds, warm, warm_bodies)
        server = Server(store_dir, scratch / "server.log", trace_path)
        try:
            wait_healthy(server.port)
            warm_documents = warm_up(server.port, warm, warm_bodies)
            before = get_json(server.port, "/stats")["counters"]
            outcomes, hit_bodies = open_loop(server.port, requests)
            after = get_json(server.port, "/stats")["counters"]
        finally:
            server.stop()
        with open(scratch / "server.log", errors="replace") as handle:
            server_log = handle.read()
        if server_log.strip():
            log("server stderr (tail):\n" + server_log[-2000:])

        checker.attempted += len(warm_documents)
        references: Dict[str, bytes] = {}
        warm_keys = set()
        for name, (status, body) in warm_documents.items():
            document = done_document(status, body, "warm %s" % name, checker)
            if document is None:
                continue
            check_computed(store_dir, document, "warm %s" % name, checker)
            references[name] = result_bytes(document)
            warm_keys.add("%(spec)s-%(catalog)s-%(config)s" % document["key"])
        if len(references) != len(warm):
            raise BenchError("warm-up failed: %s" % checker.problems[:3])
        check_load(store_dir, requests, outcomes, hit_bodies, references,
                   checker)

        def latencies(kind: str) -> List[float]:
            return [o.latency for r, o in zip(requests, outcomes)
                    if r.kind == kind]

        hits = latencies("hit")
        late = [o.late for o in outcomes]
        log("service session: %d requests (%d hits p50 %.1f ms p95 %.1f ms; "
            "miss p50 %.3f s; near p50 %.3f s; dup p50 %.3f s)"
            % (len(requests), len(hits), median(hits) * 1e3,
               percentile(hits, 95) * 1e3, median(latencies("miss")),
               median(latencies("near")), median(latencies("dup"))))

        events = service_events(trace_path, warm_keys)
        hit_count = counter_delta(before, after, "service.cache.hit")
        values = {
            "service.hit_ratio": hit_count / max(1, hit_count + counter_delta(
                before, after, "service.cache.miss")),
            "service.coalesced": counter_delta(before, after,
                                               "service.coalesced"),
            "service.probe_ms": median(events["probe_s"]) * 1e3,
            "service.queue_wait_s": median(events["queue_wait_s"]),
            "service.worker_wall_s": median(events["worker_wall_s"]),
            "service.jobs.retried": counter_delta(before, after,
                                                  "service.jobs.retried"),
            "exec.workers.restarts": counter_delta(before, after,
                                                   "exec.workers.restarts"),
            "gen.late_p95_ms": percentile(late, 95) * 1e3,
        }
        values.update(replay_hits(store_dir, warm_bodies, hit_bodies, checker))
        values.update(replay_near(store_dir, warm, checker))
        return values
