"""Workload inputs, made from the workload seed.

Seed rule (all workloads): the seed changes *labels and order inside a
spec* -- the system and graph names and the order of graphs and of
compatibility pairs -- and never graph content.  Regenerating content
from the seed would swing one cold synthesis by an order of magnitude
(0.2-2.3 s for the ``synth-search`` family), drowning any code change
in input noise.  Seed 0 is the identity relabelling, so its inputs are
exactly ``build_example("A1TR", 0.05)`` and friends.

The service request stream is fixed apart from those labels: the same
kinds at the same times, hits cycling through the warm specs in one
order, near resubmits in one order.  Shuffling the hit order by seed
was tried and moved the 210 KB hit median between runs by half (45 ms
against 72 ms at one fixed hash seed), which would make every
comparison between commits a comparison between hit orders.

Renaming keeps every graph name's common prefix and only replaces the
system name in front of it, so names sort in the same relative order;
on the current code the synthesized architecture, its cost and every
work counter are the same for every seed (checked when this benchmark
was written; each run still checks its own results).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple


def _generator_spec(name: str, **fields):
    from repro import GeneratorConfig, generate_spec

    return generate_spec(GeneratorConfig(**fields), name=name)


def synth_commit_base():
    """168 tasks; nearly every cluster commits its first or second
    candidate (``alloc.options.considered`` 321 for 196 clusters)."""
    from repro.bench.examples import build_example

    return build_example("A1TR", 0.05)


def synth_search_base():
    """72 tasks at 85 % utilization; most candidates are scheduled and
    rejected (98 % of copy-on-write applies revert), bound aborts fire
    and the repair stage runs."""
    return _generator_spec(
        "synthetic", seed=1, n_graphs=6, tasks_per_graph=12,
        utilization=0.85, compat_group_size=2,
    )


def warm_bases():
    """The service workload's warm set: responses of about 43 KB, 82 KB
    and 210 KB, so hit latency is measured across response sizes."""
    return [
        _generator_spec("warm-small", seed=3, n_graphs=4, tasks_per_graph=12,
                        utilization=0.5, compat_group_size=2),
        _generator_spec("warm-mid", seed=3, n_graphs=6, tasks_per_graph=16,
                        utilization=0.5, compat_group_size=3),
        synth_commit_base(),
    ]


def miss_base():
    """A 22-task spec (about 0.1 s to synthesize): fresh misses and
    coalesced duplicate pairs are relabelled copies of it, so their
    latency is mostly admission, dispatch and the exec transport.  A
    47-task spec (0.27 s) was tried: the worker then ran a fifth of the
    time, and the hits overlapping it made ``hit_p95_ms`` swing by half
    between runs."""
    return _generator_spec("fresh", seed=7, n_graphs=3, tasks_per_graph=8)


def relabel(spec, tag: str, rng: random.Random = None):
    """``spec`` renamed to system ``tag`` (graph names follow), with the
    graph and compatibility-pair order shuffled by ``rng`` when given.
    Graph content is untouched."""
    from repro.io.spec_json import spec_from_dict, spec_to_dict

    payload = spec_to_dict(spec)
    old = payload["name"]

    def rename(name: str) -> str:
        return tag + name[len(old):] if name.startswith(old) else name

    payload["name"] = tag
    for graph in payload["graphs"]:
        graph["name"] = rename(graph["name"])
    payload["compatibility"] = [
        [rename(a), rename(b)] for a, b in payload["compatibility"]
    ]
    payload["unavailability"] = {
        rename(k): v for k, v in payload["unavailability"].items()
    }
    if rng is not None:
        rng.shuffle(payload["graphs"])
        rng.shuffle(payload["compatibility"])
        for pair in payload["compatibility"]:
            rng.shuffle(pair)
    return spec_from_dict(payload)


def seeded(spec, seed: int):
    """The seed's relabelling of ``spec``; seed 0 returns it unchanged."""
    if seed == 0:
        return spec
    return relabel(spec, "%s-s%d" % (spec.name, seed), random.Random(seed))


def request_body(spec) -> bytes:
    """The ``POST /synthesize`` body for ``spec`` with default config."""
    from repro.io.service_json import build_request

    return json.dumps(build_request(spec), sort_keys=True).encode("utf-8")


# ----------------------------------------------------------------------
# the service session's request schedule
# ----------------------------------------------------------------------
#: Requests per second of the open loop (one fixed rate).
RATE_PER_S = 10.0

#: Kinds of the compute (non-hit) requests, in the order they are
#: spread over the run: twelve fresh misses, eight near resubmits (one
#: per near variant) and four duplicate pairs.  The slot after each
#: compute request stays empty, so a miss or a pair finishes before the
#: next hit arrives instead of sometimes racing it (which split miss
#: latency into two modes and put the median between them); near
#: resubmits still overlap the hits that follow them.
COMPUTE_PATTERN = ("miss", "near", "miss", "dup", "miss", "near")
N_COMPUTE = 24


@dataclass
class Request:
    """One scheduled request of the open loop."""

    due: float          # seconds after the load starts
    kind: str           # "hit", "miss", "near" or "dup"
    key: str            # which spec: warm name, or a unique label
    body: bytes


def near_variants(warm: List) -> List[Tuple[str, object]]:
    """The fixed near-resubmit set: each graph deadline of the smallest
    warm spec loosened by 5 % and by 10 %, so every near request is
    distinct and warm-starts from the base spec's fragments.

    The larger warm specs are left out on purpose.  Their near
    resubmits cost from 0.5 s to 4.6 s (loosening one deadline can send
    the heuristic down a much longer search), and one 4.6 s job on the
    single worker backs up every compute request behind it, so the
    near median would measure queueing order rather than the fragment
    tier.
    """
    from repro.perf.warmstart import tweak_deadline

    base = warm[0]
    return [
        ("near:%s:%g" % (graph_name, factor),
         tweak_deadline(base, graph_name, factor))
        for factor in (1.05, 1.10)
        for graph_name in sorted(base.graph_names())
    ]


def service_schedule(seed: int, seconds: float, warm: List,
                     warm_bodies: Dict[str, bytes]) -> List[Request]:
    """The open-loop request list for one run, in due order.

    Slots are ``1 / RATE_PER_S`` apart.  :data:`N_COMPUTE` of them,
    evenly spaced, carry the compute requests, each followed by an
    empty slot; every other slot is an exact hit, cycling through the
    warm specs.  ``seed`` only labels the fresh specs.
    """
    fresh = miss_base()
    n_slots = max(4 * N_COMPUTE, int(seconds * RATE_PER_S))
    compute_at = {}
    for j in range(N_COMPUTE):
        slot = int((j + 0.5) * n_slots / N_COMPUTE)
        compute_at[slot] = COMPUTE_PATTERN[j % len(COMPUTE_PATTERN)]
        compute_at[slot + 1] = "quiet"
    nears = near_variants(warm)[::-1]
    warm_names = [spec.name for spec in warm]
    hits = 0
    requests: List[Request] = []
    for slot in range(n_slots):
        due = slot / RATE_PER_S
        kind = compute_at.get(slot, "hit")
        if kind == "quiet":
            continue
        if kind == "near":
            key, spec = nears.pop()
            requests.append(Request(due, kind, key, request_body(spec)))
        elif kind in ("miss", "dup"):
            spec = relabel(fresh, "%s-s%d-%d" % (kind, seed, slot))
            body = request_body(spec)
            copies = 2 if kind == "dup" else 1
            requests.extend(
                Request(due, kind, spec.name, body) for _ in range(copies)
            )
        else:
            name = warm_names[hits % len(warm_names)]
            hits += 1
            requests.append(Request(due, kind, name, warm_bodies[name]))
    return requests
