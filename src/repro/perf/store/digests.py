"""Content digests addressing the persistent synthesis store.

Everything the store keys on reduces here to a short SHA-256 hex
digest over a canonical encoding (:mod:`repro.perf.store.encode`), so
keys are stable across processes and machines:

* :func:`spec_digest` / :func:`graph_digest` -- over the canonical
  spec-JSON payloads (:mod:`repro.io.spec_json`), so two specs with
  equal content digest equally however they were constructed;
* :func:`catalog_digest` -- over every PE/link type's dataclass
  fields, name-sorted;
* :func:`config_digest` -- over the *semantic* ``CrusadeConfig``
  fields only: the byte-identity-preserving reference switch
  (``incremental``) and the store's own plumbing (``cache_dir``,
  ``warm_start``) are excluded, so a production run can serve an
  exact hit to a reference-mode resubmission of the same problem;
* :func:`fingerprint_digest` -- over a component value fingerprint
  (:func:`repro.perf.fingerprint.component_fingerprint`), turning the
  in-memory cache key into a file name.

The fingerprint captures placements/priorities/copy phasing but *not*
graph content (execution times, edge bytes) -- within one run the spec
is fixed, so it never needed to.  Across runs the fragment tier
therefore pairs each fingerprint digest with a **validity digest**
(:func:`fragment_validity_digest`) over the member graphs' content
digests plus the catalog and config digests: an edited graph, swapped
catalog part or changed semantic knob changes the validity digest and
the stale entry simply stops being addressable.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Dict, Iterable

from repro.graph.spec import SystemSpec
from repro.graph.taskgraph import TaskGraph
from repro.io.spec_json import graph_to_dict, spec_to_dict
from repro.perf.store.encode import DIGEST_HEX_CHARS, encoded_digest
from repro.resources.library import ResourceLibrary

#: Bumped when any digest input or the on-disk layout changes meaning;
#: part of every validity digest and the store FORMAT stamp.
STORE_SCHEMA_VERSION = 1

#: ``CrusadeConfig`` fields excluded from :func:`config_digest`: each
#: is either proven byte-identity-preserving (results are identical
#: with the knob on or off -- the contract the perf test suites
#: enforce) or pure store plumbing, so including them would only
#: fracture the key space without ever distinguishing results.
IDENTITY_NEUTRAL_CONFIG_FIELDS = frozenset({
    "incremental",
    "cache_dir",
    "warm_start",
})


def _portable(value):
    """Reduce a rich value to the encodable primitive shapes.

    Dataclasses become ``(class name, ((field, value), ...))`` tuples,
    enums ``(class name, value)``, dicts name-sorted item tuples and
    sets sorted tuples -- all deterministic, none dependent on object
    identity or hash seeding.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (
            type(value).__name__,
            tuple(
                (f.name, _portable(getattr(value, f.name)))
                for f in dataclasses.fields(value)
            ),
        )
    if isinstance(value, enum.Enum):
        return (type(value).__name__, value.value)
    if isinstance(value, dict):
        return tuple(sorted((k, _portable(v)) for k, v in value.items()))
    if isinstance(value, (frozenset, set)):
        return tuple(sorted(_portable(v) for v in value))
    if isinstance(value, (tuple, list)):
        return tuple(_portable(v) for v in value)
    return value


def value_digest(value) -> str:
    """Digest of an arbitrary reducible value (see :func:`_portable`)."""
    return encoded_digest(_portable(value))


def _json_digest(payload) -> str:
    """Digest of a JSON-ready payload via its canonical JSON text."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return digest[:DIGEST_HEX_CHARS]


def spec_digest(spec: SystemSpec) -> str:
    """Content digest of a whole specification."""
    return _json_digest(spec_to_dict(spec))


def graph_digest(graph: TaskGraph) -> str:
    """Content digest of one task graph (periods, deadlines, tasks,
    execution-time vectors, edges -- everything scheduling can see)."""
    return _json_digest(graph_to_dict(graph))


def graph_digests(spec: SystemSpec) -> Dict[str, str]:
    """Per-graph content digests of ``spec``, keyed by graph name."""
    return {name: graph_digest(spec.graph(name)) for name in spec.graph_names()}


def catalog_digest(library: ResourceLibrary) -> str:
    """Content digest of a resource library (PE + link types)."""
    return value_digest((
        "catalog",
        STORE_SCHEMA_VERSION,
        tuple(
            _portable(library.pe_types[name])
            for name in sorted(library.pe_types)
        ),
        tuple(
            _portable(library.link_types[name])
            for name in sorted(library.link_types)
        ),
    ))


def config_digest(config) -> str:
    """Digest of the semantic ``CrusadeConfig`` fields.

    Fields in :data:`IDENTITY_NEUTRAL_CONFIG_FIELDS` are skipped; see
    the module docstring for why.
    """
    fields = tuple(
        (f.name, _portable(getattr(config, f.name)))
        for f in dataclasses.fields(config)
        if f.name not in IDENTITY_NEUTRAL_CONFIG_FIELDS
    )
    return value_digest(("config", STORE_SCHEMA_VERSION, fields))


def fingerprint_digest(key: tuple) -> str:
    """Digest of one component value fingerprint (already primitive).

    Fingerprints are large (per-task signature tuples) and hashed on
    the engine's hot path, so this digest runs over ``repr(key)``
    rather than the tagged encoding: for nested tuples of primitives
    ``repr`` is an unambiguous, eval-able serialization, deterministic
    across processes and hash seeds (float repr is the shortest
    round-trip form), and it is built in C -- an order of magnitude
    faster than the recursive encoder on these shapes.
    """
    digest = hashlib.sha256(repr(key).encode("utf-8")).hexdigest()
    return digest[:DIGEST_HEX_CHARS]


def fragment_validity_digest(
    component: Iterable[str],
    graph_digest_of: Dict[str, str],
    catalog: str,
    config: str,
) -> str:
    """Validity digest guarding one persistent fragment.

    Hashes the member graphs' content digests (in component order --
    the names themselves are already part of the fingerprint) together
    with the catalog and semantic-config digests, so any input the
    fingerprint does not capture invalidates the entry by changing its
    address.
    """
    return encoded_digest((
        "frag-validity",
        STORE_SCHEMA_VERSION,
        tuple(graph_digest_of[name] for name in component),
        catalog,
        config,
    ))
