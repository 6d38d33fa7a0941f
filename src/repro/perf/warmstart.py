"""Cross-run warm starts: diff a resubmission, rebind cached fragments.

Production traffic is incremental *between* runs: a user tweaks one
deadline or swaps one catalog part and resubmits.  This module is the
bridge between such a resubmission and the persistent store
(:mod:`repro.perf.store`):

* :func:`diff_against_prior` compares the new spec/catalog/config
  digests with the newest indexed prior run of the same spec name and
  reports exactly what changed (:class:`SpecDiff`) -- surfaced as the
  ``warmstart.diff`` trace event and the ``perf.store.graphs_*``
  counters;
* :func:`bind_engine` attaches a :class:`StoreBinding` to the run's
  :class:`~repro.perf.engine.IncrementalEngine`, which turns the
  engine's in-memory fragment cache into a read-through/write-through
  view of the fragment tier.  "Preloading" is lazy by design: the
  engine pulls a still-valid fragment off disk the moment an
  evaluation first needs it (counted as
  ``perf.store.fragments_preloaded``), which loads precisely the
  components the replayed decisions touch and nothing else.  Decisions
  the edit invalidated find no entry under their new validity/
  fingerprint digests and are rescheduled -- the content addressing
  *is* the invalidation rule;
* :func:`tweak_deadline` builds the canonical resubmit scenario
  (loosen one graph deadline) used by the warm-start benchmark leg,
  the CI identity job and the differential tests.

Byte-identity: a fragment loaded from disk went through a pickle
round-trip, which preserves every scheduling value exactly, and it is
only addressable when every scheduling input matches, so the
merged verdicts -- and therefore the synthesized architecture -- are
identical to a cold run's (``tests/perf/test_warmstart.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.graph.spec import SystemSpec
from repro.perf.store.digests import (
    catalog_digest,
    config_digest,
    fingerprint_digest,
    fragment_validity_digest,
    graph_digests,
    spec_digest,
)
from repro.perf.store.disk import SynthesisStore, store_reads_enabled


@dataclass
class SpecDiff:
    """What changed between a resubmission and the indexed prior run."""

    #: Whether any prior run of this spec name was on record.
    prior_found: bool
    #: Graph names present in both runs whose content digests differ.
    changed: List[str] = field(default_factory=list)
    #: Graph names only in the resubmission.
    added: List[str] = field(default_factory=list)
    #: Graph names only in the prior run.
    removed: List[str] = field(default_factory=list)
    #: Graph names present in both runs with equal content digests.
    unchanged: List[str] = field(default_factory=list)
    catalog_changed: bool = False
    config_changed: bool = False

    @property
    def exact(self) -> bool:
        """True when nothing differs (the full-result tier's case)."""
        return (
            self.prior_found
            and not self.changed and not self.added and not self.removed
            and not self.catalog_changed and not self.config_changed
        )


def diff_against_prior(
    store: SynthesisStore,
    spec: SystemSpec,
    library,
    config,
    tracer=None,
) -> SpecDiff:
    """Diff ``spec`` (+ catalog/config) against its newest prior run."""
    prior = store.load_index(spec.name, tracer)
    if prior is None:
        return SpecDiff(prior_found=False)
    new_digests = graph_digests(spec)
    old_digests = prior.get("graphs") or {}
    diff = SpecDiff(prior_found=True)
    for name in spec.graph_names():
        if name not in old_digests:
            diff.added.append(name)
        elif old_digests[name] != new_digests[name]:
            diff.changed.append(name)
        else:
            diff.unchanged.append(name)
    diff.removed = sorted(set(old_digests) - set(new_digests))
    diff.catalog_changed = prior.get("catalog_digest") != catalog_digest(library)
    diff.config_changed = prior.get("config_digest") != config_digest(config)
    return diff


@dataclass
class StoreBinding:
    """One run's view of the fragment tier, attached to its engine.

    Holds everything a fragment lookup needs besides the in-memory
    fingerprint: the per-graph content digests of *this run's* spec
    and the catalog/config digests, combined per component into the
    validity digest that makes cross-run reuse safe.  ``reads`` is
    resolved once per run from ``CrusadeConfig.warm_start`` and the
    ``REPRO_NO_WARM_START`` kill switch; writes are unconditional.
    """

    store: SynthesisStore
    graph_digest_of: Dict[str, str]
    catalog: str
    config: str
    reads: bool = True
    #: Graph names the warm-start diff marked changed/added relative to
    #: the indexed prior run.  Fragments of components touching these
    #: graphs are neither read nor written through.  Reads cannot hit:
    #: this run addresses such a component by a validity digest built
    #: from the *new* graph content, while every persisted entry was
    #: stored under the old one -- probing disk (one fingerprint digest
    #: over a large key plus a stat) per evaluation is pure waste, and
    #: on coupled workloads where the edit touches most components it
    #: is the difference between a warm run that breaks even and one
    #: that loses to cold.  Writes would only ever be addressable by a
    #: byte-identical future resubmission, which the full-result tier
    #: already serves in milliseconds.  Cold runs (no prior) leave this
    #: empty and read/save everything.
    invalidated: frozenset = frozenset()

    def __post_init__(self) -> None:
        """Start the validity and fingerprint digest memos empty."""
        self._validity_memo: Dict[Tuple[str, ...], str] = {}
        self._fp_memo: Dict[tuple, str] = {}

    def _validity(self, component: List[str]) -> str:
        """Memoized validity digest of one component."""
        memo_key = tuple(component)
        validity = self._validity_memo.get(memo_key)
        if validity is None:
            validity = fragment_validity_digest(
                component, self.graph_digest_of, self.catalog, self.config
            )
            self._validity_memo[memo_key] = validity
        return validity

    def _fingerprint(self, key: tuple) -> str:
        """Memoized fingerprint digest (a fragment that misses on load
        is usually saved moments later under the same key)."""
        digest = self._fp_memo.get(key)
        if digest is None:
            digest = fingerprint_digest(key)
            self._fp_memo[key] = digest
        return digest

    def _touches_invalidated(self, component: List[str]) -> bool:
        """Whether ``component`` contains an edited/added graph."""
        return bool(self.invalidated) and any(
            name in self.invalidated for name in component
        )

    def load(self, key: tuple, component: List[str], tracer):
        """A still-valid persisted fragment for ``key``, or ``None``.

        Components the diff invalidated are not probed -- a guaranteed
        miss; see :attr:`invalidated`.
        """
        if not self.reads or self._touches_invalidated(component):
            return None
        fragment = self.store.load_fragment(
            self._fingerprint(key), self._validity(component), tracer
        )
        if fragment is not None:
            tracer.incr("perf.store.fragments_preloaded")
        return fragment

    def save(self, key: tuple, component: List[str], fragment, tracer) -> None:
        """Write-through one freshly built fragment.

        Skipped for components the warm-start diff invalidated -- see
        :attr:`invalidated`.
        """
        if self._touches_invalidated(component):
            return
        self.store.save_fragment(
            self._fingerprint(key), self._validity(component), fragment, tracer
        )


def bind_engine(
    engine,
    store: SynthesisStore,
    spec: SystemSpec,
    library,
    config,
    tracer,
) -> Optional[SpecDiff]:
    """Bind ``engine``'s fragment cache to the persistent store.

    Computes the run's digests once, diffs against the indexed prior
    run (reported via the ``warmstart.diff`` event and
    ``perf.store.graphs_changed`` / ``graphs_unchanged`` counters when
    a prior exists), and attaches the read-through/write-through
    :class:`StoreBinding`.  Returns the diff, or ``None`` when the
    engine is absent (``incremental=False`` runs have no fragment
    cache to warm; the full-result tier still applies to them).
    """
    if engine is None:
        return None
    binding = StoreBinding(
        store=store,
        graph_digest_of=graph_digests(spec),
        catalog=catalog_digest(library),
        config=config_digest(config),
        reads=store_reads_enabled(config),
    )
    engine.bind_store(binding)
    diff = diff_against_prior(store, spec, library, config, tracer)
    if diff.prior_found:
        binding.invalidated = frozenset(diff.changed) | frozenset(diff.added)
    if diff.prior_found and tracer is not None and tracer.enabled:
        tracer.incr("perf.store.graphs_changed",
                    len(diff.changed) + len(diff.added) + len(diff.removed))
        tracer.incr("perf.store.graphs_unchanged", len(diff.unchanged))
        tracer.event(
            "warmstart.diff",
            system=spec.name,
            changed=sorted(diff.changed),
            added=sorted(diff.added),
            removed=sorted(diff.removed),
            unchanged=len(diff.unchanged),
            catalog_changed=diff.catalog_changed,
            config_changed=diff.config_changed,
        )
    return diff


def index_record(spec: SystemSpec, library, config, result_key: str) -> dict:
    """The index payload :func:`repro.core.crusade.crusade` stores
    after a completed run (what the next resubmission diffs against)."""
    return {
        "result_key": result_key,
        "spec_digest": spec_digest(spec),
        "catalog_digest": catalog_digest(library),
        "config_digest": config_digest(config),
        "graphs": graph_digests(spec),
    }


def tweak_deadline(
    spec: SystemSpec, graph_name: Optional[str] = None, factor: float = 1.05
) -> SystemSpec:
    """The canonical resubmit scenario: one graph deadline, loosened.

    Round-trips the spec through its JSON form (so the original is
    untouched) and multiplies one graph's end-to-end deadline by
    ``factor`` -- the first deadline-bearing graph when ``graph_name``
    is ``None``.  Loosening (the default ``factor`` > 1) keeps a
    feasible spec feasible, which is what the benchmark's speedup
    comparison and the CI identity job want.
    """
    from repro.io.spec_json import spec_from_dict, spec_to_dict

    payload = spec_to_dict(spec)
    for graph in payload["graphs"]:
        if graph_name is not None and graph["name"] != graph_name:
            continue
        if graph["deadline"] is None:
            continue
        graph["deadline"] = graph["deadline"] * factor
        return spec_from_dict(payload)
    raise ValueError(
        "no graph with a deadline to tweak (graph_name=%r)" % (graph_name,)
    )
