"""Declarative campaign grids and their expansion into jobs.

A campaign is a grid -- examples x scales x config variants -- plus a
retry/timeout policy.  :func:`expand_jobs` turns the grid into its
list of independent :class:`~repro.campaign.jobs.Job` units in a
deterministic order (examples outermost, then scales, then variants),
each with a stable human-readable id like
``table2:A1TR@0.05:from-scratch``.  Job ids are the keys of the checkpoint
log, so expansion refuses grids that would produce duplicates.

Variants map onto :class:`repro.core.config.CrusadeConfig` knobs,
checked against its fields when the variant is built; the named
presets in :data:`VARIANT_PRESETS` cover the reference-mode leg
(``from-scratch``) and the policy ablation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import SpecificationError
from repro.io.campaign_json import CAMPAIGN_SCHEMA_VERSION
from repro.campaign.jobs import JOB_KINDS, Job

#: JSON number types for :func:`_field` (``bool`` is refused apart).
_NUMBER = (int, float)


def _field(
    payload: Mapping[str, Any], key: str, kinds: tuple, what: str,
    default: Any = None,
) -> Any:
    """``payload[key]`` (``default`` when absent), refused with a
    :class:`SpecificationError` unless it is one of ``kinds``; a JSON
    ``true``/``false`` never passes as a number."""
    value = payload.get(key, default)
    if isinstance(value, kinds) and (
        bool in kinds or not isinstance(value, bool)
    ):
        return value
    raise SpecificationError(
        "campaign field %r must be %s, got %r" % (key, what, value)
    )


def _list_field(
    payload: Mapping[str, Any], key: str, kinds: tuple, what: str,
    default: Any = None,
) -> Any:
    """``payload[key]`` as a list whose every item is one of ``kinds``
    (see :func:`_field`)."""
    values = _field(payload, key, (list, tuple), "a list of " + what, default)
    for value in values:
        _field({key: value}, key, kinds, "a list of " + what)
    return values


#: Named config variants: CrusadeConfig knob overrides per name.
#: ``largest-first`` is expressed purely through the pipeline's policy
#: hooks (see :mod:`repro.core.stages.policies`): it re-orders cluster
#: allocation biggest-first instead of by priority.
VARIANT_PRESETS: Dict[str, Dict[str, Any]] = {
    "default": {},
    "from-scratch": {"incremental": False},
    "largest-first": {"policy": "largest-first"},
}


@dataclass(frozen=True)
class Variant:
    """One named configuration column of the grid."""

    name: str
    #: CrusadeConfig keyword overrides (e.g. ``{"incremental": False}``).
    config: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        """Reject overrides that name no ``CrusadeConfig`` field, so a
        typo fails at load instead of in every job."""
        from dataclasses import fields

        from repro.core.config import CrusadeConfig

        known = {f.name for f in fields(CrusadeConfig)}
        unknown = sorted(key for key in self.config if key not in known)
        if unknown:
            raise SpecificationError(
                "variant %r: unknown config field %s"
                % (self.name, ", ".join(repr(k) for k in unknown))
            )

    @classmethod
    def preset(cls, name: str) -> "Variant":
        """The named preset from :data:`VARIANT_PRESETS`."""
        try:
            return cls(name=name, config=dict(VARIANT_PRESETS[name]))
        except KeyError:
            raise SpecificationError(
                "unknown variant preset %r (choose from %s)"
                % (name, ", ".join(sorted(VARIANT_PRESETS)))
            ) from None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form."""
        return {"name": self.name, "config": dict(self.config)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Variant":
        """Inverse of :meth:`to_dict`; a field of the wrong type raises
        :class:`SpecificationError`."""
        payload = _field(
            {"variants": payload}, "variants", (Mapping,), "an object"
        )
        return cls(
            name=_field(payload, "name", (str,), "a string"),
            config=dict(_field(
                payload, "config", (Mapping,), "an object", default={}
            )),
        )


@dataclass(frozen=True)
class RetryPolicy:
    """Per-job fault-tolerance policy for one campaign.

    ``retries`` counts *re*-attempts, so a job runs at most
    ``retries + 1`` times before it is recorded as failed.  Backoff
    between attempts is bounded exponential:
    ``min(cap, backoff_s * 2**(attempt-1))``.  ``timeout_s`` is the
    per-attempt wall-clock budget (``None`` = no timeout); a timed-out
    worker is killed and respawned, and the attempt counts as a
    failure.
    """

    retries: int = 2
    backoff_s: float = 0.5
    backoff_cap_s: float = 30.0
    timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        """Reject nonsensical policies."""
        if self.retries < 0:
            raise SpecificationError("retries must be >= 0")
        if self.backoff_s < 0 or self.backoff_cap_s < 0:
            raise SpecificationError("backoff must be >= 0")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise SpecificationError("timeout_s must be positive")

    def delay(self, attempt: int) -> float:
        """Backoff before re-attempt number ``attempt`` (2-based)."""
        return min(self.backoff_cap_s, self.backoff_s * 2 ** max(0, attempt - 2))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form."""
        return {
            "retries": self.retries,
            "backoff_s": self.backoff_s,
            "backoff_cap_s": self.backoff_cap_s,
            "timeout_s": self.timeout_s,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RetryPolicy":
        """Inverse of :meth:`to_dict`; a field of the wrong type raises
        :class:`SpecificationError`."""
        payload = _field(
            {"policy": payload}, "policy", (Mapping,), "an object"
        )
        return cls(
            retries=_field(payload, "retries", (int,), "an integer", 2),
            backoff_s=_field(
                payload, "backoff_s", _NUMBER, "a number", 0.5
            ),
            backoff_cap_s=_field(
                payload, "backoff_cap_s", _NUMBER, "a number", 30.0
            ),
            timeout_s=_field(
                payload, "timeout_s", _NUMBER + (type(None),),
                "a number or null",
            ),
        )


@dataclass(frozen=True)
class CampaignSpec:
    """One declarative campaign: a grid plus its retry policy.

    ``kind`` picks the job executor (``table2``, ``table3`` or the
    synthesis-free ``selftest`` used by the fault-injection tests);
    ``params`` carries kind-specific extras keyed by job id --
    notably ``inject`` maps for the fault-injection hook (see
    :mod:`repro.campaign.jobs`).
    """

    name: str
    kind: str
    examples: Tuple[str, ...]
    scales: Tuple[float, ...]
    variants: Tuple[Variant, ...] = (Variant("default"),)
    policy: RetryPolicy = field(default_factory=RetryPolicy)
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        """Validate the grid axes."""
        if self.kind not in JOB_KINDS:
            raise SpecificationError(
                "unknown campaign kind %r (choose from %s)"
                % (self.kind, ", ".join(sorted(JOB_KINDS)))
            )
        if not self.examples:
            raise SpecificationError("a campaign needs at least one example")
        if not self.scales:
            raise SpecificationError("a campaign needs at least one scale")
        if not self.variants:
            raise SpecificationError("a campaign needs at least one variant")

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (what ``campaign.json`` stores)."""
        return {
            "schema": CAMPAIGN_SCHEMA_VERSION,
            "name": self.name,
            "kind": self.kind,
            "examples": list(self.examples),
            "scales": list(self.scales),
            "variants": [v.to_dict() for v in self.variants],
            "policy": self.policy.to_dict(),
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CampaignSpec":
        """Inverse of :meth:`to_dict`; a payload that is not an object,
        lacks a grid field or holds a field of the wrong type raises
        :class:`SpecificationError`."""
        if not isinstance(payload, Mapping):
            raise SpecificationError(
                "not a campaign spec (a JSON %s)" % type(payload).__name__
            )
        schema = payload.get("schema", CAMPAIGN_SCHEMA_VERSION)
        if schema != CAMPAIGN_SCHEMA_VERSION:
            raise SpecificationError(
                "campaign schema %r unsupported (this build reads %d)"
                % (schema, CAMPAIGN_SCHEMA_VERSION)
            )
        missing = [
            key for key in ("name", "kind", "examples", "scales")
            if key not in payload
        ]
        if missing:
            raise SpecificationError(
                "campaign spec lacks %s" % ", ".join(map(repr, missing))
            )
        return cls(
            name=_field(payload, "name", (str,), "a string"),
            kind=_field(payload, "kind", (str,), "a string"),
            examples=tuple(
                _list_field(payload, "examples", (str,), "strings")
            ),
            scales=tuple(
                float(s)
                for s in _list_field(payload, "scales", _NUMBER, "numbers")
            ),
            variants=tuple(
                Variant.from_dict(v)
                for v in _list_field(
                    payload, "variants", (Mapping,), "objects", default=[]
                )
            ) or (Variant("default"),),
            policy=RetryPolicy.from_dict(payload.get("policy", {})),
            params=dict(
                _field(payload, "params", (Mapping,), "an object", {})
            ),
        )


def job_id(kind: str, example: str, scale: float, variant: str) -> str:
    """The stable id of one grid cell, e.g.
    ``table2:A1TR@0.05:from-scratch``."""
    return "%s:%s@%g:%s" % (kind, example, scale, variant)


def expand_jobs(spec: CampaignSpec) -> List[Job]:
    """Expand a campaign grid into its ordered list of jobs.

    Order is deterministic -- examples outermost, then scales, then
    variants -- and duplicate job ids (e.g. two variants with the same
    name) are a specification error.
    """
    jobs: List[Job] = []
    seen: Dict[str, None] = {}
    per_job_params = spec.params.get("jobs", {})
    for example in spec.examples:
        for scale in spec.scales:
            for variant in spec.variants:
                jid = job_id(spec.kind, example, scale, variant.name)
                if jid in seen:
                    raise SpecificationError("duplicate job id %r" % (jid,))
                seen[jid] = None
                jobs.append(Job(
                    id=jid,
                    kind=spec.kind,
                    example=example,
                    scale=scale,
                    variant=variant.name,
                    config=dict(variant.config),
                    params=dict(per_job_params.get(jid, {})),
                ))
    return jobs


def spec_from_flags(
    name: str,
    kind: str,
    examples: Sequence[str],
    scales: Sequence[float],
    variant_names: Sequence[str] = ("default",),
    policy: Optional[RetryPolicy] = None,
) -> CampaignSpec:
    """Build a campaign from CLI-style flags using variant presets."""
    return CampaignSpec(
        name=name,
        kind=kind,
        examples=tuple(examples),
        scales=tuple(float(s) for s in scales),
        variants=tuple(Variant.preset(v) for v in variant_names),
        policy=policy if policy is not None else RetryPolicy(),
    )
