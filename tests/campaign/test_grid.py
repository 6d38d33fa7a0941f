"""Grid expansion, variants, retry policy, and spec round-trips."""

from __future__ import annotations

import pytest

from repro.errors import SpecificationError
from repro.io.campaign_json import canonical_dumps
from repro.campaign import (
    CampaignSpec,
    RetryPolicy,
    Variant,
    expand_jobs,
    spec_from_flags,
)
from repro.campaign.grid import VARIANT_PRESETS, job_id


def _spec(**overrides):
    defaults = dict(
        name="t",
        kind="selftest",
        examples=("a", "b"),
        scales=(0.05, 0.1),
        variants=(Variant("default"), Variant("scratch", {"incremental": False})),
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


def test_expansion_is_the_full_grid_in_axis_order():
    jobs = expand_jobs(_spec())
    assert len(jobs) == 2 * 2 * 2
    # examples outermost, then scales, then variants
    assert [j.id for j in jobs[:4]] == [
        "selftest:a@0.05:default",
        "selftest:a@0.05:scratch",
        "selftest:a@0.1:default",
        "selftest:a@0.1:scratch",
    ]
    assert len({j.id for j in jobs}) == len(jobs)


def test_variant_config_reaches_jobs():
    jobs = expand_jobs(_spec())
    by_id = {j.id: j for j in jobs}
    assert by_id["selftest:a@0.05:scratch"].config == {"incremental": False}
    assert by_id["selftest:a@0.05:default"].config == {}


def test_duplicate_variant_names_are_rejected():
    spec = _spec(variants=(Variant("v"), Variant("v", {"incremental": False})))
    with pytest.raises(SpecificationError, match="duplicate job id"):
        expand_jobs(spec)


def test_spec_round_trips_through_canonical_json():
    spec = _spec(policy=RetryPolicy(retries=3, backoff_s=0.1, timeout_s=5.0))
    rebuilt = CampaignSpec.from_dict(spec.to_dict())
    assert rebuilt == spec
    assert canonical_dumps(rebuilt.to_dict()) == canonical_dumps(spec.to_dict())


def test_unknown_kind_and_empty_axes_are_rejected():
    with pytest.raises(SpecificationError, match="unknown campaign kind"):
        _spec(kind="table9")
    with pytest.raises(SpecificationError, match="at least one example"):
        _spec(examples=())
    with pytest.raises(SpecificationError, match="at least one scale"):
        _spec(scales=())


def test_retry_policy_backoff_is_bounded_exponential():
    policy = RetryPolicy(retries=5, backoff_s=1.0, backoff_cap_s=3.0)
    assert policy.delay(2) == 1.0
    assert policy.delay(3) == 2.0
    assert policy.delay(4) == 3.0  # capped
    assert policy.delay(5) == 3.0
    with pytest.raises(SpecificationError):
        RetryPolicy(retries=-1)
    with pytest.raises(SpecificationError):
        RetryPolicy(timeout_s=0.0)


def test_variant_presets_cover_the_kill_switch_matrix():
    assert set(VARIANT_PRESETS) == {"default", "from-scratch", "largest-first"}
    v = Variant.preset("from-scratch")
    assert v.config == {"incremental": False}
    with pytest.raises(SpecificationError, match="unknown variant preset"):
        Variant.preset("turbo")


@pytest.mark.parametrize("key", ["prun", "prune"])
def test_unknown_variant_config_field_is_rejected_at_load(key):
    """A typo or a removed field fails when the campaign loads, naming
    the key, instead of as a TypeError in every job."""
    payload = _spec().to_dict()
    payload["variants"] = [{"name": "v", "config": {key: False}}]
    with pytest.raises(SpecificationError, match="'%s'" % key):
        CampaignSpec.from_dict(payload)


def test_spec_from_flags_uses_presets():
    spec = spec_from_flags(
        "ci", "table2", ["A1TR", "HROST"], [0.05], ["from-scratch"]
    )
    jobs = expand_jobs(spec)
    assert [j.id for j in jobs] == [
        "table2:A1TR@0.05:from-scratch",
        "table2:HROST@0.05:from-scratch",
    ]
    assert jobs[0].config == {"incremental": False}


def test_job_id_format_is_stable():
    assert job_id("table2", "A1TR", 0.05, "from-scratch") == \
        "table2:A1TR@0.05:from-scratch"
    assert job_id("table3", "NGXM", 1.0, "default") == "table3:NGXM@1:default"
