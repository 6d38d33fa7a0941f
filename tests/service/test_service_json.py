"""Admission validation and response-shape units for service_json."""

from __future__ import annotations

import pytest

from repro.io.service_json import (
    ERROR_KINDS,
    REQUEST_FORMAT,
    RESPONSE_FORMAT,
    SERVICE_SCHEMA_VERSION,
    RequestValidationError,
    build_request,
    done_response,
    error_body,
    failed_response,
    request_from_spec_payload,
    result_bytes,
    strip_run_varying,
    validate_request,
)
from repro.io.spec_json import spec_to_dict

from tests.service.conftest import service_spec


def valid_payload(**config):
    """A request document that passes validation as-is."""
    return build_request(service_spec(), config or None)


def errors_of(payload):
    """The validation error list for ``payload`` (must fail)."""
    with pytest.raises(RequestValidationError) as excinfo:
        validate_request(payload)
    return excinfo.value.errors


def test_build_request_round_trips_through_validation():
    spec, overrides = validate_request(valid_payload(policy="largest-first"))
    assert spec.name == "svc-tiny"
    assert overrides == {"policy": "largest-first"}


def test_request_from_spec_payload_matches_build_request():
    spec = service_spec()
    assert request_from_spec_payload(spec_to_dict(spec)) == build_request(spec)


def test_non_object_request_is_rejected():
    assert "expected an object" in errors_of([1, 2, 3])[0]


def test_every_envelope_error_is_collected_in_one_pass():
    errors = errors_of({"format": "nope", "version": 99, "catalog": "exotic"})
    joined = "\n".join(errors)
    assert "format:" in joined
    assert "version:" in joined
    assert "catalog:" in joined
    assert "spec:" in joined  # the missing spec is reported too


def test_unknown_config_field_is_rejected_not_ignored():
    payload = valid_payload()
    payload["config"] = {"cache_dir": "/tmp/x"}
    (error,) = errors_of(payload)
    assert "config.cache_dir" in error and "non-overridable" in error


def test_identity_neutral_and_removed_perf_fields_are_rejected():
    """The reference switch is identity-neutral (an override could only
    slow the client's own miss) and the per-layer knobs are gone: all
    four come back in one collected 400."""
    payload = valid_payload()
    names = ("bound_abort", "incremental", "prune", "timeline")
    payload["config"] = {"bound_abort": False, "incremental": False,
                         "prune": False, "timeline": "list"}
    assert errors_of(payload) == [
        "config.%s: unknown or non-overridable field" % name
        for name in names
    ]


def test_boolean_does_not_pass_an_integer_knob():
    payload = valid_payload()
    payload["config"] = {"max_explicit_copies": True}
    (error,) = errors_of(payload)
    assert "config.max_explicit_copies" in error and "boolean" in error


def test_wrongly_typed_and_unknown_config_errors_accumulate():
    payload = valid_payload()
    payload["config"] = {"clustering": "yes", "zoom": 1}
    errors = errors_of(payload)
    assert len(errors) == 2


def test_malformed_spec_document_is_a_validation_error():
    payload = valid_payload()
    payload["spec"]["graphs"] = "not-a-list"
    (error,) = errors_of(payload)
    assert error.startswith("spec:")


def test_strip_run_varying_drops_only_the_run_varying_fields():
    payload = {"feasible": True, "cost": 1.0, "cpu_seconds": 0.5,
               "stats": {"events": 3}}
    neutral = strip_run_varying(payload)
    assert neutral == {"feasible": True, "cost": 1.0}
    assert "cpu_seconds" in payload  # the input is not mutated


def test_done_response_is_run_neutral_and_stamped():
    key = {"spec": "a", "catalog": "b", "config": "c"}
    response = done_response(
        key, {"cost": 2.0, "cpu_seconds": 9.9}, cache_hit=True, coalesced=False
    )
    assert response["format"] == RESPONSE_FORMAT
    assert response["version"] == SERVICE_SCHEMA_VERSION
    assert response["cache_hit"] is True
    assert "cpu_seconds" not in response["result"]


def test_result_bytes_agree_across_provenance_flags():
    key = {"spec": "a", "catalog": "b", "config": "c"}
    computed = done_response(key, {"cost": 2.0, "cpu_seconds": 1.0},
                             cache_hit=False, coalesced=False)
    cached = done_response(key, {"cost": 2.0, "cpu_seconds": 7.7},
                           cache_hit=True, coalesced=True)
    assert result_bytes(computed) == result_bytes(cached)


def test_failed_response_carries_the_supervision_verdict():
    response = failed_response({"spec": "a"}, "crash", "worker died",
                               coalesced=True)
    assert response["status"] == "failed"
    assert response["coalesced"] is True
    assert response["error"] == {"kind": "crash", "detail": "worker died"}


def test_error_body_rejects_unknown_kinds():
    with pytest.raises(ValueError):
        error_body("tea-time", "short and stout")


def test_error_kinds_map_to_the_documented_statuses():
    assert ERROR_KINDS["bad-request"] == 400
    assert ERROR_KINDS["payload-too-large"] == 413
    assert ERROR_KINDS["draining"] == 503


def test_request_format_name_is_stable():
    assert REQUEST_FORMAT == "crusade-request"
