"""The ``repro campaign run/resume/status`` CLI surface and exit codes."""

from __future__ import annotations

import json

from repro.cli import main
from repro.io.campaign_json import dump_canonical
from repro.campaign import CampaignSpec, RetryPolicy
from repro.campaign.checkpoint import CampaignDir
from repro.campaign.grid import job_id


def _selftest_spec_file(tmp_path, inject=None, retries=0):
    params = {}
    if inject:
        params["jobs"] = {
            job_id("selftest", ex, 0.05, "default"): {"inject": dict(m)}
            for ex, m in inject.items()
        }
    spec = CampaignSpec(
        name="cli",
        kind="selftest",
        examples=("a", "b", "c"),
        scales=(0.05,),
        policy=RetryPolicy(retries=retries, backoff_s=0.0, backoff_cap_s=0.0),
        params=params,
    )
    path = tmp_path / "spec.json"
    dump_canonical(spec.to_dict(), path)
    return path


def test_run_from_spec_file_exits_zero_when_clean(tmp_path, capsys):
    spec_path = _selftest_spec_file(tmp_path)
    code = main([
        "campaign", "run", str(spec_path), "--dir", str(tmp_path / "c"),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "campaign complete: 3 done, 0 failed" in out
    assert "manifest written to" in out
    assert (tmp_path / "c" / "manifest.json").exists()


def test_run_exits_one_when_jobs_failed(tmp_path, capsys):
    spec_path = _selftest_spec_file(
        tmp_path, inject={"a": {"error_attempts": 99}}
    )
    code = main([
        "campaign", "run", str(spec_path), "--dir", str(tmp_path / "c"),
    ])
    assert code == 1
    assert "1 failed" in capsys.readouterr().out


def test_interrupted_run_exits_three_then_resume_completes(tmp_path, capsys):
    spec_path = _selftest_spec_file(tmp_path)
    code = main([
        "campaign", "run", str(spec_path),
        "--dir", str(tmp_path / "c"), "--stop-after", "1",
    ])
    assert code == 3
    assert "INTERRUPTED" in capsys.readouterr().out

    code = main(["campaign", "status", str(tmp_path / "c")])
    assert code == 3
    out = capsys.readouterr().out
    assert "3 jobs, 1 done, 0 failed, 2 pending" in out
    assert "pending selftest:" in out

    code = main(["campaign", "resume", str(tmp_path / "c")])
    assert code == 0
    assert "campaign complete" in capsys.readouterr().out

    code = main(["campaign", "status", str(tmp_path / "c")])
    assert code == 0
    assert "[complete]" in capsys.readouterr().out


def test_status_lists_failed_jobs_with_error_summaries(tmp_path, capsys):
    spec_path = _selftest_spec_file(
        tmp_path, inject={"b": {"error_attempts": 99}}
    )
    main(["campaign", "run", str(spec_path), "--dir", str(tmp_path / "c")])
    capsys.readouterr()
    code = main(["campaign", "status", str(tmp_path / "c")])
    assert code == 1  # complete with failed jobs: mirror run/resume
    out = capsys.readouterr().out
    assert "FAILED selftest:b@0.05:default: RuntimeError" in out


def test_status_exit_code_agrees_with_the_run_that_produced_it(tmp_path, capsys):
    """A poller scripting ``status`` must see the same verdict ``run``
    reported: 1 for complete-with-failures, 0 only when clean."""
    spec_path = _selftest_spec_file(
        tmp_path, inject={"b": {"error_attempts": 99}}
    )
    run_code = main([
        "campaign", "run", str(spec_path), "--dir", str(tmp_path / "c"),
    ])
    capsys.readouterr()
    status_code = main(["campaign", "status", str(tmp_path / "c")])
    assert run_code == status_code == 1


def test_resume_keep_failed_skips_failed_jobs(tmp_path, capsys):
    spec_path = _selftest_spec_file(
        tmp_path, inject={"b": {"error_attempts": 99}}
    )
    main(["campaign", "run", str(spec_path), "--dir", str(tmp_path / "c")])
    capsys.readouterr()
    code = main(["campaign", "resume", str(tmp_path / "c"), "--keep-failed"])
    assert code == 1
    assert "3 skipped" in capsys.readouterr().out


def test_flag_built_campaign_without_examples_is_an_error(tmp_path, capsys):
    code = main(["campaign", "run", "--dir", str(tmp_path / "c")])
    assert code == 2
    assert "need a spec file or --examples" in capsys.readouterr().err


def test_flag_built_selftest_campaign_runs(tmp_path, capsys):
    code = main([
        "campaign", "run", "--dir", str(tmp_path / "c"),
        "--kind", "selftest", "--examples", "x", "y",
        "--scales", "0.05", "--variants", "default", "from-scratch",
        "--workers", "2",
    ])
    assert code == 0
    spec = CampaignDir(tmp_path / "c").load_spec()
    assert spec.name == "c"  # defaults to the directory basename
    assert spec.examples == ("x", "y")
    assert [v.name for v in spec.variants] == ["default", "from-scratch"]
    manifest = json.loads(
        (tmp_path / "c" / "manifest.json").read_text()
    )
    assert manifest["summary"] == {"jobs": 4, "done": 4, "failed": 0}


def test_run_flags_override_the_spec_policy(tmp_path):
    spec_path = _selftest_spec_file(tmp_path)
    main([
        "campaign", "run", str(spec_path), "--dir", str(tmp_path / "c"),
        "--retries", "5", "--timeout", "9.5",
    ])
    stored = CampaignDir(tmp_path / "c").load_spec()
    assert stored.policy.retries == 5
    assert stored.policy.timeout_s == 9.5
