"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``synthesize SPEC.json``
    Run CRUSADE on a JSON specification; print the architecture (and
    optionally export the full result / a Gantt chart).
``generate``
    Emit a synthetic specification as JSON (the paper's workload
    generator), for editing or archiving.
``example NAME``
    Emit one of the eight Table 2/3 examples as JSON at a given scale.
``table1 | table2 | table3 | figure2``
    Regenerate the paper's tables/figure and print them.
``experiments``
    Splice the latest ``benchmarks/results`` tables into
    EXPERIMENTS.md.
``campaign run | resume | status``
    Sharded, checkpointed, fault-tolerant benchmark campaigns over
    the example x scale x variant grid (see :mod:`repro.campaign`
    and README.md, "Campaigns").
``serve``
    Run the synthesis service: a long-running HTTP job server with
    exact-hit caching and duplicate coalescing (see
    :mod:`repro.service` and docs/SERVICE.md).
``submit SPEC.json``
    Post one specification to a running service and print (or save)
    the response document.

Counts are checked where they are parsed: a worker count, retry
budget or timeout out of range is one argparse usage error (exit 2),
never a traceback from the pool it would have configured.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.core.config import CrusadeConfig
from repro.core.crusade import crusade
from repro.core.crusade_ft import crusade_ft
from repro.core.report import render_architecture
from repro.errors import SpecificationError
from repro.graph.generator import GeneratorConfig, generate_spec
from repro.io.result_json import save_result_file
from repro.io.spec_json import load_spec_file, save_spec_file, spec_to_dict
from repro.bench.examples import EXAMPLE_NAMES, build_example


def _bounded(convert, lowest: float, strict: bool):
    """An argparse ``type=`` converting with ``convert`` and refusing
    values below ``lowest`` (or equal to it when ``strict``)."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                "invalid %s value: %r" % (convert.__name__, text)
            ) from None
        if not (value > lowest if strict else value >= lowest):
            raise argparse.ArgumentTypeError(
                "must be %s %g, got %r"
                % (">" if strict else ">=", lowest, text)
            )
        return value

    return parse


_positive_int = _bounded(int, 0, strict=True)
_non_negative_int = _bounded(int, 0, strict=False)
_positive_float = _bounded(float, 0.0, strict=True)
_non_negative_float = _bounded(float, 0.0, strict=False)


def _add_synthesize(subparsers) -> None:
    p = subparsers.add_parser(
        "synthesize", help="co-synthesize an architecture for a JSON spec"
    )
    p.add_argument("spec", help="path to a crusade-spec JSON file")
    p.add_argument("--no-reconfig", action="store_true",
                   help="disable dynamic reconfiguration (baseline)")
    p.add_argument("--ft", action="store_true",
                   help="run the CRUSADE-FT fault-tolerance extension")
    p.add_argument("--out", metavar="RESULT.json",
                   help="export the full result as JSON")
    p.add_argument("--gantt", action="store_true",
                   help="print a text Gantt chart of the schedule")
    p.add_argument("--copies", type=int, default=4,
                   help="association-array explicit copy cap (default 4)")
    p.add_argument("--stats", action="store_true",
                   help="print per-phase timings and synthesis counters")
    p.add_argument("--trace", metavar="TRACE.jsonl",
                   help="stream structured trace events to a JSON-lines file")
    p.add_argument("--no-incremental", action="store_true",
                   help="reference mode: the from-scratch inner loop "
                        "with no engine, pruning or bound aborts "
                        "(results are identical either way)")
    p.add_argument("--profile", type=int, default=0, metavar="N",
                   help="run synthesis under cProfile, print the top-N "
                        "cumulative functions and write "
                        "profile-<spec fingerprint>.pstats next to the "
                        "result JSON (or the CWD)")
    p.add_argument("--cache-dir", metavar="DIR", default=None,
                   help="persistent content-addressed synthesis store: "
                        "exact resubmissions return the cached result, "
                        "near-hits warm-start from cached schedule "
                        "fragments (results are byte-identical either "
                        "way); REPRO_CACHE_DIR is the env fallback")
    p.add_argument("--no-warm-start", action="store_true",
                   help="do not read the store (cold run); the store is "
                        "still written, so the run warms it for later "
                        "resubmissions")


def _add_generate(subparsers) -> None:
    p = subparsers.add_parser(
        "generate", help="emit a synthetic specification as JSON"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--graphs", type=int, default=4)
    p.add_argument("--tasks-per-graph", type=int, default=20)
    p.add_argument("--group-size", type=int, default=3,
                   help="compatibility group size (1 disables)")
    p.add_argument("--out", metavar="SPEC.json", required=True)


def _add_example(subparsers) -> None:
    p = subparsers.add_parser(
        "example", help="emit a Table 2/3 example specification as JSON"
    )
    p.add_argument("name", choices=EXAMPLE_NAMES)
    p.add_argument("--scale", type=float, default=0.05)
    p.add_argument("--out", metavar="SPEC.json", required=True)


def _add_tables(subparsers) -> None:
    t1 = subparsers.add_parser("table1", help="regenerate Table 1")
    t2 = subparsers.add_parser("table2", help="regenerate Table 2")
    t2.add_argument("--scale", type=float, default=0.05)
    t2.add_argument("--examples", nargs="*", default=None, metavar="NAME")
    t3 = subparsers.add_parser("table3", help="regenerate Table 3")
    t3.add_argument("--scale", type=float, default=0.05)
    t3.add_argument("--examples", nargs="*", default=None, metavar="NAME")
    subparsers.add_parser("figure2", help="run the Figure 2 example")


def _add_campaign(subparsers) -> None:
    from repro.campaign.grid import VARIANT_PRESETS
    from repro.campaign.jobs import CAMPAIGN_GRID_KINDS

    p = subparsers.add_parser(
        "campaign",
        help="sharded, checkpointed, fault-tolerant benchmark campaigns",
    )
    sub = p.add_subparsers(dest="campaign_command", required=True)

    run = sub.add_parser(
        "run", help="start a campaign in a fresh (or same-spec) directory"
    )
    run.add_argument("spec", nargs="?", default=None,
                     help="campaign spec JSON (omit to build one from flags)")
    run.add_argument("--dir", required=True, metavar="DIR",
                     help="campaign directory (checkpoints, manifest)")
    run.add_argument("--name", default=None,
                     help="campaign name (defaults to the directory name)")
    run.add_argument("--kind", choices=sorted(CAMPAIGN_GRID_KINDS),
                     default="table2",
                     help="job kind for flag-built campaigns (default table2)")
    run.add_argument("--examples", nargs="+", default=None, metavar="NAME",
                     help="examples axis for flag-built campaigns")
    run.add_argument("--scales", nargs="+", type=float, default=None,
                     metavar="S", help="scales axis (default: REPRO_SCALE)")
    run.add_argument("--variants", nargs="+", default=["default"],
                     metavar="NAME", choices=sorted(VARIANT_PRESETS),
                     help="config-variant axis (presets: %s)"
                          % ", ".join(sorted(VARIANT_PRESETS)))
    resume = sub.add_parser(
        "resume", help="continue a killed or failed campaign from its log"
    )
    resume.add_argument("dir", metavar="DIR", help="campaign directory")
    resume.add_argument("--keep-failed", action="store_true",
                        help="do not re-attempt jobs already recorded failed")
    status = sub.add_parser(
        "status", help="summarize a campaign directory without running"
    )
    status.add_argument("dir", metavar="DIR", help="campaign directory")
    for target in (run, resume):
        target.add_argument("--workers", type=_positive_int, default=1,
                            metavar="N",
                            help="persistent worker processes (default 1)")
        target.add_argument("--cache-dir", metavar="DIR", default=None,
                            help="shared synthesis store for all campaign "
                                 "workers (exported as REPRO_CACHE_DIR so "
                                 "job configs -- and the manifest -- stay "
                                 "byte-identical with or without it)")
        target.add_argument("--retries", type=_non_negative_int,
                            default=None, metavar="K",
                            help="per-job re-attempts before recording failure")
        target.add_argument("--timeout", type=_positive_float, default=None,
                            metavar="S",
                            help="per-attempt wall-clock budget in seconds")
        target.add_argument("--backoff", type=_non_negative_float,
                            default=None, metavar="S",
                            help="base retry backoff in seconds (exponential)")
        target.add_argument("--stop-after", type=int, default=None, metavar="N",
                            help="stop after N new terminal jobs (testing)")


def _add_serve(subparsers) -> None:
    p = subparsers.add_parser(
        "serve",
        help="run the synthesis service (HTTP job server; docs/SERVICE.md)",
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="interface to bind (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8100,
                   help="TCP port (0 binds an ephemeral port; default 8100)")
    p.add_argument("--workers", type=_positive_int, default=1, metavar="N",
                   help="shard worker processes (default 1)")
    p.add_argument("--cache-dir", metavar="DIR", default=None,
                   help="persistent synthesis store; exact resubmissions "
                        "are served from it without computing")
    p.add_argument("--retries", type=_non_negative_int, default=1,
                   metavar="K",
                   help="per-job re-attempts before a failed response")
    p.add_argument("--timeout", type=_positive_float, default=None,
                   metavar="S",
                   help="per-attempt wall-clock budget in seconds")
    p.add_argument("--trace", metavar="FILE", default=None,
                   help="stream service.* events as JSON lines to FILE")


def _add_submit(subparsers) -> None:
    p = subparsers.add_parser(
        "submit", help="post one spec to a running synthesis service"
    )
    p.add_argument("spec", help="path to a crusade-spec JSON file")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8100)
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=JSON",
                   help="config override (repeatable), e.g. "
                        "--set reconfiguration=false "
                        "--set max_explicit_copies=2")
    p.add_argument("--timeout", type=float, default=600.0, metavar="S",
                   help="client-side budget for the full exchange")
    p.add_argument("--out", metavar="FILE", default=None,
                   help="write the full response document to FILE")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CRUSADE co-synthesis (DATE 1999 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_synthesize(subparsers)
    _add_generate(subparsers)
    _add_example(subparsers)
    _add_tables(subparsers)
    _add_campaign(subparsers)
    _add_serve(subparsers)
    _add_submit(subparsers)
    experiments = subparsers.add_parser(
        "experiments",
        help="splice the latest benchmarks/results tables into EXPERIMENTS.md",
    )
    experiments.add_argument("--doc", default="EXPERIMENTS.md")
    experiments.add_argument("--results", default="benchmarks/results")
    return parser


# ----------------------------------------------------------------------
def _build_tracer(args):
    """A tracer for the requested observability flags, or None."""
    if not (args.stats or args.trace):
        return None
    from repro.obs import JsonlSink, Tracer

    sinks = [JsonlSink(args.trace)] if args.trace else []
    return Tracer(sinks=sinks)


def _spec_fingerprint(spec) -> str:
    """A stable short digest of the canonical spec JSON."""
    import hashlib

    payload = json.dumps(spec_to_dict(spec), sort_keys=True).encode("utf-8")
    return hashlib.sha1(payload).hexdigest()[:12]


def _profile_path(args, spec) -> str:
    """``profile-<spec fingerprint>.pstats`` next to the result JSON,
    or in the CWD.

    The fingerprint keeps two profiled runs sharing a working
    directory from silently clobbering each other's dump.
    """
    name = "profile-%s.pstats" % _spec_fingerprint(spec)
    if args.out:
        directory = os.path.dirname(os.path.abspath(args.out))
        return os.path.join(directory, name)
    return name


class _InputError(Exception):
    """A command-line input that cannot be used; :func:`main` prints it
    as one ``repro: error: PATH: reason`` line and exits 2."""


def _load_input(path: str, load):
    """``load(path)``, with read, JSON and validation failures raised
    as one :class:`_InputError` naming ``path``."""
    try:
        return load(path)
    except OSError as exc:
        reason = exc.strerror or str(exc)
    # Both are ValueError subclasses, so they must be caught first.
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        reason = "not valid JSON (%s)" % (exc,)
    except (SpecificationError, ValueError) as exc:
        reason = str(exc)
    raise _InputError("%s: %s" % (path, reason))


def _cmd_synthesize(args) -> int:
    spec = _load_input(args.spec, load_spec_file)
    config = CrusadeConfig(
        reconfiguration=not args.no_reconfig,
        max_explicit_copies=args.copies,
        incremental=not args.no_incremental,
        cache_dir=args.cache_dir,
        warm_start=not args.no_warm_start,
    )
    tracer = _build_tracer(args)
    profiler = None
    if args.profile > 0:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    try:
        if args.ft:
            ft_result = crusade_ft(spec, config=config, tracer=tracer)
            result = ft_result.base
            print(render_architecture(result))
            print()
            print("spares: %d ($%.0f), availability met: %s"
                  % (ft_result.spares.total_spares(), ft_result.spares.spare_cost,
                     ft_result.spares.met))
            print("total cost incl. spares: $%.0f" % ft_result.cost)
            feasible = ft_result.feasible
        else:
            result = crusade(spec, config=config, tracer=tracer)
            print(render_architecture(result))
            feasible = result.feasible
    finally:
        if profiler is not None:
            profiler.disable()
        if tracer is not None:
            tracer.close()
    if profiler is not None:
        import pstats

        path = _profile_path(args, spec)
        profiler.dump_stats(path)
        print()
        stats = pstats.Stats(profiler, stream=sys.stdout)
        stats.sort_stats("cumulative").print_stats(args.profile)
        print("profile written to %s" % path)
    if args.gantt:
        from repro.sched.gantt import render_gantt

        print()
        print(render_gantt(result.schedule))
    if args.stats and result.stats is not None:
        from repro.obs import render_stats

        print()
        print(render_stats(result.stats))
    if args.trace:
        print("trace written to %s" % args.trace)
    if args.out:
        save_result_file(result, args.out)
        print("result written to %s" % args.out)
    print("feasible:", feasible)
    return 0 if feasible else 1


def _cmd_generate(args) -> int:
    spec = generate_spec(GeneratorConfig(
        seed=args.seed,
        n_graphs=args.graphs,
        tasks_per_graph=args.tasks_per_graph,
        compat_group_size=args.group_size,
    ))
    save_spec_file(spec, args.out)
    print("wrote %s (%d graphs, %d tasks)"
          % (args.out, len(spec.graphs), spec.total_tasks))
    return 0


def _cmd_example(args) -> int:
    spec = build_example(args.name, scale=args.scale)
    save_spec_file(spec, args.out)
    print("wrote %s (%d graphs, %d tasks)"
          % (args.out, len(spec.graphs), spec.total_tasks))
    return 0


def _cmd_table1(args) -> int:
    from repro.bench.table1 import render_table1, run_table1

    print(render_table1(run_table1()))
    return 0


def _cmd_table2(args) -> int:
    from repro.bench.table2 import render_table2, run_table2_row

    names = args.examples or EXAMPLE_NAMES
    rows = []
    for name in names:
        print("synthesizing %s..." % name, file=sys.stderr)
        rows.append(run_table2_row(name, scale=args.scale))
    print(render_table2(rows))
    return 0


def _cmd_table3(args) -> int:
    from repro.bench.table3 import render_table3, run_table3_row

    names = args.examples or EXAMPLE_NAMES
    rows = []
    for name in names:
        print("synthesizing %s (FT)..." % name, file=sys.stderr)
        rows.append(run_table3_row(name, scale=args.scale))
    print(render_table3(rows))
    return 0


def _cmd_experiments(args) -> int:
    from repro.bench.experiments_doc import refresh_experiments

    status = refresh_experiments(args.doc, args.results)
    for heading, refreshed in sorted(status.items()):
        print("%-30s %s" % (heading, "refreshed" if refreshed else "skipped"))
    return 0


def _cmd_figure2(args) -> int:
    from repro.bench.figure2 import run_figure2

    outcome = run_figure2()
    print(render_architecture(outcome.with_reconfig))
    print()
    print("baseline cost: $%.0f" % outcome.without.cost)
    print("savings: %.1f%%" % outcome.savings_pct)
    return 0


def _campaign_policy(args, base):
    """``base`` policy with any --retries/--timeout/--backoff overrides."""
    from repro.campaign.grid import RetryPolicy

    return RetryPolicy(
        retries=base.retries if args.retries is None else args.retries,
        backoff_s=base.backoff_s if args.backoff is None else args.backoff,
        backoff_cap_s=base.backoff_cap_s,
        timeout_s=base.timeout_s if args.timeout is None else args.timeout,
    )


def _export_cache_dir(args) -> None:
    """Hand ``--cache-dir`` to campaign workers via the environment.

    Injecting the store into job configs would change the stored
    campaign spec (and so the manifest) byte-for-byte; the
    ``REPRO_CACHE_DIR`` fallback consulted by
    :func:`repro.perf.store.resolve_store` keeps checkpoints and
    manifests identical with or without a shared store.  Worker
    processes inherit the parent environment at spawn.
    """
    if getattr(args, "cache_dir", None):
        from repro.perf.store import ENV_CACHE_DIR

        os.environ[ENV_CACHE_DIR] = os.path.abspath(args.cache_dir)


def _campaign_exit(outcome) -> int:
    """0 = complete and clean, 1 = complete with failed jobs,
    3 = interrupted/incomplete.

    Failed jobs are judged from the final manifest, not this
    invocation's counters, so a resume that merely *skips* previously
    failed jobs still exits 1.
    """
    if not outcome.complete:
        return 3
    failed = outcome.failed
    if outcome.manifest is not None:
        failed = outcome.manifest["summary"]["failed"]
    return 0 if failed == 0 else 1


def _report_outcome(outcome) -> None:
    print(
        "campaign %s: %d done, %d failed, %d skipped, %d retried"
        % (
            "complete" if outcome.complete else "INTERRUPTED",
            outcome.done, outcome.failed, outcome.skipped, outcome.retried,
        )
    )
    if outcome.complete:
        print("manifest written to %s" % (outcome.directory / "manifest.json"))


def _cmd_campaign_run(args) -> int:
    import os.path

    from repro.campaign.grid import CampaignSpec, RetryPolicy, spec_from_flags
    from repro.campaign.runner import run_campaign
    from repro.io.campaign_json import load_json

    if args.spec is not None:
        spec = _load_input(
            args.spec, lambda path: CampaignSpec.from_dict(load_json(path))
        )
        spec = CampaignSpec(
            name=spec.name, kind=spec.kind, examples=spec.examples,
            scales=spec.scales, variants=spec.variants,
            policy=_campaign_policy(args, spec.policy), params=spec.params,
        )
    else:
        if not args.examples:
            print("campaign run: need a spec file or --examples",
                  file=sys.stderr)
            return 2
        from repro.bench.table2 import bench_scale

        scales = args.scales if args.scales else [bench_scale()]
        spec = spec_from_flags(
            name=args.name or os.path.basename(os.path.abspath(args.dir)),
            kind=args.kind,
            examples=args.examples,
            scales=scales,
            variant_names=args.variants,
            policy=_campaign_policy(args, RetryPolicy()),
        )
    _export_cache_dir(args)
    outcome = run_campaign(
        args.dir, spec=spec, workers=args.workers,
        stop_after=args.stop_after,
    )
    _report_outcome(outcome)
    return _campaign_exit(outcome)


def _cmd_campaign_resume(args) -> int:
    from repro.campaign.checkpoint import CampaignDir
    from repro.campaign.runner import run_campaign

    stored = _load_input(args.dir, lambda path: CampaignDir(path).load_spec())
    policy = _campaign_policy(args, stored.policy)
    _export_cache_dir(args)
    outcome = run_campaign(
        args.dir, workers=args.workers, resume=True,
        retry_failed=not args.keep_failed, stop_after=args.stop_after,
        # Overrides apply to this invocation only; the stored spec
        # (and so the manifest) keeps the original campaign.
        policy_override=policy if policy != stored.policy else None,
    )
    _report_outcome(outcome)
    return _campaign_exit(outcome)


def _cmd_campaign_status(args) -> int:
    from repro.campaign.runner import campaign_status

    status = _load_input(args.dir, campaign_status)
    print("campaign %s (%s): %d jobs, %d done, %d failed, %d pending%s"
          % (status["name"], status["kind"], status["jobs"], status["done"],
             len(status["failed"]), len(status["pending"]),
             " [complete]" if status["complete"] else ""))
    for job_id in sorted(status["failed"]):
        print("  FAILED %s: %s" % (job_id, status["failed"][job_id]))
    for job_id in status["pending"][:10]:
        print("  pending %s" % (job_id,))
    if len(status["pending"]) > 10:
        print("  ... and %d more pending" % (len(status["pending"]) - 10))
    # Mirror _campaign_exit: a complete campaign with failed jobs is
    # exit 1 from run/resume *and* status, so pollers agree with the
    # run that produced the manifest.
    if status["complete"]:
        return 1 if status["failed"] else 0
    return 3


_CAMPAIGN_HANDLERS = {
    "run": _cmd_campaign_run,
    "resume": _cmd_campaign_resume,
    "status": _cmd_campaign_status,
}


def _cmd_campaign(args) -> int:
    return _CAMPAIGN_HANDLERS[args.campaign_command](args)


def _cmd_serve(args) -> int:
    import asyncio
    import signal

    from repro.service.server import SynthesisServer

    tracer = None
    if args.trace:
        from repro.obs import JsonlSink, Tracer

        tracer = Tracer(sinks=[JsonlSink(args.trace)])

    async def _run() -> None:
        server = SynthesisServer(
            host=args.host, port=args.port, workers=args.workers,
            cache_dir=args.cache_dir, retries=args.retries,
            timeout_s=args.timeout, tracer=tracer,
        )
        await server.start()
        print("serving on http://%s:%d  (workers=%d, cache=%s)"
              % (server.host, server.port, args.workers,
                 args.cache_dir or "off"), flush=True)
        loop = asyncio.get_running_loop()
        stop = loop.create_future()

        def _request_stop() -> None:
            if not stop.done():
                stop.set_result(None)

        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, _request_stop)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # platform without loop signal handlers
        try:
            await stop
            print("draining...", flush=True)
        finally:
            await server.close()
        print("drained; bye", flush=True)

    asyncio.run(_run())
    return 0


def _cmd_submit(args) -> int:
    from repro.io.service_json import request_from_spec_payload
    from repro.service.client import ServiceUnreachable, submit

    def load_object(path):
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        if not isinstance(payload, dict):
            raise SpecificationError(
                "not a spec document (a JSON %s)" % type(payload).__name__
            )
        return payload

    spec_payload = _load_input(args.spec, load_object)
    config = {}
    for item in args.overrides:
        key, sep, raw = item.partition("=")
        if not sep:
            print("--set expects KEY=JSON, got %r" % (item,), file=sys.stderr)
            return 2
        try:
            config[key] = json.loads(raw)
        except ValueError:
            config[key] = raw  # bare strings pass through, e.g. policy names
    request = request_from_spec_payload(spec_payload, config)
    try:
        status, document = submit(
            args.host, args.port, request, timeout_s=args.timeout
        )
    except ServiceUnreachable as exc:
        print("service unreachable: %s" % exc, file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if status != 200:
        print("HTTP %d %s: %s" % (status, document.get("error", "?"),
                                  document.get("detail", "")), file=sys.stderr)
        for error in document.get("errors", []):
            print("  - %s" % error, file=sys.stderr)
        return 1
    if document.get("status") == "failed":
        error = document.get("error", {})
        print("job failed (%s): %s"
              % (error.get("kind", "?"), error.get("detail", "")),
              file=sys.stderr)
        return 1
    result = document.get("result", {})
    print("status=done feasible=%s cost=%s cache_hit=%s coalesced=%s"
          % (result.get("feasible"), result.get("cost"),
             document.get("cache_hit"), document.get("coalesced")))
    return 0


_HANDLERS = {
    "synthesize": _cmd_synthesize,
    "generate": _cmd_generate,
    "example": _cmd_example,
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "table3": _cmd_table3,
    "figure2": _cmd_figure2,
    "experiments": _cmd_experiments,
    "campaign": _cmd_campaign,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except _InputError as exc:
        print("repro: error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
