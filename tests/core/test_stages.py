"""The staged pipeline: runner semantics and policy hooks."""

import importlib
from dataclasses import replace

import pytest

from repro import CrusadeConfig, Tracer, crusade
from repro.core.stages import (
    POLICIES,
    Stage,
    SynthesisContext,
    SynthesisPolicy,
    default_stages,
    register_policy,
    resolve_policy,
    run_stages,
)
from repro.errors import SpecificationError


class TestStageRunner:
    def test_runs_and_skips_are_counted_and_phased(self, tiny_spec):
        ran = []

        class Always(Stage):
            name = "always"

            def run(self, ctx):
                ran.append(self.name)

        class Never(Stage):
            name = "never"

            def should_run(self, ctx):
                return False

            def run(self, ctx):  # pragma: no cover - must not run
                raise AssertionError("skipped stage must not run")

        class Unphased(Always):
            name = "unphased"

            @property
            def phase_name(self):
                return None

        tracer = Tracer()
        ctx = SynthesisContext.begin(tiny_spec, tracer=tracer)
        out = run_stages(ctx, [Always(), Never(), Unphased()])
        assert out is ctx
        assert ran == ["always", "unphased"]
        counters = tracer.counters.as_dict()
        assert counters["stage.always.runs"] == 1
        assert counters["stage.never.skipped"] == 1
        assert counters["stage.unphased.runs"] == 1
        assert "always" in tracer.timers.as_dict()
        assert "unphased" not in tracer.timers.as_dict()

    def test_default_pipeline_order_matches_figure5(self):
        assert [s.name for s in default_stages()] == [
            "preprocess", "clustering", "allocation", "full_check",
            "repair", "merge", "interface", "finalize",
        ]

    def test_crusade_emits_stage_counters(self, small_library, tiny_spec):
        tracer = Tracer()
        result = crusade(
            tiny_spec,
            library=small_library,
            config=CrusadeConfig(reconfiguration=False),
            tracer=tracer,
        )
        assert result.feasible
        counters = tracer.counters.as_dict()
        for name in ("preprocess", "clustering", "allocation",
                     "full_check", "finalize"):
            assert counters["stage.%s.runs" % name] == 1
        # Reconfiguration off: the merge stage must be gated out, and
        # a feasible full check gates repair out.
        assert counters["stage.merge.skipped"] == 1
        assert counters["stage.repair.skipped"] == 1


class TestPolicyRegistry:
    def test_resolve_by_name_object_and_default(self):
        default = resolve_policy(None)
        assert default is POLICIES["default"]
        assert resolve_policy("largest-first").name == "largest-first"
        custom = SynthesisPolicy(name="inline")
        assert resolve_policy(custom) is custom

    def test_unknown_policy_raises_with_known_names(self, tiny_spec):
        with pytest.raises(SpecificationError, match="default"):
            resolve_policy("no-such-policy")
        with pytest.raises(SpecificationError):
            crusade(tiny_spec, config=CrusadeConfig(policy="no-such-policy"))

    def test_register_policy_is_by_name(self):
        probe = SynthesisPolicy(name="probe-policy")
        try:
            assert register_policy(probe) is probe
            assert resolve_policy("probe-policy") is probe
        finally:
            POLICIES.pop("probe-policy", None)


class TestPolicyHooks:
    def test_largest_first_orders_clusters_by_size(self, synthetic_spec):
        from repro.cluster.clustering import cluster_spec
        from repro.cluster.priority import PriorityContext
        from repro.resources.catalog import default_library

        library = default_library()
        clustering = cluster_spec(
            synthetic_spec, library,
            context=PriorityContext.pessimistic(library),
        )
        order = resolve_policy("largest-first").cluster_order(clustering)
        sizes = [c.size for c in order]
        assert sizes == sorted(sizes, reverse=True)
        assert {c.name for c in order} == set(clustering.clusters)

    def test_reuse_first_prefers_existing_hardware(self):
        from types import SimpleNamespace

        from repro.alloc.array import AllocationKind

        options = [
            SimpleNamespace(kind=AllocationKind.NEW_PE, tag=0),
            SimpleNamespace(kind=AllocationKind.EXISTING_MODE, tag=1),
            SimpleNamespace(kind=AllocationKind.NEW_PE, tag=2),
            SimpleNamespace(kind=AllocationKind.EXISTING_MODE, tag=3),
        ]
        ordered = resolve_policy("reuse-first").candidate_order(options, None)
        assert [o.tag for o in ordered] == [1, 3, 0, 2]

    def test_policy_variants_synthesize_valid_results(self, synthetic_spec):
        """Non-default policies explore different orders but must
        still produce deadline-feasible architectures here."""
        for name in ("largest-first", "reuse-first"):
            result = crusade(
                synthetic_spec,
                config=CrusadeConfig(
                    max_explicit_copies=2, reconfiguration=False, policy=name
                ),
            )
            assert result.feasible, name

    def test_default_policy_matches_unset(self, synthetic_spec):
        from repro.io.result_json import canonical_result_json

        config = CrusadeConfig(max_explicit_copies=2, reconfiguration=False)
        named = CrusadeConfig(
            max_explicit_copies=2, reconfiguration=False, policy="default"
        )
        assert canonical_result_json(crusade(synthetic_spec, config=config)) \
            == canonical_result_json(crusade(synthetic_spec, config=named))

    def test_accept_merge_hook_steers_the_merge_loop(self, small_library):
        """A reject-everything acceptance rule must suppress the merge
        the default rule accepts on the canonical two-FPGA setup, and
        a custom rule must also disable the dollar-cost prune cut
        (whose admissibility argument assumes the default rule)."""
        from repro import DelayPolicy, SystemSpec, Task, TaskGraph
        from repro.arch.architecture import Architecture
        from repro.cluster.clustering import cluster_spec
        from repro.cluster.priority import PriorityContext
        from repro.core.stages.support import compute_priorities
        from repro.graph.association import AssociationArray
        from repro.reconfig.compatibility import CompatibilityAnalysis
        from repro.reconfig.merge import merge_reconfigurable_pes
        from repro.alloc.evaluate import evaluate_architecture

        def hw_graph(name, est):
            g = TaskGraph(name=name, period=1.0, deadline=0.5, est=est)
            g.add_task(Task(name=name + ".t", exec_times={"FPGA": 1e-3},
                            area_gates=800, pins=10))
            return g

        spec = SystemSpec(
            "s", [hw_graph("ga", est=0.0), hw_graph("gb", est=0.5)],
            compatibility=[("ga", "gb")],
        )
        clustering = cluster_spec(spec, small_library)
        compat = CompatibilityAnalysis.from_spec(spec)
        arch = Architecture(small_library)
        for name in ("ga/c000", "gb/c000"):
            c = clustering.clusters[name]
            pe = arch.new_pe(small_library.pe_type("FPGA"))
            arch.allocate_cluster(
                name, pe.id, 0, gates=c.area_gates, pins=c.pins
            )
        assoc = AssociationArray(spec, max_explicit_copies=2)
        priorities = compute_priorities(
            spec, PriorityContext.pessimistic(small_library)
        )

        def evaluate(candidate):
            return evaluate_architecture(
                spec, assoc, clustering, candidate, priorities,
                boot_time_fn=lambda pe, mode: 0.01,
            )

        initial = evaluate(arch)
        assert initial.feasible
        default = merge_reconfigurable_pes(
            spec, clustering, compat, DelayPolicy(), initial, evaluate
        )
        assert default.merges_accepted == 1
        vetoed = merge_reconfigurable_pes(
            spec, clustering, compat, DelayPolicy(), initial, evaluate,
            prune=True, accept=lambda verdict, incumbent: False,
        )
        assert vetoed.merges_accepted == 0
        assert vetoed.merges_rejected >= 1
        assert vetoed.result.cost == initial.cost


#: A caller config with every field the hand-copied baseline configs
#: once dropped set away from its default.
CALLER_CONFIG = CrusadeConfig(
    max_explicit_copies=2, fast_threshold_tasks=5, combine_modes=False,
    interface_retries=2, policy="largest-first",
)


class TestBaselineConfig:
    """The reconfiguration-free baseline runs the caller's config with
    only ``reconfiguration`` flipped."""

    def test_nested_baseline_inherits_the_callers_config(
        self, synthetic_spec, monkeypatch
    ):
        seen = []
        begin = SynthesisContext.begin.__func__

        def spy(cls, spec, **kwargs):
            seen.append(kwargs["config"])
            return begin(cls, spec, **kwargs)

        monkeypatch.setattr(SynthesisContext, "begin", classmethod(spy))
        crusade(synthetic_spec, config=CALLER_CONFIG)
        assert seen == [
            CALLER_CONFIG, replace(CALLER_CONFIG, reconfiguration=False)
        ]

    @pytest.mark.parametrize(
        "table, driver", [("table2", "crusade"), ("table3", "crusade_ft")]
    )
    def test_table_baseline_inherits_the_callers_config(
        self, table, driver, synthetic_spec, monkeypatch
    ):
        module = importlib.import_module("repro.bench." + table)
        real = getattr(module, driver)
        seen = []

        def spy(spec, **kwargs):
            seen.append(kwargs["config"])
            return real(spec, **kwargs)

        monkeypatch.setattr(module, driver, spy)
        run_row = getattr(module, "run_%s_row" % table)
        run_row("synthetic", config=CALLER_CONFIG, spec=synthetic_spec)
        assert seen == [
            replace(CALLER_CONFIG, reconfiguration=False), CALLER_CONFIG
        ]
