"""Tests for the declarative public API: registries, specs, run(), RunResult.

Covers the contract pieces the facade promises: duplicate-name registration
errors, typo-suggesting unknown-key errors, strict spec parsing with
actionable messages, lossless RunSpec/RunResult round-trips, and the
end-to-end plugin path — a scheduler registered in this file is usable via
``RunSpec`` without modifying ``cli.py`` or the comparison pipeline.
"""

import json
import re

import pytest

from repro.api import (
    ArchSpec,
    DuplicateNameError,
    EngineSpec,
    PlatformSpec,
    Registry,
    RunResult,
    RunSpec,
    SCHEMA_VERSION,
    SchedulerSpec,
    UnknownNameError,
    WorkloadSpec,
    architectures,
    platforms,
    register_scheduler,
    run,
    schedulers,
    spec_fingerprint,
    workloads,
)


class TestRegistry:
    def test_builtin_axes_are_populated(self):
        assert {"cosa", "random", "hybrid", "tvm", "gpu"} <= set(schedulers.available())
        assert {"baseline-4x4", "pe-8x8", "large-buffers", "gpu-k80"} <= set(
            architectures.available()
        )
        assert {"timeloop", "noc"} <= set(platforms.available())
        assert {"alexnet", "resnet50", "resnext50", "deepbench"} <= set(workloads.available())

    def test_duplicate_registration_rejected(self):
        registry = Registry("thing")
        registry.register("x", lambda: 1)
        with pytest.raises(DuplicateNameError, match="already registered"):
            registry.register("x", lambda: 2)
        # Explicit replace wins.
        registry.register("x", lambda: 3, replace=True)
        assert registry.create("x") == 3

    def test_unknown_key_suggests_closest_name(self):
        with pytest.raises(UnknownNameError) as excinfo:
            schedulers.get("cosaa")
        message = str(excinfo.value)
        assert "unknown scheduler 'cosaa'" in message
        assert "did you mean 'cosa'?" in message
        assert "available:" in message
        # It is still a KeyError, so mapping-style call sites work unchanged.
        assert isinstance(excinfo.value, KeyError)

    def test_unknown_key_without_close_match_lists_available(self):
        with pytest.raises(UnknownNameError) as excinfo:
            platforms.get("quantum-annealer")
        message = str(excinfo.value)
        assert "did you mean" not in message
        assert "noc" in message and "timeloop" in message

    def test_decorator_registration_and_unregister(self):
        registry = Registry("gadget")

        @registry.register("widget", description="a widget")
        def make_widget():
            """Unused docstring (explicit description wins)."""
            return "widget!"

        assert make_widget() == "widget!"  # decorator returns the factory
        assert registry.describe()["widget"] == "a widget"
        registry.unregister("widget")
        assert "widget" not in registry
        with pytest.raises(UnknownNameError):
            registry.unregister("widget")

    def test_description_defaults_to_docstring_first_line(self):
        registry = Registry("gadget")

        @registry.register("doc")
        def make_doc():
            """First line wins.

            Not this one.
            """

        assert registry.describe()["doc"] == "First line wins."


class TestSpecParsing:
    def test_minimal_compare_spec_fills_defaults(self):
        spec = RunSpec.from_dict({"kind": "compare", "workload": "resnet50"})
        assert spec.arch.preset == "baseline-4x4"
        assert spec.workload.network == "resnet50"
        assert spec.scheduler is None  # the triple is fixed for compare
        assert spec.platform.name == "timeloop"
        assert spec.engine.jobs == 1

    def test_schedule_spec_defaults_scheduler_to_cosa(self):
        spec = RunSpec.from_dict({"kind": "schedule", "workload": {"layers": ["1_1_4_4_1"]}})
        assert spec.scheduler == SchedulerSpec(name="cosa")

    def test_shorthand_strings_for_axes(self):
        spec = RunSpec.from_dict(
            {
                "kind": "schedule",
                "arch": "pe-8x8",
                "workload": {"layers": ["1_1_4_4_1"]},
                "scheduler": "random",
                "platform": "noc",
            }
        )
        assert spec.arch == ArchSpec("pe-8x8")
        assert spec.scheduler == SchedulerSpec("random")
        assert spec.platform == PlatformSpec("noc")

    def test_roundtrip_through_json(self):
        payload = {
            "kind": "suite",
            "scheduler": {"name": "random", "options": {"num_valid": 3}},
            "workload": {"first_layers": 2, "batch": 4},
            "engine": {"jobs": 2, "cache": None, "batch_size": 16, "time_budget": 1.5},
            "seed": 7,
        }
        spec = RunSpec.from_dict(payload)
        restored = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored == spec
        # Specs stored while the engine had a selectable evaluation backend
        # still parse: the legacy key is checked, then dropped.
        for backend in ("numpy", "numba", "off"):
            legacy = RunSpec.from_dict(
                {**payload, "engine": {**payload["engine"], "kernel_backend": backend}}
            )
            assert legacy == spec
            assert "kernel_backend" not in legacy.to_dict()["engine"]
            assert spec_fingerprint(legacy) == spec_fingerprint(spec)
        with pytest.raises(ValueError, match="kernel_backend must be one of"):
            RunSpec.from_dict(
                {**payload, "engine": {**payload["engine"], "kernel_backend": "cuda"}}
            )

    def test_legacy_batch_size_is_checked_then_dropped(self):
        # Specs written while the search baselines had a selectable scoring
        # batch size still parse and share the default spec's fingerprint.
        base = {"kind": "schedule", "workload": {"layers": ["3_4_8_16_1"]}}
        legacy = RunSpec.from_dict({**base, "engine": {"batch_size": 16}})
        default = RunSpec.from_dict(base)
        assert legacy == default
        assert legacy.to_dict()["engine"]["batch_size"] == 64
        assert spec_fingerprint(legacy) == spec_fingerprint(default)
        for bad in (0, -1, 1.5, True):
            with pytest.raises(ValueError, match="EngineSpec.batch_size"):
                RunSpec.from_dict({**base, "engine": {"batch_size": bad}})

    def test_legacy_executor_is_checked_then_dropped(self):
        # Specs written while the engine offered a process pool still parse
        # and share the default spec's fingerprint.
        base = {"kind": "schedule", "workload": {"layers": ["3_4_8_16_1"]}}
        legacy = RunSpec.from_dict({**base, "engine": {"executor": "process"}})
        default = RunSpec.from_dict(base)
        assert legacy == default
        assert legacy.to_dict()["engine"]["executor"] == "thread"
        assert spec_fingerprint(legacy) == spec_fingerprint(default)
        with pytest.raises(ValueError, match="EngineSpec.executor must be one of"):
            RunSpec.from_dict({**base, "engine": {"executor": "fiber"}})

    def test_unknown_top_level_key_lists_allowed(self):
        with pytest.raises(ValueError, match=r"'schedulers'.*allowed keys.*scheduler"):
            RunSpec.from_dict({"kind": "compare", "workload": "alexnet", "schedulers": []})

    def test_unknown_nested_key_names_the_spec(self):
        with pytest.raises(ValueError, match=r"'jobs' in WorkloadSpec"):
            RunSpec.from_dict({"kind": "compare", "workload": {"network": "alexnet", "jobs": 2}})

    def test_missing_kind_rejected(self):
        with pytest.raises(ValueError, match="requires 'kind'"):
            RunSpec.from_dict({"workload": "alexnet"})

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="RunSpec.kind must be one of"):
            RunSpec.from_dict({"kind": "benchmark", "workload": "alexnet"})

    def test_compare_with_scheduler_rejected(self):
        with pytest.raises(ValueError, match="fixed Random/Hybrid/CoSA triple"):
            RunSpec.from_dict({"kind": "compare", "workload": "alexnet", "scheduler": "cosa"})

    def test_schedule_without_workload_rejected(self):
        with pytest.raises(ValueError, match="needs a workload"):
            RunSpec.from_dict({"kind": "schedule"})

    def test_workload_network_and_layers_conflict(self):
        with pytest.raises(ValueError, match="at most one of network / layers / problem"):
            WorkloadSpec(network="alexnet", layers=("1_1_4_4_1",))

    def test_workload_network_and_problem_conflict(self):
        with pytest.raises(ValueError, match="at most one of network / layers / problem"):
            WorkloadSpec(network="alexnet", problem="matmul")

    def test_problem_options_require_problem(self):
        with pytest.raises(ValueError, match="problem_options requires"):
            WorkloadSpec(problem_options={"m": 4})

    def test_type_errors_are_actionable(self):
        with pytest.raises(ValueError, match="EngineSpec.jobs must be an integer"):
            EngineSpec(jobs="four")
        with pytest.raises(ValueError, match="EngineSpec.jobs must be >= 1"):
            EngineSpec(jobs=0)
        with pytest.raises(ValueError, match="PlatformSpec.metric must be one of"):
            PlatformSpec(metric="throughput")
        with pytest.raises(ValueError, match="RunSpec.seed must be an integer"):
            RunSpec(kind="suite", seed=1.5)


class TestRunResult:
    def _result(self):
        spec = RunSpec.from_dict({"kind": "compare", "workload": "alexnet"})
        return RunResult(kind="compare", spec=spec, data={"label": "alexnet"})

    def test_roundtrip(self):
        result = self._result()
        restored = RunResult.from_json(result.to_json())
        assert restored.schema_version == SCHEMA_VERSION
        assert restored.spec == result.spec
        assert restored.data == result.data
        assert restored.to_dict() == result.to_dict()

    def test_envelope_leads_with_schema_version(self):
        assert next(iter(self._result().to_dict())) == "schema_version"

    def test_unsupported_schema_version_rejected(self):
        payload = self._result().to_dict()
        payload["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="unsupported schema_version"):
            RunResult.from_dict(payload)

    def test_missing_and_unknown_keys_rejected(self):
        payload = self._result().to_dict()
        del payload["kind"]
        with pytest.raises(ValueError, match="missing key"):
            RunResult.from_dict(payload)
        payload = self._result().to_dict()
        payload["extra"] = 1
        with pytest.raises(ValueError, match="'extra'"):
            RunResult.from_dict(payload)

    def test_artifacts_never_serialized(self):
        result = self._result()
        result.artifacts["accelerator"] = object()
        assert "artifacts" not in result.to_dict()
        result.to_json()  # must not choke on unserializable artifacts


class _OutermostScheduler:
    """Toy plugin: places every loop temporally at the outermost level."""

    name = "outermost"

    def __init__(self, accelerator, seed: int = 0):
        self.accelerator = accelerator
        self.seed = seed

    def config_fingerprint(self) -> str:
        return f"outermost-seed-{self.seed}"

    def schedule_outcome(self, layer):
        from repro.engine.outcome import ScheduleOutcome
        from repro.mapping.mapping import Mapping

        levels = len(self.accelerator.hierarchy)
        # Everything temporal at the outermost (DRAM) level: always feasible.
        temporal = [{} for _ in range(levels - 1)] + [dict(layer.bounds)]
        spatial = [{} for _ in range(levels)]
        mapping = Mapping.from_factors(layer, temporal_factors=temporal, spatial_factors=spatial)
        return ScheduleOutcome(
            layer=layer,
            scheduler=self.name,
            mapping=mapping,
            num_sampled=1,
            num_evaluated=1,
        )


class TestCustomSchedulerEndToEnd:
    """A scheduler registered here runs via RunSpec without touching cli/harness."""

    def test_plugin_scheduler_via_runspec(self):
        @register_scheduler("outermost", description="test-only plugin")
        def _make(accelerator, *, seed=0):
            return _OutermostScheduler(accelerator, seed=seed)

        try:
            spec = RunSpec.from_dict(
                {
                    "kind": "schedule",
                    "workload": {"layers": ["3_4_8_16_1"]},
                    "scheduler": "outermost",
                    "seed": 11,
                }
            )
            result = run(spec)
            outcome = result.data["outcomes"][0]
            assert outcome["scheduler"] == "outermost"
            assert outcome["succeeded"] is True
            assert outcome["loop_nest"]  # rendered like any built-in scheduler
            # Engine-level knob plumbed into the factory because it accepts seed.
            assert result.artifacts["scheduler"].seed == 11
            # And the CLI sees it without any cli.py change.
            from repro.cli import main as cli_main

            assert (
                cli_main(["schedule", "3_4_8_16_1", "--scheduler", "outermost", "--json"])
                == 0
            )
        finally:
            schedulers.unregister("outermost")

    def test_factory_type_error_is_not_blamed_on_the_spec(self):
        @register_scheduler("broken", description="test-only plugin")
        def _make(accelerator, *, seed=0):
            raise TypeError("internal bug")

        try:
            spec = RunSpec.from_dict(
                {
                    "kind": "schedule",
                    "workload": {"layers": ["3_4_8_16_1"]},
                    "scheduler": {"name": "broken", "options": {"seed": 1}},
                }
            )
            with pytest.raises(TypeError, match="internal bug"):
                run(spec)
        finally:
            schedulers.unregister("broken")

    def test_plugin_architecture_via_runspec(self):
        from repro.arch.presets import simba_like

        architectures.register(
            "mini-2x2", lambda: simba_like(rows=2, cols=2), description="test-only preset"
        )
        try:
            spec = RunSpec.from_dict(
                {
                    "kind": "schedule",
                    "arch": "mini-2x2",
                    "workload": {"layers": ["1_1_8_8_1"]},
                    "scheduler": {"name": "random", "options": {"num_valid": 2}},
                }
            )
            result = run(spec)
            assert result.artifacts["accelerator"].num_pes == 4
            assert result.data["succeeded"] is True
        finally:
            architectures.unregister("mini-2x2")


#: Options the search baselines took before they became module constants.
REMOVED_SCHEDULER_OPTIONS = [
    ("local-search", "moves_per_step"),
    ("local-search", "weight_transfer"),
    ("local-search", "weight_increment"),
    ("local-search", "perturbation"),
    ("local-search", "restart_after"),
    ("local-search", "utilization_target"),
    ("tvm", "exploration"),
    ("hybrid", "max_permutations"),
]


class TestRejectedSchedulerOptions:
    """An option the scheduler does not take fails the spec by name; it is
    never silently ignored."""

    @staticmethod
    def _spec(scheduler, option):
        return RunSpec.from_dict(
            {
                "kind": "schedule",
                "workload": {"layers": ["3_4_8_16_1"]},
                "scheduler": {"name": scheduler, "options": {option: 1}},
            }
        )

    @pytest.mark.parametrize("scheduler,option", REMOVED_SCHEDULER_OPTIONS)
    def test_removed_option_is_named_in_the_error(self, scheduler, option):
        message = f"{scheduler!r} does not take option(s) {option!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            run(self._spec(scheduler, option))

    def test_service_job_fails_with_the_same_message(self):
        from repro.api import SchedulingService

        with SchedulingService(max_workers=1) as service:
            job = service.submit(self._spec("tvm", "exploration"))
            with pytest.raises(ValueError, match="does not take option"):
                job.result(timeout=60)
