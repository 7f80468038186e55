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

    @pytest.mark.parametrize(
        "text",
        ["true", "false", "Infinity", "-Infinity", "NaN"],
    )
    def test_time_budget_refuses_bools_and_non_finite_numbers(self, text):
        # json.loads takes the non-standard Infinity/NaN tokens, as spec
        # files read with json.load do; echoing them back would write JSON
        # that strict parsers reject.
        payload = json.loads(
            '{"kind": "schedule", "workload": {"layers": ["3_4_8_16_1"]},'
            f' "engine": {{"time_budget": {text}}}}}'
        )
        with pytest.raises(ValueError, match=r"^EngineSpec\.time_budget must be"):
            RunSpec.from_dict(payload)

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


_CACHE_HINT = (
    ": per-layer solves are reused through a result store (--store DIR on "
    "`repro schedule|compare|suite`, or a service's store), not a cache file"
)
_CAP_HINT = ": the fused alignment search's candidate cap is no longer settable"
_CAP = "engine.fusion_options must be {} or {'max_candidates': 256}, got "

#: Every legacy engine key: values it still takes, and values it refuses
#: with the message each refusal carries, word for word.
LEGACY_ENGINE_VALUES = {
    "cache": (
        [None],
        [
            ("mappings.json", f"engine.cache must be null, got 'mappings.json'{_CACHE_HINT}"),
            ("", f"engine.cache must be null, got ''{_CACHE_HINT}"),
        ],
    ),
    "kernel_backend": (
        [None, "numpy", "numba", "off"],
        [
            ("cuda", "EngineSpec.kernel_backend must be one of ('numpy', 'numba', "
             "'off'), got 'cuda'"),
        ],
    ),
    "batch_size": (
        [1, 16, 64],
        [
            (0, "EngineSpec.batch_size must be >= 1, got 0"),
            (-1, "EngineSpec.batch_size must be >= 1, got -1"),
            (1.5, "EngineSpec.batch_size must be an integer, got 1.5"),
            (True, "EngineSpec.batch_size must be an integer, got True"),
            (None, "EngineSpec.batch_size must be an integer, got None"),
        ],
    ),
    "executor": (
        ["thread", "process"],
        [
            ("fiber", "EngineSpec.executor must be one of ('thread', 'process'), "
             "got 'fiber'"),
            (None, "EngineSpec.executor must be one of ('thread', 'process'), got None"),
        ],
    ),
    "fusion_options": (
        [None, False, 0, "", [], {}, {"max_candidates": 256}],
        [
            ({"max_candidates": 1}, _CAP + "{'max_candidates': 1}" + _CAP_HINT),
            ({"max_candidates": 0}, _CAP + "{'max_candidates': 0}" + _CAP_HINT),
            ({"bogus": 1}, _CAP + "{'bogus': 1}" + _CAP_HINT),
        ],
    ),
}


def _legacy_id(key, value) -> str:
    shown = value if isinstance(value, str) else json.dumps(value, separators=(",", ":"))
    return f"{key}-{shown}"


ACCEPTED_LEGACY = [
    pytest.param(key, value, id=_legacy_id(key, value))
    for key, (accepted, _) in LEGACY_ENGINE_VALUES.items()
    for value in accepted
]
REFUSED_LEGACY = [
    pytest.param(key, value, message, id=_legacy_id(key, value))
    for key, (_, refused) in LEGACY_ENGINE_VALUES.items()
    for value, message in refused
]

#: Every legacy key at an accepted value, as records written before the keys
#: were dropped carry them.
EVERY_LEGACY_KEY = {
    "jobs": 1,
    "cache": None,
    "batch_size": 64,
    "time_budget": None,
    "executor": "thread",
    "kernel_backend": "numpy",
    "fusion_options": {},
}
LEGACY_BASE = {
    "kind": "schedule",
    "workload": {"layers": ["3_4_8_16_1"]},
    "scheduler": {"name": "random", "options": {"num_valid": 2}},
}


class TestLegacyEngineKeys:
    """A legacy engine key at a value it could take is dropped, so the spec
    equals and fingerprints like the spec without it; any other value is
    refused with the message it always had."""

    def test_every_table_row_is_covered(self):
        from repro.api.specs import LEGACY_ENGINE_KEYS

        assert set(LEGACY_ENGINE_VALUES) == set(LEGACY_ENGINE_KEYS)

    @pytest.mark.parametrize("key,value", ACCEPTED_LEGACY)
    def test_accepted_value_is_dropped(self, key, value):
        legacy = RunSpec.from_dict({**LEGACY_BASE, "engine": {key: value}})
        plain = RunSpec.from_dict(LEGACY_BASE)
        assert legacy == plain
        assert legacy.to_dict()["engine"] == {"jobs": 1, "time_budget": None}
        assert spec_fingerprint(legacy) == spec_fingerprint(plain)

    @pytest.mark.parametrize("key,value,message", REFUSED_LEGACY)
    def test_refused_value_keeps_its_message(self, key, value, message):
        with pytest.raises(ValueError) as excinfo:
            RunSpec.from_dict({**LEGACY_BASE, "engine": {key: value}})
        assert str(excinfo.value) == message

    def test_spec_with_every_legacy_key_runs_like_the_plain_spec(self):
        result = run(RunSpec.from_dict({**LEGACY_BASE, "engine": EVERY_LEGACY_KEY}))
        assert result.spec == RunSpec.from_dict(LEGACY_BASE)
        assert result.data["succeeded"] is True
        assert result.to_dict()["spec"]["engine"] == {"jobs": 1, "time_budget": None}

    def test_record_filed_under_its_old_fingerprint_still_serves(self, tmp_path, capsys):
        from repro.api.service import JobState, job_record
        from repro.api.store import ResultStore
        from repro.cli import main as cli_main
        from repro.digest import stable_digest

        # Write the envelope and job record as they were written while specs
        # serialized the legacy keys and the fingerprint hashed `batch_size`
        # and `time_budget` of the engine.
        envelope = run(RunSpec.from_dict(LEGACY_BASE)).to_dict()
        envelope["spec"]["engine"] = dict(EVERY_LEGACY_KEY)
        del envelope["spec"]["engine"]["kernel_backend"]
        del envelope["spec"]["engine"]["fusion_options"]
        old_fingerprint = stable_digest(
            {**envelope["spec"], "engine": {"batch_size": 64, "time_budget": None}}
        )
        assert old_fingerprint == (
            "83e71406438efa1b924055b25bc2b5911606c89f4b4c3ed331eea6e9519ee07f"
        )
        assert old_fingerprint != spec_fingerprint(RunSpec.from_dict(LEGACY_BASE))
        store = ResultStore(tmp_path / "store")
        path = store.result_path(old_fingerprint)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps(envelope))
        job_id = store.record_job(
            job_record(None, JobState.DONE, envelope["spec"], old_fingerprint, "interactive")
        )

        record = store.load_job(job_id)
        stored = store.load(record["spec_fingerprint"])
        assert stored == RunResult.from_dict(envelope)
        assert cli_main(["result", job_id, "--store", str(tmp_path / "store")]) == 0
        printed = capsys.readouterr().out
        assert printed == path.read_text()
        assert json.loads(printed)["data"] == envelope["data"]
