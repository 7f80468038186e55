"""Tests for mapping serialisation and the command-line interface."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import simba_like
from repro.cli import main as cli_main
from repro.mapping import Mapping, MapSpace
from repro.mapping.serialize import (
    load_mapping,
    mapping_from_dict,
    mapping_to_dict,
    save_mapping,
)
from repro.workloads import conv_layer, layer_from_name

ARCH = simba_like()


class TestSerialization:
    def _mapping(self):
        layer = conv_layer(r=3, p=4, c=8, k=16, name="roundtrip")
        return Mapping.from_factors(
            layer,
            temporal_factors=[{"R": 3, "S": 3, "P": 4, "Q": 4}, {"C": 8}, {}, {}, {"K": 4}, {}],
            spatial_factors=[{}, {}, {}, {}, {"K": 4}, {}],
        )

    def test_roundtrip_through_dict(self):
        mapping = self._mapping()
        restored = mapping_from_dict(mapping_to_dict(mapping))
        assert restored.layer == mapping.layer
        assert restored.summary() == mapping.summary()
        assert restored.is_consistent()

    def test_roundtrip_through_file(self, tmp_path):
        mapping = self._mapping()
        path = save_mapping(mapping, tmp_path / "mapping.json")
        restored = load_mapping(path)
        assert restored.summary() == mapping.summary()
        # The file is plain JSON so other tools can consume it.
        data = json.loads(path.read_text())
        assert data["version"] == 1

    def test_unknown_version_rejected(self):
        data = mapping_to_dict(self._mapping())
        data["version"] = 99
        with pytest.raises(ValueError):
            mapping_from_dict(data)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=5000))
    def test_random_mappings_roundtrip(self, seed):
        import random

        layer = layer_from_name("3_14_128_256_1")
        mapping = MapSpace(layer, ARCH).random_mapping(random.Random(seed))
        restored = mapping_from_dict(mapping_to_dict(mapping))
        assert restored.summary() == mapping.summary()
        for dim, bound in layer.bounds.items():
            assert restored.dim_product(dim) == bound


class TestCLI:
    def test_networks_listing(self, capsys):
        assert cli_main(["networks"]) == 0
        output = capsys.readouterr().out
        assert "resnet50" in output
        assert "3_7_512_512_1" in output

    def test_archs_listing(self, capsys):
        assert cli_main(["archs"]) == 0
        output = capsys.readouterr().out
        assert "baseline-4x4" in output
        assert "GlobalBuffer" in output

    def test_schedule_with_random_scheduler(self, capsys, tmp_path):
        save_path = tmp_path / "m.json"
        code = cli_main(
            ["schedule", "3_13_256_256_1", "--scheduler", "random", "--save", str(save_path)]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "analytical latency" in output
        assert save_path.exists()
        assert load_mapping(save_path).is_consistent()

    def test_schedule_with_cosa_on_noc_platform(self, capsys):
        code = cli_main(
            ["schedule", "3_13_192_384_1", "--scheduler", "cosa", "--platform", "noc"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "CoSA solve" in output
        assert "NoC-simulated latency" in output


class TestCLIFacade:
    """The registry-driven subcommands added with the declarative facade."""

    def test_registry_listing(self, capsys):
        assert cli_main(["registry"]) == 0
        output = capsys.readouterr().out
        for axis in ("schedulers:", "architectures:", "platforms:", "workloads:"):
            assert axis in output
        assert "cosa" in output
        assert "gpu-k80" in output

    def test_registry_single_axis(self, capsys):
        assert cli_main(["registry", "platforms"]) == 0
        output = capsys.readouterr().out
        assert "timeloop" in output and "noc" in output
        assert "schedulers:" not in output

    def test_schedule_rejects_the_removed_batch_size_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["schedule", "3_13_256_256_1", "--scheduler", "random", "--batch-size", "8"])
        assert excinfo.value.code == 2
        assert "--batch-size" in capsys.readouterr().err

    def test_infinite_time_budget_exits_1_with_one_error_line(self, capsys):
        args = ["schedule", "3_13_256_256_1", "--scheduler", "random", "--time-budget", "inf"]
        assert cli_main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: EngineSpec.time_budget must be a finite non-negative number, got inf\n"
        )

    def test_schedule_accepts_cache_and_jobs(self, capsys, tmp_path):
        store_dir = tmp_path / "store"
        args = ["schedule", "3_13_256_256_1", "--scheduler", "random",
                "--jobs", "2", "--store", str(store_dir)]
        assert cli_main(args) == 0
        first = capsys.readouterr().out
        assert "Random search" in first
        assert (store_dir / "layers").is_dir()

        # Second invocation reuses the layer the first one stored.
        assert cli_main(args) == 0
        second = capsys.readouterr().out
        assert "served from the result store's layer tier" in second

    def test_run_rejects_a_spec_naming_a_cache_file(self, capsys, tmp_path):
        outside = tmp_path / "mappings.json"
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "kind": "schedule",
            "workload": {"layers": ["3_13_256_256_1"]},
            "engine": {"cache": str(outside)},
        }))
        assert cli_main(["run", str(spec_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "engine.cache" in captured.err and "--store" in captured.err
        assert not outside.exists()

    def test_run_rejects_an_option_the_scheduler_does_not_take(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "kind": "schedule",
            "workload": {"layers": ["3_13_256_256_1"]},
            "scheduler": {"name": "local-search", "options": {"moves_per_stpe": 4}},
        }))
        assert cli_main(["run", str(spec_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "'moves_per_stpe'" in captured.err
        assert "Traceback" not in captured.err

    def test_json_stdout_survives_native_writes_to_fd_1(self, capfd, monkeypatch):
        """HiGHS writes some diagnostics straight to fd 1 from C++; under
        ``--json`` stdout must still hold exactly one JSON document."""
        import os

        from repro import api

        real_execute = api.execute

        def noisy_execute(*args, **kwargs):
            os.write(1, b"native solver noise\n")
            return real_execute(*args, **kwargs)

        monkeypatch.setattr(api, "execute", noisy_execute)
        args = ["schedule", "3_13_256_256_1", "--scheduler", "random", "--json"]
        assert cli_main(args) == 0
        captured = capfd.readouterr()
        assert json.loads(captured.out)["kind"] == "schedule"
        assert "native solver noise" in captured.err

    def test_run_subcommand_executes_spec_file(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "kind": "schedule",
            "workload": {"layers": ["3_13_256_256_1"]},
            "scheduler": {"name": "random", "options": {"num_valid": 2}},
        }))
        assert cli_main(["run", str(spec_path), "--json"]) == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["schema_version"] == 1
        assert envelope["data"]["outcomes"][0]["scheduler"] == "random"

        # The same spec renders the human-readable summary without --json.
        assert cli_main(["run", str(spec_path)]) == 0
        assert "analytical latency" in capsys.readouterr().out


class TestServiceCLI:
    """The job-oriented subcommands: submit / jobs / result / run --follow."""

    SPEC = {
        "kind": "schedule",
        "workload": {"layers": ["3_4_8_16_1"]},
        "scheduler": {"name": "random", "options": {"num_valid": 2, "max_attempts": 500}},
    }

    @pytest.fixture()
    def spec_path(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(self.SPEC))
        return path

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.startswith("repro ")

    def test_registry_json_is_sorted_and_stable(self, capsys):
        assert cli_main(["registry", "--json"]) == 0
        first = capsys.readouterr().out
        assert cli_main(["registry", "--json"]) == 0
        second = capsys.readouterr().out
        assert first == second
        listing = json.loads(first)
        assert list(listing) == sorted(listing)
        for names in listing.values():
            assert list(names) == sorted(names)
        assert listing["schedulers"]["cosa"]

    def test_registry_json_single_axis(self, capsys):
        assert cli_main(["registry", "platforms", "--json"]) == 0
        listing = json.loads(capsys.readouterr().out)
        assert list(listing) == ["platforms"]

    def test_run_follow_streams_ndjson(self, capsys, spec_path):
        assert cli_main(["run", str(spec_path), "--follow"]) == 0
        lines = capsys.readouterr().out.splitlines()
        events = [json.loads(line) for line in lines]
        assert [event["event"] for event in events] == [
            "run_queued",
            "run_started",
            "layer_scheduled",
            "run_finished",
        ]
        assert all(event["schema_version"] == 1 for event in events)
        # The final event carries the full v1 result envelope.
        envelope = events[-1]["result"]
        assert envelope["schema_version"] == 1
        assert envelope["data"]["succeeded"] is True

    def test_submit_jobs_result_workflow(self, capsys, tmp_path, spec_path):
        store = str(tmp_path / "store")

        assert cli_main(["submit", str(spec_path), "--store", store]) == 0
        first_line = capsys.readouterr().out.strip()
        assert "done" in first_line and "fresh run" in first_line
        job_id = first_line.split()[0]

        # Resubmission of the identical spec is a store hit.
        assert cli_main(["submit", str(spec_path), "--store", store, "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["state"] == "done"
        assert record["store_hit"] is True

        assert cli_main(["jobs", "--store", store]) == 0
        listing = capsys.readouterr().out
        assert job_id in listing
        assert "store-hit" in listing

        assert cli_main(["jobs", "--store", store, "--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert [r["store_hit"] for r in records] == [False, True]

        assert cli_main(["result", job_id, "--store", store]) == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["schema_version"] == 1
        assert envelope["data"]["outcomes"][0]["layer"] == "3_4_8_16_1"

    def test_result_unknown_job_is_clean_error(self, capsys, tmp_path):
        assert cli_main(["result", "job-000001-nope", "--store", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "no job" in captured.err
        assert captured.out == ""

    def test_submit_failed_spec_records_failure(self, capsys, tmp_path):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(
            json.dumps({**self.SPEC, "scheduler": {"name": "cosaa"}})
        )
        store = str(tmp_path / "store")
        assert cli_main(["submit", str(spec_path), "--store", store]) == 1
        assert "did you mean 'cosa'" in capsys.readouterr().err

        # The failed job is recorded; fetching its result is a clean error.
        assert cli_main(["jobs", "--store", store, "--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert records[0]["state"] == "failed"
        assert cli_main(["result", records[0]["job_id"], "--store", store]) == 1
        assert "no stored result" in capsys.readouterr().err

    def test_jobs_empty_store(self, capsys, tmp_path):
        assert cli_main(["jobs", "--store", str(tmp_path / "empty")]) == 0
        assert "no jobs recorded" in capsys.readouterr().out
