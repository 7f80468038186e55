"""Fusion-group scheduling: IR legality, fused cost model, engine, surface.

Covers the whole fusion stack bottom-up: the group IR's legality rules and
edge inference, the greedy auto-grouper and plan normalization, the
buffer-sharing :class:`FusedCostModel` (including its bit-exact unfused
fallback against the scalar oracle), the alignment/retiling machinery, the
engine's fused network path with its per-group store reuse, and the API/CLI/store
surface (specs, payloads, registries, ``fused_hits``).
"""

import dataclasses
import json

import pytest

from repro.api import RunSpec, WorkloadSpec, fusion_groups, problems, run
from repro.api.registry import ALL_REGISTRIES
from repro.api.store import ResultStore
from repro.arch.presets import simba_like
from repro.core.scheduler import CoSAScheduler
from repro.engine.engine import SchedulingEngine
from repro.fusion import (
    FusionEdge,
    FusionError,
    FusionGroup,
    FusionPlan,
    attention_block,
    auto_group,
    conv_bn_relu,
    infer_edge,
    plan_for,
)
from repro.fusion.schedule import _retile_outer
from repro.model.cost import CostModel
from repro.model.fused import FusedCostModel, default_pin_level
from repro.noc.traffic import validate_fused_transfers
from repro.workloads.layer import conv_layer
from repro.workloads.problem import attention_qk, matmul, softmax

ARCH = simba_like()

ATTENTION_DIM_MAP = (("M", "M"), ("N", "N"), ("H", "H"), ("B", "B"))


def small_attention():
    return attention_block(seq=32, heads=2, head_dim=16)


def cosa_engine():
    return SchedulingEngine(CoSAScheduler(ARCH))


# --------------------------------------------------------------------- the IR


class TestGroupIR:
    def test_attention_block_is_legal_and_fingerprints_stably(self):
        group = small_attention()
        assert len(group) == 3
        assert len(group.edges) == 2
        assert not group.is_singleton
        assert group.fingerprint() == small_attention().fingerprint()
        payload = group.to_dict()
        assert payload["layers"] == ["attn_qk", "attn_softmax", "attn_av"]
        assert len(payload["edges"]) == 2

    def test_singleton_groups(self):
        layer = matmul(m=8, n=8, k=8)
        assert FusionGroup(name="solo", layers=(layer,)).is_singleton
        two = FusionGroup(name="two", layers=(layer, matmul(m=8, n=8, k=8)))
        assert two.is_singleton  # no edges -> per-operator path

    def test_rejects_unordered_edges(self):
        group = small_attention()
        with pytest.raises(FusionError, match="topologically ordered"):
            FusionGroup(
                name="bad",
                layers=group.layers,
                edges=(FusionEdge(producer=1, consumer=0, dim_map=ATTENTION_DIM_MAP),),
            )

    def test_rejects_two_producers_for_one_consumer(self):
        group = small_attention()
        edge = FusionEdge(producer=0, consumer=2, dim_map=ATTENTION_DIM_MAP)
        with pytest.raises(FusionError, match="more than one fused edge"):
            FusionGroup(
                name="bad",
                layers=group.layers,
                edges=(
                    FusionEdge(producer=1, consumer=2, dim_map=ATTENTION_DIM_MAP),
                    edge,
                ),
            )

    def test_rejects_bound_mismatch(self):
        qk = attention_qk(seq=32, heads=2, head_dim=16)
        sm = softmax(seq=64, heads=2)  # different seq -> unequal M bound
        with pytest.raises(FusionError, match="equal bounds"):
            FusionGroup(
                name="bad",
                layers=(qk, sm),
                edges=(FusionEdge(producer=0, consumer=1, dim_map=ATTENTION_DIM_MAP),),
            )

    def test_rejects_incomplete_bijection(self):
        qk = attention_qk(seq=32, heads=2, head_dim=16)
        sm = softmax(seq=32, heads=2)
        with pytest.raises(FusionError, match="bijection"):
            FusionGroup(
                name="bad",
                layers=(qk, sm),
                edges=(
                    FusionEdge(producer=0, consumer=1, dim_map=(("M", "M"),)),
                ),
            )

    def test_rejects_windowed_consumers(self):
        conv = conv_layer(r=3, p=8, c=16, k=16, stride=1, n=1)
        with pytest.raises(FusionError, match="sliding"):
            FusionGroup(
                name="bad",
                layers=(conv, conv),
                edges=(FusionEdge(producer=0, consumer=1, dim_map=()),),
            )

    def test_conv_bn_relu_is_legal(self):
        # The conv's window sits upstream of the edge, which is fine.
        group = conv_bn_relu(r=3, p=8, c=16, k=16)
        assert len(group.edges) == 1
        assert not group.is_singleton


class TestInferEdge:
    def test_matches_attention_chain_by_name(self):
        qk = attention_qk(seq=32, heads=2, head_dim=16)
        sm = softmax(seq=32, heads=2)
        edge = infer_edge(qk, sm)
        assert edge is not None
        assert dict(edge.dim_map)["M"] == "M"
        # The derived edge is accepted by the legality checks.
        FusionGroup(name="ok", layers=(qk, sm), edges=(edge,))

    def test_refuses_windowed_consumers(self):
        conv = conv_layer(r=3, p=8, c=16, k=16, stride=1, n=1)
        assert infer_edge(conv, conv) is None

    def test_refuses_shape_mismatches(self):
        assert infer_edge(matmul(m=8, n=8, k=8), matmul(m=16, n=16, k=16)) is None


class TestAutoGroup:
    def test_groups_the_attention_chain(self):
        group = small_attention()
        plan = auto_group(list(group.layers))
        assert plan.num_fused_groups == 1
        assert plan.num_fused_edges == 2
        assert plan.layers == list(group.layers)

    def test_equal_operators_never_chain(self):
        # Identical Q/K/V projections are parallel branches, not a chain.
        twins = [matmul(m=16, n=16, k=16, name="a"), matmul(m=16, n=16, k=16, name="a")]
        plan = auto_group(twins)
        assert plan.num_fused_groups == 0
        assert len(plan.groups) == 2

    def test_plan_for_validates_coverage(self):
        group = small_attention()
        with pytest.raises(FusionError, match="do not match"):
            plan_for([matmul(m=8, n=8, k=8)], FusionPlan(groups=(group,)))
        plan = plan_for(list(group.layers), group)  # bare group wraps
        assert len(plan.groups) == 1
        with pytest.raises(TypeError, match="fusion must be"):
            plan_for(list(group.layers), object())


# ------------------------------------------------------------- the cost model


class TestFusedCostModel:
    def solved(self, group):
        engine = cosa_engine()
        network = engine.schedule_network(list(group.layers), observer=None)
        return [outcome.mapping for outcome in network.outcomes]

    def test_unfused_fallback_is_bit_exact(self):
        group = small_attention()
        mappings = self.solved(group)
        scalar = CostModel(ARCH)
        per_op = [scalar.evaluate(mapping) for mapping in mappings]
        cost = FusedCostModel(ARCH).evaluate_group(group, mappings)
        assert cost.valid
        assert [result.latency for result in cost.per_op] == [result.latency for result in per_op]
        assert cost.unfused_latency == sum(result.latency for result in per_op)
        assert cost.unfused_energy == sum(result.energy for result in per_op)

    def test_singleton_groups_take_the_unfused_path(self):
        layer = matmul(m=32, n=32, k=32)
        group = FusionGroup(name="solo", layers=(layer,))
        mapping = self.solved(group)[0]
        cost = FusedCostModel(ARCH).evaluate_group(group, [mapping])
        assert cost.valid
        assert cost.latency == CostModel(ARCH).evaluate(mapping).latency
        assert cost.edges == []

    def test_mapping_count_mismatch_is_rejected(self):
        group = small_attention()
        with pytest.raises(ValueError, match="3 operators"):
            FusedCostModel(ARCH).evaluate_group(group, [])

    def test_resolve_pin_level(self):
        # The handover level is always the default: the outermost on-chip
        # level holding both inputs and outputs.
        pin = default_pin_level(ARCH)
        assert pin is not None
        assert ARCH.hierarchy[pin].name == "GlobalBuffer"

    def test_invalid_operators_serialize_without_inf(self):
        from repro.model.fused import FusedGroupCost

        payload = FusedGroupCost(valid=False, violations=["boom"]).to_dict()
        assert payload["latency"] is None
        assert payload["energy"] is None
        assert json.dumps(payload)  # JSON-safe


class TestRetileOuter:
    def test_moves_the_outer_factor_to_dram(self):
        group = small_attention()
        engine = cosa_engine()
        network = engine.schedule_network(list(group.layers), observer=None)
        mapping = network.outcomes[0].mapping
        dram = mapping.num_levels - 1
        total = mapping.dim_product("M", include_spatial=False)
        assert total % 2 == 0
        retiled = _retile_outer(mapping, {"M": 2})
        assert retiled is not None
        assert retiled.levels[dram].factor("M", include_spatial=False) == 2
        assert retiled.dim_product("M", include_spatial=False) == total
        assert CostModel(ARCH).evaluate(retiled).valid

    def test_refuses_non_divisors(self):
        group = small_attention()
        engine = cosa_engine()
        network = engine.schedule_network(list(group.layers), observer=None)
        mapping = network.outcomes[0].mapping
        total = mapping.dim_product("M", include_spatial=False)
        assert _retile_outer(mapping, {"M": total * 7}) is None


# ------------------------------------------------------------------ the engine


class TestFusedScheduling:
    def test_fused_attention_saves_dram_traffic(self):
        group = small_attention()
        engine = cosa_engine()
        network = engine.schedule_network(list(group.layers), fusion=group)
        assert network.num_succeeded == 3
        assert len(network.groups) == 1
        outcome = network.groups[0]
        assert outcome.fused
        cost = outcome.cost
        assert cost.num_pinned_edges == 2
        assert cost.dram_words < cost.unfused_dram_words
        assert cost.energy < cost.unfused_energy
        assert outcome.traffic["consistent"] is True

    def test_conv_bn_relu_fuses(self):
        group = conv_bn_relu(r=3, p=8, c=16, k=16)
        engine = cosa_engine()
        network = engine.schedule_network(list(group.layers), fusion=group)
        outcome = network.groups[0]
        assert outcome.fused
        assert outcome.cost.dram_words < outcome.cost.unfused_dram_words

    def test_group_cache_round_trips_deterministically(self, tmp_path):
        group = small_attention()
        engine = SchedulingEngine(CoSAScheduler(ARCH), store=ResultStore(tmp_path / "store"))
        first = engine.schedule_network(list(group.layers), fusion=group)
        again = engine.schedule_network(list(group.layers), fusion=group)
        assert not first.groups[0].from_cache
        assert again.groups[0].from_cache
        assert again.groups[0].cost.dram_words == first.groups[0].cost.dram_words
        assert again.groups[0].cost.latency == first.groups[0].cost.latency
        # Where the group came from stays off its payload.
        assert again.groups[0].to_dict() == first.groups[0].to_dict()
        for a, b in zip(first.outcomes, again.outcomes):
            assert a.mapping.summary() == b.mapping.summary()

    def test_groups_are_omitted_from_legacy_payloads(self):
        layer = matmul(m=16, n=16, k=16)
        engine = cosa_engine()
        network = engine.schedule_network([layer])
        assert network.groups == []
        assert "groups" not in network.to_dict()

    def test_noc_validation_flags_spilled_edges(self):
        group = small_attention()
        engine = cosa_engine()
        network = engine.schedule_network(list(group.layers), observer=None)
        mappings = [outcome.mapping for outcome in network.outcomes]
        cost = FusedCostModel(ARCH).evaluate_group(group, mappings)
        cost.edges = [dataclasses.replace(edge, pin_level=None) for edge in cost.edges]
        report = validate_fused_transfers(ARCH, group, mappings, cost)
        assert report["consistent"] is True
        for edge in report["edges"]:
            assert edge["pinned"] is False
            assert edge["dram_round_trip_words"] > 0


# ------------------------------------------------------------------ the surface


class TestWorkloadSpecFusion:
    def test_round_trips(self):
        spec = WorkloadSpec(
            fusion="attention-block",
            fusion_options={"seq": 32, "heads": 2, "head_dim": 16},
        )
        assert spec.uses_fusion
        assert not spec.is_empty
        again = WorkloadSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_legacy_specs_emit_no_fusion_keys(self):
        payload = WorkloadSpec(network="resnet50").to_dict()
        assert "fusion" not in payload
        assert "fusion_options" not in payload

    def test_validation(self):
        with pytest.raises(ValueError, match="requires WorkloadSpec.fusion"):
            WorkloadSpec(network="resnet50", fusion_options={"seq": 2})
        with pytest.raises(ValueError, match="batch"):
            WorkloadSpec(fusion="attention-block", fusion_options={"batch": 2})
        with pytest.raises(ValueError, match="auto"):
            WorkloadSpec(fusion="auto")  # nothing to group
        with pytest.raises(ValueError, match="at most one"):
            WorkloadSpec(network="resnet50", fusion="attention-block")
        with pytest.raises(ValueError, match="first_layers"):
            WorkloadSpec(fusion="attention-block", first_layers=2)


class TestFusionRunner:
    @pytest.fixture(scope="class")
    def fused_result(self):
        return run(
            RunSpec.from_dict(
                {
                    "kind": "schedule",
                    "workload": {
                        "fusion": "attention-block",
                        "fusion_options": {"seq": 32, "heads": 2, "head_dim": 16},
                    },
                }
            )
        )

    def test_payload_carries_the_fusion_block(self, fused_result):
        assert fused_result.schema_version == 2
        assert fused_result.data["succeeded"] is True
        fusion = fused_result.data["fusion"]
        assert fusion["plan"]["num_fused_groups"] == 1
        assert fusion["plan"]["num_fused_edges"] == 2
        assert fusion["saved_dram_words"] > 0
        assert fusion["saved_energy_pj"] > 0
        group = fusion["groups"][0]
        assert group["fused"] is True
        assert group["traffic"]["consistent"] is True
        json.dumps(fused_result.to_dict())  # JSON-safe end to end

    def test_envelope_round_trips(self, fused_result):
        from repro.api import RunResult

        again = RunResult.from_json(fused_result.to_json())
        assert again.to_dict() == fused_result.to_dict()

    def test_compare_and_suite_reject_fusion(self):
        spec = RunSpec.from_dict(
            {
                "kind": "compare",
                "workload": {
                    "fusion": "attention-block",
                    "fusion_options": {"seq": 32, "heads": 2, "head_dim": 16},
                },
            }
        )
        with pytest.raises(ValueError, match="does not support fusion"):
            run(spec)
        import dataclasses

        with pytest.raises(ValueError, match="does not support fusion"):
            run(dataclasses.replace(spec, kind="suite"))

    def test_auto_fusion_over_explicit_layers(self):
        result = run(
            RunSpec.from_dict(
                {
                    "kind": "schedule",
                    "workload": {"layers": ["3_4_8_16_1"], "fusion": "auto"},
                }
            )
        )
        assert result.data["succeeded"] is True
        # One conv is one singleton group: nothing fuses, nothing is claimed.
        assert result.data["fusion"]["plan"]["num_fused_groups"] == 0
        assert result.data["fusion"]["saved_dram_words"] == 0


class TestRegistries:
    def test_fusion_groups_are_registered(self):
        assert set(fusion_groups.available()) >= {
            "attention-block",
            "conv-bn-relu",
            "bert-base-block",
            "gpt2-small-block",
        }
        assert {"softmax", "bn-relu"} <= set(problems.available())
        assert "fusion_groups" in ALL_REGISTRIES

    def test_factories_build(self):
        group = fusion_groups.create("attention-block", seq=32, heads=2, head_dim=16)
        assert isinstance(group, FusionGroup)
        plan = fusion_groups.create("bert-base-block")
        assert isinstance(plan, FusionPlan)
        assert plan.num_fused_groups == 1


class TestCLIFusion:
    def test_schedule_requires_a_layer_or_fusion(self, capsys):
        from repro.cli import main

        assert main(["schedule"]) == 1
        assert "provide a layer or --fusion" in capsys.readouterr().err

    def test_schedule_with_a_fusion_group(self, capsys):
        from repro.cli import main

        code = main(
            [
                "schedule",
                "--fusion", "attention-block",
                "--fusion-option", "seq=32",
                "--fusion-option", "heads=2",
                "--fusion-option", "head_dim=16",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["data"]["fusion"]["saved_dram_words"] > 0

    def test_bad_fusion_option_is_reported(self, capsys):
        from repro.cli import main

        assert main(["schedule", "--fusion", "attention-block",
                     "--fusion-option", "seq"]) == 1
        assert "KEY=VALUE" in capsys.readouterr().err

    def test_registry_lists_fusion_groups(self, capsys):
        from repro.cli import main

        assert main(["registry", "fusion_groups", "--json"]) == 0
        listing = json.loads(capsys.readouterr().out)
        assert "attention-block" in listing["fusion_groups"]


class TestStoreFusedHits:
    def test_fused_hits_count_only_fusion_specs(self, tmp_path):
        from repro.api import RunResult

        store = ResultStore(tmp_path)
        plain = RunSpec.from_dict(
            {"kind": "schedule", "workload": {"layers": ["3_4_8_16_1"]}}
        )
        fused = RunSpec.from_dict(
            {
                "kind": "schedule",
                "workload": {
                    "fusion": "attention-block",
                    "fusion_options": {"seq": 32, "heads": 2, "head_dim": 16},
                },
            }
        )
        for spec in (plain, fused):
            store.put(RunResult(kind="schedule", spec=spec, data={"succeeded": True}))
        assert store.get(plain) is not None
        assert store.get(fused) is not None
        assert store.get(fused) is not None
        assert store.stats.hits == 3
        assert store.stats.fused_hits == 2
        assert store.stats.to_dict()["fused_hits"] == 2
