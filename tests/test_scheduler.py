"""Integration tests for the CoSA scheduler API (spatial accelerator and GPU)."""

import pytest

import repro.core.constraints as constraints_module
from repro.arch import simba_like
from repro.arch.gpu import GPUSpec, gpu_as_accelerator
from repro.core import CoSAScheduler
from repro.core.gpu import CoSAGPUScheduler
from repro.core.objectives import ObjectiveWeights
from repro.engine import SchedulingEngine
from repro.model import CostModel
from repro.noc import NoCSimulator
from repro.solver.scipy_backend import ScipyMilpBackend
from repro.solver.solution import SolveStatus
from repro.workloads import conv_layer, layer_from_name

ARCH = simba_like()


class _CountingBackend(ScipyMilpBackend):
    """The default backend, counting its solves."""

    solves = 0

    def solve(self, model):
        self.solves += 1
        return super().solve(model)


class TestCoSAScheduler:
    def test_small_layer_end_to_end(self):
        scheduler = CoSAScheduler(ARCH)
        result = scheduler.schedule(conv_layer(r=3, p=4, c=8, k=16, name="tiny"))
        assert result.succeeded
        assert result.solve_time_seconds > 0
        assert result.stats.num_prime_factors == 13
        cost = CostModel(ARCH).evaluate(result.mapping)
        assert cost.valid

    def test_objective_reported(self):
        result = CoSAScheduler(ARCH).schedule(conv_layer(r=1, p=1, c=16, k=16))
        assert result.objective is not None
        assert result.objective.total == pytest.approx(
            -result.objective.weights.utilization * result.objective.utilization
            + result.objective.weights.compute * result.objective.compute
            + result.objective.weights.traffic * result.objective.traffic
        )

    def test_schedule_network(self):
        layers = [
            conv_layer(r=1, p=1, c=8, k=8, name="a"),
            conv_layer(r=1, p=4, c=1, k=16, name="b", q=1),
        ]
        network = SchedulingEngine(CoSAScheduler(ARCH)).schedule_network(layers)
        results = [outcome.detail for outcome in network.outcomes]
        assert len(results) == 2
        assert all(r.succeeded for r in results)

    def test_decoded_mapping_usable_by_noc_simulator(self):
        result = CoSAScheduler(ARCH).schedule(conv_layer(r=3, p=4, c=8, k=16))
        noc_result = NoCSimulator(ARCH).simulate(result.mapping)
        assert noc_result.latency > 0

    def test_medium_layer_valid_and_parallel(self):
        """A realistic ResNet-50 layer must decode to a valid mapping that
        actually uses the PE array (the calibrated objective is compute-heavy)."""
        layer = layer_from_name("3_14_128_256_1")
        result = CoSAScheduler(ARCH).schedule(layer)
        cost = CostModel(ARCH).evaluate(result.mapping)
        assert cost.valid, cost.violations
        assert result.mapping.total_spatial_product() >= 64

    def test_custom_weights_change_schedules(self):
        layer = conv_layer(r=1, p=8, c=16, k=16, q=1)
        compute_heavy = CoSAScheduler(
            ARCH, weights=ObjectiveWeights(utilization=0.0, compute=10.0, traffic=0.1)
        ).schedule(layer)
        util_heavy = CoSAScheduler(
            ARCH, weights=ObjectiveWeights(utilization=10.0, compute=0.1, traffic=0.1)
        ).schedule(layer)
        assert (
            compute_heavy.mapping.total_spatial_product()
            >= util_heavy.mapping.total_spatial_product()
        )

    def test_one_solve_at_full_capacity_gives_a_valid_mapping(self):
        # Shares left at full size still decode to a mapping the exact cost
        # model accepts: the capacity rows bound every footprint from above.
        backend = _CountingBackend()
        scheduler = CoSAScheduler(ARCH, backend=backend, capacity_fraction=1.0)
        result = scheduler.schedule(layer_from_name("3_27_128_128_1"))
        assert backend.solves == 1
        assert result.solution.status is SolveStatus.OPTIMAL
        assert CostModel(ARCH).evaluate(result.mapping).valid

    def test_a_decoded_overflow_raises_naming_the_layer(self, monkeypatch):
        # Without the stride term of its input rows the MIP under-sizes this
        # layer's input tiles; the scheduler reports it instead of re-solving.
        monkeypatch.setattr(constraints_module, "Window", type("NoWindow", (), {}))
        with pytest.raises(RuntimeError, match="1_14_512_1024_2 .* InputBuffer"):
            CoSAScheduler(ARCH).schedule(layer_from_name("1_14_512_1024_2"))


class TestCoSAGPUScheduler:
    def test_gpu_accelerator_shape(self):
        gpu = gpu_as_accelerator(GPUSpec())
        assert gpu.hierarchy.names == ("RegisterFile", "SharedMemory", "L2Cache", "DRAM")
        assert gpu.hierarchy["RegisterFile"].spatial_fanout == 1024
        assert gpu.num_pes == 13

    def test_gpu_schedule_respects_thread_limit(self):
        scheduler = CoSAGPUScheduler()
        result = scheduler.schedule(conv_layer(r=1, p=16, c=32, k=64, name="gpu-tile", q=1))
        assert result.mapping is not None
        assert 1 <= result.threads_per_block <= 1024
        assert result.blocks >= 1
        cost = CostModel(scheduler.accelerator).evaluate(result.mapping)
        assert cost.valid

    def test_gpu_network_scheduling(self):
        network = SchedulingEngine(CoSAGPUScheduler()).schedule_network(
            [conv_layer(r=1, p=1, c=16, k=32), conv_layer(r=1, p=8, c=1, k=64, q=1)]
        )
        results = [outcome.detail for outcome in network.outcomes]
        assert len(results) == 2
        assert all(r.mapping is not None for r in results)
