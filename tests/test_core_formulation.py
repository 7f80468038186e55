"""Unit tests for the CoSA formulation: constants, variables, constraints."""

import math

import numpy as np
import pytest

from repro.arch import simba_like
from repro.core.constants import relevance_matrix, storage_matrix
from repro.core.constraints import add_all_constraints
from repro.core.formulation import CoSAFormulation
from repro.core.objectives import (
    ObjectiveWeights,
    mapping_compute,
    mapping_objective_breakdown,
    mapping_traffic,
    mapping_utilization,
)
from repro.core.variables import CoSAVariables
from repro.solver import scipy_backend
from repro.solver.model import MIPModel
from repro.solver.scipy_backend import ScipyMilpBackend
from repro.solver.solution import SolveStatus
from repro.workloads import conv_layer, layer_from_name
from repro.workloads.layer import TensorKind
from repro.workloads.problem import CONV7

ARCH = simba_like()


class TestConstantMatrices:
    def test_relevance_matrix_matches_table_iv(self):
        a = relevance_matrix(CONV7)
        assert a.shape == (7, 3)
        # Weight column: R, S, C, K.
        assert list(np.flatnonzero(a[:, TensorKind.WEIGHT])) == [
            CONV7.dim_index(d) for d in ("R", "S", "C", "K")
        ]
        # Output column: P, Q, K, N.
        assert list(np.flatnonzero(a[:, TensorKind.OUTPUT])) == [
            CONV7.dim_index(d) for d in ("P", "Q", "K", "N")
        ]

    def test_storage_matrix_matches_hierarchy(self):
        b = storage_matrix(ARCH)
        assert b.shape == (6, 3)
        wbuf = ARCH.hierarchy.index_of("WeightBuffer")
        assert list(b[wbuf]) == [1, 0, 0]
        dram = ARCH.hierarchy.dram_index
        assert list(b[dram]) == [1, 1, 1]

    def test_relevant_dims_helpers(self):
        assert CONV7.relevant_dims(TensorKind.WEIGHT) == ("R", "S", "C", "K")
        assert CONV7.relevance("K", TensorKind.OUTPUT)
        assert not CONV7.relevance("K", TensorKind.INPUT)


class TestVariables:
    def test_factor_enumeration(self):
        layer = conv_layer(r=3, p=4, c=8, k=16, n=1)
        model = MIPModel()
        variables = CoSAVariables(model, layer, ARCH)
        # One factor per distinct prime of each dimension: 3, 3, 2^2, 2^2, 2^3, 2^4.
        assert len(variables.factors) == 6
        # 1 + 1 + 2 + 2 + 3 + 4 + 0 prime factors counted with multiplicity.
        assert variables.num_primes == 13
        (k_factor,) = variables.factors_of_dim("K")
        assert (k_factor.value, k_factor.multiplicity) == (2, 4)
        assert all(f.log_value == pytest.approx(math.log(f.value)) for f in variables.factors)

    def test_distinct_primes_of_one_dimension_take_consecutive_ordinals(self):
        layer = conv_layer(r=1, p=1, c=12, k=1)  # 2^2 * 3
        variables = CoSAVariables(MIPModel(), layer, ARCH)
        assert [(f.value, f.multiplicity, f.ordinal) for f in variables.factors] == [(2, 2, 0), (3, 1, 2)]

    def test_counts_are_integers_bounded_by_multiplicity_and_fanout(self):
        layer = conv_layer(r=1, p=1, c=8, k=128)  # 2^3 and 2^7
        variables = CoSAVariables(MIPModel(), layer, ARCH)
        c_factor, k_factor = variables.factors
        gb = ARCH.pe_level_index()
        for level in variables.temporal_levels:
            var = variables.temporal_at(k_factor, level)
            assert (var.kind, var.upper) == ("integer", 7)
        # 16 PEs take at most four copies of 2; 64 MAC lanes at most six.
        assert variables.spatial_at(k_factor, gb).upper == 4
        assert variables.spatial_at(k_factor, 0).upper == 6
        assert variables.spatial_at(c_factor, 0).upper == 3

    def test_spatial_variables_respect_fanout(self):
        # A prime factor of 7 cannot be mapped across a 4x4=16-PE array level
        # only when it exceeds the fanout; 7 <= 16 so it can, but 17 could not.
        layer = conv_layer(r=1, p=7, c=17, k=1, q=1)
        model = MIPModel()
        variables = CoSAVariables(model, layer, ARCH)
        seven = variables.factors_of_dim("P")[0]
        seventeen = variables.factors_of_dim("C")[0]
        gb = ARCH.pe_level_index()
        assert variables.spatial_at(seven, gb) is not None
        assert variables.spatial_at(seventeen, gb) is None

    def test_temporal_levels_stop_at_noc_boundary(self):
        layer = conv_layer(r=1, p=1, c=1, k=8)
        variables = CoSAVariables(MIPModel(), layer, ARCH)
        assert variables.temporal_levels == list(range(ARCH.pe_level_index() + 1))

    def test_active_dims_and_ranks(self):
        layer = conv_layer(r=1, p=4, c=1, k=8, q=1)
        variables = CoSAVariables(MIPModel(), layer, ARCH)
        assert variables.active_dims == ["P", "K"]
        assert variables.num_ranks == 2

    def test_variable_count_matches_registry(self):
        layer = conv_layer(r=1, p=4, c=4, k=4, q=1)
        model = MIPModel()
        variables = CoSAVariables(model, layer, ARCH)
        assert variables.num_variables == model.num_variables
        # Three factors (2^2 each): 5 temporal + 2 spatial counts apiece, 3x3
        # ranks, 3x3 Y, 3x3 G and 3x3 T, one weight bypass flag and 3 E.
        assert variables.num_variables == 3 * 7 + 9 + 9 + 9 + 9 + 1 + 3

    def test_weights_bypass_the_global_buffer(self):
        variables = CoSAVariables(MIPModel(), conv_layer(r=1, p=1, c=1, k=8), ARCH)
        wbuf = ARCH.hierarchy.index_of("WeightBuffer")
        assert variables.bypass_levels == {TensorKind.WEIGHT: range(wbuf, ARCH.pe_level_index())}
        assert set(variables.bypass) == {TensorKind.WEIGHT}


class TestFormulationSolutions:
    """End-to-end checks on small layers where the optimum is easy to reason about."""

    def _schedule(self, layer, weights=ObjectiveWeights()):
        formulation = CoSAFormulation(layer, ARCH, weights=weights, capacity_fraction=0.5)
        solution = formulation.solve()
        assert solution.status is SolveStatus.OPTIMAL
        mapping = formulation.decode(solution)
        return formulation, solution, mapping

    def test_small_layer_produces_consistent_mapping(self):
        layer = conv_layer(r=3, p=4, c=8, k=16)
        _, _, mapping = self._schedule(layer)
        assert mapping.is_consistent()
        assert mapping.num_levels == ARCH.num_memory_levels

    def test_spatial_factors_respect_fanouts(self):
        layer = conv_layer(r=1, p=8, c=16, k=32)
        _, _, mapping = self._schedule(layer)
        for index, level in enumerate(ARCH.hierarchy):
            assert mapping.spatial_product_at(index) <= level.spatial_fanout

    def test_compute_objective_encourages_spatial_mapping(self):
        # With a compute-dominant objective the solver should parallelise
        # heavily rather than run everything sequentially.
        layer = conv_layer(r=1, p=1, c=64, k=64)
        weights = ObjectiveWeights(utilization=0.0, compute=1.0, traffic=0.0)
        _, _, mapping = self._schedule(layer, weights)
        assert mapping.total_spatial_product() >= 64

    def test_mip_constraints_all_satisfied_at_solution(self):
        layer = conv_layer(r=3, p=4, c=8, k=8, s=1, q=1)
        formulation, solution, _ = self._schedule(layer)
        for constraint in formulation.model.constraints:
            assert constraint.satisfied_by(solution.values), constraint.name

    def test_objective_breakdown_matches_decoded_mapping(self):
        """The MIP's objective terms must agree with the direct evaluation of the
        decoded mapping (they encode the same Eq. 5/6/11 quantities).

        The second solve pins R's prime temporally at the weight buffer and
        P's at the NoC boundary, so ``B[W] = 1`` and the DRAM re-fetch term
        is non-zero on both sides."""
        layer = conv_layer(r=3, p=4, c=8, k=8, s=1, q=1)
        for refetch in (False, True):
            formulation = CoSAFormulation(layer, ARCH, capacity_fraction=0.5)
            variables = formulation.variables
            if refetch:
                (r_prime,) = variables.factors_of_dim("R")
                (p_prime,) = variables.factors_of_dim("P")
                wbuf = ARCH.hierarchy.index_of("WeightBuffer")
                formulation.model.add_constraint(variables.temporal_at(r_prime, wbuf) >= 1)
                formulation.model.add_constraint(
                    variables.temporal_at(p_prime, variables.noc_level) >= 1
                )
            solution = formulation.solve()
            assert solution.status is SolveStatus.OPTIMAL
            mapping = formulation.decode(solution)
            refetched = sum(solution.value(term) for term in variables.refetch_term.values())
            assert solution.rounded(variables.bypass[TensorKind.WEIGHT]) == int(refetch)
            assert (refetched > 0.5) is refetch
            solver_side = formulation.objective_breakdown(solution)
            mapping_side = mapping_objective_breakdown(mapping, ARCH)
            assert solver_side.compute == pytest.approx(mapping_side.compute, abs=1e-6)
            assert solver_side.utilization == pytest.approx(mapping_side.utilization, abs=1e-6)
            assert solver_side.traffic == pytest.approx(mapping_side.traffic, abs=1e-6)

    def test_decoded_mapping_is_valid_under_cost_model(self):
        from repro.model import CostModel

        layer = layer_from_name("3_14_128_256_1")
        formulation = CoSAFormulation(layer, ARCH, capacity_fraction=0.5)
        solution = formulation.solve()
        mapping = formulation.decode(solution)
        result = CostModel(ARCH).evaluate(mapping)
        assert result.valid, result.violations

    def test_stats_report_problem_size(self):
        layer = conv_layer(r=1, p=1, c=16, k=16)
        formulation = CoSAFormulation(layer, ARCH)
        stats = formulation.stats
        # Two factors (2^4 each), eight primes counted with multiplicity.
        assert stats.num_prime_factors == 8
        assert len(formulation.variables.factors) == 2
        assert stats.num_variables > 0
        assert stats.num_constraints > 0


class TestRootRelaxation:
    """The LP relaxation bounds the MIP optimum closely; its rows cut nothing off.

    Before the exact ``traffic_own`` rows the relaxation charged no traffic
    iterations and its bound read 0.79 of the optimum on both layers.  The
    pinned optima are the values the MIP reached before those rows too.
    """

    @staticmethod
    def _relaxed_objective(model) -> float:
        cost, lp = scipy_backend._lower(model)
        lp.integrality_ = [scipy_backend._core.HighsVarType.kContinuous] * len(cost)
        status, x, _ = ScipyMilpBackend()._attempt(lp, is_mip=False, presolve=True)
        assert status == scipy_backend._Status.kOptimal
        return float(cost @ x)

    @pytest.mark.parametrize(
        "name, optimum", [("3_14_32_32_2", 49.708416654013), ("1_14_64_128_2", 49.211017697581)]
    )
    def test_root_bound_is_within_two_percent_of_the_unchanged_optimum(self, name, optimum):
        formulation = CoSAFormulation(layer_from_name(name), ARCH, capacity_fraction=0.8)
        relaxed = self._relaxed_objective(formulation.model)
        solution = formulation.solve()
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(optimum, rel=1e-9)
        assert relaxed >= 0.98 * solution.objective


class TestMappingSideObjectives:
    def test_compute_term_is_log_of_temporal_product(self):
        from repro.mapping import Mapping

        layer = conv_layer(r=1, p=4, c=8, k=16, q=1)
        mapping = Mapping.from_factors(
            layer,
            temporal_factors=[{"P": 4}, {"C": 8}, {}, {}, {"K": 4}, {}],
            spatial_factors=[{}, {}, {}, {}, {"K": 4}, {}],
        )
        assert mapping_compute(mapping) == pytest.approx(math.log(4 * 8 * 4))

    def test_traffic_term_depends_on_permutation(self):
        from repro.mapping import Mapping

        # Asymmetric bounds (small P, large K) make the permutation matter:
        # iterating the small P dimension outermost re-transfers far less data
        # than iterating the large K dimension outermost.
        layer = conv_layer(r=1, p=4, c=1, k=16, q=1)

        def build(order):
            return Mapping.from_factors(
                layer,
                temporal_factors=[{}, {}, {}, {}, {"P": 4, "K": 16}, {}],
                permutations=[(), (), (), (), order, ()],
            )

        p_innermost = mapping_traffic(build(("P", "K")), ARCH)
        k_innermost = mapping_traffic(build(("K", "P")), ARCH)
        assert p_innermost > k_innermost

    def test_utilization_counts_only_onchip_levels(self):
        from repro.mapping import Mapping

        layer = conv_layer(r=1, p=1, c=1, k=16)
        all_outer = Mapping.from_factors(
            layer, temporal_factors=[{}, {}, {}, {}, {"K": 16}, {}]
        )
        all_inner = Mapping.from_factors(
            layer, temporal_factors=[{"K": 16}, {}, {}, {}, {}, {}]
        )
        assert mapping_utilization(all_inner, ARCH) > mapping_utilization(all_outer, ARCH)

    def test_breakdown_total_uses_weights(self):
        from repro.mapping import Mapping

        layer = conv_layer(r=1, p=1, c=1, k=4)
        mapping = Mapping.from_factors(layer, temporal_factors=[{"K": 4}, {}, {}, {}, {}, {}])
        weights = ObjectiveWeights(utilization=2.0, compute=3.0, traffic=0.5)
        breakdown = mapping_objective_breakdown(mapping, ARCH, weights)
        expected = -2.0 * breakdown.utilization + 3.0 * breakdown.compute + 0.5 * breakdown.traffic
        assert breakdown.total == pytest.approx(expected)


class TestObjectiveWeights:
    def test_scaled_replaces_selected_fields(self):
        weights = ObjectiveWeights().scaled(traffic=5.0)
        assert weights.traffic == 5.0
        assert weights.compute == ObjectiveWeights().compute
