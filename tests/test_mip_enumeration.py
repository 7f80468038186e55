"""CoSA's MIP against brute force on tiny layers.

Every placement of every prime copy into the formulation's slots, and every
order of the dimensions at the NoC boundary, is enumerated; the proven MIP
optimum must equal the smallest ``mapping_objective_breakdown`` total among
the mappings that fit the fanouts and the derated capacities.  A row that
cuts off the true optimum (an over-tight symmetry row, a tightened big-M)
makes the MIP optimum larger than the enumerated minimum; a missing row
(a dropped capacity constraint) makes it smaller.  Every fitting mapping
must also be valid under the cost model, so the capacity rule, stride-2 and
stride-3 windows included, bounds the footprints the model checks.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

import pytest

import repro.core.constraints as constraints_module
from repro.arch import Accelerator, MemoryHierarchy, MemoryLevel, PEArraySpec
from repro.core.formulation import CoSAFormulation
from repro.core.objectives import mapping_objective_breakdown
from repro.mapping import Mapping
from repro.mapping.mapping import LevelMapping, Loop
from repro.model import CostModel
from repro.solver.solution import SolveStatus
from repro.workloads import conv_layer
from repro.workloads.layer import TensorKind
from repro.workloads.prime import factorize
from repro.workloads.problem import Window

W, I, O = TensorKind.WEIGHT, TensorKind.INPUT, TensorKind.OUTPUT
CAPACITY_FRACTION = 0.8


def _bypass_arch() -> Accelerator:
    """Four levels; the NoC-boundary buffer does not hold weights."""
    return Accelerator(
        name="tiny-bypass",
        hierarchy=MemoryHierarchy(
            [
                MemoryLevel("Registers", 2, frozenset({W}), spatial_fanout=2),
                MemoryLevel("WeightBuffer", 2, frozenset({W})),
                MemoryLevel("GlobalBuffer", 36, frozenset({I, O}), spatial_fanout=4),
                MemoryLevel("DRAM", None, frozenset(TensorKind)),
            ]
        ),
        pe_array=PEArraySpec(rows=2, cols=2, macs_per_pe=2),
    )


def _shared_arch() -> Accelerator:
    """Three levels, every buffer shared by all three tensors."""
    return Accelerator(
        name="tiny-shared",
        hierarchy=MemoryHierarchy(
            [
                MemoryLevel("PEBuffer", 6, frozenset(TensorKind), spatial_fanout=2),
                MemoryLevel("GlobalBuffer", 36, frozenset(TensorKind), spatial_fanout=4),
                MemoryLevel("DRAM", None, frozenset(TensorKind)),
            ]
        ),
        pe_array=PEArraySpec(rows=2, cols=2, macs_per_pe=2),
    )


def _input_arch() -> Accelerator:
    """Four levels; the input has a buffer to itself below the NoC boundary."""
    return Accelerator(
        name="tiny-input",
        hierarchy=MemoryHierarchy(
            [
                MemoryLevel("Registers", 4, frozenset({W, O}), spatial_fanout=2),
                MemoryLevel("InputBuffer", 6, frozenset({I})),
                MemoryLevel("GlobalBuffer", 36, frozenset({I, O}), spatial_fanout=4),
                MemoryLevel("DRAM", None, frozenset(TensorKind)),
            ]
        ),
        pe_array=PEArraySpec(rows=2, cols=2, macs_per_pe=2),
    )


#: Buffers small enough that capacity rows bind at each case's optimum.
CASES = {
    "bypass-p2-q2-c4-k4": (_bypass_arch, conv_layer(r=1, p=2, c=4, k=4)),
    "bypass-r3-p4-c2-k4": (_bypass_arch, conv_layer(r=3, p=4, c=2, k=4, s=1, q=1)),
    "bypass-p8-c4-k4": (_bypass_arch, conv_layer(r=1, p=8, c=4, k=4, q=1)),
    "bypass-s2-r3-p4-c2-k4": (_bypass_arch, conv_layer(r=3, p=4, c=2, k=4, stride=2, s=1, q=1)),
    "bypass-s3-p6-c4-k4": (_bypass_arch, conv_layer(r=1, p=6, c=4, k=4, stride=3, q=1)),
    "input-s2-p4-c2-k4": (_input_arch, conv_layer(r=1, p=4, c=2, k=4, stride=2, q=1)),
    "input-s3-r3-p9-c4-k2": (_input_arch, conv_layer(r=3, p=9, c=4, k=2, stride=3, s=1, q=1)),
    "shared-p4-c4-k3": (_shared_arch, conv_layer(r=1, p=4, c=4, k=3, q=1)),
    "shared-r3-p4-c2-k2": (_shared_arch, conv_layer(r=3, p=4, c=2, k=2, s=1, q=1)),
}


def _splits(copies: int, slots: int):
    """Every way to spread ``copies`` interchangeable copies over ``slots``."""
    if slots == 1:
        yield (copies,)
        return
    for first in range(copies + 1):
        for rest in _splits(copies - first, slots - 1):
            yield (first,) + rest


def _fits_derated_capacities(arch, layer, temporal, spatial) -> bool:
    """The MIP's capacity rule, restated.

    Each tensor gets an equal share of a buffer, derated only when the
    buffer is shared.  Its tile is the product of the relevant factors below
    the level and the spatial ones at it, times ``stride`` for every window
    whose outer bound exceeds 1 and whose window factor stays below
    ``stride`` (the ``Z`` rows at their best setting).
    """
    problem, stride = layer.problem, layer.stride
    for index, level in enumerate(arch.hierarchy):
        if level.is_unbounded:
            continue
        stored = [t for t in TensorKind if level.holds(t)]
        extent = {
            dim: spatial[index][dim]
            * math.prod(temporal[below][dim] * spatial[below][dim] for below in range(index))
            for dim in problem.dims
        }
        for tensor in stored:
            share = (CAPACITY_FRACTION if len(stored) > 1 else 1.0) / len(stored)
            words = max(level.capacity_bytes * share / arch.precision.bytes_for(tensor), 1.0)
            tile = math.prod(extent[d] for d in problem.dims if problem.relevance(d, tensor))
            for term in problem.projection(tensor):
                if (
                    isinstance(term, Window)
                    and layer.bound(term.outer) > 1
                    and extent[term.window] < stride
                ):
                    tile *= stride
            if math.log(tile) > math.log(words) + 1e-9:
                return False
    return True


def _enumerated_minimum(arch, layer) -> tuple[float, int]:
    """Smallest objective total over every fitting mapping, and their count.

    Every fitting mapping must also be valid under the cost model: the rule
    is an upper bound on the footprints the model checks.
    """
    model = CostModel(arch)
    noc = arch.pe_level_index()
    levels = arch.num_memory_levels
    fanouts = {i: arch.hierarchy[i].spatial_fanout for i in arch.hierarchy.spatial_levels()}
    dims = layer.problem.dims
    groups = [
        (dim, prime, copies)
        for dim in dims
        for prime, copies in Counter(factorize(layer.bound(dim))).items()
    ]
    slots_of = []
    for _, prime, _ in groups:
        slots = [(level, False) for level in range(noc + 1)]
        slots += [(level, True) for level, fanout in fanouts.items() if prime <= fanout]
        slots_of.append(slots)

    best, fitting = math.inf, 0
    choices = [list(_splits(copies, len(slots))) for (_, _, copies), slots in zip(groups, slots_of)]
    for placement in itertools.product(*choices):
        temporal = [dict.fromkeys(dims, 1) for _ in range(levels)]
        spatial = [dict.fromkeys(dims, 1) for _ in range(levels)]
        for (dim, prime, _), slots, counts in zip(groups, slots_of, placement):
            for (level, is_spatial), count in zip(slots, counts):
                (spatial if is_spatial else temporal)[level][dim] *= prime**count
        if any(math.prod(spatial[level].values()) > fanout for level, fanout in fanouts.items()):
            continue
        if not _fits_derated_capacities(arch, layer, temporal, spatial):
            continue
        fitting += 1
        outer = [dim for dim in dims if temporal[noc][dim] > 1]
        for order in itertools.permutations(outer):
            level_maps = []
            for level in range(levels):
                ordered = order if level == noc else dims
                level_maps.append(
                    LevelMapping(
                        temporal=[Loop(d, temporal[level][d]) for d in ordered if temporal[level][d] > 1],
                        spatial=[Loop(d, spatial[level][d], spatial=True) for d in dims if spatial[level][d] > 1],
                    )
                )
            mapping = Mapping(layer, level_maps)
            if order == tuple(outer):
                assert model.validate(mapping) == [], mapping
            total = mapping_objective_breakdown(mapping, arch).total
            best = min(best, total)
    return best, fitting


@pytest.mark.parametrize("case", sorted(CASES))
def test_mip_optimum_equals_the_enumerated_minimum(case):
    build_arch, layer = CASES[case]
    arch = build_arch()
    formulation = CoSAFormulation(layer, arch, capacity_fraction=CAPACITY_FRACTION)
    solution = formulation.solve()
    assert solution.status is SolveStatus.OPTIMAL

    best, fitting = _enumerated_minimum(arch, layer)
    assert fitting > 1
    assert solution.objective == pytest.approx(best, abs=1e-6)

    mapping = formulation.decode(solution)
    decoded = mapping_objective_breakdown(mapping, arch, formulation.weights)
    assert decoded.total == pytest.approx(best, abs=1e-6)
    result = CostModel(arch).evaluate(mapping)
    assert result.valid, result.violations


@pytest.mark.parametrize("case", sorted(c for c in CASES if c.startswith("bypass")))
def test_the_refetch_rows_bind_in_the_bypass_cases(case):
    """Without the weight re-fetch rows the optimum drops, so the enumeration
    above checks ``B[v]`` and ``E[v, d]``, not only the NoC traffic term."""
    build_arch, layer = CASES[case]
    arch = build_arch()
    full = CoSAFormulation(layer, arch, capacity_fraction=CAPACITY_FRACTION)
    assert set(full.variables.bypass) == {W}
    relaxed = CoSAFormulation(layer, arch, capacity_fraction=CAPACITY_FRACTION)
    relaxed.model.constraints = [
        row for row in relaxed.model.constraints if not row.name.startswith(("bypass[", "refetch_term["))
    ]
    assert relaxed.solve().objective < full.solve().objective - 1e-3


@pytest.mark.parametrize("case", sorted(c for c in CASES if CASES[c][1].stride > 1))
def test_the_window_rows_bind_in_the_stride_cases(case, monkeypatch):
    """Without the stride term of the window rows the optimum drops, so the
    enumeration above checks ``Z`` and its rows, not only the plain tiles."""
    build_arch, layer = CASES[case]
    arch = build_arch()
    full = CoSAFormulation(layer, arch, capacity_fraction=CAPACITY_FRACTION).solve()
    monkeypatch.setattr(constraints_module, "Window", type("NoWindow", (), {}))
    relaxed = CoSAFormulation(layer, arch, capacity_fraction=CAPACITY_FRACTION).solve()
    assert relaxed.objective < full.objective - 1e-3
