"""Drive the transaction-level NoC simulator directly.

Builds two hand-written schedules of the same DeepBench layer — one that
multicasts inputs to all PEs and one that forces unicast weight
distribution — and compares their behaviour on the mesh: latency, the
binding resource, and how hot the hottest link gets.  The architecture and
the evaluation platform resolve through the :mod:`repro.api` registries
(the same ``noc`` platform the CLI's ``--platform noc`` uses); the raw
simulator is then driven for the per-link detail the scalar platform value
does not expose.

Run:  python examples/noc_simulation.py
"""

from repro.api import RunSpec, architectures, platforms, run
from repro.mapping import Mapping
from repro.noc import NoCSimulator
from repro.workloads import layer_from_name


def build_mapping(layer, spatial_dim: str):
    """A simple schedule that maps 16-way parallelism onto ``spatial_dim``."""
    remaining = {dim: bound for dim, bound in layer.bounds.items()}
    spatial = {spatial_dim: 16}
    remaining[spatial_dim] //= 16
    return Mapping.from_factors(
        layer,
        temporal_factors=[
            {"R": layer.bound("R"), "S": layer.bound("S")},
            {"C": 4},
            {"C": remaining["C"] // 4},
            {"P": remaining["P"], "Q": remaining["Q"]},
            {"K": remaining["K"], "N": remaining["N"]},
            {},
        ],
        spatial_factors=[{}, {}, {}, {}, spatial, {}],
    )


def main() -> None:
    accelerator = architectures.create("baseline-4x4")
    evaluate = platforms.create("noc", accelerator)  # the CLI's --platform noc
    simulator = NoCSimulator(accelerator)
    layer = layer_from_name("3_14_128_256_1")

    print(f"Layer {layer}\n")
    for spatial_dim, description in (("K", "output channels across PEs (inputs multicast)"),
                                     ("P", "output rows across PEs (weights multicast)")):
        mapping = build_mapping(layer, spatial_dim)
        result = simulator.simulate(mapping)
        print(f"spatial dimension {spatial_dim}: {description}")
        print(f"  platform value   : {evaluate(mapping) / 1e6:.3f} MCycles (registry 'noc')")
        print(f"  latency          : {result.latency / 1e6:.3f} MCycles (bound by {result.bound_by})")
        print(f"  rounds           : {result.rounds_total} ({result.rounds_simulated} simulated)")
        print(f"  NoC payload      : {result.noc_bytes / 1024:.1f} KiB")
        print(f"  DRAM traffic     : {result.dram_bytes / 1024:.1f} KiB")
        print(f"  hottest link busy: {result.max_link_utilization:.1%}")
        print()

    # The declarative path reaches the same platform from a spec: schedule
    # the layer with CoSA and evaluate it on the simulated mesh.
    result = run(
        RunSpec.from_dict(
            {
                "kind": "schedule",
                "workload": {"layers": [layer.canonical_name]},
                "platform": "noc",
            }
        )
    )
    outcome = result.data["outcomes"][0]
    print(
        f"CoSA on the same layer: NoC-simulated latency "
        f"{outcome['platform_value'] / 1e6:.3f} MCycles"
    )


if __name__ == "__main__":
    main()
