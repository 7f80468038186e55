"""Quickstart: schedule one ResNet-50 layer on the baseline accelerator with CoSA.

Everything goes through the declarative facade: describe the experiment as a
:class:`~repro.api.specs.RunSpec` (architecture, workload, scheduler,
platform, engine knobs), hand it to :func:`repro.api.run`, and read the
``schema_version``-stamped result.  The same spec works from the shell
(``repro run spec.json``) and from Python.

Run:  python examples/quickstart.py
"""

from repro.api import RunSpec, run


def main() -> None:
    # 1. Declare the experiment: CoSA on a ResNet-50 3x3 convolution.
    spec = RunSpec.from_dict(
        {
            "kind": "schedule",
            "arch": "baseline-4x4",
            "workload": {"layers": ["3_7_512_512_1"]},
            "scheduler": "cosa",
        }
    )

    # 2. One call resolves every axis through the plugin registries and
    #    drives the scheduling engine.
    result = run(spec)
    outcome = result.data["outcomes"][0]
    print(f"scheduling {outcome['layer']} ... succeeded={outcome['succeeded']}")

    # 3. Inspect the schedule as a Listing-1 style loop nest.
    print()
    print(outcome["loop_nest"])

    # 4. The analytical (Timeloop-style) metrics ride along in the payload.
    print()
    print(f"latency : {outcome['metrics']['latency'] / 1e6:.3f} MCycles")
    print(f"energy  : {outcome['metrics']['energy'] / 1e6:.3f} uJ")
    print(f"solve   : {outcome['solve_time_seconds']:.1f}s")

    # 5. Results are versioned and serializable: round-trip through JSON and
    #    re-run the stamped spec to reproduce the experiment.
    print()
    print(f"schema_version: {result.schema_version}")
    print(f"resolved spec : {result.spec.to_dict()}")

    # 6. Whole networks scale the same way — parallel solves and
    #    identical-layer dedup are engine knobs on the spec.
    network = run(
        RunSpec.from_dict(
            {
                "kind": "schedule",
                "workload": {"network": "resnet50", "first_layers": 2},
                "engine": {"jobs": 2},
            }
        )
    )
    stats = network.data["stats"]
    print()
    print(
        f"engine: {sum(1 for o in network.data['outcomes'] if o['succeeded'])}"
        f"/{len(network.data['outcomes'])} layers scheduled "
        f"in {stats['wall_time_seconds']:.1f}s "
        f"({stats['unique_layers']} unique, {stats['dedup_reuses']} reused)"
    )


if __name__ == "__main__":
    main()
