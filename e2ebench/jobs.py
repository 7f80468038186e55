"""Seeded job lists of the three workloads, and their fixed warm-up lists.

Every job is a ``kind="schedule"`` :class:`~repro.api.specs.RunSpec` plus the
layers (and fusion plan) the oracle needs to re-price its answer.  The
program only ever sees the specs.

``cosa-mip`` and ``search-eval`` run a fixed pool of jobs per pass; the seed
draws the order of every pass.  The pool is the same for every seed: with no
store and no mapping cache the order cannot change the work, and a pool
drawn by the seed made the figures spread with whichever layers were drawn.

``serve-store`` draws a stream of submissions: one first-time spec (a
write) and three repeats of recent specs (reads) in every block of four, in
seeded positions, each sent as one of two tenants drawn by the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import count

from repro.api import RunSpec, fusion_groups, problems
from repro.workloads.networks import layer_from_name

#: The 23 unique convolutions of ResNet-50, as ``R_P_C_K_Stride``.
RESNET50 = (
    "7_112_3_64_2", "1_56_64_64_1", "3_56_64_64_1", "1_56_64_256_1",
    "1_56_256_64_1", "1_56_256_128_1", "3_28_128_128_2", "1_28_128_512_1",
    "1_28_256_512_2", "1_28_512_128_1", "1_28_512_256_1", "3_14_256_256_2",
    "1_14_256_1024_1", "1_14_512_1024_2", "1_14_1024_256_1", "3_14_256_256_1",
    "1_14_1024_512_1", "3_7_512_512_2", "1_7_512_2048_1", "1_7_1024_2048_2",
    "1_7_2048_512_1", "3_7_512_512_1", "1_1_2048_1000_1",
)

#: Unique bert-base-block operators, as problem-registry entries.
BERT_QK = ("attention-qk", {"seq": 128, "heads": 12, "head_dim": 64})

#: Tiny warm-up layer, outside every pool.
WARMUP_LAYER = "1_7_8_8_1"

#: ``serve-store``: submissions per block, of which one is a first-time spec.
BLOCK = 4
#: ``serve-store``: repeats target the most recent specs (more than the
#: store's 128-entry warm tier, so hits split between warm and disk).
REPEAT_WINDOW = 192
TENANTS = ("alpha", "beta")
#: ``serve-store``: nominal submissions per second; a run of ``--seconds``
#: sends ``round(seconds * SERVE_RATE)`` of them (the same work every run,
#: so the store and the service's job table grow alike).
SERVE_RATE = 35


@dataclass
class Job:
    """One spec to run and what its answer is checked against."""

    label: str
    spec: RunSpec
    layers: list
    plan: object = None
    key: int = -1  # serve-store: index of the spec in the pool
    tenant: str = ""
    first: bool = False  # serve-store: first submission of this spec

    @property
    def arch(self) -> str:
        return self.spec.arch.preset


def conv_job(label: str, layer: str, scheduler: str, arch: str = "baseline-4x4",
             options: dict | None = None, seed: int = 0) -> Job:
    spec = RunSpec.from_dict({
        "kind": "schedule",
        "arch": arch,
        "workload": {"layers": [layer]},
        "scheduler": {"name": scheduler, "options": options or {}},
        "seed": seed,
    })
    return Job(label, spec, [layer_from_name(layer)])


def problem_job(label: str, problem: tuple, scheduler: str) -> Job:
    name, options = problem
    spec = RunSpec.from_dict({
        "kind": "schedule",
        "workload": {"problem": name, "problem_options": dict(options)},
        "scheduler": scheduler,
    })
    return Job(label, spec, [problems.get(name)(**options)])


def fused_job(label: str, scheduler: str) -> Job:
    spec = RunSpec.from_dict({
        "kind": "schedule",
        "workload": {"fusion": "bert-base-block"},
        "scheduler": scheduler,
    })
    plan = fusion_groups.get("bert-base-block")(batch=1)
    return Job(label, spec, plan.layers, plan=plan)


# ----------------------------------------------------------------- cosa-mip

def cosa_pool() -> list[Job]:
    """CoSA on ResNet-50 convs and a bert-base-block operator, one CoSA-GPU job."""
    jobs = [
        conv_job("cosa", layer, "cosa")
        for layer in ("7_112_3_64_2", "1_56_64_256_1", "1_14_1024_512_1", "3_7_512_512_2",
                      "1_1_2048_1000_1")
    ]
    jobs.append(problem_job("cosa", BERT_QK, "cosa"))
    jobs.append(conv_job("cosa-gpu", "1_56_64_256_1", "gpu", arch="gpu-k80"))
    return jobs


def cosa_warmup() -> list[Job]:
    return [
        conv_job("cosa", WARMUP_LAYER, "cosa"),
        conv_job("cosa-gpu", WARMUP_LAYER, "gpu", arch="gpu-k80"),
    ]


# -------------------------------------------------------------- search-eval

#: Random search priced with a larger fixed budget than its default five
#: valid mappings, so the batched path carries a visible share.
RANDOM_OPTIONS = {"num_valid": 400}


def search_pool() -> list[Job]:
    """The four search baselines on ResNet-50 convs plus fused bert blocks."""
    jobs = [conv_job("random", layer, "random", options=RANDOM_OPTIONS)
            for layer in ("1_56_64_64_1", "1_28_256_512_2", "1_14_512_1024_2", "1_7_2048_512_1")]
    jobs += [conv_job("tvm", layer, "tvm")
             for layer in ("3_56_64_64_1", "1_28_128_512_1", "3_14_256_256_1")]
    jobs += [conv_job("hybrid", layer, "hybrid") for layer in ("1_56_256_64_1", "3_7_512_512_1")]
    jobs += [conv_job("local-search", layer, "local-search")
             for layer in ("1_28_512_256_1", "1_7_512_2048_1")]
    jobs += [fused_job("fused", "random") for _ in range(4)]
    return jobs


def search_warmup() -> list[Job]:
    jobs = [conv_job(name, WARMUP_LAYER, name) for name in ("random", "tvm", "hybrid", "local-search")]
    jobs.append(fused_job("fused", "random"))
    return jobs


#: Nominal seconds of one pass over each pool on an idle two-vCPU host; a run
#: of ``--seconds`` makes ``max(3, round(seconds / PASS_SECONDS))`` passes,
#: so every run of a given length does the same work however busy the host.
PASS_SECONDS = {"cosa-mip": 8.0, "search-eval": 2.7}


def passes(pool: list[Job], workload: str, seed: int):
    """Endless passes over ``pool``: each a seeded order of its indices."""
    for index in count():
        order = list(range(len(pool)))
        random.Random(f"{workload}:{seed}:{index}").shuffle(order)
        yield order


# -------------------------------------------------------------- serve-store

def serve_spec(index: int, seed: int) -> Job:
    """Pool spec ``index``: round ``index // 23`` visits every ResNet-50 conv
    once, in a seeded order, with the round number as the search seed."""
    rnd, position = divmod(index, len(RESNET50))
    order = list(RESNET50)
    random.Random(f"serve-store:{seed}:round:{rnd}").shuffle(order)
    job = conv_job("random", order[position], "random", seed=rnd)
    job.key = index
    return job


def serve_stream(seed: int):
    """Endless seeded submissions: ``Job`` with ``key``, ``tenant``, ``first``."""
    rng = random.Random(f"serve-store:{seed}")
    issued = 0
    specs: dict[int, Job] = {}
    for block in count():
        new_at = 0 if block == 0 else rng.randrange(BLOCK)
        for position in range(BLOCK):
            if position == new_at:
                key, first = issued, True
                specs[key] = serve_spec(key, seed)
                specs.pop(key - REPEAT_WINDOW, None)
                issued += 1
            else:
                key, first = rng.randrange(max(0, issued - REPEAT_WINDOW), issued), False
            base = specs[key]
            yield Job(base.label, base.spec, base.layers, key=key,
                      tenant=rng.choice(TENANTS), first=first)


def serve_warmup() -> list[Job]:
    job = conv_job("random", WARMUP_LAYER, "random", seed=10**6)
    job.tenant = TENANTS[0]
    return [job]
