"""The DNN workloads evaluated in the paper.

Figure 6 / Figure 10 of the paper label every layer with the shorthand
``R_P_C_K_Stride`` (with ``S = R`` and ``Q = P``).  The tables below list those
exact layer strings for the four evaluated workloads:

* **AlexNet** (8 unique layers),
* **ResNet-50** (23 unique layers),
* **ResNeXt-50 (32x4d)** (25 unique layers),
* **DeepBench** convolution kernels (OCR + face recognition, 9 layers).

Each function returns fresh :class:`~repro.workloads.problem.ProblemLayer` objects so
callers can mutate-by-replacement without affecting the module tables.
"""

from __future__ import annotations

from repro.workloads.layer import conv_layer
from repro.workloads.problem import ProblemLayer, attention_av, attention_qk, matmul, softmax

#: ``R_P_C_K_Stride`` strings, in the order they appear on the paper's x-axes.
ALEXNET_LAYER_STRINGS: tuple[str, ...] = (
    "11_55_3_64_4",
    "5_27_64_192_1",
    "3_13_192_384_1",
    "3_13_384_256_1",
    "3_13_256_256_1",
    "1_1_9216_4096_1",
    "1_1_4096_4096_1",
    "1_1_4096_1000_1",
)

RESNET50_LAYER_STRINGS: tuple[str, ...] = (
    "7_112_3_64_2",
    "1_56_64_64_1",
    "3_56_64_64_1",
    "1_56_64_256_1",
    "1_56_256_64_1",
    "1_56_256_128_1",
    "3_28_128_128_2",
    "1_28_128_512_1",
    "1_28_256_512_2",
    "1_28_512_128_1",
    "1_28_512_256_1",
    "3_14_256_256_2",
    "1_14_256_1024_1",
    "1_14_512_1024_2",
    "1_14_1024_256_1",
    "3_14_256_256_1",
    "1_14_1024_512_1",
    "3_7_512_512_2",
    "1_7_512_2048_1",
    "1_7_1024_2048_2",
    "1_7_2048_512_1",
    "3_7_512_512_1",
    "1_1_2048_1000_1",
)

RESNEXT50_LAYER_STRINGS: tuple[str, ...] = (
    "7_112_3_64_2",
    "1_56_64_128_1",
    "3_56_4_128_1",
    "1_56_128_256_1",
    "1_56_64_256_1",
    "1_56_256_128_1",
    "1_56_256_256_1",
    "3_28_8_256_2",
    "1_28_256_512_1",
    "1_28_256_512_2",
    "1_28_512_256_1",
    "3_28_8_256_1",
    "1_28_512_512_1",
    "3_14_16_512_2",
    "1_14_512_1024_1",
    "1_14_512_1024_2",
    "1_14_1024_512_1",
    "3_14_16_512_1",
    "1_14_1024_1024_1",
    "3_7_32_1024_2",
    "1_7_1024_2048_1",
    "1_7_1024_2048_2",
    "1_7_2048_1024_1",
    "3_7_32_1024_1",
    "1_1_2048_1000_1",
)

DEEPBENCH_LAYER_STRINGS: tuple[str, ...] = (
    "3_480_1_16_1",
    "3_240_16_32_1",
    "3_120_32_64_1",
    "3_60_64_128_1",
    "3_108_3_64_2",
    "3_54_64_64_1",
    "3_27_128_128_1",
    "3_14_128_256_1",
    "3_7_256_512_1",
)

_NETWORK_TABLES: dict[str, tuple[str, ...]] = {
    "alexnet": ALEXNET_LAYER_STRINGS,
    "resnet50": RESNET50_LAYER_STRINGS,
    "resnext50": RESNEXT50_LAYER_STRINGS,
    "deepbench": DEEPBENCH_LAYER_STRINGS,
}

#: Display names used in paper figures, keyed by the internal network id.
NETWORK_DISPLAY_NAMES: dict[str, str] = {
    "alexnet": "AlexNet",
    "resnet50": "ResNet-50",
    "resnext50": "ResNeXt-50 (32x4d)",
    "deepbench": "DeepBench",
}


def layer_from_name(name: str, batch: int = 1) -> ProblemLayer:
    """Parse a paper-style ``R_P_C_K_Stride`` layer string into a conv layer."""
    parts = name.split("_")
    if len(parts) != 5:
        raise ValueError(f"expected an R_P_C_K_Stride string, got {name!r}")
    r, p, c, k, stride = (int(x) for x in parts)
    return conv_layer(r=r, p=p, c=c, k=k, stride=stride, n=batch, name=name)


def _layers_for(network: str, batch: int) -> list[ProblemLayer]:
    try:
        strings = _NETWORK_TABLES[network]
    except KeyError:
        raise KeyError(
            f"unknown network {network!r}; available: {sorted(_NETWORK_TABLES)}"
        ) from None
    return [layer_from_name(s, batch=batch) for s in strings]


def alexnet_layers(batch: int = 1) -> list[ProblemLayer]:
    """The 8 unique AlexNet layers evaluated in the paper."""
    return _layers_for("alexnet", batch)


def resnet50_layers(batch: int = 1) -> list[ProblemLayer]:
    """The 23 unique ResNet-50 layers evaluated in the paper."""
    return _layers_for("resnet50", batch)


def resnext50_layers(batch: int = 1) -> list[ProblemLayer]:
    """The 25 unique ResNeXt-50 (32x4d) layers evaluated in the paper."""
    return _layers_for("resnext50", batch)


def deepbench_layers(batch: int = 1) -> list[ProblemLayer]:
    """The 9 DeepBench (OCR + face recognition) convolution layers."""
    return _layers_for("deepbench", batch)


def workload_suite(batch: int = 1) -> dict[str, list[ProblemLayer]]:
    """All four evaluated workloads keyed by network id, in paper order."""
    return {network: _layers_for(network, batch) for network in _NETWORK_TABLES}


# -- Transformer-block presets (tensor-problem IR workloads) ------------------

def transformer_block_layers(
    seq: int,
    hidden: int,
    heads: int,
    ffn: int,
    batch: int = 1,
    prefix: str = "block",
) -> list[ProblemLayer]:
    """One transformer encoder/decoder block as a network of tensor problems.

    Eight operators: the Q/K/V projections (three identical matmuls — the
    engine de-duplicates them into one solve), the two attention
    contractions, the output projection and the two FFN matmuls.  All are
    first-class :class:`~repro.workloads.problem.ProblemLayer` objects, so
    every scheduler (including CoSA's MIP path) and the batched cost model
    consume them natively.
    """
    if hidden % heads != 0:
        raise ValueError(f"hidden size {hidden} is not divisible by {heads} heads")
    head_dim = hidden // heads
    return [
        matmul(m=seq, n=hidden, k=hidden, batch=batch, name=f"{prefix}_q_proj"),
        matmul(m=seq, n=hidden, k=hidden, batch=batch, name=f"{prefix}_k_proj"),
        matmul(m=seq, n=hidden, k=hidden, batch=batch, name=f"{prefix}_v_proj"),
        attention_qk(seq=seq, heads=heads, head_dim=head_dim, batch=batch, name=f"{prefix}_attn_qk"),
        attention_av(seq=seq, heads=heads, head_dim=head_dim, batch=batch, name=f"{prefix}_attn_av"),
        matmul(m=seq, n=hidden, k=hidden, batch=batch, name=f"{prefix}_out_proj"),
        matmul(m=seq, n=ffn, k=hidden, batch=batch, name=f"{prefix}_ffn_up"),
        matmul(m=seq, n=hidden, k=ffn, batch=batch, name=f"{prefix}_ffn_down"),
    ]


def transformer_block_fused_layers(
    seq: int,
    hidden: int,
    heads: int,
    ffn: int,
    batch: int = 1,
    prefix: str = "block",
) -> list[ProblemLayer]:
    """The fusion-aware transformer block: nine operators with explicit softmax.

    Identical to :func:`transformer_block_layers` except the softmax between
    the two attention contractions is a first-class operator, so the
    QK → softmax → AV chain can be declared (and scheduled) as one
    :class:`~repro.fusion.group.FusionGroup` with both intermediates pinned
    on-chip instead of round-tripping through DRAM.
    """
    if hidden % heads != 0:
        raise ValueError(f"hidden size {hidden} is not divisible by {heads} heads")
    head_dim = hidden // heads
    return [
        matmul(m=seq, n=hidden, k=hidden, batch=batch, name=f"{prefix}_q_proj"),
        matmul(m=seq, n=hidden, k=hidden, batch=batch, name=f"{prefix}_k_proj"),
        matmul(m=seq, n=hidden, k=hidden, batch=batch, name=f"{prefix}_v_proj"),
        attention_qk(seq=seq, heads=heads, head_dim=head_dim, batch=batch, name=f"{prefix}_attn_qk"),
        softmax(seq=seq, heads=heads, batch=batch, name=f"{prefix}_softmax"),
        attention_av(seq=seq, heads=heads, head_dim=head_dim, batch=batch, name=f"{prefix}_attn_av"),
        matmul(m=seq, n=hidden, k=hidden, batch=batch, name=f"{prefix}_out_proj"),
        matmul(m=seq, n=ffn, k=hidden, batch=batch, name=f"{prefix}_ffn_up"),
        matmul(m=seq, n=hidden, k=ffn, batch=batch, name=f"{prefix}_ffn_down"),
    ]


def bert_base_block_layers(batch: int = 1, seq: int = 128) -> list[ProblemLayer]:
    """One BERT-base encoder block (hidden 768, 12 heads, FFN 3072, seq 128)."""
    return transformer_block_layers(
        seq=seq, hidden=768, heads=12, ffn=3072, batch=batch, prefix="bert_base"
    )


def gpt2_small_block_layers(batch: int = 1, seq: int = 1024) -> list[ProblemLayer]:
    """One GPT-2-small decoder block (hidden 768, 12 heads, FFN 3072, seq 1024)."""
    return transformer_block_layers(
        seq=seq, hidden=768, heads=12, ffn=3072, batch=batch, prefix="gpt2_small"
    )


def bert_base_block_fused_layers(batch: int = 1, seq: int = 128) -> list[ProblemLayer]:
    """The fusion-aware BERT-base block (explicit softmax, nine operators)."""
    return transformer_block_fused_layers(
        seq=seq, hidden=768, heads=12, ffn=3072, batch=batch, prefix="bert_base"
    )


def gpt2_small_block_fused_layers(batch: int = 1, seq: int = 1024) -> list[ProblemLayer]:
    """The fusion-aware GPT-2-small block (explicit softmax, nine operators)."""
    return transformer_block_fused_layers(
        seq=seq, hidden=768, heads=12, ffn=3072, batch=batch, prefix="gpt2_small"
    )


# -- Layers used by the motivation / ablation figures ------------------------

def figure1_layer(batch: int = 1) -> ProblemLayer:
    """ResNet-50 3x3 layer used in Fig. 1 (C = K = 256, P = Q = 14)."""
    return conv_layer(r=3, p=14, c=256, k=256, stride=1, n=batch, name="fig1_3_14_256_256_1")


def figure3_layer(batch: int = 1) -> ProblemLayer:
    """Layer of Fig. 3 (permutation study): R=S=3, P=Q=8, C=32, K=1024."""
    return conv_layer(r=3, p=8, c=32, k=1024, stride=1, n=batch, name="fig3_3_8_32_1024_1")


def figure4_layer(batch: int = 1) -> ProblemLayer:
    """Layer of Fig. 4 (spatial-mapping study): R=S=1, P=Q=16, C=256, K=1024."""
    return conv_layer(r=1, p=16, c=256, k=1024, stride=1, n=batch, name="fig4_1_16_256_1024_1")


def figure8_layer(batch: int = 1) -> ProblemLayer:
    """ResNet-50 layer 3_7_512_512_1 used in the Fig. 8 objective breakdown."""
    return layer_from_name("3_7_512_512_1", batch=batch)
