"""Fusion-group IR: producer→consumer chains of tensor problems.

A :class:`FusionGroup` is an ordered DAG of operators (any layer implementing
the :class:`~repro.workloads.problem.ProblemLayer` protocol) plus declared
:class:`FusionEdge` s — "the OUTPUT tensor of operator ``producer`` is the
INPUT tensor of operator ``consumer``".  Declaring an edge is a claim about
data flow, so construction enforces the legality rules the buffer-sharing
cost model depends on:

* **Topological order** — ``producer < consumer``; the group's operator list
  is its schedule order.
* **Single producer** — each operator's input tensor is fed by at most one
  edge (the three-tensor problem convention has exactly one input operand).
* **Shared-dim compatibility** — the edge's ``dim_map`` must be a bijection
  between *all* output-relevant dimensions of the producer and *all*
  input-relevant dimensions of the consumer, with equal loop bounds per pair.
  Equal bounds over a complete bijection make the two tensors the same
  volume, so the handover is a pure re-interpretation, never a reshape with
  residue.
* **Window/stride coupling** — a consumer whose input projection uses a
  sliding :class:`~repro.workloads.problem.Window` (conv-style halo) cannot
  be the downstream side of a fused edge: neighbouring tiles would overlap
  and the pinned-intermediate accounting would under-charge the halo
  re-reads.  Producers with windowed inputs are fine (conv → bn-relu fuses;
  conv → conv does not).

:func:`infer_edge` derives a ``dim_map`` for a pair of operators (used by the
greedy auto-grouper): dimensions are matched by name+bound first, then by
bound alone, and ``None`` is returned when no complete bijection exists.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.workloads.layer import TensorKind
from repro.workloads.problem import Window


@dataclass(frozen=True)
class FusionEdge:
    """One producer→consumer tensor handover inside a group.

    ``dim_map`` pairs producer OUTPUT-relevant dimension names with consumer
    INPUT-relevant dimension names (a complete bijection, validated by the
    owning :class:`FusionGroup`).
    """

    producer: int
    consumer: int
    dim_map: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dim_map", tuple((p, c) for p, c in self.dim_map))

    def to_dict(self) -> dict:
        return {
            "producer": self.producer,
            "consumer": self.consumer,
            "dim_map": [list(pair) for pair in self.dim_map],
        }


class FusionError(ValueError):
    """A fusion group violates a legality rule."""


def _consumer_input_windows(layer) -> bool:
    """True when the layer's INPUT projection uses a sliding window."""
    return any(
        isinstance(term, Window)
        for term in layer.problem.projection(TensorKind.INPUT)
    )


@dataclass(frozen=True)
class FusionGroup:
    """An ordered chain/DAG of operators fused through on-chip intermediates.

    ``layers`` is the schedule order; ``edges`` declare which intermediate
    tensors stay resident on-chip.  A group with no edges (or one operator)
    is a *singleton* and is scheduled exactly like the per-operator path.
    """

    name: str
    layers: tuple
    edges: tuple[FusionEdge, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "edges", tuple(self.edges))
        if not self.layers:
            raise FusionError(f"fusion group {self.name!r} has no operators")
        seen_consumers: set[int] = set()
        for edge in self.edges:
            self._check_edge(edge)
            if edge.consumer in seen_consumers:
                raise FusionError(
                    f"group {self.name!r}: operator {edge.consumer} is the consumer "
                    "of more than one fused edge (one input operand per operator)"
                )
            seen_consumers.add(edge.consumer)

    # ------------------------------------------------------------- legality
    def _check_edge(self, edge: FusionEdge) -> None:
        n = len(self.layers)
        if not (0 <= edge.producer < edge.consumer < n):
            raise FusionError(
                f"group {self.name!r}: edge {edge.producer}->{edge.consumer} is not "
                f"topologically ordered within {n} operators"
            )
        producer = self.layers[edge.producer]
        consumer = self.layers[edge.consumer]
        if _consumer_input_windows(consumer):
            raise FusionError(
                f"group {self.name!r}: operator {edge.consumer} "
                f"({consumer.problem.name}) reads its input through a sliding "
                "window; halo-coupled consumers cannot be fused"
            )
        out_dims = producer.problem.relevant_dims(TensorKind.OUTPUT)
        in_dims = consumer.problem.relevant_dims(TensorKind.INPUT)
        mapped_out = [p for p, _ in edge.dim_map]
        mapped_in = [c for _, c in edge.dim_map]
        if sorted(mapped_out) != sorted(out_dims) or sorted(mapped_in) != sorted(in_dims):
            raise FusionError(
                f"group {self.name!r}: edge {edge.producer}->{edge.consumer} dim_map "
                f"{edge.dim_map} is not a bijection between the producer's output "
                f"dims {out_dims} and the consumer's input dims {in_dims}"
            )
        for p_dim, c_dim in edge.dim_map:
            if producer.bound(p_dim) != consumer.bound(c_dim):
                raise FusionError(
                    f"group {self.name!r}: edge {edge.producer}->{edge.consumer} maps "
                    f"{p_dim} (bound {producer.bound(p_dim)}) to {c_dim} "
                    f"(bound {consumer.bound(c_dim)}); fused dims need equal bounds"
                )

    # -------------------------------------------------------------- queries
    @property
    def is_singleton(self) -> bool:
        """True when the group schedules exactly like the per-operator path."""
        return len(self.layers) == 1 or not self.edges

    def intermediate_volume(self, edge: FusionEdge) -> int:
        """Elements of the tensor handed over along ``edge``."""
        return self.layers[edge.producer].tensor_volume(TensorKind.OUTPUT)

    def fingerprint(self) -> str:
        """Stable content digest of the group (keys per-group cache entries)."""
        from repro.digest import stable_digest

        payload = {
            "layers": [layer.key_dict() for layer in self.layers],
            "edges": [edge.to_dict() for edge in self.edges],
        }
        return stable_digest(payload)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "layers": [
                layer.name or layer.canonical_name for layer in self.layers
            ],
            "edges": [edge.to_dict() for edge in self.edges],
        }

    def __len__(self) -> int:
        return len(self.layers)


def infer_edge(producer, consumer, producer_index: int = 0, consumer_index: int = 1):
    """Derive a :class:`FusionEdge` for ``producer`` → ``consumer``, or ``None``.

    Matching is greedy and deterministic: output/input dimensions are paired
    by (name, bound) equality first, then leftover dimensions by equal bound
    in canonical order.  ``None`` means no complete equal-bound bijection
    exists (or the consumer reads through a sliding window) — the pair is
    not fusible.
    """
    if _consumer_input_windows(consumer):
        return None
    out_dims = list(producer.problem.relevant_dims(TensorKind.OUTPUT))
    in_dims = list(consumer.problem.relevant_dims(TensorKind.INPUT))
    if len(out_dims) != len(in_dims):
        return None
    pairs: list[tuple[str, str]] = []
    remaining_in = list(in_dims)
    deferred: list[str] = []
    for p_dim in out_dims:
        if p_dim in remaining_in and producer.bound(p_dim) == consumer.bound(p_dim):
            pairs.append((p_dim, p_dim))
            remaining_in.remove(p_dim)
        else:
            deferred.append(p_dim)
    for p_dim in deferred:
        match = next(
            (c for c in remaining_in if producer.bound(p_dim) == consumer.bound(c)),
            None,
        )
        if match is None:
            return None
        pairs.append((p_dim, match))
        remaining_in.remove(match)
    return FusionEdge(producer=producer_index, consumer=consumer_index, dim_map=tuple(pairs))
