"""Fusion plans: how a whole network partitions into schedulable groups.

A :class:`FusionPlan` is an ordered partition of a network's operator list
into :class:`~repro.fusion.group.FusionGroup` s — multi-operator groups for
fused chains, singletons for everything else.  The engine schedules a plan
group by group; ``plan.layers`` flattens back to the exact input operator
order, so a plan never reorders the network.

:func:`auto_group` is the greedy legality-driven auto-grouper: it walks the
operator list in order and extends the current chain while the previous
operator's output legally feeds the next operator's input
(:func:`~repro.fusion.group.infer_edge`).  Two guards keep it honest:

* **Equal-operator guard** — an operator never feeds a value-equal operator
  (identical Q/K/V projections are parallel branches off one residual
  stream, not a chain, even though a shape bijection exists).
* **Chain-shape assumption** — the grouper only considers *consecutive*
  operators, so it recovers linear producer-consumer chains (the common
  transformer/CNN block shape); branching DAGs need explicit groups.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fusion.group import FusionEdge, FusionGroup, FusionError, infer_edge

#: Cap on operators per auto-grouped chain.
MAX_GROUP_SIZE = 8


@dataclass(frozen=True)
class FusionPlan:
    """An ordered partition of a network into fusion groups."""

    groups: tuple[FusionGroup, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "groups", tuple(self.groups))
        if not self.groups:
            raise FusionError("a fusion plan needs at least one group")

    @property
    def layers(self) -> list:
        """The network's operators in input order (groups concatenated)."""
        return [layer for group in self.groups for layer in group.layers]

    @property
    def num_fused_groups(self) -> int:
        """Groups with at least one fused edge."""
        return sum(1 for group in self.groups if not group.is_singleton)

    @property
    def num_fused_edges(self) -> int:
        return sum(len(group.edges) for group in self.groups)

    def fingerprint(self) -> str:
        """Stable content digest of the whole plan."""
        from repro.digest import stable_digest

        return stable_digest({"groups": [group.fingerprint() for group in self.groups]})

    def to_dict(self) -> dict:
        return {
            "groups": [group.to_dict() for group in self.groups],
            "num_fused_groups": self.num_fused_groups,
            "num_fused_edges": self.num_fused_edges,
        }

    @classmethod
    def singletons(cls, layers, prefix: str = "op") -> "FusionPlan":
        """The trivial plan: every operator is its own group (fusion off)."""
        return cls(
            groups=tuple(
                FusionGroup(name=f"{prefix}{i}", layers=(layer,))
                for i, layer in enumerate(layers)
            )
        )


def _group_name(layers, start: int) -> str:
    first = layers[0]
    label = first.name or first.canonical_name
    if len(layers) == 1:
        return label
    last = layers[-1]
    return f"{label}..{last.name or last.canonical_name}"


def auto_group(layers) -> FusionPlan:
    """Greedy legality-driven chain fusion over consecutive operators."""
    layers = list(layers)
    if not layers:
        raise FusionError("auto_group needs at least one operator")
    groups: list[FusionGroup] = []
    chain: list = [layers[0]]
    chain_edges: list[FusionEdge] = []
    chain_start = 0

    def close() -> None:
        groups.append(
            FusionGroup(
                name=_group_name(chain, chain_start),
                layers=tuple(chain),
                edges=tuple(chain_edges),
            )
        )

    for index in range(1, len(layers)):
        previous, nxt = layers[index - 1], layers[index]
        edge = None
        if len(chain) < MAX_GROUP_SIZE and previous != nxt:
            edge = infer_edge(
                previous, nxt, producer_index=len(chain) - 1, consumer_index=len(chain)
            )
        if edge is None:
            close()
            chain, chain_edges, chain_start = [nxt], [], index
        else:
            chain.append(nxt)
            chain_edges.append(edge)
    close()
    return FusionPlan(groups=tuple(groups))


def plan_for(layers, fusion) -> FusionPlan:
    """Normalize a fusion request against a resolved operator list.

    ``fusion`` may be ``"auto"`` (run the auto-grouper), a ready
    :class:`FusionPlan` (validated to cover exactly ``layers``), or a single
    :class:`FusionGroup` (wrapped into a one-group plan).
    """
    layers = list(layers)
    if fusion == "auto":
        return auto_group(layers)
    if isinstance(fusion, FusionGroup):
        fusion = FusionPlan(groups=(fusion,))
    if not isinstance(fusion, FusionPlan):
        raise TypeError(
            f"fusion must be 'auto', a FusionPlan or a FusionGroup, got {fusion!r}"
        )
    plan_layers = fusion.layers
    if len(plan_layers) != len(layers) or any(
        a != b for a, b in zip(plan_layers, layers)
    ):
        raise FusionError(
            f"fusion plan covers {len(plan_layers)} operators that do not match "
            f"the network's {len(layers)} operators (same shapes, same order, "
            "required)"
        )
    return fusion
