"""Tensor roles and the conv layer constructor.

The CoSA problem space of the paper is the 7-dimensional loop nest

.. code-block:: text

    for r in [0, R): for s in [0, S):          # filter window
      for p in [0, P): for q in [0, Q):        # output spatial
        for c in [0, C):                       # input channels
          for k in [0, K):                     # output channels
            for n in [0, N):                   # batch
              Output[n,k,p,q] += Weight[k,c,r,s] * Input[n,c,p*stride+r,q*stride+s]

This nest is the :data:`~repro.workloads.problem.CONV7` instance of the
tensor-problem IR (:mod:`repro.workloads.problem`), and a conv layer is a
:class:`~repro.workloads.problem.ProblemLayer` of it, built by
:func:`conv_layer`.  Conv layers keep their historic identity: the
``{r, s, p, q, c, k, n, stride}`` key payload and the paper's
``R_P_C_K_Stride`` name.  Non-conv operators (matmul, depthwise/grouped
conv, attention) are built by the other constructors in
:mod:`repro.workloads.problem` and flow through the same pipeline.
"""

from __future__ import annotations

from enum import IntEnum
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.workloads.problem import ProblemLayer


class TensorKind(IntEnum):
    """The three data tensors of a convolution/matmul operator.

    The integer values give the column index of the tensor in the constant
    relevance matrix ``A`` (Table IV in the paper).
    """

    WEIGHT = 0
    INPUT = 1
    OUTPUT = 2

    @property
    def short_name(self) -> str:
        """Two/three letter name used in the paper (W, IA, OA)."""
        return {TensorKind.WEIGHT: "W", TensorKind.INPUT: "IA", TensorKind.OUTPUT: "OA"}[self]


def conv_layer(
    r: int,
    p: int,
    c: int,
    k: int,
    stride: int = 1,
    n: int = 1,
    name: str | None = None,
    *,
    s: int | None = None,
    q: int | None = None,
) -> ProblemLayer:
    """Build a :data:`~repro.workloads.problem.CONV7` layer.

    Every evaluated workload of the paper is square, so ``S`` defaults to
    ``R`` and ``Q`` to ``P``.  Without a ``name`` the layer is named by the
    paper's ``R_P_C_K_Stride`` shorthand; an explicit name (even ``""``) is
    kept as given.
    """
    from repro.workloads.problem import CONV7, ProblemLayer

    return ProblemLayer(
        problem=CONV7,
        dim_bounds=(r, r if s is None else s, p, p if q is None else q, c, k, n),
        stride=stride,
        name=f"{r}_{p}_{c}_{k}_{stride}" if name is None else name,
    )
