"""Constant matrices of the CoSA formulation (Table IV of the paper).

* ``A`` — layer-dimension x data-tensor relevance: ``A[j, v] = 1`` when loop
  dimension ``j`` indexes tensor ``v``.  Derived from the workload's
  :class:`~repro.workloads.problem.TensorProblem` projection tables (the
  conv instantiation is :data:`~repro.workloads.problem.CONV7`).
* ``B`` — memory-level x data-tensor storage: ``B[i, v] = 1`` when memory
  level ``i`` of the target accelerator may hold tensor ``v``.  Derived from
  the accelerator's :class:`~repro.arch.memory.MemoryHierarchy`.
"""

from __future__ import annotations

import numpy as np

from repro.arch.accelerator import Accelerator
from repro.workloads.layer import TensorKind
from repro.workloads.problem import TensorProblem


def relevance_matrix(problem: TensorProblem) -> np.ndarray:
    """The (num dims)x3 dimension-to-tensor relevance matrix ``A`` of ``problem``.

    Rows follow the problem's canonical dimension order (for conv:
    R, S, P, Q, C, K, N).
    """
    matrix = np.zeros((len(problem.dims), len(TensorKind)), dtype=int)
    for j, dim in enumerate(problem.dims):
        for tensor in TensorKind:
            matrix[j, tensor.value] = int(problem.relevance(dim, tensor))
    return matrix


def storage_matrix(accelerator: Accelerator) -> np.ndarray:
    """The (num levels)x3 memory-to-tensor storage matrix ``B`` for ``accelerator``."""
    hierarchy = accelerator.hierarchy
    matrix = np.zeros((len(hierarchy), len(TensorKind)), dtype=int)
    for i, level in enumerate(hierarchy):
        for tensor in TensorKind:
            matrix[i, tensor.value] = int(level.holds(tensor))
    return matrix

