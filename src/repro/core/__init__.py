"""CoSA: the constrained-optimization scheduler (the paper's contribution).

The scheduling problem is expressed as a mixed-integer program over the
allocation of every prime factor of the layer's loop bounds to a
(memory level, spatial/temporal) slot, plus a permutation of the temporal
loops at the NoC-facing levels:

* :mod:`repro.core.constants` — the relevance matrices ``A`` (dimension ->
  tensor) and ``B`` (memory level -> tensor) of Table IV,
* :mod:`repro.core.variables` — the prime copy-count matrix ``X``, the
  permutation ranks and the auxiliary traffic variables,
* :mod:`repro.core.constraints` — buffer-capacity and spatial-resource
  constraints (Sec. III-C),
* :mod:`repro.core.objectives` — utilization, compute and traffic objectives
  (Sec. III-D), both as MIP expressions and as direct evaluations of a
  finished :class:`~repro.mapping.mapping.Mapping` (used for Fig. 8),
* :mod:`repro.core.formulation` — assembly of the full MIP,
* :mod:`repro.core.decode` — translation of a solver solution back into a
  :class:`~repro.mapping.mapping.Mapping`,
* :mod:`repro.core.scheduler` — the public :class:`CoSAScheduler` API,
* :mod:`repro.core.gpu` — the GPU variant of the formulation (Sec. V-D).
"""

from repro.core.constants import relevance_matrix, storage_matrix
from repro.core.objectives import ObjectiveWeights, mapping_objective_breakdown
from repro.core.formulation import CoSAFormulation
from repro.core.scheduler import CoSAScheduler, ScheduleResult

__all__ = [
    "relevance_matrix",
    "storage_matrix",
    "ObjectiveWeights",
    "mapping_objective_breakdown",
    "CoSAFormulation",
    "CoSAScheduler",
    "ScheduleResult",
]
