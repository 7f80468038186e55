"""Old names of the vectorized evaluators, kept for existing importers.

``e2ebench/tracer.py`` still imports these names to wrap the evaluator
methods for ``--trace 1`` runs.  Delete this module once the tracer imports
:class:`~repro.model.batch.BatchCostModel` and
:class:`~repro.model.fused_batch.BatchFusedCostModel` directly.
"""

from repro.model.batch import BatchCostModel
from repro.model.fused_batch import BatchFusedCostModel

# Aliases for the tracer's import; the next benchmark change deletes them.
CompiledCostModel = BatchCostModel
CompiledFusedKernel = BatchFusedCostModel
