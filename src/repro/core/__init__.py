"""MergeSFL core: feature merging, batch size regulation, worker arrangement.

The subpackage is organised around the paper's two modules:

* **Control module** (:mod:`repro.core.controller`): batch-size regulation
  (Eq. 9), solver-driven worker selection minimising the KL divergence to
  the IID label distribution (Eq. 10-13), Lagrangian batch fine-tuning
  (Eq. 14) and bandwidth scaling -- each step behind a switch of the one
  :class:`ControlModule`, so MergeSFL, its ablations and the SFL baselines
  are rows of :data:`repro.algorithms.BUILTIN_ALGORITHMS`.
* **Training module** (:mod:`repro.core.engine`): bottom-model training on
  workers, feature merging, top-model update, gradient dispatching and
  weighted bottom-model aggregation (Eq. 15-17).

``SplitTrainingEngine.from_components(components, ControlModule(...))`` wires
the two together; the engine is the algorithm.
"""

from repro.core.divergence import kl_divergence, mixed_label_distribution, iid_distribution
from repro.core.batching import regulate_batch_sizes, scale_to_bandwidth
from repro.core.selection import (
    IncrementalFitness,
    PopulationFitness,
    genetic_select,
    greedy_select,
    selection_priorities,
)
from repro.core.regulation import finetune_batch_sizes
from repro.core.merging import FeatureMerger, MergedBatch
from repro.core.worker import SplitWorker
from repro.core.server import SplitServer
from repro.core.controller import ControlModule, RoundPlan
from repro.core.engine import SplitTrainingEngine, ControlPolicy

__all__ = [
    "kl_divergence",
    "mixed_label_distribution",
    "iid_distribution",
    "regulate_batch_sizes",
    "scale_to_bandwidth",
    "selection_priorities",
    "genetic_select",
    "greedy_select",
    "PopulationFitness",
    "IncrementalFitness",
    "finetune_batch_sizes",
    "FeatureMerger",
    "MergedBatch",
    "SplitWorker",
    "SplitServer",
    "ControlModule",
    "RoundPlan",
    "SplitTrainingEngine",
    "ControlPolicy",
]
