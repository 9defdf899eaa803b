"""The built-in algorithms: one table, one registration loop.

Every split approach the paper evaluates is Alg. 1 with some of its steps
switched off, so each is a row of :class:`~repro.core.controller.ControlModule`
switches over the one :class:`~repro.core.engine.SplitTrainingEngine`; the two
full-model baselines are a selection strategy over the one
:class:`~repro.baselines.fl_engine.FLTrainingEngine`.  ``ALGORITHMS.get(name)``
returns a factory ``(components) -> engine``: the engine *is* the algorithm.

A plugin takes the same route with its own policy::

    @register_algorithm("my_sfl")
    def build_my_sfl(components):
        return SplitTrainingEngine.from_components(components, MyPolicy())
"""

from __future__ import annotations

from repro.api.registry import register_algorithm
from repro.baselines.fedavg import SelectAll
from repro.baselines.fl_engine import FLTrainingEngine
from repro.baselines.pyramidfl import PyramidSelection
from repro.core.controller import ControlModule
from repro.core.engine import SplitTrainingEngine

#: Typical SFL: everyone trains at ``base_batch_size``, per-worker top updates.
_SFL = dict(regulate=False, select=False, finetune=False, merge_features=False)
#: Typical SFL with Eq. 9 batch sizes.
_SFL_BR = dict(_SFL, regulate=True)

#: name -> (description, row).  A ``dict`` row holds the ``ControlModule``
#: switches that differ from MergeSFL (all steps on) and runs on the split
#: engine; a class row is an FL selection strategy and runs on the FL engine.
BUILTIN_ALGORITHMS: dict[str, tuple[str, "dict | type"]] = {
    "mergesfl": (
        "MergeSFL: feature merging + batch-size regulation (Alg. 1)", {}),
    "mergesfl_no_fm": (
        "MergeSFL ablation without feature merging (Fig. 11)",
        dict(finetune=False, merge_features=False)),
    "mergesfl_no_br": (
        "MergeSFL ablation without batch-size regulation (Fig. 11)",
        dict(identical_batch=True)),
    "splitfed": (
        "SplitFed: typical SFL, aggregation after every local update",
        dict(_SFL, aggregate_every_iteration=True)),
    "locfedmix_sl": (
        "LocFedMix-SL: typical SFL with tau local updates per round", _SFL),
    "adasfl": ("AdaSFL: adaptive per-worker batch sizes, no merging", _SFL_BR),
    "sfl_t": ("Section II motivation variant: typical SFL", _SFL),
    "sfl_fm": (
        "Section II motivation variant: typical SFL + feature merging",
        dict(_SFL, merge_features=True)),
    "sfl_br": (
        "Section II motivation variant: typical SFL + batch-size regulation",
        _SFL_BR),
    "fedavg": (
        "FedAvg: full-model local training, uniform participation", SelectAll),
    "pyramidfl": (
        "PyramidFL: utility-driven selection with straggler avoidance",
        PyramidSelection),
}


def _factory(row):
    if isinstance(row, dict):
        return lambda components: SplitTrainingEngine.from_components(
            components,
            ControlModule(
                components.selection_solver(),
                kl_threshold=components.config.kl_threshold,
                **row,
            ),
        )
    return lambda components: FLTrainingEngine.from_components(components, row())


for _name, (_description, _row) in BUILTIN_ALGORITHMS.items():
    # ``full_model``: the FL engine trains no split model, so a config
    # naming a split policy for it is rejected.
    register_algorithm(
        _name, _factory(_row), description=_description,
        full_model=not isinstance(_row, dict),
    )
