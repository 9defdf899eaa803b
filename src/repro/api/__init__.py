"""Public extension and execution API.

* :mod:`repro.api.registry` -- pluggable registries for algorithms,
  datasets, models and the execution axes, with ``@register_*`` decorators.
* :mod:`repro.api.algorithm` -- the unified :class:`Algorithm` interface
  both engines (and any plugin) implement.
* :mod:`repro.api.components` -- configuration-to-components assembly
  (datasets, partitions, models, clusters) and registry-driven algorithm
  construction.
* :mod:`repro.api.events` -- the typed session event vocabulary
  (:class:`EventBus`, :class:`Callback` and the event payload types).
* :mod:`repro.api.session` -- :class:`Session`, the steppable,
  checkpointable driver around one experiment.

Only the light submodules are imported eagerly; :class:`Session` and the
component builders load on first attribute access so that low-level modules
(which register themselves here) can import :mod:`repro.api.registry`
without dragging in the whole package.
"""

from __future__ import annotations

import importlib

from repro.api.algorithm import Algorithm
from repro.api.events import (
    EVENT_TYPES,
    Callback,
    CheckpointSaved,
    Evaluation,
    EventBus,
    RoundEnd,
    RoundStart,
)
from repro.api.registry import (
    ALGORITHMS,
    DATASETS,
    EXECUTORS,
    MODELS,
    Registry,
    register_algorithm,
    register_dataset,
    register_executor,
    register_model,
)

#: Attributes resolved lazily to avoid import cycles with the modules that
#: register built-in components.
_LAZY_ATTRIBUTES = {
    "Session": "repro.api.session",
    "ExperimentComponents": "repro.api.components",
    "build_algorithm": "repro.api.components",
    "build_components": "repro.api.components",
    "build_model_for": "repro.api.components",
}

__all__ = [
    "Algorithm",
    "EVENT_TYPES",
    "Callback",
    "CheckpointSaved",
    "Evaluation",
    "EventBus",
    "RoundEnd",
    "RoundStart",
    "Registry",
    "ALGORITHMS",
    "DATASETS",
    "EXECUTORS",
    "MODELS",
    "register_algorithm",
    "register_dataset",
    "register_executor",
    "register_model",
    "Session",
    "ExperimentComponents",
    "build_algorithm",
    "build_components",
    "build_model_for",
]


def __getattr__(name: str):
    module_name = _LAZY_ATTRIBUTES.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module_name), name)
