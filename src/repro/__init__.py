"""Reproduction of MergeSFL (ICDE 2024).

MergeSFL: Split Federated Learning with Feature Merging and Batch Size
Regulation.  This package provides:

* ``repro.nn`` -- a from-scratch NumPy neural-network library (layers,
  losses, optimizers, model zoo, model splitting) used in place of PyTorch.
* ``repro.data`` -- synthetic stand-ins for the paper's datasets plus
  Dirichlet/IID partitioning utilities.
* ``repro.simulation`` -- an edge-computing testbed simulator (Jetson device
  profiles, WiFi bandwidth model, simulated clock, traffic accounting).
* ``repro.core`` -- the MergeSFL system itself: feature merging, batch size
  regulation, worker selection, the control module (Alg. 1, every step
  behind a switch) and the split training engine.
* ``repro.baselines`` -- the full-model (FL) engine with FedAvg's and
  PyramidFL's selection strategies.
* ``repro.algorithms`` -- the one table of the eleven built-in algorithms:
  MergeSFL, its ablations, SplitFed, LocFedMix-SL, AdaSFL and the
  motivation variants as rows of control-module switches, FedAvg and
  PyramidFL as selection strategies.
* ``repro.api`` -- the extension and execution API: plugin registries
  (``@register_algorithm`` / ``@register_dataset`` / ``@register_model`` /
  ``@register_executor`` / ``@register_codec`` / ...), the unified
  :class:`~repro.api.algorithm.Algorithm` interface, and the steppable,
  checkpointable :class:`~repro.api.session.Session`.
* ``repro.parallel`` -- interchangeable, bit-exact execution backends for
  the per-worker compute: serial, vectorized (worker-stacked kernels) and
  multiprocess.
* ``repro.study`` -- declarative multi-trial sweeps: :class:`Study` grids,
  a parallel resumable :class:`StudyRunner`, JSONL result stores and
  shipped callbacks (early stopping, periodic checkpoints, logging).
* ``repro.experiments`` -- per-figure reproduction entry points and the
  classic :func:`~repro.experiments.runner.run_experiment` wrapper.

Quickstart::

    from repro import ExperimentConfig, Session

    session = Session.from_config(ExperimentConfig(num_rounds=5))
    history = session.run()

Extending::

    from repro import SplitTrainingEngine, register_algorithm

    @register_algorithm("my_sfl")
    def build_my_sfl(components):
        return SplitTrainingEngine.from_components(components, MyPolicy())
"""

from repro.version import __version__
from repro.config import ExperimentConfig
from repro.api.algorithm import Algorithm
from repro.api.registry import (
    ALGORITHMS,
    CODECS,
    DATASETS,
    EXECUTORS,
    MODELS,
    SELECTION_SOLVERS,
    SPLIT_POLICIES,
    register_algorithm,
    register_codec,
    register_dataset,
    register_executor,
    register_model,
    register_selection_solver,
    register_split_policy,
)
from repro.api.session import Session
from repro.baselines.fl_engine import FLTrainingEngine
from repro.core.controller import ControlModule
from repro.core.engine import SplitTrainingEngine
from repro.experiments.runner import run_experiment
from repro.study import Study, StudyRunner, StudyStore

__all__ = [
    "__version__",
    "ExperimentConfig",
    "run_experiment",
    "Algorithm",
    "Session",
    "ControlModule",
    "SplitTrainingEngine",
    "FLTrainingEngine",
    "Study",
    "StudyRunner",
    "StudyStore",
    "ALGORITHMS",
    "CODECS",
    "DATASETS",
    "EXECUTORS",
    "MODELS",
    "SELECTION_SOLVERS",
    "SPLIT_POLICIES",
    "register_algorithm",
    "register_codec",
    "register_dataset",
    "register_executor",
    "register_model",
    "register_selection_solver",
    "register_split_policy",
]
