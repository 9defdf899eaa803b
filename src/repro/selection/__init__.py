"""Pluggable worker-selection solvers.

MergeSFL's per-round worker selection (Eq. 10-13 + Alg. 1 line 5) is a
combinatorial optimisation; this package makes the solver a pluggable
component behind :data:`repro.api.registry.SELECTION_SOLVERS`, picked by
``config.selector``.  The default ``ga`` delegates to the paper's genetic
algorithm verbatim and is bit-exact by construction; ``ga-warm`` and
``local-search`` trade search budget for warm starts and incremental
refinement; ``greedy`` is the constructor alone, the ablation baseline.
"""

from repro.selection.solvers import (
    GASolver,
    GreedySolver,
    LocalSearchSolver,
    SelectionProblem,
    SelectionSolver,
    WarmGASolver,
    build_selection_solver,
)

__all__ = [
    "GASolver",
    "GreedySolver",
    "LocalSearchSolver",
    "SelectionProblem",
    "SelectionSolver",
    "WarmGASolver",
    "build_selection_solver",
]
