"""Extra ablation: the registered selection solvers head to head.

The README's "Algorithms" section calls out the GA (Alg. 1 line 5) as a
design choice; this bench compares every production solver in
:data:`repro.api.registry.SELECTION_SOLVERS` (``ga``, ``ga-warm``,
``local-search``, ``greedy``) on the same skewed worker population,
reporting the KL divergence of the selected mixtures.
The solvers are built through the registry -- the same code path
``config.selector`` takes -- so the ablation measures exactly what a
configured run would get.
"""

import numpy as np

from repro.core.divergence import iid_distribution
from repro.selection.solvers import SELECTION_SOLVERS, SelectionProblem
from repro.experiments.reporting import format_table
from repro.utils.rng import new_rng

from benchmarks.common import run_once

#: Production solvers under comparison ("exact" is a test oracle and blows
#: up combinatorially at this instance size).
SOLVERS = ("ga", "ga-warm", "local-search", "greedy")


def _problem(num_workers=24, num_classes=10, seed=0) -> SelectionProblem:
    rng = new_rng(seed)
    dists = rng.dirichlet([0.1] * num_classes, size=num_workers)
    batch_sizes = rng.integers(2, 17, size=num_workers)
    return SelectionProblem(
        batch_sizes=batch_sizes,
        label_distributions=dists,
        target_distribution=iid_distribution(dists),
        bandwidth_per_sample=1.0,
        bandwidth_budget=0.5 * float(batch_sizes.sum()),
        rng=new_rng(seed),
    )


def _compare(seeds=(0, 1, 2)):
    rows = []
    for seed in seeds:
        row = [seed]
        for name in SOLVERS:
            solver = SELECTION_SOLVERS.get(name)(generations=20) \
                if name in ("ga", "ga-warm") else SELECTION_SOLVERS.get(name)()
            result = solver.solve(_problem(seed=seed))
            row.extend([result.kl, len(result.selected)])
        rows.append(row)
    return rows


def test_ablation_selection_solvers(benchmark):
    rows = run_once(benchmark, _compare)
    print()
    header = ["seed"]
    for name in SOLVERS:
        header.extend([f"{name}_kl", f"{name}_n"])
    print(format_table(
        header, rows,
        title="Ablation: selection solvers (lower KL is better)",
    ))
    for row in rows:
        kls = row[1::2]
        assert all(np.isfinite(kl) for kl in kls)
