"""Extra ablation: adaptive (batch-size-weighted) vs uniform bottom aggregation.

The README's "Algorithms" section calls out Eq. 17's adaptive weights as a
design choice; this bench compares MergeSFL's weighted aggregation against
plain uniform averaging by aggregating diverged bottom states both ways.
"""

import numpy as np

from repro.experiments.reporting import format_table
from repro.nn.models import build_mlp
from repro.nn.serialization import average_state_dicts, state_dict_distance
from repro.utils.rng import new_rng

from benchmarks.common import run_once


def _compare():
    """Aggregate perturbed bottom states with uniform vs batch-size weights."""
    rng = new_rng(0)
    reference = build_mlp(input_dim=16, num_classes=4, hidden_dims=(8,), seed=0)
    base_state = reference.state_dict()
    batch_sizes = np.array([16, 8, 4, 1], dtype=np.float64)
    # Workers with small batches drift more (noisier local gradients).
    states = []
    for batch in batch_sizes:
        noise_scale = 0.5 / np.sqrt(batch)
        states.append({
            key: value + rng.normal(0.0, noise_scale, size=value.shape)
            for key, value in base_state.items()
        })
    uniform = average_state_dicts(states)
    weighted = average_state_dicts(states, weights=list(batch_sizes))
    return {
        "uniform_distance": state_dict_distance(uniform, base_state),
        "weighted_distance": state_dict_distance(weighted, base_state),
    }


def test_ablation_weighted_vs_uniform_aggregation(benchmark):
    result = run_once(benchmark, _compare)
    print()
    print(format_table(
        ["aggregation", "distance_to_reference"],
        [["uniform (Eq. 4)", result["uniform_distance"]],
         ["batch-weighted (Eq. 17)", result["weighted_distance"]]],
        title="Ablation: bottom-model aggregation weighting",
    ))
    # Weighting by batch size discounts the noisiest (smallest-batch) workers.
    assert result["weighted_distance"] < result["uniform_distance"]
