"""Heterogeneity-aware per-worker split points (HASFL-style).

MergeSFL fixes one global cut layer; this package makes the cut depth a
per-worker decision.  A *split policy* (registered in
:data:`repro.api.registry.SPLIT_POLICIES`) assigns every selected worker a
prefix depth inside the bottom model each round; the engine carves matching
worker prefixes and server-side bridges (:mod:`repro.nn.split`), the
feature merger forms per-depth merge groups (:mod:`repro.core.merging`) and
the server completes each group through its bridge before the shared top
model (:mod:`repro.core.server`).

The paper's global cut is the one-group case of that path, not a second
path: the ``uniform`` policy is *trivial*, so :func:`build_split_policy`
returns ``None``, plans carry no depths and the engine reads every worker
at the tail -- one merge group, no bridge.
"""

from repro.splitpoint.policies import (
    AdaptiveSplitPolicy,
    ProfileSplitPolicy,
    SplitContext,
    SplitPolicy,
    UniformSplitPolicy,
    build_split_policy,
)

__all__ = [
    "AdaptiveSplitPolicy",
    "ProfileSplitPolicy",
    "SplitContext",
    "SplitPolicy",
    "UniformSplitPolicy",
    "build_split_policy",
]
