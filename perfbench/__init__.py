"""perfbench: the repository's performance benchmark.

Four workloads drive :class:`repro.api.session.Session` end to end and report
host-time and simulated (paper) metrics; a separate traced run attributes each
round's host time to the repo's layers from outside, and layer probes time the
public functions below the round.  See ``perfbench/README.md``.
"""
