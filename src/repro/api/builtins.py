"""Populate the registries with every built-in component.

Importing this module is a side effect: each imported module carries
``@register_*`` decorators that add its components to the registries in
:mod:`repro.api.registry`.  The registries import this module lazily before
their first lookup, so merely registering a plugin never pays this cost.
"""

import repro.algorithms  # noqa: F401
import repro.data.synthetic  # noqa: F401
import repro.nn.models  # noqa: F401
import repro.parallel  # noqa: F401
import repro.selection.solvers  # noqa: F401
import repro.splitpoint.policies  # noqa: F401
