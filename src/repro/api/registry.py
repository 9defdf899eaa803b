"""Name-based plugin registries.

Every extensible axis of the system -- algorithms, datasets, models, the
executor, link codecs, split policies and selection solvers -- is backed
by a :class:`Registry`.  Built-in components
register themselves with the decorators below in the module that defines
them (the eleven algorithms in one loop over
:data:`repro.algorithms.BUILTIN_ALGORITHMS`); third-party code registers
additional entries the same way, without editing any core module.  A custom
control policy needs no registry of its own -- it rides in on an algorithm:

    from repro import SplitTrainingEngine, register_algorithm

    @register_algorithm("my_sfl", description="my out-of-tree variant")
    def build_my_sfl(components):
        return SplitTrainingEngine.from_components(components, MyPolicy())

Algorithm entries are factories ``(components) -> Algorithm`` (normally an
engine), dataset entries are makers ``(train_samples, test_samples, seed) ->
TrainTestSplit`` and model entries are builders returning a
:class:`~repro.nn.module.Sequential` (see
:func:`repro.api.components.build_model_for` for the keyword contract
selected by the ``input_kind`` metadata).  An algorithm that trains the full
model on every worker, as the FL engine does, is registered with
``full_model=True``: a config that names a split policy for it is rejected.

A dataset maker must be a pure function of ``(train_samples, test_samples,
seed)``: a process keeps the last one's arrays and serves the next session
of the same key from them, read-only, without calling it again (see
:func:`repro.api.components.build_components`).  Registering a name again
(``override=True``) is a new maker, and its next session generates.

The registries populate lazily: the first lookup imports
:mod:`repro.api.builtins`, which pulls in every module carrying built-in
registrations.  Registration itself never triggers population, so plugin
modules may register entries before, during or after that import.
"""

from __future__ import annotations

import difflib
from collections.abc import Callable, Iterator

from repro.exceptions import ConfigurationError


class Registry:
    """A mapping from names to pluggable components, with metadata.

    Args:
        kind: Human-readable component kind used in error messages
            (``"algorithm"``, ``"dataset"``, ...).
        populate: Optional zero-argument callable invoked once before the
            first lookup, giving built-in entries a chance to register.
    """

    def __init__(self, kind: str, populate: Callable[[], None] | None = None) -> None:
        self.kind = kind
        self._entries: dict[str, object] = {}
        self._metadata: dict[str, dict] = {}
        self._populate = populate
        self._populated = populate is None
        self._populating = False
        #: Names whose current entry was registered with ``override=True``;
        #: only these may shadow a built-in registered later by population.
        self._overridden: set[str] = set()
        #: Maps names registered by population itself to the attempt number
        #: that registered them.  Re-registering a name from an *earlier*
        #: attempt (left behind by a failed population) is idempotent; a
        #: duplicate within the *same* attempt (two built-in modules
        #: claiming one name) is still an error.
        self._from_population: dict[str, int] = {}
        self._attempt = 0

    # -- registration --------------------------------------------------------
    def register(self, name: str, obj: object | None = None, *,
                 override: bool = False, **metadata):
        """Register ``obj`` under ``name``; usable directly or as a decorator.

        Args:
            name: Registry key.
            obj: The component; when omitted a decorator is returned.
            override: Allow replacing an existing entry instead of raising.
            **metadata: Free-form metadata stored alongside the entry
                (e.g. ``input_kind`` / ``split_after_weighted`` for models).

        Raises:
            ConfigurationError: On an empty name or a duplicate registration
                without ``override=True``.
        """
        if not isinstance(name, str) or not name:
            raise ConfigurationError(
                f"{self.kind} name must be a non-empty string, got {name!r}"
            )

        def _register(target):
            populating = self._populating or _LOADING_BUILTINS
            # The built-ins import populates all registries at once, so its
            # attempts are counted globally; a registry-local populate hook
            # counts its own attempts.
            attempt = _BUILTINS_ATTEMPT if _LOADING_BUILTINS else self._attempt
            if name in self._entries:
                # While built-ins are being (re)loaded, an entry registered
                # earlier keeps precedence -- but only if it claimed the
                # name deliberately (override=True).  An accidental
                # collision must not silently shadow a built-in, and an
                # entry a previously failed population left behind is
                # simply re-registered.
                if populating:
                    if name in self._overridden:
                        return target
                    if name not in self._from_population:
                        raise ConfigurationError(
                            f"{self.kind} {name!r} was registered before "
                            f"the built-ins loaded and collides with a "
                            f"built-in name; pass override=True to replace it"
                        )
                    if self._from_population[name] == attempt:
                        raise ConfigurationError(
                            f"{self.kind} {name!r} is registered twice by "
                            f"the built-in modules"
                        )
                elif not override:
                    raise ConfigurationError(
                        f"{self.kind} {name!r} is already registered; "
                        f"pass override=True to replace it"
                    )
            if override:
                self._overridden.add(name)
            else:
                self._overridden.discard(name)
            if populating:
                self._from_population[name] = attempt
            self._entries[name] = target
            self._metadata[name] = dict(metadata)
            return target

        if obj is None:
            return _register
        return _register(obj)

    def unregister(self, name: str) -> None:
        """Remove an entry (mainly for tests tearing down plugins)."""
        self._ensure()
        if name not in self._entries:
            raise ConfigurationError(self.unknown_message(name))
        del self._entries[name]
        del self._metadata[name]
        self._overridden.discard(name)
        self._from_population.pop(name, None)

    # -- lookup --------------------------------------------------------------
    def get(self, name: str):
        """Return the entry registered under ``name``.

        Raises:
            ConfigurationError: For unknown names, with the known names and
                a closest-match suggestion.
        """
        self._ensure()
        try:
            return self._entries[name]
        except KeyError:
            raise ConfigurationError(self.unknown_message(name)) from None

    def metadata(self, name: str) -> dict:
        """Metadata captured at registration time (a copy)."""
        self.get(name)
        return dict(self._metadata[name])

    def names(self) -> list[str]:
        """Sorted names of every registered entry."""
        self._ensure()
        return sorted(self._entries)

    def unknown_message(self, name: str) -> str:
        """Error message for an unknown name, with a did-you-mean hint."""
        known = self.names()
        closest = difflib.get_close_matches(str(name), known, n=1)
        hint = f"; did you mean {closest[0]!r}?" if closest else ""
        listing = ", ".join(known) if known else "<none registered>"
        return (
            f"unknown {self.kind} {name!r}{hint} "
            f"(registered {self.kind} names: {listing})"
        )

    def __contains__(self, name: str) -> bool:
        self._ensure()
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        self._ensure()
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Registry({self.kind!r}, {len(self._entries)} entries)"

    # -- internals -----------------------------------------------------------
    def _ensure(self) -> None:
        """Run the populate hook once, before the first lookup.

        The populated flag is only committed when the hook succeeds, so a
        failed population (e.g. an import error) is retried on the next
        lookup instead of leaving the registry permanently half-filled.
        """
        if self._populated or self._populating:
            return
        self._populating = True
        self._attempt += 1
        try:
            self._populate()
            self._populated = True
        finally:
            self._populating = False


#: True while :func:`_load_builtins` is importing the built-in modules; the
#: shared import populates every registry at once, so duplicate checks
#: must relax for every registry during that window, not just the one whose
#: lookup triggered it.
_LOADING_BUILTINS = False

#: Counts built-ins import attempts; see ``Registry._from_population``.
_BUILTINS_ATTEMPT = 0


def _load_builtins() -> None:
    """Import every module that registers built-in components."""
    global _LOADING_BUILTINS, _BUILTINS_ATTEMPT
    if _LOADING_BUILTINS:
        return
    _LOADING_BUILTINS = True
    _BUILTINS_ATTEMPT += 1
    try:
        import repro.api.builtins  # noqa: F401  (import is the side effect)
    finally:
        _LOADING_BUILTINS = False


#: Experiment algorithms: factories ``(components) -> Algorithm``.
ALGORITHMS = Registry("algorithm", populate=_load_builtins)
#: Dataset analogues: makers ``(train_samples, test_samples, seed) -> TrainTestSplit``,
#: pure functions of those three (a process reuses their arrays by key).
DATASETS = Registry("dataset", populate=_load_builtins)
#: Model builders returning a ``Sequential`` (see ``build_model_for``).
MODELS = Registry("model", populate=_load_builtins)
#: Execution backends: factories ``(config) -> Executor`` (see ``repro.parallel``).
EXECUTORS = Registry("executor", populate=_load_builtins)
#: Payload codecs of the simulated link: :class:`~repro.parallel.codec.Codec`
#: subclasses keyed by name (see ``repro.parallel.codec``).
CODECS = Registry("codec", populate=_load_builtins)
#: Split-point policies: per-worker cut-depth selectors
#: (see ``repro.splitpoint``).
SPLIT_POLICIES = Registry("split policy", populate=_load_builtins)
#: Worker-selection solvers: :class:`~repro.selection.solvers.SelectionSolver`
#: subclasses keyed by name (see ``repro.selection``).
SELECTION_SOLVERS = Registry("selection solver", populate=_load_builtins)

register_algorithm = ALGORITHMS.register
register_dataset = DATASETS.register
register_model = MODELS.register
register_executor = EXECUTORS.register
register_codec = CODECS.register
register_split_policy = SPLIT_POLICIES.register
register_selection_solver = SELECTION_SOLVERS.register
