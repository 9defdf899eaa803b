"""Outside-in stage tracing: spans around the calls into each layer.

Nothing under ``src/`` is touched.  The executor, the engine's server and its
control policy (FL engine: the selection strategy) are replaced by delegating
proxies whose traced methods record a span -- name, start, end, the enclosing
span and the round id -- in memory.  A layer's *self time* is its span minus
the interval its child spans cover, so ``Session.step`` minus everything
attached is the round's unattributed remainder (``api.round_other``).

Spans are recorded only inside ``Tracer.step``; outside it the proxies pass
calls straight through, so traced and untraced rounds can alternate within
one session and their difference is the tracing overhead.

A missing attach point never raises: it is listed in ``Tracer.unattached``
and the layers that depend on it report ``None``, so a refactor of the
engines cannot break the end-to-end numbers.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

#: The span around ``Session.step``; its self time is ``api.round_other``.
STEP_LAYER = "api.round_other"

#: attach point -> {public method -> layer its spans are charged to}.
ATTACH_POINTS: dict[str, dict[str, str]] = {
    "executor": {
        "install": "parallel.install",
        "install_multi": "parallel.install",
        "install_nowait": "parallel.install",
        "install_multi_nowait": "parallel.install",
        "forward": "parallel.forward",
        "backward_step": "parallel.backward",
        "stage_forward": "parallel.dispatch",
        "launch_forward": "parallel.dispatch",
        "fused_backward_forward": "parallel.dispatch",
        "backward_step_nowait": "parallel.dispatch",
        "collect_forward": "parallel.wait",
        "bottom_states": "parallel.states",
        "collect_states": "parallel.states",
        "train_full": "parallel.train_full",
    },
    "server": {
        "update_top_merged": "core.top_update",
        "update_top_per_worker": "core.top_update",
        "update_top_multidepth": "core.top_update",
        "aggregate_bottoms": "core.aggregate",
        "evaluate": "core.evaluate",
    },
    "policy": {"plan_round": "core.plan"},
    "selection": {"select": "core.plan"},
}

#: Methods every implementation of an attach point must offer; the others
#: are optional capabilities (pipelining, per-depth installs) whose absence
#: means "never called", not "cannot be measured".
REQUIRED: dict[str, tuple[str, ...]] = {
    "executor": ("install", "forward", "backward_step", "bottom_states",
                 "train_full"),
    "server": ("update_top_merged", "aggregate_bottoms", "evaluate"),
    "policy": ("plan_round",),
    "selection": ("select",),
}

LAYERS: tuple[str, ...] = tuple(dict.fromkeys(
    layer for methods in ATTACH_POINTS.values() for layer in methods.values()
))


class _Proxy:
    """Delegates everything to ``target``; traced methods record a span."""

    def __init__(self, target, tracer: "Tracer", point: str) -> None:
        object.__setattr__(self, "_target", target)
        for method, layer in ATTACH_POINTS[point].items():
            bound = getattr(target, method, None)
            if callable(bound):
                object.__setattr__(
                    self, method,
                    tracer._traced(f"{point}.{method}", layer, bound),
                )
                tracer._wrapped.add((point, method))

    def __getattr__(self, name):
        return getattr(object.__getattribute__(self, "_target"), name)

    def __setattr__(self, name, value) -> None:
        setattr(object.__getattribute__(self, "_target"), name, value)


class Tracer:
    """In-memory span recorder attached around public objects."""

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        #: ``[name, layer, start, end, parent index or None, round or None]``
        self.spans: list[list] = []
        self.unattached: list[str] = []
        self.round: int | None = None
        self._stack: list[int] = []
        self._wrapped: set[tuple[str, str]] = set()
        self._attached: set[str] = set()
        self._expected: set[str] = set()

    # -- recording -----------------------------------------------------------
    def _open(self, name: str, layer: str) -> list:
        span = [name, layer, self._clock(), None,
                self._stack[-1] if self._stack else None, self.round]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[3] = self._clock()
        self._stack.pop()

    def _traced(self, name: str, layer: str, bound):
        def call(*args, **kwargs):
            if not self._stack:  # outside Tracer.step: untraced round
                return bound(*args, **kwargs)
            span = self._open(name, layer)
            try:
                return bound(*args, **kwargs)
            finally:
                self._close(span)
        return call

    @contextmanager
    def step(self, round_index: int):
        """Span around one ``Session.step``; children inherit the round id."""
        self.round = round_index
        span = self._open("session.step", STEP_LAYER)
        try:
            yield
        finally:
            self._close(span)
            self.round = None

    # -- attach points -------------------------------------------------------
    def attach(self, owner, point: str) -> bool:
        """Replace ``owner.<point>`` by a tracing proxy; ``False`` if absent."""
        self._expected.add(point)
        target = getattr(owner, point, None)
        if target is None:
            self.unattached.append(point)
            return False
        self.unattached.extend(
            f"{point}.{method}" for method in REQUIRED[point]
            if not callable(getattr(target, method, None))
        )
        setattr(owner, point, _Proxy(target, self, point))
        self._attached.add(point)
        return True

    def attach_engine(self, session) -> None:
        """Wrap the engine's server and policy (FL engine: ``selection``)."""
        algorithm = getattr(session, "algorithm", None)
        engine = getattr(algorithm, "engine", algorithm)
        if hasattr(engine, "server") or hasattr(engine, "policy"):
            self.attach(engine, "server")
            self.attach(engine, "policy")
        elif hasattr(engine, "selection"):
            self.attach(engine, "selection")
        else:
            self.unattached.append("engine")

    def layer_known(self, layer: str) -> bool:
        """Whether ``layer``'s seconds can be trusted (else report ``None``).

        A layer nobody is expected to feed on this engine (the split server
        under FedAvg) is known to be zero; a layer whose attach point or
        every required method is missing is unknown.
        """
        feeds = [
            (point, method)
            for point in self._expected
            for method, target_layer in ATTACH_POINTS[point].items()
            if target_layer == layer
        ]
        if not feeds:
            return "engine" not in self.unattached
        if not {point for point, _ in feeds} & self._attached:
            return False
        required = [feed for feed in feeds if feed[1] in REQUIRED[feed[0]]]
        return not required or any(feed in self._wrapped for feed in required)

    # -- export --------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON form; times are seconds since the first span started."""
        origin = self.spans[0][2] if self.spans else 0.0
        return {
            "unattached": list(self.unattached),
            "spans": [
                {"id": index, "name": name, "layer": layer,
                 "start": start - origin, "end": end - origin,
                 "parent": parent, "round": round_index}
                for index, (name, layer, start, end, parent, round_index)
                in enumerate(self.spans)
            ],
        }


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the interval its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for __, __, start, end, parent, __ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (__, __, start, end, __, __) in enumerate(spans):
        covered, cursor = 0.0, start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start, child_end = max(child_start, cursor), min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result.append((end - start) - covered)
    return result


def layer_seconds(spans: list[list], rounds) -> dict[str, list[float]]:
    """``{layer: [self seconds in round r for r in rounds]}``."""
    rounds = list(rounds)
    position = {round_index: i for i, round_index in enumerate(rounds)}
    totals: dict[str, list[float]] = {}
    for span, seconds in zip(spans, self_times(spans)):
        index = position.get(span[5])
        if index is not None:
            totals.setdefault(span[1], [0.0] * len(rounds))[index] += seconds
    return totals


def tail_percentile(samples: list[float], beyond: int = 10
                    ) -> tuple[float, float]:
    """``(value, percentile)``: the highest percentile with ``beyond`` samples
    above it, never lower than the median (which is what small sets give)."""
    ordered = sorted(samples)
    count = len(ordered)
    index = max(count - 1 - beyond, (count - 1) // 2)
    return ordered[index], 100.0 * (index + 1) / count
