"""Tests for the typed session event API and its failure isolation."""

import pytest

from repro.api.events import (
    EVENT_TYPES,
    Callback,
    CheckpointSaved,
    EventBus,
    RoundEnd,
    RoundStart,
)
from repro.api.session import Session
from repro.exceptions import CallbackError, ConfigurationError


class TestEventBus:
    def test_unknown_event_rejected(self):
        bus = EventBus()
        with pytest.raises(ConfigurationError, match="unknown session event"):
            bus.on("round_finish", lambda s, e: None)
        with pytest.raises(ConfigurationError, match="unknown session event"):
            bus.emit("round_finish", None, None)

    def test_on_as_decorator_returns_handler(self):
        bus = EventBus()

        @bus.on("round_start")
        def handler(session, event):
            return None

        assert bus.handlers("round_start") == (handler,)

    def test_stop_only_from_stopping_events(self):
        bus = EventBus()
        bus.on("round_start", lambda s, e: True)
        bus.on("checkpoint_saved", lambda s, e: True)
        assert bus.emit("round_start", None, None) is False
        assert bus.emit("checkpoint_saved", None, None) is False
        bus.on("round_end", lambda s, e: True)
        assert bus.emit("round_end", None, None) is True

    def test_failing_handler_does_not_suppress_later_handlers(self):
        bus = EventBus()
        fired = []

        def bad(session, event):
            raise ValueError("broken hook")

        bus.on("round_end", bad)
        bus.on("round_end", lambda s, e: fired.append("late"))
        with pytest.raises(CallbackError, match="bad") as excinfo:
            bus.emit("round_end", None, None)
        assert fired == ["late"]
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_error_names_the_callback(self):
        bus = EventBus()

        def flaky_metrics_hook(session, event):
            raise RuntimeError("nope")

        bus.on("round_end", flaky_metrics_hook)
        with pytest.raises(CallbackError, match="flaky_metrics_hook"):
            bus.emit("round_end", None, None)


class TestSessionEvents:
    def test_round_events_fire_in_order(self, fast_config):
        session = Session.from_config(fast_config)
        seen = []
        session.on("round_start", lambda s, e: seen.append(("start", e.round_index)))
        session.on("evaluation", lambda s, e: seen.append(("eval", e.record.round_index)))
        session.on("round_end", lambda s, e: seen.append(("end", e.record.round_index)))
        session.run(2)
        assert seen == [
            ("start", 0), ("eval", 0), ("end", 0),
            ("start", 1), ("eval", 1), ("end", 1),
        ]

    def test_round_end_handlers_fire_side_by_side(self, fast_config):
        """A plain and a decorator-registered round_end handler both fire."""
        session = Session.from_config(fast_config)
        plain, decorated = [], []
        session.on("round_end", lambda s, e: plain.append(e.record.round_index))

        @session.on("round_end")
        def watch(sess, event):
            decorated.append(event.record.round_index)

        session.run(2)
        assert plain == [0, 1]
        assert decorated == [0, 1]

    def test_round_end_truthy_return_stops(self, fast_config):
        session = Session.from_config(fast_config)
        session.on("round_end", lambda sess, event: event.record.round_index >= 0)
        session.run(3)
        assert session.rounds_completed == 1

    def test_evaluation_stop_request(self, fast_config):
        session = Session.from_config(fast_config)
        session.on("evaluation", lambda s, e: e.record.round_index >= 1)
        session.run(3)
        assert session.rounds_completed == 2

    def test_checkpoint_saved_event(self, fast_config, tmp_path):
        session = Session.from_config(fast_config)
        saved = []
        session.on("checkpoint_saved",
                   lambda s, e: saved.append((e.path, e.rounds_completed)))
        session.step()
        path = tmp_path / "ck.json"
        session.save_checkpoint(path)
        assert saved == [(str(path), 1)]

    def test_failing_round_end_hook_reports_its_name(self, fast_config):
        session = Session.from_config(fast_config)
        fired = []

        @session.on("round_end")
        def broken_hook(sess, event):
            raise RuntimeError("argh")

        session.on("round_end", lambda s, e: fired.append(e.record.round_index))
        with pytest.raises(CallbackError, match="broken_hook"):
            session.step()
        assert fired == [0]


class TestCallbackBase:
    def test_subscribes_only_overridden_methods(self):
        class Watch(Callback):
            def on_round_end(self, session, event):
                return None

        bus = EventBus()
        Watch().subscribe(bus)
        assert len(bus.handlers("round_end")) == 1
        for event in EVENT_TYPES:
            if event != "round_end":
                assert bus.handlers(event) == ()

    def test_add_callback_on_session(self, fast_config):
        class Collect(Callback):
            def __init__(self):
                self.starts = []
                self.ends = []

            def on_round_start(self, session, event):
                self.starts.append(event.round_index)

            def on_round_end(self, session, event):
                self.ends.append(event.record.round_index)

        session = Session.from_config(fast_config)
        collect = session.add_callback(Collect())
        session.run(2)
        assert collect.starts == [0, 1]
        assert collect.ends == [0, 1]

    def test_callback_stop_request(self, fast_config):
        class StopNow(Callback):
            def on_round_end(self, session, event):
                return True

        session = Session.from_config(fast_config)
        session.add_callback(StopNow())
        session.run(3)
        assert session.rounds_completed == 1

    def test_event_payload_types(self):
        assert RoundStart(3).round_index == 3
        assert CheckpointSaved("p", 2).rounds_completed == 2
        assert RoundEnd(None).record is None
