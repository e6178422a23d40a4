"""The run log's DEBUG mirror of each event."""

from __future__ import annotations

import logging
from types import SimpleNamespace

import transact.runlog as runlog
from transact.runlog import RunLog


def test_each_event_is_logged_as_sorted_json_at_debug(caplog):
    log = RunLog()
    with caplog.at_level(logging.DEBUG, logger="transact.runlog"):
        log.record("turn_start", turn=1, speaker="Jordan")
    assert [r.getMessage() for r in caplog.records] == [
        '{"kind": "turn_start", "speaker": "Jordan", "turn": 1}'
    ]


def test_no_debug_line_is_built_when_debug_is_off(caplog, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the DEBUG line was built with DEBUG off")

    monkeypatch.setattr(runlog, "json", SimpleNamespace(dumps=refuse))
    log = RunLog()
    with caplog.at_level(logging.INFO, logger="transact.runlog"):
        log.record("turn_start", turn=1, speaker="Jordan")
    assert log.events == [{"kind": "turn_start", "turn": 1, "speaker": "Jordan"}]
    assert caplog.records == []
