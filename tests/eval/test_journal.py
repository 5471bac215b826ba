"""The sweep journal: durable append, paranoid replay (DESIGN.md §5g)."""

import base64
import json
import pickle

from repro.config import SystemConfig
from repro.eval.journal import (JOURNAL_SCHEMA, KIND_POINT, STATUS_ERROR,
                                STATUS_OK, SweepJournal)
from repro.eval.sweep import FailedPoint, SweepPoint
from repro.offload.modes import ExecMode


def _point(workload="histogram", mode=ExecMode.NS):
    return SweepPoint(workload, mode, SystemConfig.ooo8(),
                      scale=1.0 / 256.0)


def test_ok_round_trip_is_bit_identical(tmp_path):
    journal = SweepJournal(tmp_path / "j.jsonl")
    point = _point()
    result = {"cycles": 1.5, "nested": [1, (2, 3)]}  # any picklable value
    journal.record_ok(point, result)
    state = journal.load()
    assert state.completed == {point.key(): result}
    assert pickle.dumps(state.completed[point.key()]) \
        == pickle.dumps(result)
    assert state.corrupt == 0 and not state.failed


def test_start_records_and_appended_counter(tmp_path):
    journal = SweepJournal(tmp_path / "j.jsonl")
    assert not journal.exists()
    journal.record_start(4)
    journal.record_ok(_point(), "r")
    assert journal.exists()
    assert journal.appended == 2
    assert journal.load().starts == 1


def test_failure_round_trip_and_later_ok_wins(tmp_path):
    journal = SweepJournal(tmp_path / "j.jsonl")
    point = _point()
    journal.record_failure(FailedPoint(
        point=point, stage="timeout", error="TimeoutError",
        message="group exceeded 5s", traceback="tb...", attempts=3))
    state = journal.load()
    assert state.failed[point.key()]["stage"] == "timeout"
    assert state.failed[point.key()]["attempts"] == 3
    # a retry (or resumed run) later completes the same point: ok wins
    journal.record_ok(point, "fresh")
    state = journal.load()
    assert state.completed[point.key()] == "fresh"
    assert point.key() not in state.failed


def test_ok_shields_against_stale_failures(tmp_path):
    """An ok record earlier in the file beats a later failure record too
    (a resumed run that re-attempted and failed a flaky point must not
    un-complete it)."""
    journal = SweepJournal(tmp_path / "j.jsonl")
    point = _point()
    journal.record_ok(point, "good")
    journal.record_failure(FailedPoint(
        point=point, stage="run", error="RuntimeError", message="flake"))
    state = journal.load()
    assert state.completed[point.key()] == "good"
    assert not state.failed


def test_torn_tail_is_skipped_not_fatal(tmp_path):
    path = tmp_path / "j.jsonl"
    journal = SweepJournal(path)
    journal.record_ok(_point(), "kept")
    with open(path, "ab") as fh:  # a crash mid-append tears the line
        fh.write(b'{"kind": "sweep-point", "schema": 1, "status": "ok"')
    state = journal.load()
    assert len(state.completed) == 1
    assert state.corrupt == 0  # a torn line never parses: not counted


def test_checksum_mismatch_and_bad_base64_are_corrupt(tmp_path):
    path = tmp_path / "j.jsonl"
    journal = SweepJournal(path)
    point = _point()
    journal.record_ok(point, "value")
    record = json.loads(path.read_text())
    bad_sum = dict(record, payload=base64.b64encode(
        pickle.dumps("tampered")).decode("ascii"))
    bad_b64 = dict(record, payload="!!!not-base64!!!")
    bad_schema = dict(record, schema=JOURNAL_SCHEMA + 1)
    no_key = {k: v for k, v in record.items() if k != "key"}
    # schema-valid failure records whose attempt count is not an int:
    # int() would raise ValueError, TypeError and OverflowError
    failure = {"kind": KIND_POINT, "schema": JOURNAL_SCHEMA,
               "status": STATUS_ERROR,
               "key": _point(mode=ExecMode.BASE).key(),
               "stage": "run", "error": "RuntimeError", "message": "boom"}
    bad_attempts = [dict(failure, attempts=value)
                    for value in ("x", [1], float("inf"))]
    with open(path, "a") as fh:
        for bad in (bad_sum, bad_b64, bad_schema, no_key, *bad_attempts):
            fh.write(json.dumps(bad) + "\n")
    state = journal.load()
    assert state.completed == {point.key(): "value"}
    assert not state.failed
    assert state.corrupt == 7


def test_unpicklable_payload_is_corrupt_not_fatal(tmp_path):
    import hashlib
    path = tmp_path / "j.jsonl"
    payload = b"\x80\x04not really a pickle"
    record = {"kind": KIND_POINT, "schema": JOURNAL_SCHEMA,
              "status": STATUS_OK, "key": "k1",
              "sha256": hashlib.sha256(payload).hexdigest(),
              "payload": base64.b64encode(payload).decode("ascii")}
    path.write_text(json.dumps(record) + "\n")
    state = SweepJournal(path).load()
    assert not state.completed
    assert state.corrupt == 1


def test_foreign_and_unknown_lines(tmp_path):
    path = tmp_path / "j.jsonl"
    journal = SweepJournal(path)
    journal.record_ok(_point(), "v")
    with open(path, "a") as fh:
        # a bench-log record sharing the file: skipped silently
        fh.write(json.dumps({"kind": "sweep", "seconds": 1.2}) + "\n")
        # a point record with an unknown status: counted corrupt
        fh.write(json.dumps({"kind": KIND_POINT,
                             "schema": JOURNAL_SCHEMA, "key": "k2",
                             "status": "maybe"}) + "\n")
    state = journal.load()
    assert len(state.completed) == 1
    assert state.corrupt == 1


def test_missing_journal_loads_empty(tmp_path):
    state = SweepJournal(tmp_path / "absent.jsonl").load()
    assert len(state) == 0
    assert state.corrupt == 0
