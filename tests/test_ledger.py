"""Tests of the crash-safe JSONL ledger under every store: torn tails,
concurrent writers, header conventions and atomic rewrites."""

import json
import multiprocessing
import os
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.history import HistoryStore, RunRecord
from repro.history.store import HistoryError
from repro.ledger import Ledger, sniff
from repro.telemetry import JsonlSink, SchemaError, read_events
from repro.service import (
    SERVICE_SCHEMA,
    EnvelopeError,
    ResultEnvelope,
    ResultStore,
)

WRITERS, APPENDS = 4, 200


def _rec(fom):
    return RunRecord(benchmark="ICON", fom_seconds=fom,
                     params={"nodes": 1}, vmpi_mode="event", code="c")


def _envelope(task_id="t-1"):
    return ResultEnvelope(task_id=task_id, client="c", benchmark="STREAM",
                          key="k", status="ok", value={"fom": 1.0},
                          endpoint="ep0", attempts=1)


def _plain(path):
    return Ledger(path, "x/v1", 1, dict, ValueError)


def _append_many(path, n):
    store = HistoryStore.open(path)
    for i in range(n):
        store.append(_rec(1.0 + i))


class TestTornTail:
    @settings(max_examples=5, deadline=None)
    @given(st.lists(st.floats(min_value=0.5, max_value=1e3), min_size=1,
                    max_size=3))
    def test_every_cut_reopens_to_the_complete_prefix(self, foms):
        with tempfile.TemporaryDirectory() as tmp:
            db = Path(tmp) / "h.jsonl"
            store = HistoryStore.open(db)
            for fom in foms:
                store.append(_rec(fom))
            data = db.read_bytes()
            ends = [i + 1 for i, b in enumerate(data) if b == ord("\n")]
            cut_db = Path(tmp) / "cut.jsonl"
            for cut in range(len(data) + 1):
                cut_db.write_bytes(data[:cut])
                complete = sum(1 for end in ends if end <= cut)
                reopened = HistoryStore.open(cut_db)
                # the first complete line is the header
                assert [r.fom_seconds for r in reopened.records] == \
                    foms[:max(complete - 1, 0)]
                # an append finishes a record that lacks only its newline
                whole = cut + 1 in ends[1:]
                reopened.append(_rec(7.0))
                again = HistoryStore.open(cut_db)
                assert [r.seq for r in again.records] == \
                    list(range(len(again)))
                assert [r.fom_seconds for r in again.records] == \
                    foms[:max(complete - 1, 0) + whole] + [7.0]
                assert sniff(cut_db) == "repro.history/v1"

    def test_torn_tail_is_reported(self, tmp_path, caplog):
        db = tmp_path / "h.jsonl"
        HistoryStore.open(db).append(_rec(1.0))
        with open(db, "a", encoding="utf-8") as fh:
            fh.write('{"benchmark": "IC')
        assert len(HistoryStore.open(db)) == 1
        assert "h.jsonl:3: dropped a torn final line" in caplog.text

    @pytest.mark.parametrize("text", ["notes", '{"a": 1}',
                                      '{"type":"history-meta"'])
    def test_foreign_file_without_newline_is_left_alone(self, tmp_path,
                                                         text):
        path = tmp_path / "notes.txt"
        path.write_text(text)
        with pytest.raises(HistoryError, match=r"notes\.txt:1: not a"):
            HistoryStore.open(path)
        ledger = Ledger(path, "repro.history/v1", 1, dict, HistoryError)
        with pytest.raises(HistoryError, match="not a"):
            ledger.append(lambda fresh: {"n": 0})
        assert path.read_text() == text

    def test_whole_record_without_newline_is_kept(self, tmp_path):
        db = tmp_path / "h.jsonl"
        HistoryStore.open(db).append(_rec(1.0))
        db.write_bytes(db.read_bytes()[:-1])
        store = HistoryStore.open(db)
        assert len(store) == 0
        store.append(_rec(2.0))
        again = HistoryStore.open(db)
        assert [(r.seq, r.fom_seconds) for r in again.records] == \
            [(0, 1.0), (1, 2.0)]

    def test_read_events_streams(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        JsonlSink(path).emit({"type": "service", "action": "submit",
                              "target": "t", "at": 0.0})
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{not json\n")
        events = read_events(path)
        assert next(events)["type"] == "meta"
        assert next(events)["target"] == "t"
        with pytest.raises(SchemaError, match=r"trace\.jsonl:3"):
            next(events)

    def test_corrupt_line_with_newline_fails_hard(self, tmp_path):
        path = tmp_path / "results.jsonl"
        ResultStore(path).append(_envelope())
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{not json\n")
        with pytest.raises(EnvelopeError, match=r"results\.jsonl:3"):
            ResultStore.open(path)


def test_concurrent_processes_get_dense_seqs(tmp_path):
    db = tmp_path / "shared.jsonl"
    ctx = multiprocessing.get_context("spawn")
    procs = [ctx.Process(target=_append_many, args=(db, APPENDS))
             for _ in range(WRITERS)]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=120)
    assert not any(proc.is_alive() for proc in procs)
    assert [proc.exitcode for proc in procs] == [0] * WRITERS
    store = HistoryStore.open(db)
    assert len(store) == WRITERS * APPENDS
    assert [r.seq for r in store.records] == list(range(WRITERS * APPENDS))


def _append_through_compactions(path, n):
    store, done = HistoryStore.open(path), 0
    while done < n:
        try:
            store.append(_rec(1.0 + done))
            done += 1
        except HistoryError as exc:
            assert "reopen it" in str(exc)
            store = HistoryStore.open(path)


def test_compaction_loses_no_concurrent_append(tmp_path):
    db = tmp_path / "shared.jsonl"
    HistoryStore.open(db)
    proc = multiprocessing.get_context("spawn").Process(
        target=_append_through_compactions, args=(db, APPENDS))
    proc.start()
    compactions = 0
    while proc.is_alive() or not compactions:
        HistoryStore.open(db).compact(keep_last=10 * APPENDS)
        compactions += 1
    proc.join(timeout=120)
    assert proc.exitcode == 0
    store = HistoryStore.open(db)
    assert [r.seq for r in store.records] == list(range(APPENDS))
    assert [r.fom_seconds for r in store.records] == \
        [1.0 + i for i in range(APPENDS)]


def test_threads_share_one_sink(tmp_path):
    path = tmp_path / "trace.jsonl"
    sink = JsonlSink(path)

    def emit(worker):
        for i in range(APPENDS):
            sink.emit({"type": "service", "action": "submit",
                       "target": f"w{worker}-{i}", "at": float(i)})

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=emit, args=(w,))
                   for w in range(2 * WRITERS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        sink.close()
    assert not any(thread.is_alive() for thread in threads)
    events = list(read_events(path))
    assert events[0]["type"] == "meta"
    assert len({e["target"] for e in events[1:]}) == 2 * WRITERS * APPENDS


class TestHeaders:
    def test_result_store_writes_one_header(self, tmp_path):
        path = tmp_path / "results.jsonl"
        path.write_text(json.dumps({"schema": SERVICE_SCHEMA,
                                    "type": "meta", "version": 1}) + "\n")
        store = ResultStore.open(path)
        store.append(_envelope())
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert [json.loads(x).get("type") for x in lines].count("meta") == 1
        assert ResultStore.open(path).records == store.records

    def test_history_db_is_not_a_result_store(self, tmp_path):
        db = tmp_path / "h.jsonl"
        HistoryStore.open(db).append(_rec(1.0))
        with pytest.raises(EnvelopeError, match=r"h\.jsonl:1"):
            ResultStore.open(db)

    def test_older_header_conventions_still_open(self, tmp_path):
        history = tmp_path / "old-history.jsonl"
        old = _rec(2.0)
        old.seq = 0
        line = json.dumps(old.to_line())
        history.write_text('{"schema":"repro.history/v1",'
                           '"type":"history-meta","version":1}\n'
                           + line + "\n")
        store = HistoryStore.open(history)
        store.append(_rec(3.0))
        assert [r.seq for r in HistoryStore.open(history).records] == [0, 1]
        results = tmp_path / "old-results.jsonl"
        results.write_text('{"kind":"meta","schema":"repro.service/v1",'
                           '"version":1}\n'
                           + json.dumps(_envelope().to_wire()) + "\n")
        assert len(ResultStore.open(results)) == 1


class TestRewrite:
    def test_rewrite_replaces_atomically(self, tmp_path):
        path = tmp_path / "x.jsonl"
        ledger = _plain(path)
        ledger.append(lambda fresh: {"n": 0})
        before = os.stat(path).st_ino
        ledger.rewrite(lambda fresh: [{"n": 1}, {"n": 2}])
        assert os.stat(path).st_ino != before
        assert os.listdir(tmp_path) == ["x.jsonl"]
        ledger.append(lambda fresh: {"n": 3})
        assert list(_plain(path).read()) == [{"n": i} for i in (1, 2, 3)]

    def test_append_after_foreign_rewrite_fails(self, tmp_path):
        path = tmp_path / "x.jsonl"
        first, second = _plain(path), _plain(path)
        first.append(lambda fresh: {"n": 0})
        second.rewrite(lambda fresh: [])
        with pytest.raises(ValueError, match="reopen"):
            first.append(lambda fresh: {"n": 1})
