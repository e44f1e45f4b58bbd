"""The append-only, content-addressed history database.

A :class:`HistoryStore` accumulates :class:`~repro.history.record.RunRecord`
entries -- in memory, or durably as one :mod:`repro.ledger` file (a
schema header line, then one record per line).  Records are never
mutated or deleted in place (append-only); the only rewriting
operation is explicit :meth:`compact`, which applies the documented
retention rule (keep the last N points per series) and writes a fresh
file.

Determinism contract: :meth:`canonical_export` depends only on the
*set* of appended records and their per-series order -- records are
sorted by ``(series_key, seq, record_key)`` and volatile fields are
dropped -- so a run appended via 8 engine workers, a serial replay and
a warm-cache rerun all export byte-identical documents (the CI
``history`` job compares them with ``cmp``).
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Any, Iterable

from ..ledger import Ledger, sniff
from .record import HISTORY_SCHEMA, HISTORY_VERSION, RunRecord


class HistoryError(ValueError):
    """A history database file violates the schema."""


def _ledger(path: str | Path) -> Ledger:
    return Ledger(path, HISTORY_SCHEMA, HISTORY_VERSION, RunRecord.from_line,
                  HistoryError)


class HistoryStore:
    """Append-only run database with per-series sequence numbers.

    ``path=None`` keeps the store in memory; with a path every append
    is immediately written through (one :mod:`repro.ledger` line), and
    constructing the store re-reads whatever the file already holds.
    Sequence numbers come from the file itself, read under the ledger's
    lock, so several processes can append to one database.
    Thread-safe: suite drivers append from the main thread in
    submission order, which keeps sequence numbers worker-count
    independent.
    """

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self._records: list[RunRecord] = []
        self._series_len: dict[str, int] = {}
        self._lock = threading.Lock()
        self._ledger = None if path is None else _ledger(path)
        if self._ledger is not None:
            fresh = self._ledger.read() if self.path.exists() else \
                self._ledger.append(lambda fresh: None)
            for rec in fresh:
                self._adopt(rec)

    # -- ingestion ----------------------------------------------------------

    def _adopt(self, rec: RunRecord) -> None:
        """Register an already-sequenced record."""
        key = rec.series_key
        self._records.append(rec)
        self._series_len[key] = max(self._series_len.get(key, 0),
                                    rec.seq + 1)

    def append(self, rec: RunRecord) -> RunRecord:
        """Append one record; assigns its per-series sequence number.

        The record's ``seq`` becomes the current length of its series
        (append order *is* history order), counting records other
        processes appended to the backing file, and the line is written
        through immediately.
        """
        key = rec.series_key

        def stamp(fresh: list[RunRecord]) -> dict[str, Any]:
            for other in fresh:
                self._adopt(other)
            rec.seq = self._series_len.get(key, 0)
            return rec.to_line()

        with self._lock:
            if self._ledger is None:
                stamp([])
            else:
                self._ledger.append(stamp)
            self._series_len[key] = rec.seq + 1
            self._records.append(rec)
        return rec

    def extend(self, records: Iterable[RunRecord]) -> list[RunRecord]:
        return [self.append(r) for r in records]

    # -- queries ------------------------------------------------------------

    @property
    def records(self) -> list[RunRecord]:
        """All records, canonically ordered (series, then history)."""
        with self._lock:
            return sorted(self._records,
                          key=lambda r: (r.series_key, r.seq, r.record_key))

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def series_keys(self) -> list[str]:
        with self._lock:
            return sorted(self._series_len)

    def series(self, key: str) -> list[RunRecord]:
        """One trajectory, in history order."""
        return sorted((r for r in self.records if r.series_key == key),
                      key=lambda r: r.seq)

    def benchmarks(self) -> list[str]:
        """Distinct benchmark names present, sorted."""
        with self._lock:
            return sorted({r.benchmark for r in self._records})

    def select(self, benchmark: str | None = None) -> dict[str, list[RunRecord]]:
        """Series grouped by key, optionally restricted to a benchmark
        (exact name match)."""
        out: dict[str, list[RunRecord]] = {}
        for rec in self.records:
            if benchmark is not None and rec.benchmark != benchmark:
                continue
            out.setdefault(rec.series_key, []).append(rec)
        for recs in out.values():
            recs.sort(key=lambda r: r.seq)
        return out

    # -- export / retention -------------------------------------------------

    def canonical_export(self) -> str:
        """The byte-stable canonical JSON document of the whole DB."""
        doc = {"schema": HISTORY_SCHEMA, "version": HISTORY_VERSION,
               "records": [r.canonical() for r in self.records]}
        return json.dumps(doc, sort_keys=True, indent=1) + "\n"

    def save(self, path: str | Path) -> int:
        """Write the full store (meta header + every record) to a new
        JSONL file, atomically; returns the record count."""
        recs = self.records
        _ledger(path).rewrite(lambda fresh: [r.to_line() for r in recs])
        return len(recs)

    def compact(self, keep_last: int,
                path: str | Path | None = None) -> "HistoryStore":
        """Apply the retention rule: keep the last ``keep_last`` points
        of every series (sequence numbers are preserved, so trajectory
        positions stay meaningful after compaction).

        Returns a new store; with ``path`` (or a file-backed source)
        the compacted database is also written out, atomically
        replacing the source file when the paths coincide.
        """
        if keep_last < 1:
            raise ValueError("keep_last must be >= 1")
        target = Path(path) if path is not None else self.path
        out = HistoryStore()

        def kept(fresh: list[RunRecord]) -> list[dict[str, Any]]:
            with self._lock:
                for rec in fresh:
                    self._adopt(rec)
            for key in self.series_keys():
                for rec in self.series(key)[-keep_last:]:
                    out._adopt(rec)
            return [r.to_line() for r in out.records]

        if target is None:
            kept([])
            return out
        # replacing its own file, the store first catches up under the lock
        ledger = self._ledger if target == self.path else _ledger(target)
        ledger.rewrite(kept)
        return HistoryStore(target)

    # -- convenience --------------------------------------------------------

    @classmethod
    def open(cls, path: str | Path) -> "HistoryStore":
        """Open (or create) a file-backed store."""
        return cls(path)

    def record_and_append(self, benchmark: str,
                          fom_seconds: float | None = None,
                          **kwargs: Any) -> RunRecord:
        """Shorthand: build a stamped record and append it."""
        from .record import record as build
        return self.append(build(benchmark, fom_seconds, **kwargs))


def is_history_file(path: str | Path) -> bool:
    """Whether ``path`` is a history database (header sniff; used by
    ``jubench report`` to dispatch rendering)."""
    return sniff(path) == HISTORY_SCHEMA
