"""The JSONL file format every store in the repo writes (DESIGN.md §7).

A ledger file is one header line, ``{"schema", "type": "meta",
"version"}``, recognised by its ``schema`` field, then one JSON object
per line.  A final line without its newline is left by a crashed
writer: readers drop and report it, and the next writer, under
``fcntl.flock``, finishes it if it holds a whole line and cuts it off
if it is torn.  Bytes that cannot begin the header are never cut: such
a file is not a ledger of this schema and is left alone.  Appends are
written through but not fsynced (a crash loses at most that torn
line); whole-file rewrites are fsynced and atomic.
"""

from __future__ import annotations

import contextlib
import fcntl
import json
import logging
import os
import threading
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

log = logging.getLogger(__name__)

_DROPPED = object()


def line(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def header(schema: str, version: int) -> dict[str, Any]:
    return {"schema": schema, "type": "meta", "version": version}


def sniff(path: Any) -> Any:
    """The schema named by the header line of ``path``, or None."""
    with contextlib.suppress(OSError, ValueError), open(path, "rb") as fh:
        obj = json.loads(fh.readline())
        return obj.get("schema") if isinstance(obj, dict) else None
    return None


class Ledger:
    """One ledger file; ``parse`` turns each line's object into a record,
    and every defect of the file is raised as ``error``."""

    def __init__(self, path: Any, schema: str, version: int,
                 parse: Callable[[Any], Any], error: type[Exception]):
        self.path, self.schema, self.version = Path(path), schema, version
        self._parse, self._error = parse, error
        self.header: dict[str, Any] | None = None
        self._offset = self._lineno = 0   # the complete lines read so far
        self._inode: tuple[int, int] | None = None
        # flock alone does not order this object's threads: shared-lock
        # reads would race on the offset, and on NFS flock maps to
        # per-process POSIX locks
        self._mutex = threading.Lock()

    def read(self) -> Iterator[Any]:
        """Yield the records after those already read."""
        with self._locked(write=False) as (fd, size):
            yield from self._records(fd, size, mend=False)

    def append(self, make: Callable[[list[Any]], Any]) -> list[Any]:
        """Write ``make(fresh)`` (nothing if None), where ``fresh`` are
        the records other writers added since the last read; returns
        ``fresh``."""
        with self._locked(write=True) as (fd, size):
            fresh = list(self._records(fd, size, mend=True))
            obj = make(fresh)
            text = "" if obj is None else line(obj)
            if self.header is None:
                self.header = header(self.schema, self.version)
                text = line(self.header) + text
            data = text.encode()
            self._offset += len(data)
            self._lineno += text.count("\n")
            while data:
                data = data[os.write(fd, data):]
        return fresh

    def rewrite(self, make: Callable[[list[Any]], Iterable[Any]]) -> None:
        """Replace the file by the header and ``make(fresh)``, atomically
        and under the lock; ``fresh`` is as for :meth:`append`, and empty
        if this ledger never read the file."""
        known = self._inode is not None
        with self._locked(write=True) as (fd, size):
            fresh = list(self._records(fd, size, mend=True)) if known else []
            self.header = header(self.schema, self.version)
            lines = [line(self.header)] + [line(obj) for obj in make(fresh)]
            tmp = self.path.with_name(f"{self.path.name}.{os.getpid()}.tmp")
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.writelines(lines)
                fh.flush()
                os.fsync(fh.fileno())
                st = os.fstat(fh.fileno())
            os.replace(tmp, self.path)
            self._inode, self._offset = (st.st_dev, st.st_ino), st.st_size
            self._lineno = len(lines)

    @contextlib.contextmanager
    def _locked(self, write: bool) -> Iterator[tuple[int, int]]:
        """A descriptor of the file now at ``path``, locked shared, or
        exclusive to ``write``, and its size; raises if it is not the
        file read so far."""
        with self._mutex:
            fd = self._open_current(write)
            try:
                st = os.fstat(fd)
                inode = (st.st_dev, st.st_ino)
                if self._inode not in (None, inode) or \
                        st.st_size < self._offset:
                    raise self._error(f"{self.path}: replaced or truncated "
                                      f"since it was read; reopen it")
                self._inode = inode
                yield fd, st.st_size
            finally:
                os.close(fd)

    def _open_current(self, write: bool) -> int:
        flags = os.O_RDWR | os.O_CREAT | os.O_APPEND if write else os.O_RDONLY
        while True:
            try:
                fd = os.open(self.path, flags, 0o666)
            except FileNotFoundError:
                if not write:
                    raise
                self.path.parent.mkdir(parents=True, exist_ok=True)
                fd = os.open(self.path, flags, 0o666)
            fcntl.flock(fd, fcntl.LOCK_EX if write else fcntl.LOCK_SH)
            with contextlib.suppress(FileNotFoundError):
                if os.path.samestat(os.fstat(fd), os.stat(self.path)):
                    return fd
            os.close(fd)   # replaced while we waited for the lock

    def _records(self, fd: int, size: int, mend: bool) -> Iterator[Any]:
        """Parse the lines past the read offset, advancing it; the caller
        holds the lock.  ``mend`` marks a writer (see :meth:`_tail`)."""
        if size == self._offset:
            return
        with open(fd, "rb", closefd=False) as fh:
            fh.seek(self._offset)
            for raw in fh:
                where = f"{self.path}:{self._lineno + 1}"
                if raw.endswith(b"\n"):
                    obj = self._decode(raw, where)
                else:
                    obj = self._tail(fd, raw, where, mend)
                    if obj is _DROPPED:
                        return
                    raw += b"\n"
                self._offset += len(raw)
                self._lineno += 1
                if obj is not None:
                    yield obj

    def _decode(self, raw: bytes, where: str) -> Any:
        """The record on one line; None for a blank or header line."""
        if not raw.strip():
            return None
        try:
            obj = json.loads(raw.decode())
            if self.header is not None:
                return self._parse(obj)
        except (KeyError, TypeError, ValueError) as exc:
            raise self._error(f"{where}: {type(exc).__name__}: {exc}") \
                from exc
        if not (isinstance(obj, dict) and obj.get("schema") == self.schema):
            raise self._error(f"{where}: not a {self.schema} file: no meta "
                              f"header naming it")
        self.header = obj
        return None

    def _tail(self, fd: int, raw: bytes, where: str, mend: bool) -> Any:
        """A final line without its newline.  A writer (``mend``) finishes
        a whole line, returning it as :meth:`_decode` does, and cuts off a
        torn one; a reader drops either.  Unless a header was read, only a
        prefix of this schema's header counts as torn; other bytes raise."""
        known = self.header
        try:
            obj = self._decode(raw, where)
        except self._error:
            start = line(header(self.schema, self.version)).encode()
            if known is None and not start.startswith(raw):
                raise self._error(f"{where}: not a {self.schema} file") \
                    from None
        else:
            if mend:
                os.write(fd, b"\n")
                return obj
            self.header = known
        log.warning("%s: %s a torn final line (%d bytes)", where,
                    "cut" if mend else "dropped", len(raw))
        if mend:
            os.ftruncate(fd, self._offset)
        return _DROPPED
