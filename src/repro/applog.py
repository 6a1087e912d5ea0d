"""The one durable log: append-only JSONL with a CRC per record.

Every crash-safe log in the repo is an :class:`AppendLog` — the
results store's shards and the run registry — and this module is the
only one that knows the format.  The contract (DESIGN.md §13):

* **One record, one line, one write.**  A record is a flat JSON object
  whose ``crc`` key is the CRC32 of its other keys serialized as
  sorted-key JSON.  It goes out in a single ``os.write`` to an
  ``O_APPEND`` descriptor, so concurrent writers interleave whole
  records, never bytes.
* **Torn tails heal.**  A crash mid-append leaves a final line with no
  newline.  The first append through a log object starts a fresh line,
  so the torn bytes stay one bad line instead of swallowing the record
  after them.
* **Corrupt means skip, never crash.**  :meth:`AppendLog.read` returns
  the intact records in file order.  Torn, malformed and
  checksum-failing lines, and records the owner rejects (another
  schema version), are counted on the log and reported in one warning
  per read.
* **Compaction loses nothing.**  :meth:`AppendLog.compact` rewrites the
  log by temp file and rename under an exclusive lock that every append
  takes shared, so a concurrent record lands in the old file before it
  is read or in the new file after the rename, never in between.

:func:`atomic_write` is the same discipline for whole files: a temp
file unique to the writing process and thread, fsynced, then renamed
over the target.  Writers that replace a file only when its bytes
change check first with :func:`holds`.
"""

from __future__ import annotations

import fcntl
import json
import os
import sys
import threading
import zlib
from pathlib import Path


def _crc(record: dict) -> int:
    return zlib.crc32(json.dumps(record, sort_keys=True).encode())


def encode(record: dict) -> bytes:
    """One log line: ``record``'s keys in order, then its ``crc``."""
    return (json.dumps({**record, "crc": _crc(record)}) + "\n").encode()


def decode(line: bytes):
    """The record on one log line, or None if it is torn or its CRC fails."""
    try:
        record = json.loads(line)
    except ValueError:  # JSONDecodeError and UnicodeDecodeError alike
        return None
    if not isinstance(record, dict):
        return None
    crc = record.pop("crc", None)
    return record if crc == _crc(record) else None


def atomic_write(path, data: bytes) -> None:
    """Replace ``path`` with ``data`` all at once: readers see the old
    file or the new one, never a mix, even if the writer crashes."""
    path = Path(path)
    tmp = path.with_name(
        f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def holds(path, data: bytes) -> bool:
    """Whether ``path`` already holds exactly ``data`` (False when it
    cannot be read)."""
    try:
        with open(path, "rb", buffering=0) as fh:
            return fh.read() == data
    except OSError:
        return False


class AppendLog:
    """One append-only file of CRC-checked JSON records."""

    def __init__(self, path):
        self.path = Path(path)
        #: Lines skipped by this object's reads (torn, malformed,
        #: checksum mismatch, or rejected by the owner's ``parse``).
        self.corrupt = 0
        self._healed = False

    def _open_locked(self, mode: int) -> int:
        """A descriptor on the live file, holding ``flock(mode)``.

        A descriptor opened on a file that compaction then replaced is
        closed and the log reopened, so no write lands in an orphan.
        """
        while True:
            fd = os.open(self.path,
                         os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
            fcntl.flock(fd, mode)
            try:
                if os.path.samestat(os.fstat(fd), os.stat(self.path)):
                    return fd
            except FileNotFoundError:
                pass
            os.close(fd)

    def append(self, record: dict) -> None:
        """Append ``record`` as one line in one write."""
        line = encode(record)
        fd = self._open_locked(fcntl.LOCK_SH)
        try:
            if not self._healed:
                self._healed = True
                size = os.fstat(fd).st_size
                if size and os.pread(fd, 1, size - 1) != b"\n":
                    os.write(fd, b"\n")
            os.write(fd, line)
        finally:
            os.close(fd)  # also drops the lock

    def read(self, parse=None) -> list:
        """The intact records, in file order.

        ``parse(record)`` lets the owner check its schema: it returns
        what to keep for the record, or None to count the line as
        corrupt.  Bad lines are skipped and counted in :attr:`corrupt`.
        """
        try:
            with open(self.path, "rb") as fh:
                lines = fh.read().split(b"\n")
        except FileNotFoundError:
            return []
        records, bad = [], 0
        for line in lines:
            if not line.strip():
                continue
            record = decode(line)
            if record is not None and parse is not None:
                record = parse(record)
            if record is None:
                bad += 1
            else:
                records.append(record)
        if bad:
            self.corrupt += bad
            print(f"warning: {self.path}: skipped {bad} corrupt "
                  f"record(s) (torn line, checksum mismatch or unknown "
                  f"schema)", file=sys.stderr)
        return records

    def compact(self, keep) -> None:
        """Rewrite the log to ``keep(records)``, atomically.

        ``keep`` receives :meth:`read`'s records while the exclusive
        lock is held, so no append can fall between that read and the
        rename.
        """
        fd = self._open_locked(fcntl.LOCK_EX)
        try:
            kept = keep(self.read())
            atomic_write(self.path, b"".join(encode(r) for r in kept))
        finally:
            os.close(fd)
