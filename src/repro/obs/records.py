"""One bounded record log, one JSONL writer and one JSONL reader.

The package retains four kinds of record - finished request span trees,
slow-query forensics, SLO alert transitions and the flight recorder's GPU
command events - and each must be bounded (retaining everything is a slow
OOM), counted (an eviction is never silent) and written as JSON lines.
They share one mechanism:

* :class:`RecordLog` - a thread-safe ring of JSON-able records with
  ``added`` / ``evicted`` counts, :meth:`~RecordLog.export`, and an
  optional file each record is appended to as it arrives (under the lock,
  so concurrent worker threads never interleave partial lines);
* :func:`write_jsonl` - the one writer of every JSONL artifact line the
  package produces (a log's file and export, span exports, the capture
  header): ``json.dumps(record, sort_keys=True)`` per line;
* :func:`read_jsonl` - the one reader of every JSONL artifact the package
  writes (spans, slowlog, alerts, captures).  Those files are outside
  data: a bad line is a :class:`ValueError` naming the file and line,
  never a traceback, and each format adds its own check per record.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from typing import IO, Any, Callable, Deque, Iterable, List, Optional, Union

#: Records a :class:`RecordLog` retains before evicting the oldest.
MAX_RECORDS = 10_000


def _line(record: Any) -> str:
    return json.dumps(record, sort_keys=True) + "\n"


def write_jsonl(target: Union[str, IO[str]], records: Iterable[Any]) -> int:
    """Write records as JSON lines to a path (truncated) or an open text
    file; returns the count."""
    if isinstance(target, str):
        with open(target, "w", encoding="utf-8") as f:
            return write_jsonl(f, records)
    count = 0
    for record in records:
        target.write(_line(record))
        count += 1
    return count


class RecordLog:
    """Thread-safe bounded ring of JSON-able records, optionally file-backed."""

    def __init__(self, path: Optional[str] = None) -> None:
        #: Append every record to this JSONL file as it arrives (after
        #: whatever the file already holds).
        self.path = path
        self._records: Deque[Any] = deque(maxlen=MAX_RECORDS)
        self._lock = threading.Lock()
        self.added = 0
        self.evicted = 0

    def append(self, record: Any) -> None:
        """Retain one record (evicting the oldest when full)."""
        line = _line(record) if self.path else ""
        with self._lock:
            if len(self._records) == MAX_RECORDS:
                self.evicted += 1
            self._records.append(record)
            self.added += 1
            if self.path is not None:
                with open(self.path, "a", encoding="utf-8") as f:
                    f.write(line)

    def records(self) -> List[Any]:
        """Snapshot of the retained records, oldest first."""
        with self._lock:
            return list(self._records)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def export(self, target: Union[str, IO[str]]) -> int:
        """Write the retained records as JSON lines; returns the count."""
        return write_jsonl(target, self.records())


def read_jsonl(
    source: Union[str, IO[str]],
    check: Optional[Callable[[Any], Optional[str]]] = None,
) -> List[Any]:
    """Parse a JSONL path or open text file, skipping blank lines.

    ``check`` returns what is wrong with one parsed record (``None`` when
    nothing is); a bad line raises ``ValueError("<source>:<line>: ...")``.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as f:
            return read_jsonl(f, check)
    where = getattr(source, "name", "<stream>")
    records: List[Any] = []
    for lineno, line in enumerate(source, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{where}:{lineno}: not valid JSON ({exc})") from None
        problem = check(record) if check is not None else None
        if problem:
            raise ValueError(f"{where}:{lineno}: {problem}")
        records.append(record)
    return records


def schema_check(kind: str, schema: str) -> Callable[[Any], Optional[str]]:
    """The check of a format whose every record carries ``schema``."""

    def check(record: Any) -> Optional[str]:
        found = record.get("schema") if isinstance(record, dict) else None
        if found == schema:
            return None
        return f"unsupported {kind} schema {found!r}; expected {schema!r}"

    return check


__all__ = ["MAX_RECORDS", "RecordLog", "read_jsonl", "schema_check", "write_jsonl"]
