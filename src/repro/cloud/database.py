"""The cloud metrics database.

PhoneMgr "retrieves information from these devices at a certain frequency,
organizes it in real-time, and uploads it to the cloud database for
storage" (§IV-C).  The database is a set of append-only tables of dict
records with a small query interface — enough to back the GUI-style
monitoring views and the experiment harness.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any


class MetricsDatabase:
    """Append-only dict-record tables with field-equality queries."""

    def __init__(self) -> None:
        self._tables: dict[str, list[dict[str, Any]]] = defaultdict(list)

    def insert(self, table: str, record: dict[str, Any]) -> None:
        """Append one record (shallow-copied) to ``table``."""
        if not table:
            raise ValueError("table name must be non-empty")
        if not isinstance(record, dict):
            raise TypeError(f"record must be a dict, got {type(record).__name__}")
        self._tables[table].append(dict(record))

    def query(self, table: str, **equals: Any) -> list[dict[str, Any]]:
        """Records matching every field-equality filter, e.g. ``db.query("device_samples", serial="local-00")``."""
        rows = self._tables.get(table, [])
        return [row for row in rows if all(row.get(k) == v for k, v in equals.items())]
