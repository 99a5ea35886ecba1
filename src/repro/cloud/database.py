"""The cloud metrics database.

PhoneMgr "retrieves information from these devices at a certain frequency,
organizes it in real-time, and uploads it to the cloud database for
storage" (§IV-C).  The database is a set of append-only tables of dict
records with a small query interface — enough to back the GUI-style
monitoring views and the experiment harness.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable
from typing import Any


class MetricsDatabase:
    """Append-only dict-record tables with filtered queries."""

    def __init__(self) -> None:
        self._tables: dict[str, list[dict[str, Any]]] = defaultdict(list)

    def insert(self, table: str, record: dict[str, Any]) -> None:
        """Append one record (shallow-copied) to ``table``."""
        if not table:
            raise ValueError("table name must be non-empty")
        if not isinstance(record, dict):
            raise TypeError(f"record must be a dict, got {type(record).__name__}")
        self._tables[table].append(dict(record))

    def query(
        self,
        table: str,
        where: Callable[[dict[str, Any]], bool] | None = None,
        **equals: Any,
    ) -> list[dict[str, Any]]:
        """Records matching the predicate and/or field-equality filters.

        ``db.query("device_samples", serial="local-00")`` filters on
        equality; ``where`` adds an arbitrary predicate.
        """
        rows = self._tables.get(table, [])
        out = []
        for row in rows:
            if equals and any(row.get(k) != v for k, v in equals.items()):
                continue
            if where is not None and not where(row):
                continue
            out.append(row)
        return out

    def count(self, table: str, **equals: Any) -> int:
        """Number of matching records."""
        return len(self.query(table, **equals))
