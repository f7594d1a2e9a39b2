"""Named warning counters, aggregated into one summary line per run."""
from __future__ import annotations

import logging
from collections import Counter

logger = logging.getLogger("traceloc")


class Diagnostics:
    """Collects non-fatal warnings by name so a run can end with one
    summary line carrying a count per warning kind.
    """

    def __init__(self) -> None:
        self.counters: Counter[str] = Counter()

    def warn(self, name: str, message: str, n: int = 1) -> None:
        """Count ``n`` occurrences of ``name`` under one logged message."""
        self.counters[name] += n
        logger.warning("%s: %s", name, message)

    def count(self, name: str) -> int:
        return self.counters.get(name, 0)

    def total(self) -> int:
        return sum(self.counters.values())

    def summary_line(self) -> str:
        if not self.counters:
            return "warnings: none"
        parts = [f"{name}={count}" for name, count in sorted(self.counters.items())]
        return "warnings: " + " ".join(parts)
