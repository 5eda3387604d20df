"""Figure-data export: CSV files for external plotting.

The benchmarks print text tables; downstream users who want to plot the
reproduced figures with their own tooling can dump the underlying series
with :func:`write_csv` (used by the ``python -m repro`` CLI).
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Sequence


def write_csv(path: str | Path, headers: Sequence[str],
              rows: Sequence[Sequence[object]]) -> Path:
    """Write one figure's rows as CSV; returns the path written."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(headers)
        for row in rows:
            writer.writerow(row)
    return target


__all__ = ["write_csv"]
