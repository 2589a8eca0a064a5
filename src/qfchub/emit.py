"""Deterministic CSV/JSON file emitters.

CSV files carry a versioned ``# schema=N`` comment line ahead of the header
so downstream plot scripts break loudly when the layout changes. Every row
is one pre-formatted line from ``csv_rows``, which keeps byte-identical
output across runs and worker counts.
"""
from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError

CSV_SCHEMA = 1
_BOOL_TEXT = ("false", "true")


def csv_rows(fmt: str, *columns) -> list[str]:
    """One CSV line per row: ``fmt.format`` over row i of every column.

    Columns are arrays or lists of equal length, converted with ``tolist()``
    so each value formats as a Python scalar; a boolean column is written
    as true/false. ``fmt`` holds the separators, e.g. ``"{:.6f},{:.4f},{}"``.
    """
    values = []
    for column in map(np.asarray, columns):
        items = column.tolist()
        values.append(list(map(_BOOL_TEXT.__getitem__, items))
                      if column.dtype == bool else items)
    return list(map(fmt.format, *values)) if values else []


def render_csv(columns: Sequence[str], rows: Iterable[str],
               schema: int = CSV_SCHEMA) -> str:
    lines = [f"# schema={schema}", ",".join(columns), *rows]
    return "\n".join(lines) + "\n"


def write_csv(path: str | Path, columns: Sequence[str],
              rows: Iterable[str], schema: int = CSV_SCHEMA) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_csv(columns, rows, schema), newline="\n")
    return path


def write_json(path: str | Path, payload) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n", newline="\n")
    return path


def read_two_column_csv(path: str | Path) -> tuple[list[float], list[float]]:
    """Read (x, y) pairs, skipping blank and comment lines and a leading header row.

    Any later row that does not start with two numbers raises DomainError.
    """
    xs: list[float] = []
    ys: list[float] = []
    header_allowed = True
    for number, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            x, y = map(float, line.split(",")[:2])
        except ValueError:
            if not header_allowed:
                raise DomainError(f"{path}, line {number}: expected two numbers, "
                                  f"got {line!r}") from None
        else:
            xs.append(x)
            ys.append(y)
        header_allowed = False
    return xs, ys
