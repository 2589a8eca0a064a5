"""Deterministic CSV/JSON file emitters.

CSV files carry a versioned ``# schema=N`` comment line ahead of the header
so downstream plot scripts break loudly when the layout changes. Every row
is one pre-formatted line from ``csv_rows``, which keeps byte-identical
output across runs. ``write_csv`` and ``write_records`` format and write the
rows ``_CHUNK_ROWS`` at a time, so a file's text is never held whole.
"""
from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import DomainError

CSV_SCHEMA = 1
_BOOL_TEXT = ("false", "true")
_CHUNK_ROWS = 8_192


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


@contextmanager
def _created(path: Path):
    """``path`` open for writing in a made directory, any OSError a DomainError."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="\n") as stream:
            yield stream
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {type(exc).__name__}: {exc}") from None


def write_csv(path: str | Path, layout: tuple[tuple[str, ...], str], *columns) -> Path:
    """The schema line, the header of ``layout = (header, fmt)``, then the rows
    of the columns, formatted by ``csv_rows`` and written ``_CHUNK_ROWS`` at a time."""
    header, fmt = layout
    path = Path(path)
    with _created(path) as stream:
        stream.write(f"# schema={CSV_SCHEMA}\n{','.join(header)}\n")
        for start in range(0, len(columns[0]), _CHUNK_ROWS):
            chunk = csv_rows(fmt, *(c[start:start + _CHUNK_ROWS] for c in columns))
            stream.write("\n".join(chunk) + "\n")
    return path


def write_records(path: str | Path, record, *columns) -> Path:
    """``json.dumps(records, indent=2)`` and a newline, record i being ``record`` of
    row i of the columns, as ``tolist()`` gives it; each chunk of ``_CHUNK_ROWS``
    records is dumped as one list, written without its brackets, after a comma."""
    path = Path(path)
    with _created(path) as stream:
        stream.write("[")
        for start in range(0, len(columns[0]), _CHUNK_ROWS):
            rows = (np.asarray(c[start:start + _CHUNK_ROWS]).tolist() for c in columns)
            text = json.dumps(list(map(record, *rows)), indent=2)
            stream.write(("," if start else "") + text[1:-2])
        stream.write("\n]\n" if len(columns[0]) else "]\n")
    return path


def write_json(path: str | Path, payload: dict) -> Path:
    path, text = Path(path), json.dumps(payload, indent=2) + "\n"
    with _created(path) as stream:
        stream.write(text)
    return path


def read_two_column_csv(path: str | Path) -> tuple[list[float], list[float]]:
    """Read (x, y) pairs, skipping blank and comment lines and a leading header row.

    Any later row that does not start with two numbers raises DomainError, as
    does a file that cannot be read as UTF-8 text.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read {path}: {type(exc).__name__}: {exc}") from None
    xs: list[float] = []
    ys: list[float] = []
    header_allowed = True
    for number, line in enumerate(text.splitlines(), start=1):
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
