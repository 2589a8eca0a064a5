"""Deterministic CSV/JSON file emitters.

CSV files carry a versioned ``# schema=N`` comment line ahead of the header
so downstream plot scripts break loudly when the layout changes.
``write_csv`` formats the rows ``_CHUNK_ROWS`` at a time, a column at a time,
and hands the text over ``_TEXT_ROWS`` lines at a time; ``write_records`` dumps
``_TEXT_ROWS`` records at a time. So a file's text is never held whole, and no
text buffer outgrows the slice. Every file is written as bytes (UTF-8; JSON is
ASCII). A CSV slice is handed over as bytes, no ``str`` copy is made, and each
stage of its text is freed once the next one exists.

A CSV layout is one ``(column name, places)`` pair per column. Places N
(0–18) writes ``format(x, f".{N}f")``; None writes a bool as true/false and an
integer or str as ``format`` does. The text is made a column at a time
(``csv_chunks``). A fixed field of N places writes the digits of ``rint(y)``,
y = |x|·10^N in float64. That product is one rounding, within y·2⁻⁵² of the
exact |x|·10^N, so ``rint(y)`` is the correctly rounded result ``format``
prints unless y lies within y·2⁻⁵¹ of a half-integer, or y ≥ 2⁵², or x is
NaN or ±inf. Only those elements are formatted by ``format(x, ".Nf")``.
"""
from __future__ import annotations

import json
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import DomainError

CSV_SCHEMA = 1
_CHUNK_ROWS = 8_192  # rows per column kernel call: numpy's per-call cost spread thin
# lines per text buffer: 110 KiB of padded spectrum text, under glibc's 128 KiB
# mmap threshold, so the buffers reuse freed heap instead of fresh pages
_TEXT_ROWS = 2_048

# A chunk's text is an (rows, bytes) uint8 block with its NUL bytes dropped, so
# every field is right-aligned text padded with NUL.
_BOOL_TEXT = np.array([b"false", b"true"], "S8").view(np.uint64)
_MAX_PLACES = 18  # 10^N is exact in float64 and in int64 for N <= 18


def _digits(m: np.ndarray, shown: int = 1) -> np.ndarray:
    """The non-negative integers ``m`` in decimal as an (n, width) uint8 block:
    the last ``shown`` digits zero-padded, NUL for the leading zeros before them."""
    width = max(len(str(int(m.max()))), shown)
    text = np.empty((m.size, width), np.uint8)
    rest = m
    for k in reversed(range(width)):
        q = rest // 10  # np.divmod is slower
        text[:, k] = rest - q * 10 + ord("0")
        rest = q
    for j in range(width - shown):
        text[m < 10 ** (width - 1 - j), j] = 0
    return text


def _marks(flags: np.ndarray, char: str) -> np.ndarray:
    """An (n, 1) block holding ``char`` where ``flags`` is set and NUL elsewhere."""
    return np.where(flags, np.uint8(ord(char)), np.uint8(0))[:, None]


def _fixed_blocks(column, places: int) -> list[np.ndarray]:
    """The blocks of ``format(x, f".{places}f")`` for each x of the column."""
    x = np.asarray(column, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN are not exact
        y = np.abs(x) * 10.0 ** places
        r = np.rint(y)
        # |y - rint(y)| < 1/2 - y·2^-51 is |frac(y) - 1/2| > y·2^-51
        exact = (y < 2.0 ** 52) & (np.abs(y - r) < 0.5 - y * 2.0 ** -51)
    text = _digits(np.where(exact, r, 0.0).astype(np.int64), places + 1)
    point = text.shape[1] - places
    blocks = [_marks(np.signbit(x) & exact, "-"), text[:, :point]]
    if places:
        blocks += [_marks(exact, "."), text[:, point:]]
    undecided = np.flatnonzero(~exact)
    if undecided.size:
        texts = [format(v, f".{places}f").encode() for v in x[undecided].tolist()]
        wide = np.zeros((x.size, max(map(len, texts))), np.uint8)
        for row, line in zip(undecided.tolist(), texts):
            wide[row, -len(line):] = np.frombuffer(line, np.uint8)
        for block in blocks:
            block[undecided] = 0
        blocks.append(wide)
    return blocks


def _plain_blocks(column) -> list[np.ndarray]:
    """The blocks of ``format(v)`` for each v of a bool (written true/false),
    integer or str column."""
    v = np.asarray(column)
    if v.dtype == bool:
        return [_BOOL_TEXT[v.view(np.uint8)].view(np.uint8).reshape(v.size, 8)]
    if v.dtype.kind in "iu":
        return [_marks(v < 0, "-"), _digits(np.abs(v).astype(np.uint64))]
    if v.dtype.kind == "U":
        text = np.array([s.encode() for s in v.tolist()], "S")  # np.char would import numpy.char
        return [text.view(np.uint8).reshape(v.size, text.itemsize)]
    raise ValueError(f"a column without places takes bool, integer or str, not {v.dtype}")


def _constant(text: bytes, rows: int) -> np.ndarray:
    return np.broadcast_to(np.frombuffer(text, np.uint8), (rows, len(text)))


def _chunk_text(places, chunk: list) -> Iterator[bytes]:
    """The lines of one chunk, ``_TEXT_ROWS`` at a time: each slice of the blocks
    is joined, copied out and stripped of its NULs, each stage freed as soon as
    the next one exists."""
    rows = len(chunk[0])
    blocks = []
    for column, decimals in zip(chunk, places):
        blocks += (_plain_blocks(column) if decimals is None
                   else _fixed_blocks(column, decimals))
        blocks.append(_constant(b",", rows))
    blocks[-1] = _constant(b"\n", rows)
    for start in range(0, rows, _TEXT_ROWS):
        yield np.concatenate([b[start:start + _TEXT_ROWS] for b in blocks],
                             axis=1).tobytes().translate(None, b"\0")


def csv_chunks(places, *columns) -> Iterator[bytes]:
    """The lines of the columns' rows, a field per entry of ``places``, joined by
    commas; as UTF-8, in pieces of at most ``_TEXT_ROWS`` whole lines, formatted
    ``_CHUNK_ROWS`` rows at a time. Columns are arrays, lists or ranges of equal
    length."""
    if any(p is not None and p not in range(_MAX_PLACES + 1) for p in places):
        raise ValueError(f"places {places} are not each None or 0 to {_MAX_PLACES}")
    if len(columns) != len(places):
        raise ValueError(f"{len(columns)} columns for the {len(places)} places {places}")
    for start in range(0, len(columns[0]), _CHUNK_ROWS):
        yield from _chunk_text(places, [c[start:start + _CHUNK_ROWS] for c in columns])


@contextmanager
def _created(path: Path):
    """``path`` open for writing bytes in a made directory, any OSError a DomainError."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("wb") as stream:
            yield stream
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {type(exc).__name__}: {exc}") from None


def write_csv(path: str | Path, layout, *columns) -> Path:
    """The schema line, the names of ``layout``'s (name, places) pairs as the
    header, then the rows of the columns by ``csv_chunks``, a piece at a time."""
    names, places = zip(*layout)
    path = Path(path)
    with _created(path) as stream:
        stream.write(f"# schema={CSV_SCHEMA}\n{','.join(names)}\n".encode())
        stream.writelines(csv_chunks(places, *columns))
    return path


def write_records(path: str | Path, record, *columns) -> Path:
    """``json.dumps(records, indent=2)`` and a newline, record i being ``record`` of
    row i of the columns, as ``tolist()`` gives it; each slice of ``_TEXT_ROWS``
    records is dumped as one list, written without its brackets, after a comma."""
    path = Path(path)
    with _created(path) as stream:
        stream.write(b"[")
        for start in range(0, len(columns[0]), _TEXT_ROWS):
            rows = (np.asarray(c[start:start + _TEXT_ROWS]).tolist() for c in columns)
            text = json.dumps(list(map(record, *rows)), indent=2)
            stream.write((("," if start else "") + text[1:-2]).encode())
        stream.write(b"\n]\n" if len(columns[0]) else b"]\n")
    return path


def write_json(path: str | Path, payload: dict) -> Path:
    path, text = Path(path), json.dumps(payload, indent=2) + "\n"
    with _created(path) as stream:
        stream.write(text.encode())
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
