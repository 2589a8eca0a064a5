import json
import tracemalloc

import numpy as np
import pytest

from qfchub import emit, make_device, pm_spectrum_columns
from qfchub.cli import SPECTRUM_CSV, SPECTRUM_JSON
from qfchub.emit import write_csv, write_records

_LAYOUT = (("flag", "count", "name", "value"), "{},{},{},{:.3f}")


def _columns(rows):
    flags = np.arange(rows) % 3 == 1
    counts = np.arange(rows) * 7 - 5
    names = [f"row{i}" for i in range(rows)]
    values = np.linspace(-1.5, 2.25, rows)
    return flags, counts, names, values


@pytest.mark.parametrize("chunk", [1, 2, 3])
@pytest.mark.parametrize("rows", [0, 1, 2, 3, 4, 7])
def test_write_csv_chunks_give_the_same_bytes(chunk, rows, tmp_path, monkeypatch):
    monkeypatch.setattr(emit, "_CHUNK_ROWS", chunk)
    columns = _columns(rows)
    lines = ["# schema=1", "flag,count,name,value"]
    lines += [f"{'true' if f else 'false'},{int(c)},{n},{v:.3f}"
              for f, c, n, v in zip(*columns)]
    path = write_csv(tmp_path / "out" / "t.csv", _LAYOUT, *columns)
    assert path == tmp_path / "out" / "t.csv"
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_write_csv_never_holds_the_file_text(jundt, tmp_path, monkeypatch):
    # a 100,001-row spectrum written 1,000 rows at a time peaks, above what the
    # call keeps, at less than the size of the file it writes
    monkeypatch.setattr(emit, "_CHUNK_ROWS", 1000)
    device = make_device(780.0, 1540.0, 40.0, 48.0, jundt)
    spectrum = pm_spectrum_columns(780.0, 1540.0, device, 5.0, 0.1)
    assert spectrum.efficiency.size == 100_001
    tracemalloc.start()
    try:
        path = write_csv(tmp_path / "spectrum.csv", SPECTRUM_CSV, *spectrum)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - kept < path.stat().st_size


def _record(flag, count, name, value):
    return {"flag": flag, "count": count, "name": name,
            "value": None if np.isnan(value) else value, "pair": [count, [name, flag]]}


@pytest.mark.parametrize("chunk", [1, 2, 3])
@pytest.mark.parametrize("rows", [0, 1, 2, 3, 4, 7])
def test_write_records_chunks_give_the_same_bytes(chunk, rows, tmp_path, monkeypatch):
    # bool, int, str, float, NaN as null and a nested list, from arrays and lists
    monkeypatch.setattr(emit, "_CHUNK_ROWS", chunk)
    flags, counts, names, values = _columns(rows)
    values[1::3] = np.nan
    records = list(map(_record, flags.tolist(), counts.tolist(), names, values.tolist()))
    path = write_records(tmp_path / "out" / "t.json", _record, flags, counts, names, values)
    assert path == tmp_path / "out" / "t.json"
    assert path.read_bytes() == (json.dumps(records, indent=2) + "\n").encode()
    assert json.loads(path.read_text()) == records


def test_write_records_never_holds_the_file_text(jundt, tmp_path, monkeypatch):
    # as test_write_csv_never_holds_the_file_text, for the JSON records
    monkeypatch.setattr(emit, "_CHUNK_ROWS", 1000)
    device = make_device(780.0, 1540.0, 40.0, 48.0, jundt)
    spectrum = pm_spectrum_columns(780.0, 1540.0, device, 5.0, 0.1)
    assert spectrum.efficiency.size == 100_001
    tracemalloc.start()
    try:
        path = write_records(tmp_path / "spectrum.json", SPECTRUM_JSON, *spectrum)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - kept < path.stat().st_size
