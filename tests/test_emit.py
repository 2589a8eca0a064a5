import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfchub import emit, make_device, pm_spectrum_columns
from qfchub.cli import SPECTRUM_CSV, SPECTRUM_JSON
from qfchub.emit import csv_chunks, write_csv, write_records

_LAYOUT = (("flag", None), ("count", None), ("name", None), ("value", 3))


def _columns(rows):
    flags = np.arange(rows) % 3 == 1
    counts = np.arange(rows) * 7 - 5
    names = [f"row{i}" for i in range(rows)]
    values = np.linspace(-1.5, 2.25, rows)
    return flags, counts, names, values


@pytest.mark.parametrize("chunk", [1, 2, 3, 7])
@pytest.mark.parametrize("rows", [0, 1, 2, 3, 4, 7])
def test_write_csv_chunks_give_the_same_bytes(chunk, rows, tmp_path, monkeypatch):
    # kernels on chunks of 1 to 7 rows, their text in slices of 1, 3 or the chunk
    monkeypatch.setattr(emit, "_CHUNK_ROWS", chunk)
    columns = _columns(rows)
    lines = ["# schema=1", "flag,count,name,value"]
    lines += [f"{'true' if f else 'false'},{int(c)},{n},{v:.3f}"
              for f, c, n, v in zip(*columns)]
    for text in (1, 3, chunk):
        monkeypatch.setattr(emit, "_TEXT_ROWS", text)
        path = write_csv(tmp_path / "out" / "t.csv", _LAYOUT, *columns)
        assert path == tmp_path / "out" / "t.csv"
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode(), text


@st.composite
def _fixed_fields(draw):
    # any double, weighted toward what the kernel must hand to format(): exact
    # binary ties of x * 10^N (odd multiples of 2^-(N+1)), decimal ties that are
    # not exact in binary, and values whose scaled product reaches 2^52
    places = draw(st.integers(0, 18))
    value = (st.floats()
             | st.integers(-2 ** 50, 2 ** 50).map(lambda a: (2 * a + 1) / 2 ** (places + 1))
             | st.integers(0, 10 ** 12).map(lambda k: (k + 0.5) / 10 ** places)
             | st.floats(2.0 ** 52 / 10 ** places / 2, 2.0 ** 53 / 10 ** places * 2)
             | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                np.nan, np.inf, -np.inf, 2.0 ** 52, 2.0 ** 52 - 0.5]))
    return places, draw(st.lists(value | value.map(lambda v: -v), min_size=1, max_size=24))


@settings(max_examples=400, deadline=None)
@given(_fixed_fields())
@example((2, [0.125, 0.375]))
@example((2, [2.675]))
@example((6, [-1e-9]))
@example((4, [999.99995]))
@example((2, [1e300]))
def test_fixed_fields_are_format(case):
    # every text of N places is what format(v, f".{N}f") gives for the same double
    places, values = case
    text = b"".join(csv_chunks((places,), np.array(values))).decode()
    assert text == "".join(format(v, f".{places}f") + "\n" for v in values)


_NAMES = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\0"),
                 max_size=6)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(-2 ** 63, 2 ** 63 - 1), _NAMES,
                          st.floats(-1e6, 1e6)), min_size=1, max_size=12))
@example([(True, -1, "µm", 0.5), (False, 0, "東京", 1.0), (False, 7, "", 2.0)])
def test_plain_fields_are_format(rows):
    # bool (as true/false), int, str and float fields in one layout; a str field
    # is its UTF-8 bytes, encoded without numpy.char
    flags, counts, names, values = map(list, zip(*rows))
    text = b"".join(csv_chunks((None, None, None, 3), np.array(flags), np.array(counts),
                               np.array(names), values)).decode()
    assert text == "".join("{},{},{},{:.3f}".format(("false", "true")[f], c, n, v) + "\n"
                           for f, c, n, v in rows)


@pytest.mark.parametrize("places, column", [
    pytest.param((19,), [1.0], id="places-19"),
    pytest.param((-1,), [1.0], id="places-minus-1"),
    pytest.param((None,), [1.5], id="float-without-places"),
    pytest.param((None, None), [1], id="one-column-for-two")])
def test_csv_chunks_reject_what_the_kernel_cannot_write(places, column):
    with pytest.raises(ValueError):
        list(csv_chunks(places, column))


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


def _paper_spectrum_934(jundt):
    # pm_scan_934_L40.csv: 8,001 rows, one kernel chunk and four text slices
    device = make_device(934.0, 1540.0, 40.0, 48.0, jundt)
    spectrum = pm_spectrum_columns(934.0, 1540.0, device, 20.0, 5.0)
    assert spectrum.efficiency.size == 8_001 <= emit._CHUNK_ROWS
    return spectrum


def test_write_csv_holds_a_chunk_once(jundt, tmp_path):
    # the write of the 8,001-row 934 nm paper spectrum peaks, above what the call
    # keeps, at less than 2.1x the file (2.05x measured): the chunk's field blocks
    # (1.15x) and one column's kernel. Whole-chunk text stages (blocks, padded,
    # final; 2.31x) would pass 2.1x; 2,048-line slices of them stay under it.
    spectrum = _paper_spectrum_934(jundt)
    tracemalloc.start()
    try:
        path = write_csv(tmp_path / "spectrum.csv", SPECTRUM_CSV, *spectrum)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - kept < 2.1 * path.stat().st_size


def test_csv_pieces_hold_at_most_a_text_slice(jundt):
    # csv_chunks hands the paper spectrum over as whole lines, _TEXT_ROWS at most
    spectrum = _paper_spectrum_934(jundt)
    places = [p for _, p in SPECTRUM_CSV]
    lines = [piece.count(b"\n") for piece in csv_chunks(places, *spectrum)]
    assert lines == [emit._TEXT_ROWS] * 3 + [8_001 - 3 * emit._TEXT_ROWS]


def _record(flag, count, name, value):
    return {"flag": flag, "count": count, "name": name,
            "value": None if np.isnan(value) else value, "pair": [count, [name, flag]]}


@pytest.mark.parametrize("text", [1, 2, 3])
@pytest.mark.parametrize("rows", [0, 1, 2, 3, 4, 7])
def test_write_records_chunks_give_the_same_bytes(text, rows, tmp_path, monkeypatch):
    # bool, int, str, float, NaN as null and a nested list, from arrays and lists,
    # dumped 1 to 3 records at a time
    monkeypatch.setattr(emit, "_TEXT_ROWS", text)
    flags, counts, names, values = _columns(rows)
    values[1::3] = np.nan
    records = list(map(_record, flags.tolist(), counts.tolist(), names, values.tolist()))
    path = write_records(tmp_path / "out" / "t.json", _record, flags, counts, names, values)
    assert path == tmp_path / "out" / "t.json"
    assert path.read_bytes() == (json.dumps(records, indent=2) + "\n").encode()
    assert json.loads(path.read_text()) == records


def test_write_records_never_holds_the_file_text(jundt, tmp_path, monkeypatch):
    # as test_write_csv_never_holds_the_file_text, for the JSON records
    monkeypatch.setattr(emit, "_TEXT_ROWS", 1000)
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
