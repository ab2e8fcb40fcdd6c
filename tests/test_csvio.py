"""The shared numeric CSV reader: fast parse, whole-array checks and the
row scan that names a bad line."""

import csv
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import random_dataset
from hazlasso import DataValidationError, load_dataset, load_dictionary, write_dataset
from hazlasso import csvio
from hazlasso.dictionary import _dictionary_row_error
from hazlasso.survival import _data_row_error

# fields that are numbers, and near-numbers and non-numbers under the
# documented syntax; numbers are drawn most often, so that a good share of
# files is valid or has a single bad field
NUMBER = st.sampled_from(["0", "1", "0.5", "-2e3", " 7 ", '"0.25"', "1.", "1.0", "\xa03"])
ODD = st.sampled_from(["", " ", "nan", "inf", "1e400", "1_0", "1 2", "#", '"1,0"', '"1\n"', "٣"])
FIELD = st.one_of(NUMBER, NUMBER, NUMBER, NUMBER, NUMBER, ODD, st.text(alphabet='01.e-+_ "#,\n\r\txn', max_size=5))
BODIES = st.lists(
    st.one_of(
        st.just(""),
        st.lists(FIELD, min_size=3, max_size=3).map(",".join),
        st.lists(FIELD, min_size=3, max_size=3).map(",".join),
        st.lists(FIELD, min_size=1, max_size=4).map(",".join),
    ),
    max_size=6,
)


def test_valid_files_never_reach_the_row_scan(tmp_path, monkeypatch):
    def no_scan(*args):
        raise AssertionError("the row scan ran on a valid file")

    monkeypatch.setattr(csvio, "scan_rows", no_scan)
    ds = random_dataset(np.random.default_rng(8), n=40, d=3)
    data = tmp_path / "data.csv"
    write_dataset(ds, data)
    assert load_dataset(data).covariates.tobytes() == ds.covariates.tobytes()
    dictionary = tmp_path / "dict.csv"
    dictionary.write_bytes(b'f,g\r\n1.0,"2.0"\r\n\r\n -0.5 ,0.25\r\n')
    np.testing.assert_array_equal(load_dictionary(dictionary, 2).values, [[1.0, 2.0], [-0.5, 0.25]])


def test_scan_names_the_last_line_when_no_record_is_bad(tmp_path):
    path = tmp_path / "dict.csv"
    path.write_text("f\n1.0\n\n2.0\n")
    with pytest.raises(DataValidationError, match=r"line 4 \(end of file\): parse failed"):
        csvio.scan_rows(path, ["f"], _dictionary_row_error, "parse failed")


@pytest.mark.parametrize(
    "header, row_error, loader",
    [("time,status,x", _data_row_error, load_dataset), ("f,g,h", _dictionary_row_error, load_dictionary)],
)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(body=BODIES, newline=st.sampled_from(["\n", "\r\n", "\r"]))
def test_fast_parse_and_row_scan_agree(tmp_path, header, row_error, loader, body, newline):
    """The fast parse accepts a file exactly when the row scan finds no bad
    record, with the same numbers; so a rejected file always gets a line."""
    path = tmp_path / "fuzz.csv"
    path.write_bytes(newline.join([header] + body).encode())
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # constant dictionary columns warn by design
            loaded = loader(path)
    except DataValidationError as exc:
        assert "(end of file)" not in str(exc)
        return
    with open(path, newline="") as fh:
        records = [row for row in csv.reader(fh) if row][1:]
    with pytest.raises(DataValidationError, match=r"\(end of file\)"):
        csvio.scan_rows(path, header.split(","), row_error, "ok")
    numbers = np.array([[csvio.parse_number(field) for field in row] for row in records])
    if loader is load_dataset:
        numbers[:, 0] /= loaded.time_scale
        got = np.column_stack([loaded.times, loaded.status, loaded.covariates])
    else:
        got = loaded.values
    assert got.tobytes() == numbers.tobytes()


def _text_mode(path):
    """Labels and values as csv.reader reads the file in text mode."""
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    labels = [label.strip() for label in rows[0]]
    return labels, np.array([[csvio.parse_number(field) for field in row] for row in rows[1:]])


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_byte_reader_keeps_the_header_text(tmp_path, newline):
    """A header with a quoted line break and non-ASCII labels ends where
    text mode says it does, so the body's numbers are unchanged; a
    byte-order mark before it changes neither the labels nor the body."""
    rows = ['"0.5", 1 ,2,0', "", "0.25,0,-3e-2,7", '\xa04,1,"5",1']
    data = tmp_path / "data.csv"
    data.write_bytes(newline.join(['time,status,"x\n1",ß-é', *rows]).encode())
    got = load_dataset(data)
    labels, values = _text_mode(data)
    assert got.labels == labels[2:] == ["x\n1", "ß-é"]
    assert got.covariates.tobytes() == values[:, 2:].tobytes()
    assert (got.times * got.time_scale).tobytes() == values[:, 0].tobytes()

    dictionary = tmp_path / "dict.csv"
    dictionary.write_bytes(newline.join(['"f","g\nh",γ,δ', *rows]).encode())
    got = load_dictionary(dictionary, 3)
    labels, values = _text_mode(dictionary)
    assert got.labels == labels == ["f", "g\nh", "γ", "δ"]
    assert got.values.tobytes() == values.tobytes()

    # a UTF-8 byte-order mark, as spreadsheet programs write one, is dropped
    # from the first label (quoted or not) and the body starts after it
    for plain in (data, dictionary):
        bom = tmp_path / f"bom-{plain.name}"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        if plain is data:
            want, got = load_dataset(plain), load_dataset(bom)
            assert got.labels == want.labels and got.time_scale == want.time_scale
            for name in ("times", "status", "covariates"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        else:
            want, got = load_dictionary(plain, 3), load_dictionary(bom, 3)
            assert got.labels == want.labels
            assert got.values.tobytes() == want.values.tobytes()


@pytest.mark.parametrize("mark", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
def test_row_scan_reads_the_header_as_the_loader_does(tmp_path, mark):
    """A quoted first label with a line break is one record with or without
    a byte-order mark before it, so a bad row is named at the same line."""
    path = tmp_path / "dict.csv"
    path.write_bytes(mark + b'"f\ng",h\n1,2\n\n3,oops\n')
    with pytest.raises(DataValidationError, match=r"line 4: bad value"):
        load_dictionary(path)


@pytest.mark.parametrize("offset", [2**14, 2**16, 50_000, 2**20])
def test_byte_reader_decodes_a_split_character(tmp_path, offset):
    """A number padded with a non-breaking space, whose two UTF-8 bytes sit
    on either side of a body offset where a reader may cut its input,
    parses as numpy parses it from a text handle."""
    row = "0.5,0.25,1\n"
    for shift in range(-2, 3):
        before = offset + shift - 1  # body bytes before the first byte of "\xa0"
        count, pad = divmod(before - len(row), len(row))
        body = " " * pad + row * (count + 1) + "\xa03,0,0\n" + row
        assert body.encode()[before : before + 2] == "\xa0".encode()
        path = tmp_path / f"split-{shift}.csv"
        path.write_bytes(("f,g,h\n" + body).encode())
        with open(path, newline="") as fh:
            next(fh)
            want = np.loadtxt(fh, delimiter=",", quotechar='"', comments=None, ndmin=2)
        got = load_dictionary(path).values
        assert got.tobytes() == want.tobytes()
        assert got[-2].tolist() == [3.0, 0.0, 0.0]
