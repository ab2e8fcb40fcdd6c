"""The shared numeric CSV reader: fast parse, whole-array checks and the
row scan that names a bad line. Every test of a whole file runs through
both readers of the body, the compiled one and numpy's."""

import csv
import logging
import struct
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import random_dataset
from hazlasso import DataValidationError, load_dataset, load_dictionary, write_dataset
from hazlasso import _plaincsv, csvio
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


def require_compiled():
    if _plaincsv.library() is None:
        pytest.skip("no compiled reader: no C compiler, or the build failed")


@pytest.fixture(params=["compiled", "numpy"])
def reader(request, monkeypatch):
    """The reader of plain bodies: the compiled one, or numpy's alone with
    the compiled reader's loader turned off."""
    if request.param == "numpy":
        monkeypatch.setattr(_plaincsv, "library", lambda: None)
    else:
        require_compiled()
    return request.param


def readers_of(records) -> list:
    """The readers that the DEBUG records name, one per file read."""
    return [r.reader for r in records if hasattr(r, "reader")]


def test_valid_files_never_reach_the_row_scan(tmp_path, monkeypatch, caplog, reader):
    def no_scan(*args):
        raise AssertionError("the row scan ran on a valid file")

    monkeypatch.setattr(csvio, "scan_rows", no_scan)
    caplog.set_level(logging.DEBUG, logger="hazlasso._plaincsv")
    ds = random_dataset(np.random.default_rng(8), n=40, d=3)
    data = tmp_path / "data.csv"
    write_dataset(ds, data)
    assert load_dataset(data).covariates.tobytes() == ds.covariates.tobytes()
    dictionary = tmp_path / "dict.csv"
    dictionary.write_bytes(b'f,g\r\n1.0,"2.0"\r\n\r\n -0.5 ,0.25\r\n')
    np.testing.assert_array_equal(load_dictionary(dictionary, 2).values, [[1.0, 2.0], [-0.5, 0.25]])
    # a quoted field is not plain
    assert readers_of(caplog.records) == [reader, "numpy"]


def test_scan_names_the_last_line_when_no_record_is_bad(tmp_path, reader):
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
def test_fast_parse_and_row_scan_agree(tmp_path, header, row_error, loader, body, newline, reader):
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
def test_byte_reader_keeps_the_header_text(tmp_path, newline, reader):
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
def test_row_scan_reads_the_header_as_the_loader_does(tmp_path, mark, reader):
    """A quoted first label with a line break is one record with or without
    a byte-order mark before it, so a bad row is named at the same line."""
    path = tmp_path / "dict.csv"
    path.write_bytes(mark + b'"f\ng",h\n1,2\n\n3,oops\n')
    with pytest.raises(DataValidationError, match=r"line 4: bad value"):
        load_dictionary(path)


@pytest.mark.parametrize("offset", [2**14, 2**16, 50_000, 2**20])
def test_byte_reader_decodes_a_split_character(tmp_path, offset, reader):
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


# Literals for the compiled reader's conversion: random doubles as repr
# writes them, long mantissas, exponents far beyond the double range,
# edge values, and the exact decimal midpoints between neighbouring doubles
@st.composite
def decimal_literals(draw):
    digits = draw(st.text(alphabet="0123456789", min_size=1, max_size=40))
    point = draw(st.integers(0, len(digits)))  # "d.", "d.d" or ".d"
    mantissa = digits[:point] + "." + digits[point:] if draw(st.booleans()) else digits
    exponent = draw(st.one_of(
        st.just(""),
        st.builds("{}{}".format, st.sampled_from(["e", "E"]), st.integers(-400, 400)),
        st.integers(0, 400).map("e+{}".format),
    ))
    return draw(st.sampled_from(["", "-", "+"])) + mantissa + exponent


@st.composite
def halfway_literals(draw):
    bits = draw(st.integers(0, 0x7FEFFFFFFFFFFFFE))  # the next double is finite
    low = struct.unpack("<d", struct.pack("<Q", bits))[0]
    high = float(np.nextafter(low, np.inf))
    with localcontext() as ctx:
        ctx.prec = 1200  # exact: a double has at most 767 significant digits
        middle = (Decimal(low) + Decimal(high)) / 2
    return format(middle, draw(st.sampled_from(["e", "E", "f"])))


EDGE = st.sampled_from([
    "0", "-0", "0.0", "-0.0e5", "9007199254740993", "9007199254740992.5", "5e-324",
    "2.4703282292062327e-324", "2.4703282292062328e-324", "2.2250738585072011e-308",
    "2.2250738585072014e-308", "1.7976931348623157e308", "1.7976931348623158e308",
    "1e-400", "1e400", "00000000000000000000000001.5", "1e-342", "1e-343", "1e308",
])
LITERALS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    decimal_literals(),
    halfway_literals(),
    EDGE,
)


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(st.lists(LITERALS, min_size=3, max_size=3), min_size=1, max_size=12),
    pads=st.lists(st.sampled_from(["", " ", "  "]), min_size=4, max_size=4),
    newline=st.sampled_from(["\n", "\r\n", "\r"]),
    blank=st.booleans(),
)
def test_compiled_reader_matches_numpy_bit_for_bit(tmp_path_factory, rows, pads, newline, blank):
    """Every plain body parses to the very bits np.loadtxt gives, infinities
    from overflow included (the whole-array checks reject those later)."""
    require_compiled()
    lead, trail, before, after = pads
    lines = [lead + ",".join(before + v + after for v in row) + trail for row in rows]
    if blank:
        lines.insert(len(lines) // 2, "")
    path = tmp_path_factory.mktemp("corpus") / "body.csv"
    path.write_bytes(newline.join(["a,b,c", *lines]).encode())
    got = _plaincsv.read_body(path, len("a,b,c" + newline), 3)
    want = np.loadtxt(path, delimiter=",", skiprows=1, comments=None, ndmin=2)
    assert got is not None
    assert got.shape == want.shape
    assert (got.view(np.uint64) == want.view(np.uint64)).all()


def test_long_exponents_are_read_whole(tmp_path):
    """An exponent too long to accumulate goes to strtod with its literal,
    even when 100000 leading zeros bring the sum back into range."""
    require_compiled()
    zeros = "0." + "0" * 99_999
    literals = [zeros + "1e1000000", zeros + "1e100005", "1e-99999999999999999999", "-1e99999999999999999999"]
    path = tmp_path / "body.csv"
    path.write_text("a\n" + "\n".join(literals) + "\n")
    got = _plaincsv.read_body(path, len("a\n"), 1)
    assert got[:, 0].tolist() == [float(s) for s in literals] == [np.inf, 1e5, 0.0, -np.inf]


@pytest.mark.parametrize("block", [1, 2, 5, 6, 7, 13, 64])
def test_block_boundaries(tmp_path, monkeypatch, block):
    """Small blocks cut the body everywhere: a "\r\n" split between two
    blocks still ends one line, a line longer than a block is carried
    whole, and the output, sized from the line ends of the first block,
    grows and is trimmed to fit."""
    require_compiled()
    monkeypatch.setattr(_plaincsv, "BLOCK", block)
    body = "0.5,1\r\n2,3\r\n\r\n-0.123456789012345678e-5 , 7\r4,5\n\n6e1,1.\r\n.5,+8"
    assert body.index("\r\n") == 5  # with a block of 6 the first "\r\n" is split
    path = tmp_path / "body.csv"
    path.write_bytes(("a,b\n" + body).encode())
    got = _plaincsv.read_body(path, len("a,b\n"), 2)
    want = np.loadtxt(path, delimiter=",", skiprows=1, comments=None, ndmin=2)
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    assert got.base.nbytes == got.nbytes  # no oversized block stays behind


@pytest.mark.parametrize(
    "body",
    [
        '"1",2', "1\t,2", "inf,1", "nan,1", "0x1p3,1", "1_0,1", "1,2\n   \n3,4", "\xa03,1",
        "1,2,3", "1", "1,", ",1", "1e,1", "1e+,1", ".,1", "+,1", "1 2,3", "#1,2", "1,2#",
        "1,2\n3", "\ufeff1,2",
    ],
)
def test_what_is_not_plain_goes_to_numpy(tmp_path, body):
    require_compiled()
    path = tmp_path / "body.csv"
    path.write_bytes(("a,b\n" + body + "\n").encode())
    assert _plaincsv.read_body(path, len("a,b\n"), 2) is None


@pytest.mark.parametrize("status", ["1.0", "01", "+1", "-0", "1e0", "2", '"1"x'])
def test_a_status_is_a_lone_0_or_1(tmp_path, reader, status):
    path = tmp_path / "data.csv"
    path.write_text(f"time,status,x\n0.5,1,2\n\n0.25,{status},3\n")
    with pytest.raises(DataValidationError, match=r"line 4: status must be 0 or 1"):
        load_dataset(path)
    path.write_text("time,status,x\n0.5, 1 ,2\n0.25,0,3\n")
    assert load_dataset(path).status.tolist() == [True, False]
