"""The compiled reader's delivery: its build, its cache and the silent
fallback to numpy when it cannot be had."""

import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from hazlasso import _plaincsv, load_dictionary

SRC = Path(_plaincsv.__file__).resolve().parent.parent
NO_CC = shutil.which("cc") is None


@pytest.fixture
def plain_csv(tmp_path):
    path = tmp_path / "dict.csv"
    path.write_text("f,g\n0.1,-2.5e-3\n\n1e100,7\n")
    return path


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """An empty cache directory, and a process that has not yet looked for
    the compiled reader."""
    cache = tmp_path / "cache"
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    _plaincsv.library.cache_clear()
    yield cache
    _plaincsv.library.cache_clear()


def load_quietly(path):
    """``load_dictionary(path).values``, failing on any warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return load_dictionary(path).values


WANT = [[0.1, -2.5e-3], [1e100, 7.0]]


def test_without_a_compiler_numpy_reads_the_body(plain_csv, fresh_cache, tmp_path, monkeypatch, caplog):
    empty = tmp_path / "bin"
    empty.mkdir()
    monkeypatch.setenv("PATH", str(empty))
    caplog.set_level("DEBUG", logger="hazlasso._plaincsv")
    assert load_quietly(plain_csv).tolist() == WANT
    assert _plaincsv.library() is None
    assert any("no compiled CSV reader" in r.getMessage() for r in caplog.records)
    assert [r.reader for r in caplog.records if hasattr(r, "reader")] == ["numpy"]


def test_a_read_only_cache_directory(plain_csv, fresh_cache):
    directory = fresh_cache / "hazlasso"
    directory.mkdir(parents=True, mode=0o700)
    directory.chmod(0o500)
    try:
        # a user who may not write there falls back; the superuser builds
        assert load_quietly(plain_csv).tolist() == WANT
    finally:
        directory.chmod(0o700)


def test_a_cache_directory_that_cannot_be_made(plain_csv, fresh_cache):
    fresh_cache.write_text("a file where the cache directory should be")
    assert load_quietly(plain_csv).tolist() == WANT
    assert _plaincsv.library() is None


def test_a_cache_directory_others_may_write_is_not_used(plain_csv, fresh_cache):
    directory = fresh_cache / "hazlasso"
    directory.mkdir(parents=True)
    directory.chmod(0o777)
    assert load_quietly(plain_csv).tolist() == WANT
    assert _plaincsv.library() is None
    assert not any(directory.iterdir())


def test_a_corrupt_cached_object(plain_csv, fresh_cache):
    target = _plaincsv.object_path()
    target.parent.mkdir(parents=True, mode=0o700)
    target.write_bytes(b"\x7fELF but not really")
    assert load_quietly(plain_csv).tolist() == WANT
    assert _plaincsv.library() is None


def run_child(code: str, cache: Path) -> dict:
    """Run ``code`` in a fresh interpreter on these sources and ``cache``;
    the code's last printed line is JSON, returned with the child's
    subprocess launches and directory creations under ``cache``."""
    script = (
        "import json, sys\n"
        "events = []\n"
        "sys.addaudithook(lambda event, args: events.append([event, str(args[0])])"
        " if event in ('subprocess.Popen', 'os.mkdir', 'os.posix_spawn', 'os.fork') else None)\n"
        + code
        + "\nprint(json.dumps({'result': result, 'events': events}))\n"
    )
    env = dict(os.environ, XDG_CACHE_HOME=str(cache), PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    report = json.loads(done.stdout.strip().splitlines()[-1])
    report["events"] = [
        (event, arg) for event, arg in report["events"]
        if event != "os.mkdir" or arg.startswith(str(cache))
    ]
    return report


def test_importing_the_cli_builds_nothing(tmp_path):
    cache = tmp_path / "cache"
    report = run_child("import hazlasso, hazlasso.cli\nresult = None", cache)
    assert report["events"] == []
    assert not cache.exists()


@pytest.mark.skipif(NO_CC, reason="no C compiler (cc) on PATH")
def test_a_second_process_reuses_the_cached_object(plain_csv, tmp_path):
    cache = tmp_path / "cache"
    code = (
        "from hazlasso import _plaincsv, load_dictionary\n"
        f"values = load_dictionary({str(plain_csv)!r}).values.tolist()\n"
        "target = _plaincsv.object_path()\n"
        "result = [values, _plaincsv.library() is not None, str(target), target.stat().st_mtime_ns]\n"
    )
    first = run_child(code, cache)
    values, loaded, target, mtime = first["result"]
    assert values == WANT and loaded
    assert ("subprocess.Popen", "cc") in [tuple(e) for e in first["events"]]
    assert (Path(target).parent.stat().st_mode & 0o777) == 0o700
    second = run_child(code, cache)
    assert second["result"] == [values, True, target, mtime]
    assert second["events"] == []
    assert [p.name for p in Path(target).parent.iterdir()] == [Path(target).name]


@pytest.mark.skipif(NO_CC, reason="no C compiler (cc) on PATH")
def test_the_reader_compiles_cleanly_as_c11(tmp_path):
    source = tmp_path / "plaincsv.c"
    source.write_text(_plaincsv.generated_source(), encoding="ascii")
    done = subprocess.run(
        ["cc", "-std=c11", "-Wall", "-Wextra", "-Werror", "-O2", "-shared", "-fPIC",
         "-o", str(tmp_path / "plaincsv.so"), str(source)],
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr


def test_the_power_table_holds_five_to_the_q():
    """Rows -342, -1, 0 and 308 of the table, against the constants of the
    fast_float library that the algorithm's proof is made for."""
    rows = _plaincsv.powers_table().splitlines()
    assert len(rows) == _plaincsv.LARGEST_POWER - _plaincsv.SMALLEST_POWER + 1 == 651
    assert "0xeef453d6923bd65a), UINT64_C(0x113faa2906a13b3f" in rows[0]
    assert "0xcccccccccccccccc), UINT64_C(0xcccccccccccccccd" in rows[341]
    assert "0x8000000000000000), UINT64_C(0x0000000000000000" in rows[342]
    assert "0x8e679c2f5e44ff8f), UINT64_C(0x570f09eaa7ea7648" in rows[-1]
    assert len(set(rows)) == len(rows)
