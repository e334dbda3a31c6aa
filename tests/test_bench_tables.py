"""The paper-table check: fresh experiment tables against the record."""

import pytest

from repro.analysis.tabulate import format_table
from scripts import check_bench_tables


def t13_like(wall="5.1 s"):
    return format_table(
        ["modality", "analysis units", "wall-clock", "note"],
        [["faultprobe", 900, wall, "a"], ["explframe", 8960, "5.0 s", "b"]],
        title="T13: units and host time",
    )


T13_LIKE = t13_like()
NOTE = "a line of text under the table"


@pytest.fixture
def tables(tmp_path, monkeypatch):
    """Write (record, fresh) texts for one table; returns the writer."""
    monkeypatch.setattr(check_bench_tables, "RECORD", tmp_path)
    monkeypatch.setattr(check_bench_tables, "LATEST", tmp_path / "latest")
    monkeypatch.setattr(check_bench_tables, "REPO", tmp_path)
    monkeypatch.setattr(check_bench_tables, "HOST_TIME_COLUMNS", {"t": ("wall-clock",)})
    (tmp_path / "latest").mkdir()

    def write(record, fresh):
        stamp = "# experiment t — written {}\n\n"
        (tmp_path / "t.txt").write_text(stamp.format("then") + record)
        (tmp_path / "latest" / "t.txt").write_text(stamp.format("now") + fresh)

    return write


def test_record_tables_parse_and_match_themselves(monkeypatch):
    # Every checked-in table parses, and every named host-time column
    # exists in its table.
    monkeypatch.setattr(check_bench_tables, "LATEST", check_bench_tables.RECORD)
    names = [path.stem for path in check_bench_tables.RECORD.glob("*.txt")]
    assert "t13_faultprobe" in names
    assert set(check_bench_tables.HOST_TIME_COLUMNS) <= set(names)
    assert check_bench_tables.main(names) == 0


def test_equal_tables_pass(tables):
    tables(T13_LIKE + "\n" + NOTE, T13_LIKE + "\n" + NOTE)
    assert check_bench_tables.main(["t"]) == 0


def test_host_time_cell_is_skipped(tables):
    # A wider host-time cell re-pads the table; the cells after it still match.
    fresh = t13_like("12345.678 s")
    assert fresh.splitlines()[2] != T13_LIKE.splitlines()[2]
    tables(T13_LIKE, fresh)
    assert check_bench_tables.main(["t"]) == 0


@pytest.mark.parametrize(
    "old, new, problem",
    [
        ("8960", "8961", "column 'analysis units': '8961', record '8960'"),
        ("explframe", "explframe!", "column 'modality'"),
        (NOTE, "another line", "column 'text'"),
    ],
)
def test_deterministic_change_fails(tables, capsys, old, new, problem):
    record = T13_LIKE + "\n" + NOTE
    tables(record, record.replace(old, new))
    assert check_bench_tables.main(["t"]) == 1
    assert problem in capsys.readouterr().out


def test_missing_row_fails(tables, capsys):
    tables(T13_LIKE, T13_LIKE.rsplit("\n", 1)[0])
    assert check_bench_tables.main(["t"]) == 1
    assert "lines, the record has" in capsys.readouterr().out


def test_missing_fresh_table_fails(tables, tmp_path, capsys):
    tables(T13_LIKE, T13_LIKE)
    (tmp_path / "latest" / "t.txt").unlink()
    assert check_bench_tables.main(["t"]) == 1
    assert "is missing" in capsys.readouterr().out


def test_stale_host_time_column_fails(tables, monkeypatch, capsys):
    monkeypatch.setitem(check_bench_tables.HOST_TIME_COLUMNS, "t", ("elapsed",))
    tables(T13_LIKE, T13_LIKE)
    assert check_bench_tables.main(["t"]) == 1
    assert "host-time column 'elapsed' is in no table" in capsys.readouterr().out
