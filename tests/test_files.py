"""The shared table reader and the atomic writer."""

import os
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenekit.files import TableError, read_table, write_atomic


def _table(tmp_path, text):
    path = tmp_path / "table.txt"
    path.write_bytes(text.encode("utf-8", "surrogatepass"))
    return path


class TestReadTable:
    def test_skips_blank_and_comment_lines(self, tmp_path):
        path = _table(tmp_path, "# header\n\n  a 1\n   # indented comment\nb 2\n")
        assert read_table(path, (str, int)) == [["a", 1], ["b", 2]]

    def test_rest_converts_every_further_field_into_one_list(self, tmp_path):
        path = _table(tmp_path, "x 0.25 0.75\ny 1.0 0.0\n")
        assert read_table(path, (str,), float) == [["x", [0.25, 0.75]], ["y", [1.0, 0.0]]]

    @pytest.mark.parametrize("text, columns, rest, line", [
        ("a 1\nb 2 3\n", (str, int), None, 2),        # one field too many
        ("# c\na 1 2\n", (str, int), None, 2),        # fixed width, first row wrong
        ("a 0.5 0.5\n\nb 0.5\n", (str,), float, 3),   # ragged against the first row
        ("a\n", (str,), float, 1),                    # no field for rest
        ("a 1\nb one\n", (str, int), None, 2),        # conversion fails
        ("a 0.5\nb x\n", (str,), float, 2),
    ])
    def test_bad_row_names_file_and_line(self, tmp_path, text, columns, rest, line):
        path = _table(tmp_path, text)
        with pytest.raises(TableError, match=f"^{re.escape(str(path))}:{line}: "):
            read_table(path, columns, rest)

    def test_unreadable_file_is_a_table_error(self, tmp_path):
        with pytest.raises(TableError, match="missing.txt"):
            read_table(tmp_path / "missing.txt", (str, int))
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"caf\xe9 1\n")
        with pytest.raises(TableError):
            read_table(path, (str, int))

    # Any text (a lone surrogate makes the file invalid UTF-8), and text from a
    # table-like alphabet, so that some rows convert.
    @given(st.text(max_size=200) | st.text("ab019.-+eE#_ \t\n\r", max_size=200))
    @settings(max_examples=200)
    def test_arbitrary_text_gives_rows_or_table_error(self, tmp_path_factory, text):
        path = _table(tmp_path_factory.getbasetemp(), text)
        for columns, rest in (((str, int), None), ((str,), float), ((float,) * 3, None)):
            try:
                rows = read_table(path, columns, rest)
            except TableError:
                continue
            if rest is None:
                assert all(len(row) == len(columns) for row in rows)
            else:
                assert all(len(row) == len(columns) + 1 for row in rows)
                assert len({len(row[-1]) for row in rows}) <= 1
                assert all(row[-1] for row in rows)  # at least one field for rest


class TestWriteAtomic:
    def test_writes_bytes_and_text(self, tmp_path):
        write_atomic(tmp_path / "a.bin", b"\x00\xffraw")
        write_atomic(tmp_path / "b.txt", "café\n")
        assert (tmp_path / "a.bin").read_bytes() == b"\x00\xffraw"
        assert (tmp_path / "b.txt").read_bytes() == "café\n".encode("utf-8")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.bin", "b.txt"]

    def test_mode_matches_write_text(self, tmp_path):
        (tmp_path / "plain.txt").write_text("x")
        write_atomic(tmp_path / "atomic.txt", "x")
        assert ((tmp_path / "atomic.txt").stat().st_mode
                == (tmp_path / "plain.txt").stat().st_mode)

    def test_failed_replace_keeps_old_file_and_leaves_no_temporary(self, tmp_path,
                                                                   monkeypatch):
        path = tmp_path / "probs.txt"
        write_atomic(path, "old\n")

        def failing_replace(src, dst):
            raise OSError("simulated failure")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="simulated"):
            write_atomic(path, "new\n")
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["probs.txt"]
