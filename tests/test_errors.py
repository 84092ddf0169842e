"""Reading text input files: line numbers, line ends and undecodable bytes."""

import pytest

from triplescore.errors import MalformedLineError, text_lines


@pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"])
def test_lines_end_where_the_loaders_end_them(tmp_path, end):
    path = tmp_path / "lines.txt"
    path.write_bytes(b"\xef\xbb\xbfone" + end + b"two\x0cstill two" + end + b"three")
    assert [(n, line.rstrip("\n")) for n, line in text_lines(path)] == [
        (1, "one"), (2, "two\x0cstill two"), (3, "three")]


@pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"])
@pytest.mark.parametrize("bad_line", [1, 3, 4000])
def test_undecodable_bytes_name_their_line(tmp_path, end, bad_line):
    """The decoder reads thousands of lines ahead of the one it yields, and
    the error still names the line that holds the bad byte."""
    lines = [f"café {i}".encode() for i in range(1, 5001)]
    lines[bad_line - 1] = b"caf\xe9 " + str(bad_line).encode()
    path = tmp_path / "bad.txt"
    path.write_bytes(end.join(lines) + end)
    read = []
    with pytest.raises(MalformedLineError) as err:
        for line_no, _ in text_lines(path):
            read.append(line_no)
    assert str(err.value) == f"{path}:{bad_line}: not valid UTF-8"
    assert (err.value.path, err.value.line_no) == (path, bad_line)
    assert read == list(range(1, len(read) + 1)) and len(read) < bad_line


def test_a_sequence_cut_short_by_the_end_of_the_file_names_the_last_line(tmp_path):
    path = tmp_path / "cut.txt"
    path.write_bytes(b"one\ntwo\nthree \xc3")
    with pytest.raises(MalformedLineError, match=r":3: not valid UTF-8$"):
        list(text_lines(path))
