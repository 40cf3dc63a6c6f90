import pytest

from pvfdi.errors import IoError
from pvfdi.files import write_files


def test_writes_each_text_as_given_and_returns_the_paths(tmp_path):
    paths = write_files([(tmp_path / "a.txt", "one\r\ntwo\n"),
                         (str(tmp_path / "sub" / "b.txt"), iter(["é", "\n"]))])
    assert paths == [tmp_path / "a.txt", tmp_path / "sub" / "b.txt"]
    assert paths[0].read_bytes() == b"one\r\ntwo\n"
    assert paths[1].read_bytes() == "é\n".encode("utf-8")


def test_a_failed_write_removes_the_files_before_it(tmp_path):
    (tmp_path / "c").mkdir()

    def files():
        yield tmp_path / "a", "first\n"
        yield tmp_path / "sub" / "b", ["second", "\n"]
        yield tmp_path / "c", "a directory stands here\n"
        yield tmp_path / "d", "never reached\n"

    with pytest.raises(IoError, match="cannot write") as failure:
        write_files(files())
    assert str(tmp_path / "c") in str(failure.value)
    # the directories stay: the one that blocked and the one the call made
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == ["c", "sub"]


def test_a_text_that_raises_removes_its_partly_written_file(tmp_path):
    def lines():
        yield "written\n"
        raise ValueError("no more text")

    with pytest.raises(ValueError, match="no more text"):
        write_files([(tmp_path / "a", "first\n"), (tmp_path / "b", lines())])
    assert list(tmp_path.iterdir()) == []
