"""The one writer of every file pvfdi emits: a call's files are written whole or not at all."""

from pathlib import Path

from .errors import IoError

__all__ = ["write_files"]


def write_files(files) -> list:
    """Write each (path, text) pair in order, making missing directories; return the paths.

    A text is a string or an iterable of strings, written as UTF-8 as is.
    When a file cannot be written, IoError names it, and every file this
    call opened, a partly written one included, is removed first.
    """
    written = []
    try:
        for path, text in files:
            path = Path(path)
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                with open(path, "w", encoding="utf-8", newline="") as fh:
                    written.append(path)
                    fh.writelines([text] if isinstance(text, str) else text)
            except OSError as exc:
                raise IoError(f"cannot write {path}: {exc}") from None
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    return written
