"""Crash-safe artifact writes: every artifact is written to a sibling
``.tmp`` file and renamed over its path only once it is whole."""

from __future__ import annotations

import contextlib
import os
from pathlib import Path


@contextlib.contextmanager
def open_atomic(*paths: str | Path):
    """Open a sibling ``path.tmp`` for writing text for each of ``paths`` and
    yield the open files, in order. When the block ends, close every file and
    rename each over its path. If the block raises (``KeyboardInterrupt``
    included), close and delete every ``.tmp`` instead, so the old files stay
    whole and no ``.tmp`` is left."""
    paths = [Path(path) for path in paths]
    tmps = [path.with_name(path.name + ".tmp") for path in paths]
    files = []
    try:
        for tmp in tmps:
            files.append(tmp.open("w"))
        yield files
        for f in files:
            f.close()
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    except BaseException:
        for f in files:
            f.close()
        for tmp in tmps:
            tmp.unlink(missing_ok=True)
        raise


def write_text_atomic(path: str | Path, text: str, *more: str) -> None:
    """Write ``text``, then each of ``more``, to ``path`` through
    ``open_atomic``. A crash mid-write leaves the old file whole."""
    with open_atomic(path) as (f,):
        f.write(text)
        f.writelines(more)
