"""Crash-safe artifact writes."""

from __future__ import annotations

import os
from pathlib import Path


def write_text_atomic(path: str | Path, text: str, *more: str) -> None:
    """Write ``text``, then each of ``more``, to a sibling temporary file, then
    rename it over ``path``. A crash mid-write leaves the old file whole."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text)
        if more:
            with tmp.open("a") as f:
                f.writelines(more)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
