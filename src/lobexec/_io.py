"""Crash-safe artifact writes."""

from __future__ import annotations

import os
from pathlib import Path


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write ``text`` to a sibling temporary file, then rename it over
    ``path``. A crash mid-write leaves the old file whole."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
