"""Behaviour fingerprint and seed-independent correctness checks.

The fingerprint is a sha256 over one command's output tree: every file but
``config_used.yaml``, in path order, with the ``# config_hash=`` comment
lines removed, so that config fields which change no output do not move it.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

HASH_PREFIX = b"# config_hash="
UNHASHED = {"config_used.yaml"}


def _files(root: Path) -> list[Path]:
    return sorted(p for p in root.rglob("*") if p.is_file())


def fingerprint(root: Path) -> str:
    h = hashlib.sha256()
    for path in _files(root):
        if path.name in UNHASHED:
            continue
        lines = path.read_bytes().split(b"\n")
        body = b"\n".join(ln for ln in lines if not ln.startswith(HASH_PREFIX))
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(body + b"\0")
    return h.hexdigest()


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in _files(root))


def read_rows(path: Path) -> list[dict]:
    text = "".join(ln for ln in io.StringIO(path.read_text())
                   if not ln.startswith("#"))
    return list(csv.DictReader(io.StringIO(text)))


class Checker:
    """Collects problems found in one command's outputs."""

    def __init__(self, root: Path):
        self.root = root
        self.problems: list[str] = []

    def fail(self, message: str) -> None:
        self.problems.append(message)

    def rows(self, rel: str, n: int | None = None) -> list[dict]:
        path = self.root / rel
        if not path.is_file():
            self.fail(f"missing {rel}")
            return []
        rows = read_rows(path)
        if n is not None and len(rows) != n:
            self.fail(f"{rel}: {len(rows)} rows, expected {n}")
        return rows

    def finite(self, rel: str, rows: list[dict], columns) -> None:
        for i, row in enumerate(rows):
            for col in columns:
                try:
                    ok = math.isfinite(float(row[col]))
                except (KeyError, TypeError, ValueError):
                    ok = False
                if not ok:
                    self.fail(f"{rel} row {i}: {col}={row.get(col)!r} is not finite")
                    return

    def uncrossed(self, rel: str) -> None:
        rows = self.rows(rel)
        for row in rows:
            bid, ask = row["best_bid"], row["best_ask"]
            if bid and ask and int(bid) >= int(ask):
                self.fail(f"{rel} ts={row['ts']}: crossed book {bid} >= {ask}")
                return
        if not rows:
            self.fail(f"{rel}: no snapshots")

    def checkpoint(self, rel: str) -> dict:
        path = self.root / rel
        if not path.is_file():
            self.fail(f"missing {rel}")
            return {}
        payload = json.loads(path.read_text())
        for name, value in payload["params"].items():
            flat = value if not isinstance(value[0], list) else \
                [x for row in value for x in row]
            if not all(math.isfinite(x) for x in flat):
                self.fail(f"{rel}: parameter {name} is not finite")
        return payload.get("meta", {})

    def learning_curve(self, rel: str, episodes: int) -> None:
        rows = self.rows(rel, episodes)
        self.finite(rel, rows, ("total_reward", "rolling_mean"))
