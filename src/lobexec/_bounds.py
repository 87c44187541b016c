"""Declared ranges of the config dataclasses' numeric fields, and one walker.

A field declares its range beside its default, for example ``n_ticks: int =
bounded(10, ge=1)``; ``bounded(50.0)`` takes any finite value. Every
``bounded`` field rejects a float that is infinite or NaN. The range sits in
field metadata, which ``dataclasses.asdict`` ignores.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from functools import cache

# a value passes when op(value, bound) holds, so NaN fails every bound
_OPS = {"ge": (operator.ge, ">="), "gt": (operator.gt, ">"),
        "le": (operator.le, "<="), "lt": (operator.lt, "<")}


def bounded(default, **bounds):
    """A field with ``default`` whose values must meet ``bounds``: ge, gt, le, lt."""
    checks = tuple((*_OPS[name], bound) for name, bound in bounds.items())
    return dataclasses.field(default=default, metadata={"bounds": checks})


@cache
def _table(cls) -> tuple:
    """(name, checks) per field of ``cls`` that the walk visits; ``checks`` is
    None for a field that holds a dataclass, which the walk enters."""
    table = []
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(f.default_factory):
            table.append((f.name, None))
        elif "bounds" in f.metadata:
            table.append((f.name, f.metadata["bounds"]))
    return tuple(table)


def check_bounds(obj, prefix: str = "") -> None:
    """Raise ``ValueError("<prefix><dotted key> must be >= 1")`` at the first
    value out of its declared range in the dataclass tree under ``obj``, or
    ``ValueError("<prefix><dotted key> must be finite")`` at a float that is
    not. The declared range is checked first, so a NaN in a field that
    declares one is reported as out of range."""
    for name, checks in _table(type(obj)):
        value = getattr(obj, name)
        if checks is None:
            check_bounds(value, f"{prefix}{name}.")
            continue
        for op, symbol, bound in checks:
            if not op(value, bound):
                raise ValueError(f"{prefix}{name} must be {symbol} {bound}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{prefix}{name} must be finite")
