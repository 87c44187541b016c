"""Declared ranges of the config dataclasses' numeric fields, and one walker
that checks every config value's type, range and finiteness.

A field declares its range beside its default, for example ``n_ticks: int =
bounded(10, ge=1)``; ``bounded(50.0)`` takes any finite value. The range sits
in field metadata, which ``dataclasses.asdict`` ignores. A value's type must
fit the default's: a float field takes an int or a float, only a bool field
takes a bool, and any other field takes only its default's type.
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
    """(name, rule) per field of ``cls``: None for a field that holds a
    dataclass, which the walk enters, else (the default's type name, the
    types a value may take, whether it is a bool, the declared range)."""
    table = []
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(f.default_factory):
            table.append((f.name, None))
            continue
        default = f.default if f.default_factory is dataclasses.MISSING \
            else f.default_factory()
        allowed = (int, float) if isinstance(default, float) else type(default)
        table.append((f.name, (type(default).__name__, allowed,
                               isinstance(default, bool), f.metadata.get("bounds", ()))))
    return tuple(table)


def check_bounds(obj, prefix: str = "") -> None:
    """Raise ``ValueError`` at the first bad value in the dataclass tree under
    ``obj``, named by ``prefix`` and its dotted key: ``"<key> expects int, got
    bool True"``, ``"<key> must be >= 1"`` or ``"<key> must be finite"``. The
    range is checked first, so a NaN, or an infinity past a declared bound,
    is reported as out of range."""
    for name, rule in _table(type(obj)):
        value = getattr(obj, name)
        if rule is None:
            check_bounds(value, f"{prefix}{name}.")
            continue
        type_name, allowed, is_bool, checks = rule
        if isinstance(value, bool) != is_bool or not isinstance(value, allowed):
            raise ValueError(f"{prefix}{name} expects {type_name}, "
                             f"got {type(value).__name__} {value!r}")
        for op, symbol, bound in checks:
            if not op(value, bound):
                raise ValueError(f"{prefix}{name} must be {symbol} {bound}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{prefix}{name} must be finite")
