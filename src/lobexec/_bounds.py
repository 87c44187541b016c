"""Declared ranges of the config dataclasses' numeric fields, and one walker
that applies every config rule.

A field declares its range beside its default, as in ``n_ticks: int =
bounded(10, ge=1)``, in metadata that ``dataclasses.asdict`` ignores;
``bounded(50.0)`` takes any finite value. A value's type must fit the
default's: a float field takes an int or a float, only a bool field takes a
bool, and any other field takes only its default's type. The rules that span
a class's fields sit in its ``cross_check``, run after its fields and sections.
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
    """(name, type, range) per field of ``cls``; None types a nested dataclass."""
    fields = []
    for f in dataclasses.fields(cls):
        default = f.default_factory() if f.default is dataclasses.MISSING else f.default
        kind = None if dataclasses.is_dataclass(default) else type(default)
        fields.append((f.name, kind, f.metadata.get("bounds", ())))
    return tuple(fields)


def _check_value(prefix: str, name: str, value, kind: type, checks: tuple) -> None:
    if isinstance(value, bool) != (kind is bool) or \
            not isinstance(value, (int, float) if kind is float else kind):
        raise ValueError(f"{prefix}{name} expects {kind.__name__}, "
                         f"got {type(value).__name__} {value!r}")
    for op, symbol, bound in checks:
        if not op(value, bound):
            raise ValueError(f"{prefix}{name} must be {symbol} {bound}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{prefix}{name} must be finite")


def check_items(key: str, values: list, item: dataclasses.Field) -> None:
    """Check each ``values[i]`` as the ``bounded`` field ``item``, named ``key[i]``."""
    for i, value in enumerate(values):
        _check_value(key, f"[{i}]", value, type(item.default), item.metadata["bounds"])


def check_bounds(obj, prefix: str = "") -> None:
    """Raise ``ValueError`` at the first fault in the tree under ``obj``, walked
    depth first: each field, named by ``prefix`` and its dotted key (``"<key>
    expects int, got bool True"``, ``"<key> must be >= 1"``, or for a NaN or an
    infinity that no bound refuses ``"<key> must be finite"``), then ``cross_check``."""
    for name, kind, checks in _table(type(obj)):
        if kind is None:
            check_bounds(getattr(obj, name), f"{prefix}{name}.")
        else:
            _check_value(prefix, name, getattr(obj, name), kind, checks)
    if hasattr(obj, "cross_check"):
        obj.cross_check()
