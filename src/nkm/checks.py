"""The one refusal policy for settings, which every config and entry point
calls: a count is an integer that is not a bool, a number is a finite real
that is not a bool, and a flag is a bool; numpy scalars count. A float count
dies inside numpy and a string on the first comparison, so each check
raises ValueError naming the setting and the value instead.
"""
from __future__ import annotations

import math
import numbers


def check_int(value, name: str, lo: int | None = None) -> None:
    """Refuse `value` unless it is an integer, and >= lo where lo is given."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or (lo is not None and value < lo)):
        bound = "" if lo is None else f" >= {lo}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")


def check_number(value, name: str, lo: float | None = None,
                 hi: float | None = None, lo_open: bool = False,
                 hi_open: bool = False) -> None:
    """Refuse `value` unless it is a finite real number within the bounds
    given; an open bound excludes its end. `hi` is given only with `lo`."""
    # an int is finite however large; math.isfinite overflows past 1e308
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not (isinstance(value, numbers.Integral) or math.isfinite(value))
            or (lo is not None and (value <= lo if lo_open else value < lo))
            or (hi is not None and (value >= hi if hi_open else value > hi))):
        if hi is not None:
            need = (f"a number in {'(' if lo_open else '['}{lo}, "
                    f"{hi}{')' if hi_open else ']'}")
        elif lo is not None:
            need = f"a finite number {'>' if lo_open else '>='} {lo}"
        else:
            need = "a finite number"
        raise ValueError(f"{name} must be {need}, got {value!r}")


def check_choice(value, name: str, choices: tuple) -> None:
    """Refuse `value` unless it is one of `choices`."""
    if value not in choices:
        raise ValueError(f"{name} must be {' or '.join(map(repr, choices))}, "
                         f"got {value!r}")


def check_bool(value, name: str) -> None:
    """Refuse `value` unless it is True or False."""
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be a bool, got {value!r}")
