"""Parameters declared once, as dataclass fields made by `param`.

The annotation gives the type, the default the default, and the keywords the
bounds ("min", "exmin", "max", "exmax") and "choices". `check` enforces them
on an instance, along with rules for every field: a float, an element of a
float array, or a field annotated `float` or `int` is a number (`is_number`,
the rule of every number in a config); a field annotated `int` holds an
integer, not a bool, and one annotated `bool` a bool. A number in a field
annotated `float` is stored as a float. An array parameter is
converted by `float_array`, which rejects a bool, a str or a None inside it.
Config derives validation and `emt-lab schema` from the fields.
"""

from __future__ import annotations

import copy
import numbers
import sys
from dataclasses import MISSING, field, fields
from itertools import chain

import numpy as np

from .errors import DomainError, InputError

_BOUNDS = (
    ("min", ">=", lambda v, b: v >= b),
    ("exmin", ">", lambda v, b: v > b),
    ("max", "<=", lambda v, b: v <= b),
    ("exmax", "<", lambda v, b: v < b),
)

_TYPES = {"float": "number", "int": "integer", "str": "string", "bool": "boolean",
          "dict": "object", "list": "array", "tuple": "array", "np.ndarray": "array"}


def param(default=MISSING, **bounds):
    """A parameter field with optional default, bounds and choices."""
    meta = {"param": bounds}
    if isinstance(default, (list, dict)):
        return field(default_factory=lambda: copy.deepcopy(default), metadata=meta)
    return field(default=default, metadata=meta)


def is_number(value) -> bool:
    """A real number finite as a float: not a bool, NaN or an infinity, and no
    integer too large to convert."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def check_number(name: str, value) -> None:
    """Raise unless `value` is a number (`is_number`)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InputError(f"{name}: expected number, got {value!r}")
    if not is_number(value):
        raise DomainError(f"{name}: must be finite, got {value}")


def float_array(name: str, values) -> np.ndarray:
    """`values` as a float array, converted as np.asarray(values, dtype=float)
    would, except that an element of a nested list must be a number: a bool,
    which np.asarray would read as 0.0 or 1.0, a str, which it would parse,
    or a None is an InputError.

    One walk down the nesting levels, each flattened by C-level calls, reads
    the shape and the set of leaf types. Rectangular lists of exactly `int`
    and `float` leaves are built from the flat leaves; anything else (ragged
    or mixed nesting, numpy scalars, an ndarray argument) goes to np.asarray.
    """
    level, types, shape = [values], {type(values)}, []
    while types == {list}:
        lengths = set(map(len, level))
        shape.append(lengths.pop() if len(lengths) == 1 else None)
        level = list(chain.from_iterable(level))
        types = set(map(type, level))
    if types <= {int, float} and None not in shape:
        return np.array(level, dtype=float).reshape(shape)
    if bool in types:
        raise InputError(f"{name}: every element must be a number, not a bool")
    odd = types & {str, type(None)}
    if odd:
        example = next(v for v in level if type(v) in odd)
        raise InputError(f"{name}: every element must be a number, got {example!r}")
    return np.asarray(values, dtype=float)


def bound_problems(name: str, bounds: dict, value) -> list:
    """One message per bound or choice of `bounds` that `value` breaks."""
    out = []
    if "choices" in bounds and value not in bounds["choices"]:
        out.append(f"{name}: must be one of {list(bounds['choices'])}, got {value!r}")
    for key, op, holds in _BOUNDS:
        if key in bounds and not holds(value, bounds[key]):
            out.append(f"{name}: must be {op} {bounds[key]}, got {value}")
    return out


def check(obj) -> None:
    """Raise if an init field of `obj` annotated `float` or `int`, or holding
    a float, is no number, one annotated `int` no integer, one annotated
    `bool` no bool, or a parameter field breaks its bounds or choices. A
    number in a field annotated `float` is stored as a float, so an int given
    for it computes and is written as its float would be."""
    for f in fields(obj):
        if not f.init:
            continue
        value = getattr(obj, f.name)
        if f.type == "int" and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
            raise InputError(f"{f.name}: expected integer, got {value!r}")
        if f.type == "bool" and not isinstance(value, (bool, np.bool_)):
            raise InputError(f"{f.name}: expected boolean, got {value!r}")
        if f.type in ("float", "int") or isinstance(value, float):
            check_number(f.name, value)
        if f.type == "float" and type(value) is not float:
            object.__setattr__(obj, f.name, float(value))
        if isinstance(value, np.ndarray) and value.dtype.kind == "f" and not np.isfinite(value).all():
            raise DomainError(f"{f.name}: every element must be finite")
        bounds = f.metadata.get("param")
        if bounds is not None:
            problems = bound_problems(f.name, bounds, value)
            if problems:
                error = InputError if "choices" in bounds else DomainError
                raise error("; ".join(problems))


class Params:
    """Base of dataclasses with parameter fields: they are checked when built."""

    def __post_init__(self):
        check(self)


def schema(cls) -> dict:
    """Type, default, bounds and choices of every parameter field of `cls`."""
    out = {}
    for f in fields(cls):
        if "param" in f.metadata:
            default = f.default if f.default_factory is MISSING else f.default_factory()
            kind = _TYPES[f.type.split(" |")[0]]
            out[f.name] = {"type": kind, "default": default, **f.metadata["param"]}
    return out
