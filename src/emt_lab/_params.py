"""Parameters declared once, as dataclass fields made by `param`, and the one
rule set for their values.

The annotation gives the type, the default the default, and the keywords the
bounds ("min", "exmin", "max", "exmax") and "choices". `field_error` is the
rule for one value: the annotation's type (`_TYPES`), finite if a number,
then the choices and bounds. `check` applies it to each field of a built
instance, and `read_block` to each value of a JSON object along with its
unknown and missing keys; `build` reads one into its class. `check` stores
a number in a field annotated `float` as a float, and an array in one
annotated `np.ndarray` as a float array of finite elements (`float_array`)
with as many dimensions as its default.
"""

from __future__ import annotations

import copy
import difflib
import math
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

_ARRAY = ("array", lambda v: isinstance(v, (list, tuple, np.ndarray)))
# Each annotation (its first part, before " |"): its schema name and its test.
_TYPES = {
    "float": ("number", lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool)),
    "int": ("integer", lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool)),
    "bool": ("boolean", lambda v: isinstance(v, (bool, np.bool_))),
    "str": ("string", lambda v: isinstance(v, str)),
    "dict": ("object", lambda v: isinstance(v, dict)),
    "list": _ARRAY, "tuple": _ARRAY, "np.ndarray": _ARRAY,
}


def param(default=MISSING, **bounds):
    """A parameter field with optional default, bounds and choices."""
    meta = {"param": bounds}
    if isinstance(default, (list, dict)):
        return field(default_factory=lambda: copy.deepcopy(default), metadata=meta)
    return field(default=default, metadata=meta)


def _type_error(name: str, annotation: str, value):
    """The error of `value` against the type `annotation`, or None: a failed
    test, or a number that is NaN, an infinity or too large for a float. A
    rational number (an int, a Fraction) is compared with the largest float
    exactly; any other is tested as its float, since comparing a numpy
    float32 with that bound would cast the bound to float32, which overflows."""
    kind, test = _TYPES[annotation]
    if not test(value):
        return InputError(f"{name}: expected {kind}, got {value!r}")
    if kind in ("number", "integer") and not (
            abs(value) <= sys.float_info.max if isinstance(value, numbers.Rational)
            else math.isfinite(value)):
        return DomainError(f"{name}: must be finite, got {value}")
    return None


def float_array(name: str, values) -> np.ndarray:
    """`values` as a float array, converted as np.asarray(values, dtype=float)
    would, except that an element of a nested list must be a number: a bool,
    which np.asarray would read as 0.0 or 1.0, a str, which it would parse,
    or a None is an InputError, and an int too large for a float a DomainError.

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
    if bool in types:
        raise InputError(f"{name}: every element must be a number, not a bool")
    odd = types & {str, type(None)}
    if odd:
        example = next(v for v in level if type(v) in odd)
        raise InputError(f"{name}: every element must be a number, got {example!r}")
    try:
        if types <= {int, float} and None not in shape:
            return np.array(level, dtype=float).reshape(shape)
        return np.asarray(values, dtype=float)
    except OverflowError:  # an int too large for a float
        raise DomainError(f"{name}: every element must be finite") from None


def field_error(f, value, name: str):
    """The error of `value` for the parameter field `f`, reported as `name`,
    or None. None passes where it is the default and a callable where the
    annotation allows one; any other value must pass `_type_error`, then the
    field's choices and bounds."""
    if value is None and f.default is None or "Callable" in f.type and callable(value):
        return None
    if error := _type_error(name, f.type.split(" |")[0], value):
        return error
    bounds = f.metadata["param"]
    if "choices" in bounds and value not in bounds["choices"]:
        return InputError(f"{name}: must be one of {list(bounds['choices'])}, got {value!r}")
    for key, op, holds in _BOUNDS:
        if key in bounds and not holds(value, bounds[key]):
            return DomainError(f"{name}: must be {op} {bounds[key]}, got {value}")
    return None


def check(obj) -> None:
    """Raise the first error `field_error` finds in a parameter field of `obj`,
    and store its value as the module docstring says: an int given for a
    float computes and is written as its float would be."""
    for f in param_fields(obj).values():
        value = getattr(obj, f.name)
        if error := field_error(f, value, f.name):
            raise error
        if f.type == "np.ndarray":
            value = float_array(f.name, value)
            if value.ndim != (ndim := np.ndim(f.default_factory())):
                raise InputError(f"{f.name}: must be {ndim}-D, got {value.ndim}-D")
            if not np.isfinite(value).all():
                raise DomainError(f"{f.name}: every element must be finite")
        object.__setattr__(obj, f.name, float(value) if f.type == "float" else value)


def param_fields(cls) -> dict:
    """The parameter fields of `cls` by name."""
    return {f.name: f for f in fields(cls) if "param" in f.metadata}


def read_block(fields_by_key: dict, block, prefix: str = "") -> tuple:
    """(values, errors) of the JSON object `block` read into `fields_by_key`:
    its values and the defaults of the keys it leaves out (MISSING if none),
    and an error, its message starting with `prefix`, for each unknown key
    (naming the closest known one), missing key and value `field_error`
    rejects, or for a `block` that is no object."""
    if not isinstance(block, dict):
        return {}, [_type_error(prefix.rstrip("."), "dict", block)]
    values, errors = {}, []
    for key, value in block.items():
        f = fields_by_key.get(key)
        if f is None:
            hint = difflib.get_close_matches(str(key), fields_by_key, n=1)
            suggestion = f"; did you mean {hint[0]!r}?" if hint else ""
            errors.append(InputError(f"{prefix}unknown key {key!r}{suggestion}"))
        else:
            errors.append(field_error(f, value, prefix + key))
            values[key] = value
    for key, f in fields_by_key.items():
        if key not in values:  # a default is built only for a key the block leaves out
            values[key] = f.default if f.default_factory is MISSING else f.default_factory()
            if values[key] is MISSING:
                errors.append(InputError(f"{prefix}{key}: required"))
    return values, [error for error in errors if error]


def build(cls, block, prefix: str = ""):
    """`cls` built from the JSON object `block`; `read_block`'s errors are raised as one."""
    values, errors = read_block(param_fields(cls), block, prefix)
    if errors:
        raise type(errors[0])("; ".join(map(str, errors)))
    return cls(**values)


class Params:
    """Base of dataclasses with parameter fields: they are checked when built."""

    def __post_init__(self):
        check(self)


def schema(cls) -> dict:
    """Type name, default (what a block without the key reads) and bounds and
    choices of every parameter field of `cls`."""
    defaults, _ = read_block(param_fields(cls), {})
    return {name: {"type": _TYPES[f.type.split(" |")[0]][0], "default": defaults[name],
                   **f.metadata["param"]} for name, f in param_fields(cls).items()}
