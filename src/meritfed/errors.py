"""Exception taxonomy shared across the package, and the one check of a spec's fields."""

import contextlib
import dataclasses
import functools
import math
import numbers
import typing
from typing import Annotated, Literal, Optional, Union


class MeritFedError(Exception):
    """Base class for all package errors."""


class NumericInputError(MeritFedError):
    """An input vector contains NaN or infinite entries."""


class ConfigError(MeritFedError):
    """A run configuration is malformed or inconsistent."""


# The bounds an Annotated[T, bound] hint can name.
BOUNDS = {
    "positive": lambda value: value > 0,
    ">= 0": lambda value: value >= 0,
    ">= 1": lambda value: value >= 1,
    "in (0, 1]": lambda value: 0 < value <= 1,
    # A round index is one 32-bit word of its streams' entropy.
    "in [1, 2**32)": lambda value: 1 <= value < 2**32,
}
PositiveFloat = Annotated[float, "positive"]
Count = Annotated[int, ">= 0"]
PositiveInt = Annotated[int, ">= 1"]
RoundCount = Annotated[int, "in [1, 2**32)"]


@functools.cache
def _init_hints(cls: type) -> tuple[tuple[str, object], ...]:
    """Each init field of dataclass cls with its type hint, evaluated once per class."""
    hints = typing.get_type_hints(cls, include_extras=True)
    return tuple((f.name, hints[f.name]) for f in dataclasses.fields(cls) if f.init)


def check_fields(obj, prefix: Optional[str] = None) -> None:
    """Raise ConfigError unless every init field of dataclass obj matches its type hint.

    int: an integer, numpy's too, not a bool; float: finite, an int too;
    Literal: one of its values; Annotated[T, bound]: a T within BOUNDS[bound];
    tuple[...] (that length), tuple[T, ...] and list[T]: each member matches
    its hint;
    Optional[T]: None or a T; any other class: isinstance, and a dataclass is
    checked in turn. A message names a field as prefix + name, by default
    `label: ` for a rule, else `ClassName.`.
    """
    if prefix is None:
        label = getattr(obj, "label", None)
        prefix = f"{label}: " if isinstance(label, str) else f"{type(obj).__name__}."
    for name, hint in _init_hints(type(obj)):
        _check(getattr(obj, name), hint, prefix + name)


def _check(value, hint, where: str) -> None:
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is Union:  # Optional[T]
        return None if value is None else _check(value, args[0], where)
    if origin is Annotated:
        _check(value, args[0], where)
        ok, expected = BOUNDS[args[1]](value), args[1]
    elif origin is Literal:
        ok = any(type(value) is type(choice) and value == choice for choice in args)
        expected = "one of " + ", ".join(map(repr, args))
    elif origin in (tuple, list):
        variadic = origin is list or args[-1] is Ellipsis
        ok = isinstance(value, origin) and (variadic or len(value) == len(args))
        expected = f"a {origin.__name__} of {args[0].__name__}" if variadic else f"a tuple of {len(args)} values"
    elif hint is int:
        ok, expected = isinstance(value, numbers.Integral) and not isinstance(value, bool), "an integer"
    elif hint is float:
        ok, expected = False, "a finite number"
        with contextlib.suppress(OverflowError):  # an int beyond the float range stays not ok
            ok = isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
    else:
        ok, expected = isinstance(value, hint), f"of type {hint.__name__}"
        if ok and dataclasses.is_dataclass(value):
            check_fields(value)
    if not ok:
        raise ConfigError(f"{where} must be {expected}, got {value!r}")
    if origin in (tuple, list):
        for index, member in enumerate(value):
            _check(member, args[0] if variadic else args[index], f"{where}[{index}]")
