"""Dataclass <-> dict codec: the only dict -> config constructor.

A checkpoint must be restorable from the directory alone, so the
manifest embeds the *complete* run configuration — the serve, chaos or
fleet config and the batch service model — and a snapshot embeds the
fault and fleet report sections.  One typed codec writes and reads all
of them, so the on-disk format is the dataclasses' own field lists:

* :func:`encode` turns a dataclass into a dict of its fields, an
  ``Enum`` into its value and a tuple or list into a list;
* :func:`decode` rebuilds a dataclass from its field types — nested
  dataclasses, ``X | None``, ``tuple[X, ...]``, fixed tuples,
  ``list[...]``, ``dict[str, X]`` and enums — and re-runs every
  dataclass validator.  A ``float`` field accepts an int or a float and
  stores a float; an ``int`` field accepts only a non-bool int; ``bool``
  and ``str`` fields accept only their own type.  A refused value is a
  :class:`TypeError` that names the field.

:func:`decode` takes a partial dict: an omitted key gets its dataclass
default (so a manifest written before a field existed restores to the
default it ran with) and an unknown key is a :class:`TypeError`.  The
same decoder builds a run's config from campaign params and CLI flags
(see :mod:`repro.recover.kinds`).

The experiment-campaign layer (``repro.exp``) reuses this codec as its
config canonicalizer: a run's identity is the
:func:`~repro.recover.codec.config_hash` of the *fully resolved* config
dict :func:`encode` emits, so defaults, dict ordering, and int or float
spellings of a float param all collapse to one hash.
"""

from __future__ import annotations

import enum
import re
import types
import typing
from dataclasses import fields, is_dataclass
from functools import cache


def encode(obj):
    """The JSON-safe form of a dataclass (or of any value inside one)."""
    if is_dataclass(obj):
        return {f.name: encode(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, (tuple, list)):
        return [encode(item) for item in obj]
    if isinstance(obj, dict):
        return {key: encode(value) for key, value in obj.items()}
    return obj


def decode(cls, state: dict):
    """Build dataclass ``cls`` from a possibly partial :func:`encode` dict."""
    return _decode_dataclass(cls, state, "")


@cache
def _hints(cls) -> dict:
    return typing.get_type_hints(cls)


def _decode_dataclass(cls, state, path: str):
    if not isinstance(state, dict):
        raise TypeError(f"{path or cls.__name__} must be dict, got {state!r}")
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(state) - known)
    if unknown:
        label = " ".join(
            word.lower()
            for word in re.findall(r"[A-Z][a-z]*", cls.__name__)
            if word != "Config"
        )
        raise TypeError(
            f"unknown {label} params: {unknown} (known: {sorted(known)})"
        )
    hints, prefix = _hints(cls), f"{path}." if path else ""
    return cls(
        **{
            name: _decode(hints[name], value, prefix + name)
            for name, value in state.items()
        }
    )


def _decode(hint, value, path: str):
    """``value`` read back as type ``hint``; ``path`` names the field."""
    if is_dataclass(hint):
        return _decode_dataclass(hint, value, path)
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        return hint(value)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        (inner,) = [arg for arg in args if arg is not type(None)]
        return _decode(inner, value, path)
    if origin in (tuple, list):
        _check(value, (list, tuple), path, "list")
        if origin is tuple and args[-1] is not Ellipsis:
            if len(value) != len(args):
                raise TypeError(
                    f"{path} must have {len(args)} items, got {len(value)}"
                )
            return tuple(
                _decode(arg, item, f"{path}[{i}]")
                for i, (arg, item) in enumerate(zip(args, value))
            )
        items = [
            _decode(args[0], item, f"{path}[{i}]") for i, item in enumerate(value)
        ]
        return tuple(items) if origin is tuple else items
    if origin is dict:
        _check(value, dict, path, "dict")
        return {
            _decode(args[0], key, path): _decode(args[1], item, f"{path}[{key!r}]")
            for key, item in value.items()
        }
    if hint is float:
        _check(value, (int, float), path, "float")
        return float(value)
    if hint in (int, bool, str, dict):
        _check(value, hint, path, hint.__name__)
        return value
    raise TypeError(f"{path}: no codec for type {hint!r}")


def _check(value, allowed, path: str, expected: str) -> None:
    # bool is an int subclass, but a bool is never a count or a number.
    if isinstance(value, bool) != (allowed is bool) or not isinstance(value, allowed):
        raise TypeError(f"{path} must be {expected}, got {value!r}")
