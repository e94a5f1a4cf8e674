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
  and ``str`` fields accept only their own type.  JSON has no tuple of
  pairs, so a ``tuple[tuple[K, V], ...]`` field may also be spelled as
  an object.  A refused value is a :class:`TypeError` that names the
  field by its dotted path, and a nested dataclass validator's
  ``ValueError`` gets that path put in front of its message.

:func:`decode` takes a partial dict: an omitted key gets its dataclass
default (so a manifest written before a field existed restores to the
default it ran with), and an unknown key or an omitted field without a
default is a :class:`TypeError`.  It is the one place where a dict read
from outside the program becomes a typed value: run configs from
campaign params and CLI flags (see :mod:`repro.recover.kinds`), the
chaos scenario knobs, recover probe and paper experiment params, and
``*.slo.json`` files (:mod:`repro.obs.slo`).  Any type hint it
understands can be decoded, not only a dataclass:
``decode(int, value, "seed")`` reads one param.

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
from dataclasses import MISSING, fields, is_dataclass
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


def decode(hint, state, path: str = ""):
    """Read ``state`` back as type ``hint`` — usually a dataclass, from a
    possibly partial :func:`encode` dict; ``path`` names it in errors."""
    return _decode(hint, state, path)


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
            if word not in ("Config", "Params")
        )
        raise TypeError(
            f"unknown {label} params: {unknown} (known: {sorted(known)})"
        )
    hints, prefix = _hints(cls), f"{path}." if path else ""
    for f in fields(cls):
        if (
            f.name not in state
            and f.default is MISSING
            and f.default_factory is MISSING
        ):
            raise TypeError(f"{prefix}{f.name} is required")
    kwargs = {
        name: _decode(hints[name], value, prefix + name)
        for name, value in state.items()
    }
    try:
        return cls(**kwargs)
    except ValueError as err:
        if not path:
            raise
        # A validator cannot know where its dataclass sits in the dict.
        raise type(err)(f"{path}: {err}") from err


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
        pair = typing.get_args(args[0]) if args[-1] is Ellipsis else ()
        if origin is tuple and isinstance(value, dict) and len(pair) == 2:
            # A tuple of (key, value) pairs spelled as a JSON object.
            return tuple(_decode(dict[pair], value, path).items())
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
