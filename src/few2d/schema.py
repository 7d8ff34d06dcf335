"""JSON block types, the one vocabulary of ``cli.SCHEMA``, the potential
families and the reduced problem.  Each type's ``parse(value, where)``
returns the value or raises :class:`ConfigError` naming the key path
``where``; values are quoted through ``reprlib.repr``, so a huge one cannot
flood the error line."""

from __future__ import annotations

import math
import reprlib
import sys
from typing import Callable, NamedTuple

from .errors import ConfigError, Few2DError

REQUIRED = object()    # default of a key the config must give


class Num(NamedTuple):
    """A finite number >= lo, or > lo if ``strict``, and <= hi; with
    ``integer`` an integer, which an integral JSON float such as 20.0 also is."""

    integer: bool
    lo: float
    strict: bool = False
    hi: float = math.inf

    def parse(self, value, where: str):
        # an integer beyond the double range compares, exactly, above the largest double
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not abs(value) <= sys.float_info.max):
            raise ConfigError(f"{where} must be a finite number, got {reprlib.repr(value)}")
        number = float(value)
        if self.integer and not number.is_integer():
            raise ConfigError(f"{where} must be an integer, got {reprlib.repr(value)}")
        if number < self.lo or self.strict and number == self.lo:
            raise ConfigError(f"{where} must be {'>' if self.strict else '>='} "
                              f"{self.lo:g}, got {reprlib.repr(value)}")
        if number > self.hi:
            raise ConfigError(f"{where} must be <= {self.hi:g}, got {reprlib.repr(value)}")
        return int(value) if self.integer else number


REAL, POSITIVE = Num(False, -math.inf), Num(False, 0.0, strict=True)


class Bool(NamedTuple):
    """JSON true or false."""

    def parse(self, value, where: str) -> bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{where} must be true or false, got {reprlib.repr(value)}")
        return value


class Choice(NamedTuple):
    """One of ``options``; no options admit any non-empty string."""

    options: tuple[str, ...] = ()

    def parse(self, value, where: str) -> str:
        if not isinstance(value, str) or not value or self.options and value not in self.options:
            want = f"one of {list(self.options)}" if self.options else "a non-empty string"
            raise ConfigError(f"{where} must be {want}, got {reprlib.repr(value)}")
        return value


class List(NamedTuple):
    """A non-empty list of items, of exactly ``length`` items if given."""

    item: object
    length: int | None = None

    def parse(self, value, where: str) -> list:
        if not isinstance(value, list) or not value or self.length not in (None, len(value)):
            want = f"a list of {self.length} items" if self.length else "a non-empty list"
            raise ConfigError(f"{where} must be {want}, got {reprlib.repr(value)}")
        return [self.item.parse(item, f"{where}[{i}]") for i, item in enumerate(value)]


class Parsed(NamedTuple):
    """A value one of the library's readers decodes; its errors are config
    errors under ``where``, which a reader's ConfigError may name already."""

    reader: Callable

    def parse(self, value, where: str):
        try:
            return self.reader(value)
        except (ValueError, TypeError, KeyError, OSError, Few2DError) as exc:
            if not isinstance(exc, ConfigError):
                raise ConfigError(f"invalid {where}: {exc}") from exc
            if where not in str(exc):     # a path inside the value, as ttw.k of system
                raise ConfigError(f"{where}: {exc}") from exc
            raise


def _json_object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object, got {reprlib.repr(value)}")
    return value


class Block(NamedTuple):
    """A JSON object, key -> (type, default); unknown keys are rejected, and
    null stands for an absent key whose default is null."""

    keys: dict

    def parse(self, value, where: str) -> dict:
        name = where or "config"
        unknown = set(_json_object(value, name)) - set(self.keys)
        if unknown:
            raise ConfigError(f"unknown keys in {name}: {reprlib.repr(sorted(unknown))}")
        out = {}
        for key, (kind, default) in self.keys.items():
            raw = value.get(key, default)
            if raw is REQUIRED:
                raise ConfigError(f"{name} needs {'an' if key[0] in 'aeiou' else 'a'} {key!r} key")
            out[key] = None if raw is None and default is None else kind.parse(
                raw, f"{where}.{key}" if where else key)
        return out


class Tagged(NamedTuple):
    """A JSON object whose ``tag`` key names, in ``readers``, the reader of
    its other keys; parses to what that reader returns."""

    tag: str
    readers: dict

    def parse(self, value, where: str):
        head = Block({self.tag: (Choice(tuple(self.readers)), REQUIRED)}).parse(
            {self.tag: _json_object(value, where).get(self.tag, REQUIRED)}, where)
        return self.readers[head[self.tag]]({k: v for k, v in value.items() if k != self.tag})
