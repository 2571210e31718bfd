"""The one reader of the ``REPRO_*`` environment.

Every ``REPRO_*`` variable is read here, at call time (tests and
scripts set them per run), under one rule:

* every value is stripped; spellings and choices compare
  case-insensitively;
* a **directory** variable (``REPRO_TRACE_CACHE``,
  ``REPRO_RESULT_STORE``) unset gives the caller's default, an off
  spelling disables, an on spelling is an error (it names no
  directory), and anything else is a path;
* a **flag** (``REPRO_TRACE_STRICT``) unset or off is false, on is
  true, anything else is an error;
* any **other** variable reads blank as unset and hands its text to a
  parser, whose ``ValueError`` becomes an :class:`EnvError` naming the
  variable.

Off spellings are :data:`OFF`, on spellings :data:`ON`.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable, TypeVar

T = TypeVar("T")

#: Spellings that turn a directory or flag off.
OFF = frozenset({"", "0", "off", "none", "disabled", "false", "no"})

#: Spellings that turn a flag on (and that a directory variable refuses).
ON = frozenset({"1", "on", "true", "yes"})


class EnvError(ValueError):
    """A ``REPRO_*`` value (or a directory option, under the same rule)
    that does not parse.  Its one message reads ``NAME='value':
    problem``, so it pickles back from pool workers."""


def _error(name: str, raw: str, problem: str) -> EnvError:
    return EnvError(f"{name}={raw!r}: {problem}")


def is_off(text: str) -> bool:
    """Whether ``text`` is an off spelling."""
    return text.strip().lower() in OFF


def directory(name: str, default: Path | None) -> Path | None:
    """A directory variable: ``default`` when unset, ``None`` when off."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    return path_or_off(name, raw)


def path_or_off(name: str, raw: str) -> Path | None:
    """A directory setting's text under the directory rule: ``None``
    for an off spelling, an :class:`EnvError` naming ``name`` for an on
    spelling, else the path.  Also the rule of a directory option such
    as ``repro serve --store``."""
    if is_off(raw):
        return None
    if raw.strip().lower() in ON:
        raise _error(name, raw, "names no directory (give a path, or off)")
    return Path(raw.strip()).expanduser()


def flag(name: str) -> bool:
    """A flag variable: off when unset."""
    raw = os.environ.get(name, "")
    spelling = raw.strip().lower()
    if spelling in ON:
        return True
    if spelling in OFF:
        return False
    raise _error(name, raw, "expected 1/on/true/yes or 0/off/false/no")


def value(name: str, parse: Callable[[str], T]) -> T | None:
    """Any other variable: ``None`` when unset or blank, else
    ``parse(stripped text)``."""
    raw = os.environ.get(name, "")
    if not raw.strip():
        return None
    try:
        return parse(raw.strip())
    except ValueError as problem:
        raise _error(name, raw, str(problem)) from None


def cache_home(name: str) -> Path:
    """``$XDG_CACHE_HOME/repro/<name>``, else ``~/.cache/repro/<name>``."""
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro" / name
