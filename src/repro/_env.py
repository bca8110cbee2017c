"""One parser for every ``REPRO_*`` environment knob.

Each knob resolves as *explicit argument > environment variable >
unset* through one of three rules, one per kind of value:

* :func:`flag` — the boolean words ``1/0``, ``true/false``, ``yes/no``
  and ``on/off`` in any case; the empty word means off;
* :func:`directory` — a path, rejected when it names an existing path
  that is not a directory;
* :func:`number` — an integer or a float inside its allowed range.

An explicit argument goes through the same rule as the variable, and a
malformed value raises :class:`~repro.errors.ConfigurationError` naming
the argument or the variable it came from.  A variable that is set but
blank is malformed, except for a flag.  :func:`number` with
``env_var=None`` validates an explicit value without reading the
environment: the batch engine's constructor checks its arguments that
way and reads the fallbacks once, at the top of each run.
``docs/engine.md`` lists every variable.
"""

from __future__ import annotations

import os
from pathlib import Path

from .errors import ConfigurationError

__all__ = ["directory", "flag", "number"]

_TRUE_WORDS = ("1", "true", "yes", "on")
_FALSE_WORDS = ("0", "false", "no", "off")


def _setting(env_var: str | None, wanted: str) -> str | None:
    """The variable's raw value (``None`` when unset); blank is malformed."""
    raw = None if env_var is None else os.environ.get(env_var)
    if raw is not None and not raw.strip():
        raise ConfigurationError(f"{env_var} must be {wanted}, got {raw!r}")
    return raw


def flag(explicit: bool | None, env_var: str) -> bool:
    """A boolean knob: explicit > ``env_var`` > off."""
    if explicit is not None:
        return bool(explicit)
    raw = os.environ.get(env_var)
    word = "" if raw is None else raw.strip().lower()
    if word in _TRUE_WORDS:
        return True
    if word in _FALSE_WORDS or word == "":
        return False
    raise ConfigurationError(
        f"{env_var} must be one of "
        f"{'/'.join(_TRUE_WORDS + _FALSE_WORDS)}, got {raw!r}")


def directory(explicit: str | os.PathLike | None, env_var: str,
              label: str) -> Path | None:
    """A directory knob: explicit > ``env_var`` > ``None``."""
    if explicit is not None:
        source, path = label, Path(os.fspath(explicit))
    else:
        raw = _setting(env_var, "a directory path")
        if raw is None:
            return None
        source, path = env_var, Path(raw)
    if path.exists() and not path.is_dir():
        raise ConfigurationError(
            f"{source} {str(path)!r} exists and is not a directory")
    return path


def number(explicit: float | None, env_var: str | None, label: str, *,
           kind: type = int, positive: bool = True,
           most: int | None = None) -> int | float | None:
    """A numeric knob: explicit > ``env_var`` > ``None``.

    ``kind`` is ``int`` or ``float``; an integer knob rejects a value
    with a fractional part rather than truncating it.  The value must
    be positive, or non-negative with ``positive=False``, and at most
    ``most`` when that is given.
    """
    wanted = "an integer" if kind is int else "a number"
    if explicit is not None:
        source, value = label, explicit
    else:
        value = _setting(env_var, wanted)
        if value is None:
            return None
        source = env_var
    try:
        parsed = kind(value)
        if not isinstance(value, str) and parsed != value:
            raise ValueError(value)
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"{source} must be {wanted}, got {value!r}") from None
    valid = parsed > 0 if positive else parsed >= 0
    allowed = "positive" if positive else "non-negative"
    if most is not None:
        valid = valid and parsed <= most
        allowed += f" and at most {most}"
    if not valid:
        raise ConfigurationError(
            f"{source} must be {allowed}, got {value!r}")
    return parsed
