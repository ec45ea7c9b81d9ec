"""Seed derivation, the check of declared settings, and small shared helpers,
among them the one opener of every output file."""

from __future__ import annotations

import contextlib
import functools
import json
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, OutOfRange

_SEED_MOD = 2**31 - 1


def child_seed(master: int, *keys) -> int:
    """Derive an independent child seed from a master seed and a key path.

    Strings are folded through their UTF-8 bytes so textual keys ("fold",
    "candidate") produce distinct streams.  The derivation is pure: the same
    (master, keys) always yields the same seed, regardless of platform or
    worker count.
    """
    words = [int(master) & 0xFFFFFFFF]
    for k in keys:
        if isinstance(k, str):
            data = k.encode("utf-8")
            words.append(0x53)  # tag keeps "0" distinct from 0
            words.append(len(data))
            words.extend(data)
        else:
            words.append(0x49)
            words.append(int(k) & 0xFFFFFFFF)
    # SeedSequence ignores trailing zero words; a non-zero terminator keeps
    # (..., 0) distinct from (...,)
    words.append(len(keys) + 1)
    ss = np.random.SeedSequence(words)
    return int(ss.generate_state(1)[0]) % _SEED_MOD


def expit(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function, unclipped for exact gradients.

    With ``e = exp(-|z|)`` it is ``1 / (1 + e)`` where ``z >= 0`` and
    ``e / (1 + e)`` elsewhere: ``exp`` never sees a positive argument, so
    nothing overflows, and each element takes the same operations on the
    same operands as ``1 / (1 + exp(-z))`` and ``exp(z) / (1 + exp(z))``
    taken apart on the two signs, bit for bit.  ``-|z|`` is taken as
    ``minimum(z, -z)``, which keeps a NaN's sign.  An ``exp`` that rounds to
    a subnormal or to 0 is the correctly rounded value, so its underflow is
    not signalled.  Returns an ndarray of ``z``'s shape, 0-d included.
    """
    z = np.asarray(z, dtype=float)
    with np.errstate(under="ignore"):
        e = np.exp(np.minimum(z, -z))
    out = np.where(z >= 0, 1.0, e)
    e += 1.0
    out /= e  # in place: a 0-d quotient would otherwise be a numpy scalar
    return out


def sigmoid(z: np.ndarray) -> np.ndarray:
    """:func:`expit` clipped strictly inside (0, 1)."""
    return np.clip(expit(z), 1e-15, 1.0 - 1e-15)


def require_finite(X: np.ndarray, names) -> None:
    """Raise :class:`OutOfRange` for the first non-finite cell of the 2-D
    ``X``, in row-major order; ``names[c]`` names column ``c``."""
    finite = np.isfinite(X)
    if not finite.all():
        r, c = (int(v) for v in np.argwhere(~finite)[0])
        raise OutOfRange(r, names[c], X[r, c])


def require_binary(y: np.ndarray) -> None:
    """Raise :class:`OutOfRange` for the first label of ``y`` not 0 or 1."""
    bad = np.flatnonzero((y != 0) & (y != 1))
    if bad.size:
        raise OutOfRange(int(bad[0]), "label", y[bad[0]])


def read_json(path, what: str):
    """The parsed JSON document at ``path``; ``what`` names it in errors."""
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise DataError(f"{what} file not found: {path}") from None
    except OSError as exc:
        raise DataError(f"cannot read {what} file {path}: {exc.strerror}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataError(f"{what} is not valid JSON: {exc}") from exc


@contextlib.contextmanager
def open_output(path, newline=None):
    """``path`` opened for writing text, truncated.  A path that cannot be
    opened or written, such as one in a missing directory, raises
    :class:`DataError` naming it; no directory is created."""
    try:
        with open(path, "w", newline=newline) as fh:
            yield fh
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror}") from None


# the JSON type a setting's value must have, by the type of its default
_JSON_TYPES = {bool: "a boolean", int: "an integer", float: "a number",
               str: "a string", list: "a list"}


@functools.cache
def _interval(text: str) -> tuple:
    lo, hi = text[1:-1].split(",")
    return float(lo), float(hi), text[0] == "(", text[-1] == ")"


def check_setting(spec, value, name: str, error) -> None:
    """Raise ``error`` naming ``name`` unless the dataclass field ``spec``
    allows ``value``: it must have the JSON type of the default (a number
    also takes an integer) and meet the metadata's ``"range"``, an interval
    such as ``"(0, 1]"`` (a number's is ``(-inf, inf)`` if none is given,
    so NaN never passes), ``"one_of"``, a tuple of allowed values, or
    ``"distinct_of"``, a tuple of which a list names one or more members,
    each once.  A dataclass default takes an instance of its class, checked
    by :func:`check_fields` with ``name`` and a dot as the prefix."""
    default = spec.default_factory() if spec.default is MISSING else spec.default
    if is_dataclass(default):
        if type(value) is not type(default):
            raise error(f"{name} must be an object, got {value!r}")
        return check_fields(value, name + ".", error)
    kind, allowed = type(default), spec.metadata
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise error(f"{name} must be {_JSON_TYPES[kind]}, got {value!r}")
    if kind in (int, float):
        text = allowed.get("range", "(-inf, inf)")
        lo, hi, lo_open, hi_open = _interval(text)
        if not ((lo < value if lo_open else lo <= value)
                and (value < hi if hi_open else value <= hi)):
            raise error(f"{name} must be in {text}, got {value!r}")
    elif "one_of" in allowed and value not in allowed["one_of"]:
        raise error(f"{name} must be one of {allowed['one_of']}, got {value!r}")
    elif "distinct_of" in allowed and not (
            value and all(v in allowed["distinct_of"] for v in value)
            and len(set(value)) == len(value)):
        raise error(f"{name} must list one or more distinct members of "
                    f"{allowed['distinct_of']}, got {value!r}")


def check_fields(section, prefix: str, error) -> None:
    """:func:`check_setting` on each field of dataclass ``section``, named ``prefix`` + name."""
    for spec in fields(section):
        check_setting(spec, getattr(section, spec.name), prefix + spec.name, error)
