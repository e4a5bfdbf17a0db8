"""Exception types shared across the package, the JSON type rule, the checks
of a config's choice and size fields and of the arrays they ask for, the one
reader that every JSON object ttcloc loads goes through, and the helper that
writes an output file through a tmp file."""

import contextlib
import dataclasses
import functools
import json
import os
import sys
import typing
from types import MappingProxyType, NoneType, UnionType

import numpy as np


class ValidationError(Exception):
    """Invalid input data, config, or file contents."""


class GenerationError(ValidationError):
    """Synthetic dataset generation could not satisfy the requested spec."""


class NumericalError(Exception):
    """Non-finite loss/gradients or a failed gradient check."""


def _alternatives(annotation) -> tuple:
    return typing.get_args(annotation) if isinstance(annotation, UnionType) else (annotation,)


def json_types(annotation) -> tuple[type, ...]:
    """The ``type()`` of each JSON value accepted where ``annotation`` is declared.

    The one rule for every file read: a bool is never an integer (test with
    ``type(value) in``, not ``isinstance``), an integer counts as a number,
    null is accepted only under ``| None``, ``tuple[X, ...]`` is a list and
    a dataclass an object.
    """
    kinds = tuple(
        list if typing.get_origin(k) is tuple else dict if dataclasses.is_dataclass(k) else k for k in _alternatives(annotation)
    )
    return kinds + (int,) if float in kinds else kinds


_JSON_NAMES = {
    bool: "a bool", int: "an integer", float: "a number", str: "a string", list: "a list", dict: "an object", NoneType: "null"
}


def type_error(what: str, kinds: tuple[type, ...], value) -> ValidationError:
    """The error for ``value`` at ``what`` when its type is not in ``kinds``, a :func:`json_types` tuple."""
    names = [_JSON_NAMES.get(k, k.__name__) for k in kinds if not (k is int and float in kinds)]
    return ValidationError(f"{what} must be {' or '.join(names)}, got {value!r}")


def check_choices(config, choices: typing.Mapping[str, tuple]) -> None:
    """Reject a field of ``config`` named in ``choices`` whose value is not one of its tuple."""
    for name, allowed in choices.items():
        value = getattr(config, name)
        if value not in allowed:
            raise ValidationError(f"{name} must be one of {allowed}, got {value!r}")


MAX_SIZE = int(np.iinfo(np.intp).max)  # NumPy's own limit on an array dimension or an index


def check_sizes(config, names: tuple[str, ...]) -> None:
    """Reject a size field of ``config`` named in ``names`` that NumPy
    cannot index, which NumPy itself would only refuse once work had begun."""
    for name in names:
        value = getattr(config, name)
        if value > MAX_SIZE:
            raise ValidationError(f"{name} must be at most {MAX_SIZE}, the largest size NumPy can index, got {value}")


def check_array_bytes(arrays: typing.Mapping[str, int]) -> None:
    """Reject a config whose size fields ask for an array of more bytes than
    NumPy can address; ``arrays`` maps each such array, named by the product
    of the fields that size it, to its byte count."""
    for what, nbytes in arrays.items():
        if nbytes > MAX_SIZE:
            raise ValidationError(f"{what} take {nbytes} bytes, more than the {MAX_SIZE} an array can hold")


# ---------------------------------------------------------------------------
# The JSON reader


@functools.cache
def field_types(cls) -> typing.Mapping[str, object]:
    """Field name -> annotation of the dataclass ``cls``, resolved once per class."""
    return MappingProxyType(typing.get_type_hints(cls))


@functools.cache
def _plan(annotation) -> tuple:
    """What :func:`read_json` needs of ``annotation``, found once per annotation: its JSON
    types, and the entries' annotation of ``tuple[X, ...]`` or the dataclass of an object
    with its fields that have no default."""
    inner = required = None
    for k in _alternatives(annotation):
        if typing.get_origin(k) is tuple:
            inner = typing.get_args(k)[0]
        elif dataclasses.is_dataclass(k):
            inner = k
            required = tuple(f.name for f in dataclasses.fields(k) if f.default is f.default_factory is dataclasses.MISSING)
    return json_types(annotation), inner, required


def read_json(value, annotation, where: str):
    """``value``, parsed from JSON, checked against ``annotation`` and read into it.

    Scalars follow :func:`json_types`, and a number declared ``float`` is
    converted to one.  ``tuple[X, ...]`` is read from a list entry by entry,
    and a dataclass from an object by :func:`read_object`, its fields
    without a default required.  ``where`` is the path that errors name.
    """
    kinds, inner, required = _plan(annotation)
    kind = type(value)
    if kind not in kinds:
        raise type_error(where, kinds, value)
    if kind is int and float in kinds:
        try:
            return float(value)
        except OverflowError:
            raise ValidationError(f"{where} is out of range, got an integer beyond {sys.float_info.max:g}") from None
    if kind is list:
        return tuple(read_json(v, inner, f"{where}[{i}]") for i, v in enumerate(value))
    if kind is dict:
        return inner(**read_object(value, field_types(inner), where, required))
    return value


def read_object(obj: dict, types: typing.Mapping[str, object], where: str, required=()) -> dict:
    """The entries of the parsed JSON object ``obj``, each read by
    :func:`read_json` against ``types[key]``; a key missing from ``types``
    or one of ``required`` missing from ``obj`` is an error."""
    unknown = obj.keys() - types.keys()
    if unknown:
        raise ValidationError(f"{where}: unknown keys {sorted(unknown)}")
    missing = [key for key in required if key not in obj]
    if missing:
        raise ValidationError(f"{where} lacks keys {missing}")
    return {key: read_json(value, types[key], f"{where}: {key}") for key, value in obj.items()}


def load_json_object(path: str, what: str) -> dict:
    """The JSON object in the file ``path``, which errors call ``what``."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {what} {path!r}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        raise ValidationError(f"{what} {path!r} is not valid JSON: {exc}") from exc
    if type(obj) is not dict:
        raise ValidationError(f"{what} {path!r} must hold a JSON object")
    return obj


@contextlib.contextmanager
def replacing(path: str, mode: str = "w"):
    """Write ``path`` through ``path + ".tmp"``: yields the open tmp file and
    moves it onto ``path`` once the block ends.  If the block or the move
    fails, the tmp file is deleted and the error goes on; ``path`` is then
    untouched."""
    tmp = path + ".tmp"
    fh = open(tmp, mode, encoding=None if "b" in mode else "utf-8")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
