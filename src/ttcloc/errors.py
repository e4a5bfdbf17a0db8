"""Exception types shared across the package, the JSON type rule, and
the helper that writes an output file through a tmp file."""

import contextlib
import os
import typing
from types import NoneType, UnionType


class ValidationError(Exception):
    """Invalid input data, config, or file contents."""


class GenerationError(ValidationError):
    """Synthetic dataset generation could not satisfy the requested spec."""


class NumericalError(Exception):
    """Non-finite loss/gradients or a failed gradient check."""


def json_types(annotation) -> tuple[type, ...]:
    """The ``type()`` of each JSON value accepted where ``annotation`` is declared.

    The one rule for every file read: a bool is never an integer (test with
    ``type(value) in``, not ``isinstance``), an integer counts as a number,
    and null is accepted only under ``| None``.
    """
    kinds = typing.get_args(annotation) if isinstance(annotation, UnionType) else (annotation,)
    return kinds + (int,) if float in kinds else kinds


_JSON_NAMES = {bool: "a bool", int: "an integer", float: "a number", str: "a string", list: "a list", NoneType: "null"}


def type_error(what: str, kinds: tuple[type, ...], value) -> ValidationError:
    """The error for ``value`` at ``what`` when its type is not in ``kinds``, a :func:`json_types` tuple."""
    names = [_JSON_NAMES.get(k, k.__name__) for k in kinds if not (k is int and float in kinds)]
    return ValidationError(f"{what} must be {' or '.join(names)}, got {value!r}")


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
