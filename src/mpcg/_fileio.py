"""The package's file boundary: output files that are either complete or
not written at all, and the one JSON convention of every spec, sample,
manifest, model and report file.  Writers emit sorted keys, no NaN or
Infinity and a trailing newline; readers take finite numbers only and
name a bad line of a JSON-lines file by its ``path:line``."""

from __future__ import annotations

import contextlib
import json
import math
import os
import stat
import sys


@contextlib.contextmanager
def atomic_write(path):
    """ASCII text file handle whose contents replace ``path`` only on success.

    The handle writes a temporary file next to ``path``, which
    ``os.replace`` moves over it once the block ends without an exception,
    so the directory must be writable even when ``path`` is.  If the block
    raises, the temporary file is removed and a previous ``path`` stays as
    it was.  A new file is created like ``open`` creates one, so the umask
    sets its mode; a replaced file keeps its permission bits, while its
    owner becomes the writer.  A symbolic link is followed and its target
    replaced.  A target that exists but is not a regular file, such as
    ``/dev/stdout`` or a pipe, cannot be replaced and is written directly.
    The handle's ``buffer`` takes bytes, for a writer that refuses text.
    """
    try:
        target = os.stat(path)  # follows links, /proc/self/fd ones included
    except FileNotFoundError:
        target = None
    if target is not None and not stat.S_ISREG(target.st_mode):
        with open(path, "w", encoding="ascii") as fh:
            yield fh
        return
    real = os.path.realpath(path)
    head, tail = os.path.split(real)
    tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:  # name the file asked for, not the hidden one
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
    try:
        with open(fd, "w", encoding="ascii") as fh:
            yield fh
        if target is not None:
            os.chmod(tmp, stat.S_IMODE(target.st_mode))
        os.replace(tmp, real)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def finite_json(text: str):
    """``json.loads`` of ``text``, where a NaN, Infinity or -Infinity token,
    all of which Python's json accepts, or a number beyond the binary64
    range, a float or an integer literal, raises ValueError.  Integers in
    range stay Python ints, as ``json.loads`` reads them."""
    return json.loads(
        text, parse_constant=_finite_float, parse_float=_finite_float, parse_int=_finite_int
    )


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def _finite_int(text: str) -> int:
    value = int(text)
    if abs(value) > sys.float_info.max:
        raise ValueError(f"integer of {len(text)} characters beyond the binary64 range")
    return value


def write_json(path, payload, indent=None) -> None:
    """``payload`` as one JSON document with sorted keys and a trailing
    newline, replacing ``path`` whole; ``indent`` is ``json.dumps``'s.  A
    NaN or Infinity raises ValueError and leaves ``path`` as it was."""
    with atomic_write(path) as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=indent, allow_nan=False) + "\n")


def write_json_lines(path, payloads) -> None:
    """One JSON line with sorted keys per payload, replacing ``path`` whole;
    a NaN or Infinity raises ValueError and leaves ``path`` as it was."""
    with atomic_write(path) as fh:
        for payload in payloads:
            fh.write(json.dumps(payload, sort_keys=True, allow_nan=False) + "\n")


def read_json(path):
    """``finite_json`` of the whole ASCII file ``path``."""
    with open(path, "r", encoding="ascii") as fh:
        return finite_json(fh.read())


def read_json_lines(path, parse, error: str) -> list:
    """``parse`` of every non-blank JSON line of ``path``.  A line that
    does not parse, or holds a non-finite number, raises ValueError with
    ``error`` formatted with ``where`` (``path:line``) and ``exc``."""
    items = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                items.append(parse(finite_json(line)))
            except (ValueError, KeyError, TypeError) as exc:  # TypeError: unknown key
                raise ValueError(error.format(where=f"{path}:{lineno}", exc=exc)) from None
    return items
