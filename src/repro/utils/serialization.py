"""JSON-safe conversion and canonical serialisation of parameter mappings.

Two closely related needs share this module:

* the report pipeline must turn scenario parameters (which may contain
  numpy scalars/arrays and tuples) into plain JSON types, and
* the sample store must derive a *content address* from those same
  parameters — a byte string that is identical whenever the parameters
  are semantically identical, regardless of dict insertion order or
  numpy-vs-python scalar types.

:func:`jsonable` handles the first, :func:`canonical_json` layers the
canonical encoding (sorted keys, no whitespace) on top for the second.
:func:`atomic_write` is the one temp-file + ``os.replace`` writer behind
sample-store entries, the daemon's spool files and bench trajectories.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Any, BinaryIO, Iterator, Mapping

import numpy as np

__all__ = ["jsonable", "canonical_json", "atomic_write"]


def jsonable(value: Any) -> Any:
    """Recursively convert numpy scalars/arrays and tuples to JSON types.

    Mappings become dicts with string keys, sequences become lists, numpy
    scalars become python scalars.  Values of unsupported types are
    returned unchanged (``json.dumps`` will then reject them, which is the
    desired loud failure for non-serialisable parameters).
    """
    if isinstance(value, Mapping):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value


def canonical_json(value: Any) -> str:
    """Serialise ``value`` to a canonical JSON string.

    Keys are sorted and separators minimal, so two semantically equal
    parameter mappings always produce byte-identical text — the property
    the content-addressed sample store keys on.  Raises ``TypeError`` for
    values that cannot be represented in JSON (a deliberate failure: an
    unserialisable parameter has no stable content address).
    """
    return json.dumps(
        jsonable(value), sort_keys=True, separators=(",", ":"), allow_nan=True
    )


@contextmanager
def atomic_write(path: str | os.PathLike) -> Iterator[BinaryIO]:
    """Yield a binary temp file beside ``path`` that replaces ``path`` on
    a clean exit.

    The parent directory is created if needed.  The temp file is moved
    into place with one ``os.replace``, so readers see either the old
    file or the new one, never a torn write; if the block raises, the
    temp file is removed and ``path`` is left untouched.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
