"""Exception hierarchy shared across the package, and the two ways it
touches a file.

Every error carries a short machine-parsable ``category`` naming the kind
of failure: config, data, shape, numeric or checkpoint.

Every file the package reads is opened by ``_open`` and every file it
writes by ``_replacing``, so a file it cannot open or write raises one of
these errors naming the path, and a failed write leaves any earlier file
at the path as it was.
"""

import os
from contextlib import contextmanager, suppress


class FiinetError(Exception):
    category = "internal"


class ConfigError(FiinetError):
    category = "config"


class DataError(FiinetError):
    category = "data"


class ShapeError(FiinetError):
    category = "shape"


class NonFiniteError(FiinetError):
    category = "numeric"


class CheckpointError(FiinetError):
    category = "checkpoint"


def _open(path, what: str, mode: str = "r", error=DataError, **kwargs):
    """``open(path, mode, **kwargs)``; an OSError, such as a missing path or
    a directory, raises ``error`` naming the ``what`` and the path."""
    try:
        return open(path, mode, **kwargs)
    except OSError as exc:
        raise error(f"cannot open {what} {path}: {exc.strerror or exc}") from None


@contextmanager
def _replacing(path, what: str, mode: str, error=DataError, **kwargs):
    """``open(tmp, mode, **kwargs)`` on a new file beside ``path``, moved over
    ``path`` once the block completes; any exception raises ``error`` naming
    the ``what`` and the path, and leaves an earlier file there as it was."""
    tmp = f"{os.fspath(path)}.{os.urandom(4).hex()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    except Exception as exc:
        raise error(f"cannot save {what} {path}: {exc}") from exc
    finally:
        with suppress(FileNotFoundError):  # gone once it replaced path
            os.remove(tmp)
