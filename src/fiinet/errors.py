"""Exception hierarchy shared across the package, and the two ways it
touches a file.

Every error carries a short machine-parsable ``category`` naming the kind
of failure: config, data, shape, numeric or checkpoint.

Every file the package reads is opened by ``_open`` and every file it
writes by ``_replacing``, so a file it cannot open or write raises one of
these errors naming the path, and a failed write leaves any earlier file
at the path as it was; ``_replacing_together`` holds back the moves until
a set of files is complete.
"""

import os
from contextlib import contextmanager, nullcontext, suppress
from contextvars import ContextVar


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


# the moves of the innermost _replacing_together block, in the order its
# files were opened
_moves: ContextVar[list | None] = ContextVar("_moves", default=None)


@contextmanager
def _replacing(path, what: str, mode: str, error=DataError, **kwargs):
    """``open(tmp, mode, **kwargs)`` on a new file beside ``path``, moved over
    ``path`` once the block completes, or inside a ``_replacing_together``
    block once that block completes.  Any exception raises ``error`` naming
    the ``what`` and the path, and leaves an earlier file there as it was;
    an OSError's ``[Errno N] reason`` is kept, but not its file names, which
    would name the temporary file."""
    with nullcontext() if _moves.get() is not None else _replacing_together():
        tmp = f"{os.fspath(path)}.{os.urandom(4).hex()}.tmp"
        with _saving(path, what, error), open(tmp, mode, **kwargs) as f:
            _moves.get().append((tmp, path, what, error))
            yield f


@contextmanager
def _replacing_together():
    """Hold back the move of every file ``_replacing`` writes in the block
    until the block completes, then make them in the order the files were
    opened.  On any exception every temporary file is removed, so each
    earlier file stays as it was unless a move had already replaced it: the
    moves, one ``os.replace`` each, are the one step that is not atomic.  An
    exception in a file's block must leave the whole block, or that file's
    partial write would be moved too."""
    moves = []
    token = _moves.set(moves)
    try:
        yield
        for tmp, path, what, error in moves:
            with _saving(path, what, error):
                os.replace(tmp, path)
    finally:
        _moves.reset(token)
        for tmp, *_ in moves:
            with suppress(FileNotFoundError):  # gone once it replaced its path
                os.remove(tmp)


@contextmanager
def _saving(path, what: str, error):
    """Raise any exception in the block as ``error`` naming the ``what`` and
    the path."""
    try:
        yield
    except Exception as exc:
        reason = exc
        if isinstance(exc, OSError) and exc.strerror:
            reason = f"[Errno {exc.errno}] {exc.strerror}"
        raise error(f"cannot save {what} {path}: {reason}") from exc
