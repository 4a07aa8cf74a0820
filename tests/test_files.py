"""Every writer's failures: a missing directory, a path that is a directory
or under a file, and a disk that fills part-way through the write.

Each raises CheckpointError (a checkpoint) or DataError (the rest) naming
the path, and no other file; an earlier file at the path stays byte-equal,
and no temporary file is left beside it.  A prepared directory's four
files are replaced only once all four are written.
"""

import errno
import itertools
import os
import re

import numpy as np
import pytest

from fiinet import engine as eg
from fiinet import errors, ingest
from fiinet import sk_attention as sk
from fiinet.crosses import ChannelLayout
from fiinet.errors import CheckpointError, DataError

EARLIER = b"an earlier file\n"


def checkpoint(path):
    store = eg.ParameterStore(np.float32)
    store.register("w", (3, 4), lambda: np.ones((3, 4), np.float32))
    eg.save_checkpoint(path, store)


def vocab():
    """Two fields of 5 and 2 values."""
    return ingest.Vocabulary(
        [ingest.FieldSchema("f0", 0, 6), ingest.FieldSchema("f1", 1, 3)],
        [{v: i for i, v in enumerate("abcde", 1)}, {"x": 1, "y": 2}],
    )


def dataset():
    """10 rows on ``vocab()``'s fields."""
    rows = np.arange(10)
    return ingest.EncodedDataset(np.stack([rows % 6, rows % 3], axis=1), rows % 2)


def attention_report(path):
    layout = ChannelLayout.build(3)
    sk.write_attention_report(path, layout, ["f0", "f1", "f2"], np.full(4, 0.5), np.full(4, 0.25))


WRITERS = {
    "checkpoint": (checkpoint, CheckpointError),
    "vocabulary": (lambda path: vocab().save(path), DataError),
    "split file": (lambda path: ingest.write_split_file(path, dataset()), DataError),
    "attention report": (attention_report, DataError),
}


class FullDisk:
    """A file that takes ``room`` more bytes (characters in text mode), then
    fails as a full disk does."""

    def __init__(self, f, room):
        self.f, self.room = f, room

    def write(self, data):
        taken = self.f.write(data[: self.room])
        self.room -= taken
        if taken < len(data):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return taken

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.f.close()


def full_disk(monkeypatch, room, at=None):
    """Make every file the package opens a FullDisk of ``room``, or only the
    ``at``-th, counted from 0; the list it returns collects the FullDisks."""
    opened = []
    count = itertools.count()

    def open_full(*args, **kwargs):
        f = open(*args, **kwargs)
        if at is not None and next(count) != at:
            return f
        opened.append(FullDisk(f, room))
        return opened[-1]

    monkeypatch.setattr(errors, "open", open_full, raising=False)
    return opened


def cannot_save(what, path):
    return f"^cannot save {what} {re.escape(str(path))}: "


@pytest.mark.parametrize("what", WRITERS)
class TestWriters:
    def test_a_write_replaces_an_earlier_file_and_leaves_nothing_beside_it(self, tmp_path, what):
        write, _ = WRITERS[what]
        write(tmp_path / "fresh")
        path = tmp_path / "out"
        path.write_bytes(EARLIER)
        write(path)
        assert path.read_bytes() == (tmp_path / "fresh").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh", "out"]

    def test_a_path_in_a_missing_directory_is_named(self, tmp_path, what):
        write, error = WRITERS[what]
        path = tmp_path / "missing" / "out"
        # the reason names no file: the temporary one never exists for the user
        reason = r"\[Errno 2\] No such file or directory$"
        with pytest.raises(error, match=cannot_save(what, path) + reason):
            write(path)
        assert list(tmp_path.iterdir()) == []

    def test_a_path_under_a_file_is_named(self, tmp_path, what):
        # removing the temporary file that was never made raised NotADirectoryError
        write, error = WRITERS[what]
        (tmp_path / "file").write_bytes(EARLIER)
        path = tmp_path / "file" / "out"
        with pytest.raises(error, match=cannot_save(what, path) + r"\[Errno 20\] Not a directory$"):
            write(path)
        assert [p.name for p in tmp_path.iterdir()] == ["file"]
        assert (tmp_path / "file").read_bytes() == EARLIER

    def test_a_path_that_is_a_directory_is_named_and_kept(self, tmp_path, what):
        write, error = WRITERS[what]
        path = tmp_path / "out"
        path.mkdir()
        (path / "inside").write_bytes(EARLIER)
        with pytest.raises(error, match=cannot_save(what, path) + r"\[Errno 21\] Is a directory$"):
            write(path)
        assert [p.name for p in tmp_path.iterdir()] == ["out"]
        assert [p.name for p in path.iterdir()] == ["inside"]
        assert (path / "inside").read_bytes() == EARLIER

    def test_a_failure_part_way_keeps_the_earlier_file(self, tmp_path, monkeypatch, what):
        write, error = WRITERS[what]
        path = tmp_path / "out"
        path.write_bytes(EARLIER)
        opened = full_disk(monkeypatch, room=20)
        with pytest.raises(error, match=cannot_save(what, path) + r"\[Errno 28\] No space left on device$"):
            write(path)
        assert [f.room for f in opened] == [0]  # 20 units were written first
        assert path.read_bytes() == EARLIER
        assert [p.name for p in tmp_path.iterdir()] == ["out"]


def write_prepared(out):
    ingest.write_prepared(out, vocab(), ingest.split_dataset(dataset(), (0.6, 0.2, 0.2), seed=0))


PREPARED = ("vocab.tsv", *ingest.SPLIT_FILES)


class TestWritePrepared:
    def test_missing_directories_are_made(self, tmp_path):
        write_prepared(tmp_path / "a" / "b")
        assert sorted(p.name for p in (tmp_path / "a" / "b").iterdir()) == sorted(PREPARED)
        ingest.load_prepared(tmp_path / "a" / "b")

    @pytest.mark.parametrize("under,reason", [
        (False, "File exists"), (True, "Not a directory"),
    ], ids=["a-file", "under-a-file"])
    def test_a_directory_it_cannot_make_is_named(self, tmp_path, under, reason):
        (tmp_path / "file").write_bytes(EARLIER)
        out = tmp_path / "file" / "out" if under else tmp_path / "file"
        message = f"^cannot make prepared directory {re.escape(str(out))}: {reason}$"
        with pytest.raises(DataError, match=message):
            write_prepared(out)
        assert [p.name for p in tmp_path.iterdir()] == ["file"]
        assert (tmp_path / "file").read_bytes() == EARLIER

    def test_a_file_that_is_a_directory_is_named(self, tmp_path):
        (tmp_path / "vocab.tsv").mkdir()
        path = tmp_path / "vocab.tsv"
        reason = r"\[Errno 21\] Is a directory$"
        with pytest.raises(DataError, match=cannot_save("vocabulary", path) + reason):
            write_prepared(tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == ["vocab.tsv"]
        assert list(path.iterdir()) == []

    def test_a_failure_part_way_keeps_the_earlier_files(self, tmp_path, monkeypatch):
        for name in PREPARED:
            (tmp_path / name).write_bytes(EARLIER)
        opened = full_disk(monkeypatch, room=10)
        path = tmp_path / "vocab.tsv"
        with pytest.raises(DataError, match=cannot_save("vocabulary", path) + r"\[Errno 28\]"):
            write_prepared(tmp_path)
        assert [f.room for f in opened] == [0]  # the first file failed part-way
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == dict.fromkeys(PREPARED, EARLIER)

    @pytest.mark.parametrize("at", range(len(PREPARED)), ids=PREPARED)
    def test_a_failure_at_any_file_keeps_the_earlier_directory(self, tmp_path, monkeypatch, at):
        # the files were replaced one at a time, so a failure at test.npy
        # left the new vocabulary and train and valid splits beside the
        # earlier test split, and load_prepared read the mix
        write_prepared(tmp_path)
        earlier = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        _, earlier_split = ingest.load_prepared(tmp_path)
        newer = ingest.Vocabulary(
            [ingest.FieldSchema("f0", 0, 7), ingest.FieldSchema("f1", 1, 3)],
            [{v: i for i, v in enumerate("abcdef", 1)}, {"x": 1, "y": 2}],
        )
        rows = np.arange(20)
        more = ingest.EncodedDataset(np.stack([rows % 7, rows % 3], axis=1), rows % 2)
        opened = full_disk(monkeypatch, room=10, at=at)
        what = "vocabulary" if at == 0 else "split file"
        newer_split = ingest.split_dataset(more, (0.6, 0.25, 0.15), seed=0)
        with pytest.raises(DataError, match=cannot_save(what, tmp_path / PREPARED[at]) + r"\[Errno 28\]"):
            ingest.write_prepared(tmp_path, newer, newer_split)
        assert [f.room for f in opened] == [0]
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == earlier
        _, split = ingest.load_prepared(tmp_path)
        for part, before in zip((split.train, split.valid, split.test),
                                (earlier_split.train, earlier_split.valid, earlier_split.test)):
            assert np.array_equal(part.indices, before.indices)
            assert np.array_equal(part.labels, before.labels)
