"""Raw interaction tables to encoded datasets.

Builds per-field vocabularies (index 0 reserved for out-of-vocabulary),
binarizes labels with a strict greater-than threshold, and writes seeded
train/valid/test splits.  Every field is categorical: each distinct value
of a column is one category.

Every file is read through ``errors._open`` and written through
``errors._replacing``: a path that cannot be opened or written raises
DataError naming it, and a failed write leaves an earlier file at the path
as it was.  ``write_prepared`` writes its four files under one
``errors._replacing_together``, so a failed write leaves an earlier
directory as it was.  Names and values must be str that UTF-8 can encode,
and are checked before a file is opened.

Each input rule that several functions share is written once: ``_is_int``
(an int or numpy int, not a bool), ``_is_real`` (a real number, not a
bool) and ``_field_names`` (a list of distinct field names, read once; a
lone str is refused, not read as one name a character).
"""

from __future__ import annotations

import csv
import itertools
import math
import numbers
import os
import re
import tokenize
from collections.abc import Iterable, Sized
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, _open, _replacing, _replacing_together

OOV_INDEX = 0
# lone surrogates, such as "\udc80": a str that holds one cannot be
# encoded as UTF-8, so cannot be written to a file
_SURROGATE = re.compile("[\ud800-\udfff]")


@dataclass(frozen=True)
class FieldSchema:
    field_name: str
    field_index: int
    cardinality: int  # distinct values + the reserved OOV slot

    def __post_init__(self):
        _require_field_name(self.field_name)
        c = self.cardinality
        if not _is_int(c):
            raise DataError(f"field '{self.field_name}' has cardinality {c!r}; need an int")
        if c < 2:
            raise DataError(
                f"field '{self.field_name}' has cardinality {c}; "
                "need the OOV slot plus at least one value"
            )


def _is_int(value) -> bool:
    """An int or a numpy int, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A real number, numpy's included, and not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _require_field_name(name, where: str = "") -> None:
    """Refuse a field name that is not a str, or that UTF-8 cannot encode."""
    if not isinstance(name, str):
        raise DataError(f"{where}field name {name!r} is not a str")
    if _SURROGATE.search(name):
        raise DataError(f"{where}field name {name!r} cannot be encoded as UTF-8")


def _field_names(names, where: str = "") -> list[str]:
    """``names``, read once, as a list of distinct field names; a str or
    bytes, one name a character, is refused.  ``where`` starts each message."""
    if isinstance(names, (str, bytes)) or not isinstance(names, Iterable):
        raise DataError(f"{where}field names must be a list of str, got {names!r}")
    names = list(names)
    seen = set()
    for name in names:
        _require_field_name(name, where)
        if name in seen:
            raise DataError(f"{where}duplicate field name {name!r}")
        seen.add(name)
    return names


@dataclass
class EncodedDataset:
    """Encoded examples: one row of field indices plus a binary label each."""

    indices: np.ndarray  # (N, f) int64
    labels: np.ndarray  # (N,) int64 in {0,1}

    def __len__(self) -> int:
        return self.indices.shape[0]


@dataclass
class DatasetSplit:
    train: EncodedDataset
    valid: EncodedDataset
    test: EncodedDataset


class Vocabulary:
    """Per-field value-to-index maps; encoding of unseen values never errors.

    A value's index is its position in its field's map: each map takes the
    indices 1, 2, 3, ... in insertion order, and 0 is the out-of-vocabulary
    slot.
    """

    def __init__(self, schemas: list[FieldSchema], maps: list[dict[str, int]]):
        _field_names([s.field_name for s in schemas])
        if len(schemas) != len(maps):
            raise DataError(f"{len(schemas)} field schemas but {len(maps)} vocabulary maps")
        for position, (schema, mapping) in enumerate(zip(schemas, maps)):
            if schema.field_index != position:
                raise DataError(
                    f"field '{schema.field_name}' has field_index {schema.field_index}, "
                    f"but is at position {position}"
                )
            if not isinstance(mapping, dict):
                raise DataError(
                    f"field '{schema.field_name}': vocabulary map {mapping!r} is not a dict"
                )
            n = len(mapping)
            if not np.array_equal(np.fromiter(mapping.values(), np.int64, n), np.arange(1, n + 1)):
                raise DataError(
                    f"field '{schema.field_name}': indices are not 1..{n} in insertion order"
                )
            if schema.cardinality != n + 1:
                raise DataError(
                    f"field '{schema.field_name}' has cardinality {schema.cardinality}, "
                    f"but {n} values"
                )
        self.schemas = schemas
        self.maps = maps
        self._values = [list(m) for m in maps]

    @property
    def num_fields(self) -> int:
        return len(self.schemas)

    def decode_value(self, field: int, index: int) -> str | None:
        """Inverse of encode_row for in-vocabulary indices; OOV decodes to None.
        The field and the index must be ints (numpy ints too, not bool)."""
        if not _is_int(field) or not 0 <= field < self.num_fields:
            raise DataError(f"no field {field!r}: the vocabulary has {self.num_fields} fields")
        if not _is_int(index):
            raise DataError(f"index {index!r} of field {field} is not an int")
        values = self._values[field]
        return values[index - 1] if 0 < index <= len(values) else None

    def encode_row(self, row: list[str]) -> np.ndarray:
        """Each value's index in its field, OOV_INDEX if unseen.  A value
        that cannot be a key, such as a list, raises DataError naming its
        field.  A str, or a row with no length, raises DataError."""
        # hasattr, not isinstance(row, Sized): this runs once per served row
        if isinstance(row, (str, bytes)) or not hasattr(row, "__len__"):
            raise DataError(f"row must be a list of values, got {row!r}")
        if len(row) != self.num_fields:
            raise DataError(f"row has {len(row)} fields, schema expects {self.num_fields}")
        try:
            return np.array(
                [self.maps[i].get(v, OOV_INDEX) for i, v in enumerate(row)], dtype=np.int64
            )
        except TypeError:
            for schema, v in zip(self.schemas, row):
                try:
                    hash(v)
                except TypeError:
                    raise DataError(
                        f"field '{schema.field_name}': value {v!r} of type "
                        f"{type(v).__name__} is not hashable"
                    ) from None
            raise

    def save(self, path) -> None:
        """For each field: a line ``field_name TAB count``, then its ``count``
        values, one a line, in index order.

        Backslash, tab, newline and carriage return in a field name or a
        value are written as the escapes \\\\, \\t, \\n and \\r, so any
        string that UTF-8 can encode reads back.  A value that is not a
        str, or holds a lone surrogate such as "\\udc80", is refused before
        the file is opened, so no half-written file is left; a failure while
        writing leaves an earlier file at ``path`` as it was.
        """
        for schema, mapping in zip(self.schemas, self.maps):
            for value in mapping:
                if not isinstance(value, str):
                    raise DataError(
                        f"field '{schema.field_name}': value {value!r} of type "
                        f"{type(value).__name__} is not a str"
                    )
            if _SURROGATE.search("".join(mapping)):
                value = next(filter(_SURROGATE.search, mapping))
                raise DataError(
                    f"field '{schema.field_name}': value {value!r} cannot be encoded as UTF-8"
                )
        with _replacing(path, "vocabulary", "x", encoding="utf-8") as f:
            for schema, mapping in zip(self.schemas, self.maps):
                f.write(f"{schema.field_name.translate(_ESCAPES)}\t{len(mapping)}\n")
                f.writelines(value.translate(_ESCAPES) + "\n" for value in mapping)

    @classmethod
    def load(cls, path, field_names: list[str]) -> "Vocabulary":
        """Read a file ``save`` wrote; its fields must be ``field_names``.  A
        path that cannot be opened raises DataError naming it."""
        field_names = _field_names(field_names, f"{path}: ")
        names, maps = _read_vocabulary(path)
        if names != field_names:
            raise DataError(f"{path}: holds the fields {names}, expected {field_names}")
        return _vocabulary(names, maps)


def _vocabulary(field_names: list[str], maps: list[dict[str, int]]) -> Vocabulary:
    schemas = [
        FieldSchema(name, i, len(m) + 1) for i, (name, m) in enumerate(zip(field_names, maps))
    ]
    return Vocabulary(schemas, maps)


# a field's header line in vocab.tsv: the escaped name, a tab, the value count
_FIELD_HEADER = re.compile(r"([^\t]*)\t([1-9][0-9]*)")


def _read_vocabulary(path) -> tuple[list[str], list[dict[str, int]]]:
    """The field names and value-to-index maps of a file ``Vocabulary.save``
    wrote.  Lines are numbered from 1 in errors."""
    try:
        with _open(path, "vocabulary", encoding="utf-8") as f:
            text = f.read()
    except UnicodeDecodeError:
        raise _not_utf8_error(path, "vocabulary") from None
    escaped = "\\" in text
    # not str.splitlines, which also ends a line at characters a value holds
    lines = text.split("\n")
    del text
    if lines[-1] == "":
        lines.pop()
    names, maps = [], []
    at = 0  # index of the next header in lines
    while at < len(lines):
        lineno = at + 1
        header = _FIELD_HEADER.fullmatch(lines[at])
        if header is None:
            raise DataError(
                f"{path}:{lineno}: expected a field header 'name<TAB>count' "
                f"with a positive count, got {lines[at]!r}"
            )
        name, count = header.group(1), int(header.group(2))
        if "\\" in name:
            name = _unescape(name, path, lineno)
        if name in names:
            raise DataError(f"{path}:{lineno}: duplicate field name {name!r}")
        values = lines[at + 1 : at + 1 + count]
        if len(values) < count:
            raise DataError(
                f"{path}:{lineno}: field '{name}' has {len(values)} of its {count} values"
            )
        if escaped:
            values = [
                _unescape(v, path, n) if "\\" in v else v
                for n, v in enumerate(values, lineno + 1)
            ]
        mapping = dict(zip(values, range(1, count + 1)))
        if len(mapping) < count:  # name the second line of the first repeat
            seen = set()
            lineno, value = next(
                (n, v) for n, v in enumerate(values, lineno + 1) if v in seen or seen.add(v)
            )
            raise DataError(f"{path}:{lineno}: field '{name}' repeats the value {value!r}")
        names.append(name)
        maps.append(mapping)
        at += 1 + count
    if not names:
        raise DataError(f"{path}: no fields")
    return names, maps


_ESCAPES = str.maketrans({"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"})
_UNESCAPES = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}
_ESCAPE_SEQUENCE = re.compile(r"\\(.?)", re.DOTALL)


def _unescape(value: str, path, lineno: int) -> str:
    def replace(m: re.Match) -> str:
        try:
            return _UNESCAPES[m.group(1)]
        except KeyError:
            raise DataError(
                f"{path}:{lineno}: unknown escape {m.group(0)!r}"
            ) from None

    return _ESCAPE_SEQUENCE.sub(replace, value)


# the characters errors="surrogateescape" decodes undecodable bytes to
_UNDECODABLE = re.compile("[\udc80-\udcff]")


def _not_utf8_error(path, what: str, newline: str | None = None) -> DataError:
    """The error for the first line of a text file that is not UTF-8, with
    lines split as ``open(path, newline=newline)`` splits them.  A leading
    byte-order mark is not counted as a column."""
    with _open(path, what, encoding="utf-8-sig", errors="surrogateescape", newline=newline) as f:
        for lineno, line in enumerate(f, 1):
            bad = _UNDECODABLE.search(line)
            if bad:
                byte = ord(bad.group()) - 0xDC00
                return DataError(
                    f"{path}:{lineno}: byte {byte:#04x} at column {bad.start() + 1} is not UTF-8"
                )
    return DataError(f"{path}: not UTF-8")


def _columns(rows: list[list[str]], width: int) -> list[list[str]]:
    """The rows transposed, once every row is checked to have ``width``
    entries; rows are numbered from 2 in errors, as in a file whose line 1
    is the header."""
    if set(map(len, rows)) - {width}:
        rowno, row = next((n, row) for n, row in enumerate(rows, 2) if len(row) != width)
        raise DataError(f"ragged row {rowno}: {len(row)} columns, expected {width}")
    flat = list(itertools.chain.from_iterable(rows))
    return [flat[j::width] for j in range(width)]


def binarize_label(scores, threshold: float) -> np.ndarray:
    """1 where score > threshold (strict), else 0, as int64 of the scores'
    shape; a scalar gives a 0-d array.  The scores must be ints or floats
    (no bool, str or object), and the threshold a finite real number."""
    _require_finite_threshold(threshold)
    scores = np.asarray(scores)
    if scores.dtype.kind not in "iuf":
        raise DataError(f"label scores must be numbers, got dtype {scores.dtype}")
    scores = scores.astype(np.float64, copy=False)
    finite = np.isfinite(scores)
    if not finite.all():
        raise DataError(f"non-finite label score {float(scores[~finite][0])!r}")
    return (scores > threshold).astype(np.int64)


def _require_finite_threshold(threshold) -> None:
    if not _is_real(threshold):
        raise DataError(f"label threshold must be a real number, got {threshold!r}")
    # no score is > NaN or > +inf, and every finite one is > -inf, so each
    # would give every row the same label
    if not math.isfinite(threshold):
        raise DataError(f"label threshold must be finite, got {threshold!r}")


def split_dataset(
    dataset: EncodedDataset, ratios: tuple[float, float, float], seed: int
) -> DatasetSplit:
    """Seeded-shuffle partition into train/valid/test; same seed, same split.

    The train and valid sizes are n * ratio rounded down, and the test part
    takes the rest; ratios that leave a part empty are refused.  The seed
    must be an int >= 0: None would draw a fresh split on every call."""
    # r > 0, not r <= 0, so that a NaN ratio fails
    if (not isinstance(ratios, Sized) or len(ratios) != 3
            or not all(_is_real(r) and r > 0 for r in ratios)):
        raise DataError(f"split ratios must be three positive numbers, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise DataError(f"split ratios must sum to 1, got {ratios}")
    if not _is_int(seed) or seed < 0:
        raise DataError(f"split seed must be an int >= 0, got {seed!r}")
    n = len(dataset)
    n_train = int(math.floor(n * ratios[0]))
    n_valid = int(math.floor(n * ratios[1]))
    n_test = n - n_train - n_valid
    for part, size in (("train", n_train), ("valid", n_valid), ("test", n_test)):
        if size == 0:
            raise DataError(
                f"split ratios {ratios} leave the {part} part of {n} examples empty "
                f"(train/valid/test {n_train}/{n_valid}/{n_test})"
            )
    perm = np.random.default_rng(seed).permutation(n)
    sections = (
        perm[:n_train],
        perm[n_train : n_train + n_valid],
        perm[n_train + n_valid :],
    )
    parts = [
        EncodedDataset(dataset.indices[sel], dataset.labels[sel]) for sel in sections
    ]
    return DatasetSplit(train=parts[0], valid=parts[1], test=parts[2])


def read_table(path) -> tuple[list[str], list[list[str]]]:
    """Comma-separated text with a header row.  Blank lines are skipped;
    every other record must have as many columns as the header.  A leading
    UTF-8 byte-order mark is dropped, so it never joins the first name.
    The ``csv`` module's own errors, such as a value longer than
    ``csv.field_size_limit()``, name the line the reader had reached, and
    a path that cannot be opened raises DataError naming it."""
    try:
        with _open(path, "table", encoding="utf-8-sig", newline="") as f:
            reader = csv.reader(f)
            try:
                header = next(reader, None)
                rows = [row for row in reader if row]
            except csv.Error as exc:
                raise DataError(f"{path}:{reader.line_num}: {exc}") from None
    except UnicodeDecodeError:
        raise _not_utf8_error(path, "table", newline="") from None
    if header is None:
        raise DataError(f"{path}: empty file")
    if not rows:
        raise DataError(f"{path}: empty dataset")
    if set(map(len, rows)) - {len(header)}:
        raise _ragged_record_error(path, len(header))
    return header, rows


def _ragged_record_error(path, width: int) -> DataError:
    """The error for the first record of a CSV file, after the header,
    that is not blank and not ``width`` columns wide; it names the line the
    record starts on."""
    with _open(path, "table", encoding="utf-8-sig", newline="") as f:
        reader = csv.reader(f)
        next(reader)
        lineno = reader.line_num + 1
        for row in reader:
            if row and len(row) != width:
                return DataError(
                    f"{path}:{lineno}: ragged record: {len(row)} columns, expected {width}"
                )
            lineno = reader.line_num + 1
    return DataError(f"{path}: ragged records")


def encode_table(
    rows: list[list[str]],
    header: list[str],
    label_column: str,
    field_columns: list[str],
    threshold: float,
) -> tuple[Vocabulary, EncodedDataset]:
    """Vocabulary build plus full encode of one raw table.  A field's values
    take the indices 1, 2, 3, ... in the order they first appear."""
    _require_finite_threshold(threshold)
    header = _field_names(header, "header: ")
    field_columns = _field_names(field_columns, "field columns: ")
    if not field_columns:
        raise DataError("no field columns")
    missing = [c for c in [label_column, *field_columns] if c not in header]
    if missing:
        raise DataError(f"missing columns: {', '.join(missing)}")
    if label_column in field_columns:
        raise DataError(f"label column '{label_column}' is also a field column")
    col_of = {name: j for j, name in enumerate(header)}
    table = _columns(rows, len(header))

    columns = {name: table[col_of[name]] for name in field_columns}
    if not rows:
        raise DataError("empty dataset")
    maps = []
    for name in field_columns:
        values = dict.fromkeys(columns[name])
        maps.append(dict(zip(values, range(1, len(values) + 1))))
    vocab = _vocabulary(field_columns, maps)

    n = len(rows)
    indices = np.empty((n, len(field_columns)), dtype=np.int64)
    for j, (name, mapping) in enumerate(zip(field_columns, vocab.maps)):
        indices[:, j] = np.fromiter(map(mapping.__getitem__, columns[name]), np.int64, n)
    raw_labels = table[col_of[label_column]]
    try:
        labels = binarize_label(np.fromiter(map(float, raw_labels), np.float64, n), threshold)
    except (ValueError, DataError):
        raise _label_error(raw_labels) from None
    return vocab, EncodedDataset(indices=indices, labels=labels)


def _label_error(raw_labels) -> DataError:
    """The error for the first row whose label is not a finite number."""
    for rowno, raw in enumerate(raw_labels, 2):  # header was line 1
        try:
            binarize_label(float(raw), 0.0)
        except ValueError:
            return DataError(f"row {rowno}: non-numeric label {raw!r}")
        except DataError as exc:
            return DataError(f"row {rowno}: {exc}")
    return DataError("labels are not finite numbers")


# ---------------------------------------------------------------------------
# prepared-directory round trip


def write_split_file(path, dataset: EncodedDataset) -> None:
    """Save the examples as one (N, 1+f) int64 table, ``[label | indices]``,
    in numpy's .npy format."""
    table = np.column_stack((dataset.labels, dataset.indices)).astype(np.int64, copy=False)
    with _replacing(path, "split file", "xb") as f:
        np.save(f, table, allow_pickle=False)


def read_split_file(path, num_fields: int) -> EncodedDataset:
    """Read a file ``write_split_file`` wrote: an int64 table of 1+num_fields
    columns, labels in {0,1}, indices >= 0.  Errors name the path and
    count rows from 0.

    The header's shape is checked against the file's size before the table
    is allocated, so a corrupt row count fails here, not in the allocator.
    """
    with _open(path, "split file", "rb") as f:
        size = os.fstat(f.fileno()).st_size
        try:
            version = np.lib.format.read_magic(f)
            if version != (1, 0):  # what np.save writes for such a table
                raise ValueError(f"format version {version}, expected (1, 0)")
            shape, _, dtype = np.lib.format.read_array_header_1_0(f)
        # numpy parses the header as a Python literal; a corrupt one can
        # fail in the tokenizer or the parser as well as in numpy's checks
        except (ValueError, TypeError, SyntaxError, tokenize.TokenError) as exc:
            raise DataError(f"{path}: not a .npy file: {exc}") from None
        if dtype != np.int64 or len(shape) != 2 or shape[1] != num_fields + 1:
            raise DataError(
                f"{path}: expected an int64 table of 1+{num_fields} columns, "
                f"got {dtype} of shape {shape}"
            )
        nbytes = math.prod(shape) * dtype.itemsize
        if size - f.tell() != nbytes:
            raise DataError(
                f"{path}: the header gives {shape[0]} rows ({nbytes} bytes), "
                f"but {size - f.tell()} bytes follow it"
            )
        f.seek(0)
        table = np.load(f, allow_pickle=False)
    bad = (table[:, 0] > 1) | (table.min(axis=1) < 0)
    if bad.any():
        row = int(bad.argmax())
        label = int(table[row, 0])
        problem = f"label {label} is not 0 or 1" if label not in (0, 1) else "negative field index"
        raise DataError(f"{path}: row {row}: {problem}")
    return EncodedDataset(table[:, 1:].copy(), table[:, 0].copy())


SPLIT_FILES = ("train.npy", "valid.npy", "test.npy")


def write_prepared(out_dir, vocab: Vocabulary, split: DatasetSplit) -> None:
    """``vocab.tsv`` and the three split files in ``out_dir``, made if
    missing.  All four are written beside their paths before any replaces
    an earlier file, so a failure while writing leaves an earlier directory
    as it was."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot make prepared directory {out}: {exc.strerror or exc}") from None
    with _replacing_together():
        vocab.save(out / "vocab.tsv")
        for name, part in zip(SPLIT_FILES, (split.train, split.valid, split.test)):
            write_split_file(out / name, part)


def load_prepared(data_dir) -> tuple[Vocabulary, DatasetSplit]:
    data = Path(data_dir)
    for name in ("vocab.tsv", *SPLIT_FILES):
        if not (data / name).is_file():
            raise DataError(f"no prepared data at {data}: missing {name}")
    vocab = _vocabulary(*_read_vocabulary(data / "vocab.tsv"))
    cardinalities = np.array([s.cardinality for s in vocab.schemas])
    parts = []
    for name in SPLIT_FILES:
        part = read_split_file(data / name, vocab.num_fields)
        beyond = part.indices >= cardinalities  # read_split_file rejects negatives
        if beyond.any():
            row, field = divmod(int(beyond.argmax()), vocab.num_fields)
            raise DataError(
                f"{data / name}: row {row}: index {part.indices[row, field]} "
                f"out of range for field '{vocab.schemas[field].field_name}'"
            )
        parts.append(part)
    return vocab, DatasetSplit(*parts)
