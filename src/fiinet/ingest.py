"""Raw interaction tables to encoded datasets.

Builds per-field vocabularies (index 0 reserved for out-of-vocabulary),
binarizes labels with a strict greater-than threshold, and writes seeded
train/valid/test splits.  Every field is categorical: each distinct value
of a column is one category.
"""

from __future__ import annotations

import csv
import itertools
import math
import os
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError

OOV_INDEX = 0


@dataclass(frozen=True)
class FieldSchema:
    field_name: str
    field_index: int
    cardinality: int  # distinct values + the reserved OOV slot

    def __post_init__(self):
        c = self.cardinality
        if isinstance(c, bool) or not isinstance(c, (int, np.integer)):
            raise DataError(f"field '{self.field_name}' has cardinality {c!r}; need an int")
        if c < 2:
            raise DataError(
                f"field '{self.field_name}' has cardinality {c}; "
                "need the OOV slot plus at least one value"
            )


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
        _require_unique([s.field_name for s in schemas])
        if len(schemas) != len(maps):
            raise DataError(f"{len(schemas)} field schemas but {len(maps)} vocabulary maps")
        for position, (schema, mapping) in enumerate(zip(schemas, maps)):
            if schema.field_index != position:
                raise DataError(
                    f"field '{schema.field_name}' has field_index {schema.field_index}, "
                    f"but is at position {position}"
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
        """Inverse of encode_row for in-vocabulary indices; OOV decodes to None."""
        if not 0 <= field < self.num_fields:
            raise DataError(f"no field {field}: the vocabulary has {self.num_fields} fields")
        values = self._values[field]
        return values[index - 1] if 0 < index <= len(values) else None

    def encode_row(self, row: list[str]) -> np.ndarray:
        if len(row) != self.num_fields:
            raise DataError(f"row has {len(row)} fields, schema expects {self.num_fields}")
        return np.array(
            [self.maps[i].get(v, OOV_INDEX) for i, v in enumerate(row)], dtype=np.int64
        )

    def save(self, path) -> None:
        """For each field: a line ``field_name TAB count``, then its ``count``
        values, one a line, in index order.

        Backslash, tab, newline and carriage return in a field name or a
        value are written as the escapes \\\\, \\t, \\n and \\r, so any
        string reads back.
        """
        with open(path, "w", encoding="utf-8") as f:
            for schema, mapping in zip(self.schemas, self.maps):
                f.write(f"{schema.field_name.translate(_ESCAPES)}\t{len(mapping)}\n")
                f.writelines(value.translate(_ESCAPES) + "\n" for value in mapping)

    @classmethod
    def load(cls, path, field_names: list[str]) -> "Vocabulary":
        """Read a file ``save`` wrote; its fields must be ``field_names``."""
        _require_unique(field_names, f"{path}: ")
        names, maps = _read_vocabulary(path)
        if names != list(field_names):
            raise DataError(f"{path}: holds the fields {names}, expected {list(field_names)}")
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
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except UnicodeDecodeError:
        raise _not_utf8_error(path) from None
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


def _require_unique(field_names: list[str], where: str = "") -> None:
    seen = set()
    for name in field_names:
        if name in seen:
            raise DataError(f"{where}duplicate field name {name!r}")
        seen.add(name)


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


def _not_utf8_error(path, newline: str | None = None) -> DataError:
    """The error for the first line of a text file that is not UTF-8, with
    lines split as ``open(path, newline=newline)`` splits them.  A leading
    byte-order mark is not counted as a column."""
    with open(path, encoding="utf-8-sig", errors="surrogateescape", newline=newline) as f:
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
    shape; a scalar gives a 0-d array."""
    scores = np.asarray(scores, dtype=np.float64)
    finite = np.isfinite(scores)
    if not finite.all():
        raise DataError(f"non-finite label score {float(scores[~finite][0])!r}")
    return (scores > threshold).astype(np.int64)


def split_dataset(
    dataset: EncodedDataset, ratios: tuple[float, float, float], seed: int
) -> DatasetSplit:
    """Seeded-shuffle partition into train/valid/test; same seed, same split."""
    # r > 0, not r <= 0, so that a NaN ratio fails
    if len(ratios) != 3 or not all(r > 0 for r in ratios):
        raise DataError(f"split ratios must be three positive numbers, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise DataError(f"split ratios must sum to 1, got {ratios}")
    n = len(dataset)
    if n < 3:
        raise DataError(f"need at least 3 examples to split, got {n}")
    perm = np.random.default_rng(seed).permutation(n)
    n_train = int(math.floor(n * ratios[0]))
    n_valid = int(math.floor(n * ratios[1]))
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
    ``csv.field_size_limit()``, name the line the reader had reached."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as f:
            reader = csv.reader(f)
            try:
                header = next(reader, None)
                rows = [row for row in reader if row]
            except csv.Error as exc:
                raise DataError(f"{path}:{reader.line_num}: {exc}") from None
    except UnicodeDecodeError:
        raise _not_utf8_error(path, newline="") from None
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
    with open(path, encoding="utf-8-sig", newline="") as f:
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
    _require_unique(header, "header: ")
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
    with open(path, "wb") as f:
        np.save(f, table, allow_pickle=False)


def read_split_file(path, num_fields: int) -> EncodedDataset:
    """Read a file ``write_split_file`` wrote: an int64 table of 1+num_fields
    columns, labels in {0,1}, indices >= 0.  Errors count rows from 0.

    The header's shape is checked against the file's size before the table
    is allocated, so a corrupt row count fails here, not in the allocator.
    """
    with open(path, "rb") as f:
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
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
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
