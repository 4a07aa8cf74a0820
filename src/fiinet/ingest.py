"""Raw interaction tables to encoded datasets.

Builds per-field vocabularies (index 0 reserved for out-of-vocabulary),
binarizes labels with a strict greater-than threshold, bucketizes numeric
attribute columns into quantile bins so the model only ever sees
categorical fields, and writes seeded train/valid/test splits.
"""

from __future__ import annotations

import csv
import itertools
import math
import re
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
        if self.cardinality < 2:
            raise DataError(
                f"field '{self.field_name}' has cardinality {self.cardinality}; "
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
    """Per-field value-to-index maps; encoding of unseen values never errors."""

    def __init__(self, schemas: list[FieldSchema], maps: list[dict[str, int]]):
        self.schemas = schemas
        self.maps = maps
        self._inverse = [
            {idx: val for val, idx in m.items()} for m in maps
        ]

    @property
    def num_fields(self) -> int:
        return len(self.schemas)

    def decode_value(self, field: int, index: int) -> str | None:
        """Inverse of encode_row for in-vocabulary indices; OOV decodes to None."""
        return self._inverse[field].get(index)

    def encode_row(self, row: list[str]) -> np.ndarray:
        if len(row) != self.num_fields:
            raise DataError(f"row has {len(row)} fields, schema expects {self.num_fields}")
        return np.array(
            [self.maps[i].get(v, OOV_INDEX) for i, v in enumerate(row)], dtype=np.int64
        )

    def save(self, path) -> None:
        """One line per entry, in index order: field_name TAB value TAB index.

        Backslash, tab, newline and carriage return in a field name or a
        value are written as the escapes \\\\, \\t, \\n and \\r, so any
        string reads back.
        """
        with open(path, "w", encoding="utf-8") as f:
            for schema, mapping in zip(self.schemas, self.maps):
                name = schema.field_name.translate(_ESCAPES)
                entries = sorted(mapping.items(), key=lambda kv: kv[1])
                for expected, (value, idx) in enumerate(entries, 1):
                    if idx != expected:
                        raise DataError(
                            f"field '{schema.field_name}': vocabulary indices are not "
                            f"1..{len(entries)} (found {idx} where {expected} belongs)"
                        )
                    f.write(f"{name}\t{value.translate(_ESCAPES)}\t{idx}\n")

    @classmethod
    def load(cls, path, field_names: list[str]) -> "Vocabulary":
        """Read a file ``save`` wrote.  Each field's values must take the
        indices 1, 2, 3, ... in file order, each value once."""
        maps: dict[str, dict[str, int]] = {name: {} for name in field_names}
        # field names as save escapes them, so each line is looked up as read
        by_text = {name.translate(_ESCAPES): maps[name] for name in field_names}
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                try:
                    name, value, idx = line.rstrip("\n").split("\t")
                except ValueError:
                    if line == "\n":
                        continue
                    raise DataError(f"{path}:{lineno}: malformed vocabulary line") from None
                if "\\" in value:
                    value = _unescape(value, path, lineno)
                try:
                    m = by_text[name]
                    m[value] = index = int(idx)
                except KeyError:
                    raise DataError(f"{path}:{lineno}: unknown field '{name}'") from None
                except ValueError:
                    raise DataError(f"{path}:{lineno}: index {idx!r} is not an integer") from None
                if index != len(m):
                    raise DataError(
                        f"{path}:{lineno}: field '{name}' value {value!r} has index {index}; "
                        "each field's values must take the indices 1, 2, 3, ... in order, "
                        "each value once"
                    )
        schemas = [
            FieldSchema(name, i, len(maps[name]) + 1) for i, name in enumerate(field_names)
        ]
        return cls(schemas, [maps[name] for name in field_names])


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


def build_vocabulary(rows: list[list[str]], field_names: list[str]) -> Vocabulary:
    """Assign indices >= 1 in first-appearance order; index 0 stays OOV.

    Deterministic given row order.
    """
    if not rows:
        raise DataError("empty dataset")
    f = len(field_names)
    maps: list[dict[str, int]] = [dict() for _ in range(f)]
    for rowno, row in enumerate(rows, 1):
        if len(row) != f:
            raise DataError(f"ragged row {rowno}: {len(row)} columns, expected {f}")
        for i, value in enumerate(row):
            if value not in maps[i]:
                maps[i][value] = len(maps[i]) + 1
    schemas = [FieldSchema(name, i, len(maps[i]) + 1) for i, name in enumerate(field_names)]
    return Vocabulary(schemas, maps)


def binarize_label(raw_score: float, threshold: float) -> int:
    """1 iff raw_score > threshold (strict), else 0."""
    if not math.isfinite(raw_score):
        raise DataError(f"non-finite label score {raw_score!r}")
    return 1 if raw_score > threshold else 0


def bucketize_numeric(values: list[str], num_bins: int) -> list[str]:
    """Map a numeric column to quantile-bin labels, usable as categories.

    Unparsable entries get their own 'nan' token.
    """
    if num_bins < 2:
        raise DataError(f"need at least 2 bins, got {num_bins}")
    parsed = np.full(len(values), np.nan)
    for i, v in enumerate(values):
        try:
            parsed[i] = float(v)
        except ValueError:
            pass
    finite = parsed[np.isfinite(parsed)]
    if finite.size == 0:
        return ["nan"] * len(values)
    edges = np.unique(np.quantile(finite, np.linspace(0, 1, num_bins + 1)[1:-1]))
    out = []
    for x in parsed:
        if not np.isfinite(x):
            out.append("nan")
        else:
            out.append(f"b{int(np.searchsorted(edges, x, side='right'))}")
    return out


def split_dataset(
    dataset: EncodedDataset, ratios: tuple[float, float, float], seed: int
) -> DatasetSplit:
    """Seeded-shuffle partition into train/valid/test; same seed, same split."""
    r_train, r_valid, r_test = ratios
    if min(ratios) <= 0:
        raise DataError(f"split ratios must be positive, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise DataError(f"split ratios must sum to 1, got {ratios}")
    n = len(dataset)
    if n < 3:
        raise DataError(f"need at least 3 examples to split, got {n}")
    perm = np.random.default_rng(seed).permutation(n)
    n_train = int(math.floor(n * r_train))
    n_valid = int(math.floor(n * r_valid))
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
    """Comma-separated text with a header row."""
    with open(path, encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        rows = [row for row in reader if row]
    if not rows:
        raise DataError("empty dataset")
    return header, rows


def encode_table(
    rows: list[list[str]],
    header: list[str],
    label_column: str,
    field_columns: list[str],
    threshold: float,
    numeric_fields: list[str] | None = None,
    numeric_bins: int = 10,
) -> tuple[Vocabulary, EncodedDataset]:
    """Vocabulary build plus full encode of one raw table."""
    missing = [c for c in [label_column, *field_columns] if c not in header]
    if missing:
        raise DataError(f"missing columns: {', '.join(missing)}")
    col_of = {name: header.index(name) for name in header}
    width = len(header)
    for rowno, row in enumerate(rows, 2):  # header was line 1
        if len(row) != width:
            raise DataError(f"ragged row {rowno}: {len(row)} columns, expected {width}")

    columns = {name: [row[col_of[name]] for row in rows] for name in field_columns}
    for name in numeric_fields or []:
        if name not in columns:
            raise DataError(f"numeric field '{name}' is not a field column")
        columns[name] = bucketize_numeric(columns[name], numeric_bins)

    field_rows = [
        [columns[name][i] for name in field_columns] for i in range(len(rows))
    ]
    vocab = build_vocabulary(field_rows, field_columns)

    labels = np.empty(len(rows), dtype=np.int64)
    for i, row in enumerate(rows):
        raw = row[col_of[label_column]]
        try:
            score = float(raw)
        except ValueError:
            raise DataError(f"row {i + 2}: non-numeric label {raw!r}") from None
        labels[i] = binarize_label(score, threshold)
    indices = np.stack([vocab.encode_row(r) for r in field_rows])
    return vocab, EncodedDataset(indices=indices, labels=labels)


# ---------------------------------------------------------------------------
# prepared-directory round trip


def write_split_file(path, dataset: EncodedDataset) -> None:
    """One example per line: label then the field indices, space-separated."""
    with open(path, "w", encoding="utf-8") as f:
        for label, idx in zip(dataset.labels, dataset.indices):
            f.write(f"{int(label)} " + " ".join(str(int(v)) for v in idx) + "\n")


def read_split_file(path, num_fields: int) -> EncodedDataset:
    """Read a file ``write_split_file`` wrote: labels in {0,1}, indices >= 0."""
    rows = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != num_fields + 1:
                raise DataError(f"{path}:{lineno}: expected 1+{num_fields} integers")
            try:
                rows.append(list(map(int, parts)))
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-integer token in {line.strip()!r}") from None
    if not rows:
        return EncodedDataset(np.zeros((0, num_fields), dtype=np.int64), np.zeros(0, dtype=np.int64))
    table = np.array(rows, dtype=np.int64)
    bad = (table[:, 0] > 1) | (table.min(axis=1) < 0)
    if bad.any():
        row = int(bad.argmax())
        label = int(table[row, 0])
        problem = f"label {label} is not 0 or 1" if label not in (0, 1) else "negative field index"
        raise DataError(f"{path}:{_line_of_row(path, row)}: {problem}")
    return EncodedDataset(table[:, 1:].copy(), table[:, 0].copy())


def _line_of_row(path, row: int) -> int:
    """1-based line number of the row-th (0-based) non-blank line."""
    with open(path, encoding="utf-8") as f:
        rows = (lineno for lineno, line in enumerate(f, 1) if line.split())
        return next(itertools.islice(rows, row, None))


def write_prepared(out_dir, vocab: Vocabulary, split: DatasetSplit) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "fields.tsv", "w", encoding="utf-8") as f:
        f.write("field_index\tfield_name\tcardinality\n")
        for s in vocab.schemas:
            f.write(f"{s.field_index}\t{s.field_name.translate(_ESCAPES)}\t{s.cardinality}\n")
    vocab.save(out / "vocab.tsv")
    write_split_file(out / "train.txt", split.train)
    write_split_file(out / "valid.txt", split.valid)
    write_split_file(out / "test.txt", split.test)


def _read_fields(path) -> list[tuple[int, str, int]]:
    """(line number, field name, cardinality) per row of a fields.tsv that
    ``write_prepared`` wrote: a header, then field_index 0, 1, 2, ... in order."""
    fields = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            if lineno == 1 or line == "\n":
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 3:
                raise DataError(
                    f"{path}:{lineno}: expected 3 tab-separated columns "
                    f"(field_index, field_name, cardinality), got {len(parts)}"
                )
            index = _int_column(parts[0], "field_index", path, lineno)
            cardinality = _int_column(parts[2], "cardinality", path, lineno)
            if index != len(fields):
                raise DataError(
                    f"{path}:{lineno}: field_index {index} out of order, expected {len(fields)}"
                )
            name = _unescape(parts[1], path, lineno) if "\\" in parts[1] else parts[1]
            fields.append((lineno, name, cardinality))
    if not fields:
        raise DataError(f"{path}: no fields")
    return fields


def _int_column(text: str, column: str, path, lineno: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise DataError(f"{path}:{lineno}: {column} {text!r} is not an integer") from None


def load_prepared(data_dir) -> tuple[Vocabulary, DatasetSplit]:
    data = Path(data_dir)
    fields_path = data / "fields.tsv"
    if not fields_path.exists():
        raise DataError(f"no prepared data at {data}: missing fields.tsv")
    fields = _read_fields(fields_path)
    vocab = Vocabulary.load(data / "vocab.tsv", [name for _, name, _ in fields])
    for (lineno, name, cardinality), schema in zip(fields, vocab.schemas):
        if cardinality != schema.cardinality:
            raise DataError(
                f"{fields_path}:{lineno}: field '{name}' has cardinality {cardinality}, "
                f"but vocab.tsv gives {schema.cardinality}"
            )
    f = vocab.num_fields
    split = DatasetSplit(
        train=read_split_file(data / "train.txt", f),
        valid=read_split_file(data / "valid.txt", f),
        test=read_split_file(data / "test.txt", f),
    )
    for part in (split.train, split.valid, split.test):
        for s in vocab.schemas:
            col = part.indices[:, s.field_index]
            if col.size and (col.min() < 0 or col.max() >= s.cardinality):
                raise DataError(
                    f"index out of range for field '{s.field_name}' in {data}"
                )
    return vocab, split
