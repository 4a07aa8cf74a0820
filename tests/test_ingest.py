"""Vocabulary build, label thresholds, splits, file round-trips."""

import csv
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiinet import ingest
from fiinet.errors import DataError


def vocabulary_of(rows, field_names):
    """The vocabulary ``encode_table`` builds from rows of field values,
    under a label column that no field shares a name with."""
    label = "".join(field_names) + "#"
    vocab, _ = ingest.encode_table(
        [["0", *row] for row in rows], [label, *field_names], label, list(field_names), 0.0
    )
    return vocab


class TestBuildVocabulary:
    """The vocabulary ``encode_table`` builds: values indexed from 1 in the
    order they first appear, 0 for any value not seen."""

    def test_first_seen_order(self):
        vocab = vocabulary_of([["A"], ["B"], ["A"]], ["brand"])
        assert vocab.maps[0] == {"A": 1, "B": 2}
        assert vocab.schemas[0].cardinality == 3

    def test_single_row_two_fields(self):
        vocab = vocabulary_of([["x", "y"]], ["f0", "f1"])
        assert [s.cardinality for s in vocab.schemas] == [2, 2]

    def test_unseen_value_maps_to_oov(self):
        vocab = vocabulary_of([["A"]], ["f"])
        assert vocab.encode_row(["ZZZ"])[0] == ingest.OOV_INDEX

    def test_empty_input(self):
        with pytest.raises(DataError, match="empty dataset"):
            vocabulary_of([], ["f"])

    def test_ragged_row_names_line(self):
        # rows are numbered as table lines, the header being row 1; the
        # helper's label column makes the expected width 3
        with pytest.raises(DataError, match="^ragged row 3: 2 columns, expected 3$"):
            vocabulary_of([["a", "b"], ["a"]], ["f0", "f1"])

    def test_duplicate_field_name_rejected(self):
        with pytest.raises(DataError, match="duplicate field name 'f'"):
            vocabulary_of([["a", "b"]], ["f", "f"])

    def test_round_trip_in_vocabulary(self):
        rows = [["a", "x"], ["b", "y"], ["c", "x"]]
        vocab = vocabulary_of(rows, ["f0", "f1"])
        for row in rows:
            idx = vocab.encode_row(row)
            assert [vocab.decode_value(fi, int(i)) for fi, i in enumerate(idx)] == row

    @pytest.mark.parametrize("value,shown", [
        (["x"], "['x'] of type list"),
        ({"x": 1}, "{'x': 1} of type dict"),
        (("x", ["y"]), "('x', ['y']) of type tuple"),
    ])
    def test_unhashable_value_names_its_field(self, value, shown):
        vocab = vocabulary_of([["a", "b"]], ["f0", "f1"])
        message = re.escape(f"field 'f1': value {shown} is not hashable")
        with pytest.raises(DataError, match=f"^{message}$"):
            vocab.encode_row(["a", value])

    def test_oov_closure_never_errors(self):
        vocab = vocabulary_of([["a"]], ["f"])
        for junk in ["", "weird\tvalue", "0", "a "]:
            if junk == "a":
                continue
            assert vocab.encode_row([junk])[0] == 0

    def test_deterministic_given_row_order(self):
        rows = [["c"], ["a"], ["b"], ["a"]]
        v1 = vocabulary_of(rows, ["f"])
        v2 = vocabulary_of(rows, ["f"])
        assert v1.maps == v2.maps
        assert v1.maps[0] == {"c": 1, "a": 2, "b": 3}


class TestBinarizeLabel:
    def test_above_book_threshold(self):
        assert ingest.binarize_label(7, 6) == 1

    def test_equal_is_negative(self):
        assert ingest.binarize_label(6, 6) == 0

    def test_watch_ratio_threshold(self):
        assert ingest.binarize_label(3.5, 3) == 1

    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            ingest.binarize_label(float("nan"), 6)
        with pytest.raises(DataError):
            ingest.binarize_label(float("inf"), 6)

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_threshold_rejected(self, threshold):
        # NaN or +inf would label every row 0, -inf every row 1
        with pytest.raises(DataError, match=f"^label threshold must be finite, got {threshold!r}$"):
            ingest.binarize_label([0.5, 2.0], threshold)

    @pytest.mark.parametrize("threshold", ["0", None, [0.0], True, np.True_])
    def test_threshold_that_is_not_a_real_number_rejected(self, threshold):
        with pytest.raises(DataError, match=r"^label threshold must be a real number, got "):
            ingest.binarize_label([0.5, 2.0], threshold)

    @pytest.mark.parametrize("threshold", [np.float32(1.5), np.float64(1.5), np.int64(1), 1])
    def test_numpy_real_thresholds_pass(self, threshold):
        assert ingest.binarize_label([0.5, 2.0], threshold).tolist() == [0, 1]

    @pytest.mark.parametrize("scores,dtype", [
        (["abc"], "<U3"), ([1.0, "2"], "<U32"), ([0.5, None], "object"), ([True, False], "bool"),
    ])
    def test_scores_that_are_not_numbers_rejected(self, scores, dtype):
        with pytest.raises(DataError, match=f"^label scores must be numbers, got dtype {dtype}$"):
            ingest.binarize_label(scores, 0.0)


class TestSplitDataset:
    @staticmethod
    def dataset(n, f=2):
        rng = np.random.default_rng(0)
        return ingest.EncodedDataset(
            rng.integers(0, 5, size=(n, f)), rng.integers(0, 2, size=n)
        )

    def test_rounding_sizes(self):
        split = ingest.split_dataset(self.dataset(10), (0.8, 0.1, 0.1), seed=7)
        assert (len(split.train), len(split.valid), len(split.test)) == (8, 1, 1)

    def test_same_seed_identical(self):
        ds = self.dataset(50)
        s1 = ingest.split_dataset(ds, (0.8, 0.1, 0.1), seed=3)
        s2 = ingest.split_dataset(ds, (0.8, 0.1, 0.1), seed=3)
        for a, b in [(s1.train, s2.train), (s1.valid, s2.valid), (s1.test, s2.test)]:
            assert np.array_equal(a.indices, b.indices)
            assert np.array_equal(a.labels, b.labels)

    def test_different_seed_differs(self):
        ds = self.dataset(50)
        s1 = ingest.split_dataset(ds, (0.8, 0.1, 0.1), seed=3)
        s2 = ingest.split_dataset(ds, (0.8, 0.1, 0.1), seed=4)
        assert not np.array_equal(s1.train.indices, s2.train.indices)

    def test_partition_is_exact(self):
        ds = self.dataset(23)
        split = ingest.split_dataset(ds, (0.6, 0.2, 0.2), seed=11)
        rows = np.concatenate([split.train.indices, split.valid.indices, split.test.indices])
        assert rows.shape == ds.indices.shape
        # disjoint union equals the input, up to permutation
        assert sorted(map(tuple, rows)) == sorted(map(tuple, ds.indices))

    def test_invalid_ratios(self):
        with pytest.raises(DataError):
            ingest.split_dataset(self.dataset(10), (0.5, 0.5, 0.5), seed=0)
        with pytest.raises(DataError):
            ingest.split_dataset(self.dataset(10), (0.9, 0.2, -0.1), seed=0)
        for ratios in [(0.8, float("nan"), 0.1), (0.5, 0.5), (0.7, 0.1, 0.1, 0.1)]:
            with pytest.raises(DataError, match=re.escape(f"got {ratios}")):
                ingest.split_dataset(self.dataset(10), ratios, seed=0)

    def test_too_few_examples(self):
        with pytest.raises(DataError):
            ingest.split_dataset(self.dataset(2), (0.8, 0.1, 0.1), seed=0)

    @pytest.mark.parametrize("n,ratios,part,sizes", [
        (9, (0.8, 0.1, 0.1), "valid", "7/0/2"),
        (19, (0.9, 0.05, 0.05), "valid", "17/0/2"),
        (3, (0.2, 0.4, 0.4), "train", "0/1/2"),
        (10, (0.5, 0.5, 1e-10), "test", "5/5/0"),
        (0, (0.8, 0.1, 0.1), "train", "0/0/0"),
    ])
    def test_ratios_that_leave_a_part_empty_name_it_and_the_sizes(self, n, ratios, part, sizes):
        message = re.escape(
            f"split ratios {ratios} leave the {part} part of {n} examples empty "
            f"(train/valid/test {sizes})"
        )
        with pytest.raises(DataError, match=f"^{message}$"):
            ingest.split_dataset(self.dataset(n), ratios, seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None, True, False])
    def test_seed_must_be_an_int_at_least_0(self, seed):
        # None would draw a fresh split from OS entropy on every call
        with pytest.raises(DataError, match=f"^split seed must be an int >= 0, got {re.escape(repr(seed))}$"):
            ingest.split_dataset(self.dataset(10), (0.8, 0.1, 0.1), seed=seed)

    def test_numpy_int_seed_gives_the_int_seeds_split(self):
        ds = self.dataset(20)
        s1 = ingest.split_dataset(ds, (0.6, 0.2, 0.2), seed=np.int64(3))
        s2 = ingest.split_dataset(ds, (0.6, 0.2, 0.2), seed=3)
        for part in ("train", "valid", "test"):
            assert np.array_equal(getattr(s1, part).indices, getattr(s2, part).indices)


class TestEncodeTable:
    HEADER = ["user", "item", "age", "rating"]
    ROWS = [
        ["u1", "i1", "25", "7"],
        ["u2", "i1", "31", "6"],
        ["u1", "i2", "25", "9"],
        ["u3", "i3", "44", "2"],
    ]

    def test_threshold_and_encoding(self):
        vocab, ds = ingest.encode_table(
            self.ROWS, self.HEADER, "rating", ["user", "item"], threshold=6
        )
        assert ds.labels.tolist() == [1, 0, 1, 0]
        assert ds.indices[0].tolist() == [1, 1]
        assert ds.indices[2].tolist() == [1, 2]

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_threshold_rejected(self, threshold):
        with pytest.raises(DataError, match=f"^label threshold must be finite, got {threshold!r}$"):
            ingest.encode_table(self.ROWS, self.HEADER, "rating", ["user"], threshold)

    @pytest.mark.parametrize("threshold", ["6", None, [6.0], True])
    def test_threshold_that_is_not_a_real_number_rejected(self, threshold):
        with pytest.raises(DataError, match=r"^label threshold must be a real number, got "):
            ingest.encode_table(self.ROWS, self.HEADER, "rating", ["user"], threshold)

    def test_missing_column_named(self):
        with pytest.raises(DataError, match="nope"):
            ingest.encode_table(self.ROWS, self.HEADER, "rating", ["user", "nope"], 6)

    @pytest.mark.parametrize("bad,message", [
        ("inf", "row 4: non-finite label score inf"),
        ("-inf", "row 4: non-finite label score -inf"),
        ("nan", "row 4: non-finite label score nan"),
        ("seven", "row 4: non-numeric label 'seven'"),
    ])
    def test_label_errors_name_the_row(self, bad, message):
        rows = [*self.ROWS[:2], [*self.ROWS[2][:3], bad], self.ROWS[3]]
        with pytest.raises(DataError, match=f"^{message}$"):
            ingest.encode_table(rows, self.HEADER, "rating", ["user"], threshold=6)

    def test_first_bad_label_is_named(self):
        rows = [row[:3] + [label] for row, label in zip(self.ROWS, ["1", "inf", "x", "2"])]
        with pytest.raises(DataError, match="row 3: non-finite"):
            ingest.encode_table(rows, self.HEADER, "rating", ["user"], threshold=6)

    def test_duplicate_field_column_rejected(self):
        with pytest.raises(DataError, match="duplicate field name 'user'"):
            ingest.encode_table(self.ROWS, self.HEADER, "rating", ["user", "item", "user"], 6)
        # a header that repeats a name: its second column would never be read
        header = ["user", "age", "age", "rating"]
        with pytest.raises(DataError, match="^header: duplicate field name 'age'$"):
            ingest.encode_table(self.ROWS, header, "rating", ["user", "age"], 6)

    def test_no_field_columns_rejected(self):
        # the (N, 0) split it would encode makes a directory load_prepared refuses
        with pytest.raises(DataError, match="^no field columns$"):
            ingest.encode_table(self.ROWS, self.HEADER, "rating", [], 6)

    def test_label_column_as_a_field_rejected(self):
        # a field that holds the label would leak it into the inputs
        with pytest.raises(DataError, match="^label column 'rating' is also a field column$"):
            ingest.encode_table(self.ROWS, self.HEADER, "rating", ["rating", "user"], 6)

    def test_ragged_row_names_line(self):
        rows = [self.ROWS[0], self.ROWS[1][:3], self.ROWS[2]]
        with pytest.raises(DataError, match="ragged row 3: 3 columns, expected 4"):
            ingest.encode_table(rows, self.HEADER, "rating", ["user"], threshold=6)


def first_appearance(rows, num_fields):
    """Plain-Python reference: per-field maps in first-appearance order and
    each row's indices."""
    maps = [{} for _ in range(num_fields)]
    indices = [[maps[j].setdefault(v, len(maps[j]) + 1) for j, v in enumerate(row)]
               for row in rows]
    return maps, indices


# strings that str.split, line iteration or numpy string arrays treat specially
AWKWARD = st.sampled_from(["", "a", "a\x00", "\x00", " ", "a ", "\x85", "\r", "\t", "\n", "\\"])


class TestEncodeTableMatchesReference:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda f: st.lists(
        st.tuples(st.floats(-5, 5), st.lists(AWKWARD | st.text(max_size=3), min_size=f, max_size=f)),
        min_size=3, max_size=30,
    )))
    def test_maps_indices_and_round_trip(self, tmp_path_factory, examples):
        num_fields = len(examples[0][1])
        names = [f"f{j}" for j in range(num_fields)]
        fields = [values for _, values in examples]
        rows = [[repr(score), *values] for score, values in examples]
        vocab, ds = ingest.encode_table(rows, ["label", *names], "label", names, threshold=0.5)
        maps, indices = first_appearance(fields, num_fields)
        assert [list(m.items()) for m in vocab.maps] == [list(m.items()) for m in maps]
        assert ds.indices.dtype == np.int64 and ds.indices.tolist() == indices
        assert ds.labels.tolist() == [int(score > 0.5) for score, _ in examples]

        out = tmp_path_factory.mktemp("prepared")
        # thirds leave no part of 3 or more rows empty
        split = ingest.split_dataset(ds, (1 / 3, 1 / 3, 1 / 3), seed=3)
        ingest.write_prepared(out, vocab, split)
        loaded_vocab, loaded = ingest.load_prepared(out)
        assert [list(m.items()) for m in loaded_vocab.maps] == [list(m.items()) for m in maps]
        assert loaded_vocab.schemas == vocab.schemas
        for part in ("train", "valid", "test"):
            a, b = getattr(split, part), getattr(loaded, part)
            assert np.array_equal(a.indices, b.indices) and np.array_equal(a.labels, b.labels)


class TestReadTable:
    def test_header_only_names_the_file(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("label,f0\n\n")
        with pytest.raises(DataError, match=r"raw.csv: empty dataset"):
            ingest.read_table(path)

    @pytest.mark.parametrize("text,line,width", [
        # a blank line and a quoted field spanning two lines come first
        ('label,a\n1,x\n\n"2\n",y\n3\n', 6, 1),
        ('label,a\n1,x\n"2\n",y,z\n3,w\n', 3, 3),
        ("label,a\n1,x\n2,y,\n", 3, 3),
    ])
    def test_ragged_record_names_file_and_line(self, tmp_path, text, line, width):
        path = tmp_path / "raw.csv"
        path.write_text(text, newline="")
        with pytest.raises(
            DataError, match=rf"raw.csv:{line}: ragged record: {width} columns, expected 2$"
        ):
            ingest.read_table(path)

    def test_not_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_bytes(b"label,a\n1,x\n0,y\xff\n")
        with pytest.raises(DataError, match=r"raw.csv:3: byte 0xff at column 4 is not UTF-8"):
            ingest.read_table(path)

    def test_byte_order_mark_is_dropped_from_the_header(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_bytes(b"\xef\xbb\xbflabel,a\n1,x\n0,y\n")
        header, rows = ingest.read_table(path)
        assert header == ["label", "a"]
        _, ds = ingest.encode_table(rows, header, "label", ["a"], 0.5)
        assert ds.labels.tolist() == [1, 0]

    def test_ragged_record_after_a_byte_order_mark_names_its_line(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_bytes(b"\xef\xbb\xbflabel,a\n1,x\n\n0,y,z\n")
        with pytest.raises(DataError, match=r"raw.csv:4: ragged record: 3 columns, expected 2$"):
            ingest.read_table(path)

    def test_not_utf8_after_a_byte_order_mark_counts_columns_after_it(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_bytes(b"\xef\xbb\xbflabel,a\xff\n1,x\n")
        with pytest.raises(DataError, match=r"raw.csv:1: byte 0xff at column 8 is not UTF-8"):
            ingest.read_table(path)

    @pytest.mark.parametrize("template,line", [
        ("label,{big}\n1,x\n", 1),
        ("label,a\n1,x\n0,{big}\n", 3),
    ])
    def test_value_over_the_csv_field_limit_names_file_and_line(self, tmp_path, template, line):
        path = tmp_path / "raw.csv"
        path.write_text(template.format(big="v" * (csv.field_size_limit() + 1)), newline="")
        with pytest.raises(DataError, match=rf"raw.csv:{line}: field larger than field limit"):
            ingest.read_table(path)

    def test_records_spanning_lines_and_blank_lines_read(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text('label,a\n1,x\n\n"2\n",y\n', newline="")
        assert ingest.read_table(path) == (["label", "a"], [["1", "x"], ["2\n", "y"]])


class TestFileRoundTrips:
    def test_vocab_file_format(self, tmp_path):
        vocab = vocabulary_of([["A", "x"], ["B", "y"]], ["f0", "f1"])
        path = tmp_path / "vocab.tsv"
        vocab.save(path)
        assert path.read_text() == "f0\t2\nA\nB\nf1\t2\nx\ny\n"
        loaded = ingest.Vocabulary.load(path, ["f0", "f1"])
        assert loaded.maps == vocab.maps

    def test_split_file_format(self, tmp_path):
        ds = ingest.EncodedDataset(np.array([[1, 2], [3, 0]]), np.array([1, 0]))
        path = tmp_path / "train.npy"
        ingest.write_split_file(path, ds)
        table = np.load(path, allow_pickle=False)
        assert table.dtype == np.int64 and table.tolist() == [[1, 1, 2], [0, 3, 0]]
        back = ingest.read_split_file(path, 2)
        assert back.indices.dtype == np.int64 and back.labels.dtype == np.int64
        assert np.array_equal(back.indices, ds.indices)
        assert np.array_equal(back.labels, ds.labels)

    def test_prepared_round_trip(self, tmp_path):
        rows = [["a", "x"], ["b", "y"], ["c", "x"], ["a", "y"], ["b", "x"]]
        vocab = vocabulary_of(rows, ["f0", "f1"])
        ds = ingest.EncodedDataset(
            np.stack([vocab.encode_row(r) for r in rows]),
            np.array([1, 0, 1, 0, 1]),
        )
        split = ingest.split_dataset(ds, (0.6, 0.2, 0.2), seed=5)
        ingest.write_prepared(tmp_path / "out", vocab, split)
        vocab2, split2 = ingest.load_prepared(tmp_path / "out")
        assert [s.cardinality for s in vocab2.schemas] == [s.cardinality for s in vocab.schemas]
        assert np.array_equal(split2.train.indices, split.train.indices)
        assert np.array_equal(split2.test.labels, split.test.labels)

    def test_byte_identical_outputs_for_same_seed(self, tmp_path):
        rows = [[f"u{i % 7}", f"i{i % 5}"] for i in range(40)]
        vocab = vocabulary_of(rows, ["u", "i"])
        ds = ingest.EncodedDataset(
            np.stack([vocab.encode_row(r) for r in rows]),
            np.arange(40) % 2,
        )
        blobs = []
        for d in ("a", "b"):
            split = ingest.split_dataset(ds, (0.8, 0.1, 0.1), seed=9)
            ingest.write_prepared(tmp_path / d, vocab, split)
            blobs.append(
                b"".join((tmp_path / d / n).read_bytes() for n in
                         ["vocab.tsv", "train.npy", "valid.npy", "test.npy"])
            )
        assert blobs[0] == blobs[1]

    def test_load_missing_dir(self, tmp_path):
        with pytest.raises(DataError, match="missing vocab.tsv$"):
            ingest.load_prepared(tmp_path / "nope")

    @pytest.mark.parametrize("name", ["vocab.tsv", "train.npy", "valid.npy", "test.npy"])
    def test_load_names_the_missing_file(self, tmp_path, name):
        TestFieldsFile.prepared(tmp_path)
        (tmp_path / name).unlink()
        with pytest.raises(DataError, match=rf"no prepared data at .*: missing {name}$"):
            ingest.load_prepared(tmp_path)

    def test_load_text_splits_names_the_first_missing_file(self, tmp_path):
        # the earlier layout: the same splits as space-separated text
        TestFieldsFile.prepared(tmp_path)
        for name in ingest.SPLIT_FILES:
            (tmp_path / name).unlink()
            (tmp_path / name).with_suffix(".txt").write_text("1 1 1\n")
        with pytest.raises(DataError, match="missing train.npy$"):
            ingest.load_prepared(tmp_path)


class TestFieldSchema:
    @pytest.mark.parametrize("cardinality", [5.5, 7.0, "7", None, True])
    def test_refuses_a_cardinality_that_is_not_an_int(self, cardinality):
        message = f"field 'a' has cardinality {re.escape(repr(cardinality))}; need an int$"
        with pytest.raises(DataError, match=message):
            ingest.FieldSchema("a", 0, cardinality)

    def test_accepts_numpy_ints(self):
        assert ingest.FieldSchema("a", 0, np.int64(7)).cardinality == 7

    @pytest.mark.parametrize("name", [5, None, b"f0", np.int64(1)])
    def test_refuses_a_field_name_that_is_not_a_str(self, name):
        # it would name parameters such as linear/5 and fail vocab.tsv's save
        with pytest.raises(DataError, match=f"^field name {re.escape(repr(name))} is not a str$"):
            ingest.FieldSchema(name, 0, 3)

    @pytest.mark.parametrize("name", ["\udc80", "f\ud800"])
    def test_refuses_a_field_name_utf8_cannot_encode(self, name):
        # a lone surrogate is a str, but vocab.tsv could not hold it
        message = f"^field name {re.escape(repr(name))} cannot be encoded as UTF-8$"
        with pytest.raises(DataError, match=message):
            ingest.FieldSchema(name, 0, 3)

    def test_refuses_fewer_than_2_slots(self):
        with pytest.raises(DataError, match="field 'a' has cardinality 1; need the OOV slot"):
            ingest.FieldSchema("a", 0, 1)


class TestVocabularyFile:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.text(), min_size=1, max_size=8, unique=True), st.lists(st.text(), min_size=1, max_size=4, unique=True))
    def test_round_trip_any_strings(self, tmp_path_factory, values0, values1):
        vocab = ingest.Vocabulary(
            [ingest.FieldSchema("f0", 0, len(values0) + 1), ingest.FieldSchema("f1", 1, len(values1) + 1)],
            [{v: i for i, v in enumerate(values0, 1)}, {v: i for i, v in enumerate(values1, 1)}],
        )
        path = tmp_path_factory.mktemp("vocab") / "vocab.tsv"
        vocab.save(path)
        loaded = ingest.Vocabulary.load(path, ["f0", "f1"])
        assert loaded.maps == vocab.maps
        assert loaded.schemas == vocab.schemas

    @pytest.mark.parametrize("value,shown", [
        (5, "5 of type int"), (None, "None of type NoneType"), (b"x", "b'x' of type bytes"),
        (("a",), "('a',) of type tuple"),
    ])
    def test_save_refuses_a_value_that_is_not_a_str_before_writing(self, tmp_path, value, shown):
        vocab = ingest.Vocabulary(
            [ingest.FieldSchema("f", 0, 2), ingest.FieldSchema("g", 1, 3)], [{"a": 1}, {"b": 1, value: 2}]
        )
        path = tmp_path / "vocab.tsv"
        path.write_text("an earlier file\n")
        with pytest.raises(DataError, match=f"^field 'g': value {re.escape(shown)} is not a str$"):
            vocab.save(path)
        assert path.read_text() == "an earlier file\n"

    @pytest.mark.parametrize("value", ["\udc80", "x\ud800y"])
    def test_save_refuses_a_value_utf8_cannot_encode_before_writing(self, tmp_path, value):
        vocab = ingest.Vocabulary(
            [ingest.FieldSchema("f", 0, 2), ingest.FieldSchema("g", 1, 3)], [{"a": 1}, {"x": 1, value: 2}]
        )
        path = tmp_path / "vocab.tsv"
        path.write_text("an earlier file\n")
        message = f"^field 'g': value {re.escape(repr(value))} cannot be encoded as UTF-8$"
        with pytest.raises(DataError, match=message):
            vocab.save(path)
        assert path.read_text() == "an earlier file\n"
        assert [p.name for p in tmp_path.iterdir()] == ["vocab.tsv"]

    @pytest.mark.parametrize("kind", [iter, tuple], ids=["generator", "tuple"])
    def test_load_reads_the_field_names_once(self, tmp_path, kind):
        path = tmp_path / "vocab.tsv"
        vocab = vocabulary_of([["a", "b"]], ["f", "g"])
        vocab.save(path)
        assert ingest.Vocabulary.load(path, kind(["f", "g"])).maps == vocab.maps
        expected = re.escape("holds the fields ['f', 'g'], expected ['g', 'f']")
        with pytest.raises(DataError, match=expected):
            ingest.Vocabulary.load(path, kind(["g", "f"]))

    def test_escapes_written(self, tmp_path):
        vocab = vocabulary_of([["x\ty"], ["a\\nb"], ["l1\nl2\r"]], ["f"])
        path = tmp_path / "vocab.tsv"
        vocab.save(path)
        assert path.read_bytes().decode() == "f\t3\nx\\ty\na\\\\nb\nl1\\nl2\\r\n"

    def test_unknown_escape_rejected(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text("f\t1\na\\q\n")
        with pytest.raises(DataError, match=r"vocab.tsv:2: unknown escape"):
            ingest.Vocabulary.load(path, ["f"])

    def test_repeated_value_names_its_second_line(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text("f\t4\na\nb\nc\nb\ng\t1\nb\n")
        with pytest.raises(DataError, match=r"vocab.tsv:5: field 'f' repeats the value 'b'$"):
            ingest.Vocabulary.load(path, ["f", "g"])

    def test_not_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_bytes(b"f\t2\na\n\xff\n")
        with pytest.raises(DataError, match=r"vocab.tsv:3: byte 0xff at column 1 is not UTF-8"):
            ingest.Vocabulary.load(path, ["f"])

    @pytest.mark.parametrize("field_names", [["f"], ["g", "f"], ["f", "g", "h"]])
    def test_other_field_list_names_the_file(self, tmp_path, field_names):
        path = tmp_path / "vocab.tsv"
        vocabulary_of([["a", "b"]], ["f", "g"]).save(path)
        with pytest.raises(
            DataError, match=re.escape(f"vocab.tsv: holds the fields ['f', 'g'], expected {field_names}")
        ):
            ingest.Vocabulary.load(path, field_names)

    def test_values_spelled_like_headers_or_empty_round_trip(self, tmp_path):
        vocab = vocabulary_of([["f\t3", ""], ["", "g\t1"], ["2", "f"]], ["f", "g"])
        path = tmp_path / "vocab.tsv"
        vocab.save(path)
        loaded = ingest.Vocabulary.load(path, ["f", "g"])
        assert [list(m.items()) for m in loaded.maps] == [list(m.items()) for m in vocab.maps]
        assert loaded.schemas == vocab.schemas

    def test_decode_value_outside_the_map_is_none(self):
        vocab = vocabulary_of([["a"], ["b"], ["c"]], ["f"])
        assert [vocab.decode_value(0, i) for i in range(-1, 5)] == [None, None, "a", "b", "c", None]

    @pytest.mark.parametrize("index", [1.0, "1", True, np.True_, None, np.float64(1)],
                             ids=["float", "str", "bool", "numpy-bool", "none", "numpy-float"])
    def test_decode_value_refuses_an_index_that_is_not_an_int(self, index):
        # True used to decode the first value, 1.0 and "1" raised TypeError
        vocab = vocabulary_of([["a"], ["b"]], ["f"])
        with pytest.raises(DataError, match=f"^index {re.escape(repr(index))} of field 0 is not an int$"):
            vocab.decode_value(0, index)

    @pytest.mark.parametrize("field", [True, 1.0, "0", None], ids=["bool", "float", "str", "none"])
    def test_decode_value_refuses_a_field_that_is_not_an_int(self, field):
        # True used to decode field 1, 1.0 and "0" raised TypeError
        vocab = vocabulary_of([["a", "b"]], ["f", "g"])
        with pytest.raises(DataError, match=f"^no field {re.escape(repr(field))}: the vocabulary has 2 fields$"):
            vocab.decode_value(field, 1)

    def test_decode_value_takes_numpy_ints(self):
        vocab = vocabulary_of([["a"], ["b"], ["c"]], ["f"])
        assert [vocab.decode_value(0, i) for i in (np.int64(1), np.int32(2), np.uint8(3))] == ["a", "b", "c"]
        assert vocab.decode_value(np.int64(0), 1) == "a"

    @pytest.mark.parametrize("field", [-1, 2, 5])
    def test_decode_value_of_a_field_it_lacks_rejected(self, field):
        # -1 would otherwise decode the last field's value
        vocab = vocabulary_of([["a", "b"]], ["f", "g"])
        with pytest.raises(DataError, match=f"^no field {field}: the vocabulary has 2 fields$"):
            vocab.decode_value(field, 1)

    def test_duplicate_field_names_rejected(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        vocabulary_of([["a"]], ["f"]).save(path)
        with pytest.raises(DataError, match=r"vocab.tsv: duplicate field name 'f'"):
            ingest.Vocabulary.load(path, ["f", "f"])
        with pytest.raises(DataError, match="duplicate field name 'f'"):
            ingest.Vocabulary([ingest.FieldSchema("f", i, 2) for i in range(2)], [{"a": 1}, {"a": 1}])

    @pytest.mark.parametrize("mapping", [{"a": 1, "b": 3}, {"b": 2, "a": 1}, {"a": 0, "b": 1}])
    def test_constructor_refuses_indices_out_of_position(self, mapping):
        with pytest.raises(DataError, match=r"field 'f': indices are not 1..2 in insertion order$"):
            ingest.Vocabulary([ingest.FieldSchema("f", 0, 3)], [mapping])

    def test_constructor_refuses_a_cardinality_other_than_values_plus_1(self):
        with pytest.raises(DataError, match="field 'f' has cardinality 5, but 1 values$"):
            ingest.Vocabulary([ingest.FieldSchema("f", 0, 5)], [{"a": 1}])

    def test_constructor_refuses_a_field_index_other_than_the_position(self):
        with pytest.raises(DataError, match="field 'f' has field_index 3, but is at position 0$"):
            ingest.Vocabulary([ingest.FieldSchema("f", 3, 2)], [{"a": 1}])
        schemas = [ingest.FieldSchema("f", 1, 2), ingest.FieldSchema("g", 0, 2)]
        with pytest.raises(DataError, match="field 'f' has field_index 1, but is at position 0$"):
            ingest.Vocabulary(schemas, [{"a": 1}, {"b": 1}])

    def test_constructor_refuses_unpaired_schemas_and_maps(self):
        schemas = [ingest.FieldSchema("f", 0, 2), ingest.FieldSchema("g", 1, 2)]
        with pytest.raises(DataError, match="2 field schemas but 1 vocabulary maps$"):
            ingest.Vocabulary(schemas, [{"a": 1}])
        with pytest.raises(DataError, match="1 field schemas but 2 vocabulary maps$"):
            ingest.Vocabulary(schemas[:1], [{"a": 1}, {"b": 1}])

    def test_prepared_round_trip_with_tab_and_newline(self, tmp_path):
        rows = [["x\ty", "p"], ["a\nb", "q"], ["x\ty", "q"], ["c", "p"], ["a\nb", "p"]]
        vocab = vocabulary_of(rows, ["f0", "f1"])
        ds = ingest.EncodedDataset(np.stack([vocab.encode_row(r) for r in rows]), np.array([1, 0, 1, 0, 1]))
        ingest.write_prepared(tmp_path / "out", vocab, ingest.split_dataset(ds, (0.6, 0.2, 0.2), seed=1))
        loaded, _ = ingest.load_prepared(tmp_path / "out")
        assert loaded.maps == vocab.maps


def write_npy(path, array) -> None:
    with open(path, "wb") as f:
        np.save(f, np.asarray(array), allow_pickle=False)


class TestSplitFileValidation:
    @pytest.mark.parametrize("second,message", [
        ("7 1 2", "label 7 is not 0 or 1"),
        ("-1 1 2", "label -1 is not 0 or 1"),
        ("1 -3 2", "negative field index"),
    ])
    def test_bad_second_line_names_file_and_line(self, tmp_path, second, message):
        path = tmp_path / "train.npy"
        write_npy(path, [[0, 1, 2], [int(v) for v in second.split()]])
        with pytest.raises(DataError, match=rf"train.npy: row 1: {message}$"):
            ingest.read_split_file(path, 2)

    def test_first_bad_line_is_named(self, tmp_path):
        path = tmp_path / "train.npy"
        write_npy(path, [[0, 1, 2], [1, 1, 2], [1, -1, 2], [7, 1, 2]])
        with pytest.raises(DataError, match="train.npy: row 2: negative field index$"):
            ingest.read_split_file(path, 2)

    def test_empty_file(self, tmp_path):
        # a split with no examples is a 0-row table
        path = tmp_path / "train.npy"
        ingest.write_split_file(
            path, ingest.EncodedDataset(np.zeros((0, 3), np.int64), np.zeros(0, np.int64))
        )
        back = ingest.read_split_file(path, 3)
        assert back.indices.shape == (0, 3) and back.indices.dtype == np.int64
        assert back.labels.shape == (0,) and back.labels.dtype == np.int64

    @pytest.mark.parametrize("content,message", [
        (b"", "not a .npy file: EOF"),
        (b"0 1 2\n1 3 4\n", "not a .npy file: the magic string is not correct"),
        (b"\x93NUMPY\x02\x00", r"not a .npy file: format version \(2, 0\)"),
    ], ids=["empty", "text", "version 2"])
    def test_not_npy_names_the_file(self, tmp_path, content, message):
        path = tmp_path / "train.npy"
        path.write_bytes(content)
        with pytest.raises(DataError, match=rf"train.npy: {message}"):
            ingest.read_split_file(path, 2)

    @pytest.mark.parametrize("header", [
        b"{'descr': '<i8', 'fortran_order': False, 'shape': (2, 3, }",
        b"{'descr': '<08', 'fortran_order': False, 'shape': (2, 3), }",
        b"{'descr': '<i8', 'fortran_order': False, b'shape': (2, 3), }",
        b"{'descr': '<i8', 'fortran_order': False}",
        b"{'descr': '<i8', 'fortran_order': False, 'shape': (2.0, 3), }",
    ], ids=["tokenizer", "parser", "mixed keys", "missing key", "float shape"])
    def test_corrupt_header_names_the_file(self, tmp_path, header):
        path = tmp_path / "train.npy"
        header = header.ljust(117) + b"\n"
        path.write_bytes(
            b"\x93NUMPY\x01\x00" + struct.pack("<H", len(header)) + header + bytes(48)
        )
        with pytest.raises(DataError, match="train.npy: not a .npy file"):
            ingest.read_split_file(path, 2)

    @pytest.mark.parametrize("table,got", [
        (np.array([[0, 1, 2]], dtype=object), r"object of shape \(1, 3\)"),
        (np.array([[0.0, 1.0, 2.0]]), r"float64 of shape \(1, 3\)"),
        (np.array([[0, 1, 2]], dtype=np.int32), r"int32 of shape \(1, 3\)"),
        (np.array([0, 1, 2]), r"int64 of shape \(3,\)"),
        (np.zeros((1, 2, 3), np.int64), r"int64 of shape \(1, 2, 3\)"),
        (np.zeros((2, 4), np.int64), r"int64 of shape \(2, 4\)"),
    ], ids=["object", "float", "int32", "1-d", "3-d", "too wide"])
    def test_wrong_dtype_or_shape_names_the_file(self, tmp_path, table, got):
        path = tmp_path / "train.npy"
        with open(path, "wb") as f:
            np.save(f, table, allow_pickle=True)
        with pytest.raises(
            DataError, match=rf"train.npy: expected an int64 table of 1\+2 columns, got {got}$"
        ):
            ingest.read_split_file(path, 2)

    def test_every_line_is_counted_not_just_the_total(self, tmp_path):
        # as many values as a (2, 3) table, two to a row
        path = tmp_path / "train.npy"
        write_npy(path, np.zeros((3, 2), np.int64))
        with pytest.raises(DataError, match=r"train.npy: expected an int64 table of 1\+2 columns"):
            ingest.read_split_file(path, 2)

    def test_truncated_file_names_the_file(self, tmp_path):
        path = tmp_path / "train.npy"
        write_npy(path, np.ones((4, 3), np.int64))
        whole = path.read_bytes()
        header = len(whole) - 4 * 3 * 8
        for cut in (5, header - 1):
            path.write_bytes(whole[:cut])
            with pytest.raises(DataError, match="train.npy: not a .npy file: EOF"):
                ingest.read_split_file(path, 2)
        path.write_bytes(whole[:-8])
        with pytest.raises(
            DataError, match=r"train.npy: the header gives 4 rows \(96 bytes\), but 88 bytes follow it$"
        ):
            ingest.read_split_file(path, 2)
        path.write_bytes(whole + b"\0")
        with pytest.raises(DataError, match="but 97 bytes follow it$"):
            ingest.read_split_file(path, 2)

    def test_huge_row_count_rejected_before_allocating(self, tmp_path):
        path = tmp_path / "train.npy"
        with open(path, "wb") as f:
            np.lib.format.write_array_header_1_0(f, {
                "descr": np.lib.format.dtype_to_descr(np.dtype(np.int64)),
                "fortran_order": False,
                "shape": (10**13, 3),
            })
            f.write(np.ones((4, 3), np.int64).tobytes())
        with pytest.raises(DataError, match=r"train.npy: the header gives 10000000000000 rows"):
            ingest.read_split_file(path, 2)

    def test_load_prepared_rejects_out_of_range_indices(self, tmp_path):
        rows = [["a", "x"], ["b", "y"], ["c", "x"], ["a", "y"], ["b", "x"]]
        vocab = vocabulary_of(rows, ["f0", "f1"])
        ds = ingest.EncodedDataset(np.stack([vocab.encode_row(r) for r in rows]), np.array([1, 0, 1, 0, 1]))
        ingest.write_prepared(tmp_path, vocab, ingest.split_dataset(ds, (0.6, 0.2, 0.2), seed=5))
        write_npy(tmp_path / "test.npy", [[1, 0, 0], [1, 1, 2], [0, 4, 9]])
        with pytest.raises(DataError, match=r"test.npy: row 2: index 4 out of range for field 'f0'$"):
            ingest.load_prepared(tmp_path)
        write_npy(tmp_path / "test.npy", [[1, 0, 0], [0, -1, 0]])
        with pytest.raises(DataError, match="test.npy: row 1: negative field index"):
            ingest.load_prepared(tmp_path)
        write_npy(tmp_path / "test.npy", [[1, 0, 0]])
        write_npy(tmp_path / "valid.npy", [[1, 0, 0], [0, 1, 3], [0, 9, 0]])
        with pytest.raises(DataError, match=r"valid.npy: row 1: index 3 out of range for field 'f1'$"):
            ingest.load_prepared(tmp_path)


class TestFieldsFile:
    """The field list of a prepared directory: the header lines of vocab.tsv."""

    @staticmethod
    def prepared(out, field_names=("f0", "f1")):
        rows = [["a", "x"], ["b", "y"], ["c", "x"], ["a", "y"], ["b", "x"]]
        rows = [[row[i % 2] for i in range(len(field_names))] for row in rows]
        vocab = vocabulary_of(rows, list(field_names))
        ds = ingest.EncodedDataset(np.stack([vocab.encode_row(r) for r in rows]), np.array([1, 0, 1, 0, 1]))
        ingest.write_prepared(out, vocab, ingest.split_dataset(ds, (0.6, 0.2, 0.2), seed=5))
        return vocab

    @pytest.mark.parametrize("rows,bad_line,message", [
        (["f\\q0\t3", "a", "b", "c", "f1\t2", "x", "y"], 1, "unknown escape"),
        (["f0\t3", "a", "b", "c", "f0\t2", "x", "y"], 5, "duplicate field name 'f0'"),
        (["f0 3", "a", "b", "c", "f1\t2", "x", "y"], 1, "expected a field header"),
        (["f0\tx", "a", "b", "c", "f1\t2", "x", "y"], 1, "expected a field header"),
        (["f0\t0", "f1\t2", "x", "y"], 1, "expected a field header"),
        (["f0\t3", "a", "b", "c", "f1\t2", "x"], 5, "field 'f1' has 1 of its 2 values$"),
        (["f0\t3", "a", "b", "c", "f1\t2", "x", "y", ""], 8, "expected a field header"),
        (["f0\ta\t1", "f0\tb\t2", "f0\tc\t3", "f1\tx\t1", "f1\ty\t2"], 1,
         "expected a field header"),
    ], ids=["unknown-escape", "duplicate-name", "no-tab", "count-x", "count-0", "cut-short",
            "extra-line", "old-three-column-layout"])
    def test_bad_rows_name_file_and_line(self, tmp_path, rows, bad_line, message):
        self.prepared(tmp_path)
        (tmp_path / "vocab.tsv").write_text("\n".join(rows) + "\n")
        with pytest.raises(DataError, match=rf"vocab.tsv:{bad_line}: {message}"):
            ingest.load_prepared(tmp_path)

    def test_not_utf8_names_file_and_line(self, tmp_path):
        self.prepared(tmp_path)
        (tmp_path / "vocab.tsv").write_bytes(b"f\xff0\t3\na\nb\nc\nf1\t2\nx\ny\n")
        with pytest.raises(DataError, match=r"vocab.tsv:1: byte 0xff at column 2 is not UTF-8"):
            ingest.load_prepared(tmp_path)

    def test_no_fields(self, tmp_path):
        self.prepared(tmp_path)
        (tmp_path / "vocab.tsv").write_text("")
        with pytest.raises(DataError, match="vocab.tsv: no fields"):
            ingest.load_prepared(tmp_path)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.text(), min_size=1, max_size=4, unique=True))
    def test_round_trip_any_field_names(self, tmp_path_factory, names):
        out = tmp_path_factory.mktemp("prepared")
        vocab = self.prepared(out, names)
        loaded, _ = ingest.load_prepared(out)
        assert loaded.schemas == vocab.schemas
        assert loaded.maps == vocab.maps


READERS = {
    "table": ingest.read_table,
    "vocabulary": lambda path: ingest.Vocabulary.load(path, ["f0"]),
    "split file": lambda path: ingest.read_split_file(path, 2),
}


@pytest.mark.parametrize("what", READERS)
@pytest.mark.parametrize("make,reason", [
    (lambda path: None, "No such file or directory"),
    (lambda path: path.mkdir(), "Is a directory"),
], ids=["missing", "directory"])
def test_a_path_that_cannot_be_opened_is_a_data_error_naming_it(tmp_path, what, make, reason):
    path = tmp_path / "input"
    make(path)
    with pytest.raises(DataError, match=f"^cannot open {what} {re.escape(str(path))}: {reason}$"):
        READERS[what](path)


class TestRefusedInputs:
    """Inputs of the wrong type, each refused with a DataError naming it
    rather than read some other way or failing outside the package's
    errors."""

    HEADER, ROWS = TestEncodeTable.HEADER, TestEncodeTable.ROWS

    @pytest.mark.parametrize("columns", ["user", "ui", b"user"])
    def test_encode_table_refuses_field_columns_given_as_one_string(self, columns):
        # "user" was read as ["user"] by luck, "ui" as the columns u and i
        message = f"^field columns: field names must be a list of str, got {re.escape(repr(columns))}$"
        with pytest.raises(DataError, match=message):
            ingest.encode_table(self.ROWS, self.HEADER, "rating", columns, 6)

    @pytest.mark.parametrize("name", [3, None, "\udc80"])
    def test_encode_table_refuses_a_header_entry_that_is_not_a_field_name(self, name):
        rows = [[*row, "x"] for row in self.ROWS]
        with pytest.raises(DataError, match=rf"^header: field name {re.escape(repr(name))} "):
            ingest.encode_table(rows, [*self.HEADER, name], "rating", ["user"], 6)

    @pytest.mark.parametrize("names", ["fg", b"fg", None, 5])
    def test_load_refuses_field_names_that_are_not_a_list(self, tmp_path, names):
        # "fg" was compared with the file's fields as ['f', 'g']
        path = tmp_path / "vocab.tsv"
        vocabulary_of([["a", "b"]], ["f", "g"]).save(path)
        message = f"vocab.tsv: field names must be a list of str, got {re.escape(repr(names))}$"
        with pytest.raises(DataError, match=message):
            ingest.Vocabulary.load(path, names)

    def test_encode_row_refuses_a_str(self):
        # "xy" was encoded as the row ["x", "y"]
        vocab = vocabulary_of([["x", "y"]], ["f", "g"])
        with pytest.raises(DataError, match="^row must be a list of values, got 'xy'$"):
            vocab.encode_row("xy")

    @pytest.mark.parametrize("row", [None, 5, iter(["x", "y"])], ids=["none", "int", "iterator"])
    def test_encode_row_refuses_a_row_with_no_length(self, row):
        vocab = vocabulary_of([["x", "y"]], ["f", "g"])
        with pytest.raises(DataError, match="^row must be a list of values, got "):
            vocab.encode_row(row)

    def test_encode_row_refuses_a_row_of_the_wrong_length(self):
        vocab = vocabulary_of([["x", "y"]], ["f", "g"])
        with pytest.raises(DataError, match="^row has 1 fields, schema expects 2$"):
            vocab.encode_row(["x"])

    @pytest.mark.parametrize("ratios", [
        ("a", "b", "c"), 5, None, (0.6, "0.2", 0.2), (0.6, True, 0.2),
    ])
    def test_split_refuses_ratios_that_are_not_three_real_numbers(self, ratios):
        ds = TestSplitDataset.dataset(10)
        message = f"^split ratios must be three positive numbers, got {re.escape(str(ratios))}$"
        with pytest.raises(DataError, match=message):
            ingest.split_dataset(ds, ratios, 0)

    def test_split_accepts_numpy_ratios(self):
        ds = TestSplitDataset.dataset(10)
        ratios = np.array([0.6, 0.2, 0.2])
        split = ingest.split_dataset(ds, ratios, 0)
        expected = ingest.split_dataset(ds, (0.6, 0.2, 0.2), 0)
        assert np.array_equal(split.test.indices, expected.test.indices)

    @pytest.mark.parametrize("mapping", [["x"], ("x",), None])
    def test_vocabulary_refuses_a_map_that_is_not_a_dict(self, mapping):
        message = f"^field 'f': vocabulary map {re.escape(repr(mapping))} is not a dict$"
        with pytest.raises(DataError, match=message):
            ingest.Vocabulary([ingest.FieldSchema("f", 0, 2)], [mapping])


def test_read_table_refuses_an_empty_file(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_bytes(b"")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: empty file$"):
        ingest.read_table(path)
