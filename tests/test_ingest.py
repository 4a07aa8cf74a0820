"""Vocabulary build, label thresholds, splits, file round-trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiinet import ingest
from fiinet.errors import DataError


class TestBuildVocabulary:
    def test_first_seen_order(self):
        vocab = ingest.build_vocabulary([["A"], ["B"], ["A"]], ["brand"])
        assert vocab.maps[0] == {"A": 1, "B": 2}
        assert vocab.schemas[0].cardinality == 3

    def test_single_row_two_fields(self):
        vocab = ingest.build_vocabulary([["x", "y"]], ["f0", "f1"])
        assert [s.cardinality for s in vocab.schemas] == [2, 2]

    def test_unseen_value_maps_to_oov(self):
        vocab = ingest.build_vocabulary([["A"]], ["f"])
        assert vocab.encode_value(0, "ZZZ") == ingest.OOV_INDEX

    def test_empty_input(self):
        with pytest.raises(DataError, match="empty dataset"):
            ingest.build_vocabulary([], ["f"])

    def test_ragged_row_names_line(self):
        with pytest.raises(DataError, match="row 2"):
            ingest.build_vocabulary([["a", "b"], ["a"]], ["f0", "f1"])

    def test_round_trip_in_vocabulary(self):
        rows = [["a", "x"], ["b", "y"], ["c", "x"]]
        vocab = ingest.build_vocabulary(rows, ["f0", "f1"])
        for fi in range(2):
            for value in {r[fi] for r in rows}:
                assert vocab.decode_value(fi, vocab.encode_value(fi, value)) == value

    def test_oov_closure_never_errors(self):
        vocab = ingest.build_vocabulary([["a"]], ["f"])
        for junk in ["", "weird\tvalue", "0", "a "]:
            if junk == "a":
                continue
            assert vocab.encode_value(0, junk) == 0

    def test_deterministic_given_row_order(self):
        rows = [["c"], ["a"], ["b"], ["a"]]
        v1 = ingest.build_vocabulary(rows, ["f"])
        v2 = ingest.build_vocabulary(rows, ["f"])
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

    def test_too_few_examples(self):
        with pytest.raises(DataError):
            ingest.split_dataset(self.dataset(2), (0.8, 0.1, 0.1), seed=0)


class TestBucketize:
    def test_quantile_bins(self):
        values = [str(v) for v in range(100)]
        labels = ingest.bucketize_numeric(values, 4)
        assert len(set(labels)) == 4
        assert labels[0] == "b0" and labels[-1] == "b3"

    def test_unparsable_gets_nan_token(self):
        labels = ingest.bucketize_numeric(["1", "x", "3"], 2)
        assert labels[1] == "nan"

    def test_all_unparsable(self):
        assert ingest.bucketize_numeric(["a", "b"], 2) == ["nan", "nan"]


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

    def test_missing_column_named(self):
        with pytest.raises(DataError, match="nope"):
            ingest.encode_table(self.ROWS, self.HEADER, "rating", ["user", "nope"], 6)

    def test_numeric_field_bucketized(self):
        vocab, ds = ingest.encode_table(
            self.ROWS,
            self.HEADER,
            "rating",
            ["user", "age"],
            threshold=6,
            numeric_fields=["age"],
            numeric_bins=2,
        )
        age_values = set(vocab.maps[1])
        assert age_values <= {"b0", "b1"}


class TestFileRoundTrips:
    def test_vocab_file_format(self, tmp_path):
        vocab = ingest.build_vocabulary([["A", "x"], ["B", "y"]], ["f0", "f1"])
        path = tmp_path / "vocab.tsv"
        vocab.save(path)
        assert "f0\tA\t1" in path.read_text().splitlines()
        loaded = ingest.Vocabulary.load(path, ["f0", "f1"])
        assert loaded.maps == vocab.maps

    def test_split_file_format(self, tmp_path):
        ds = ingest.EncodedDataset(np.array([[1, 2], [3, 0]]), np.array([1, 0]))
        path = tmp_path / "train.txt"
        ingest.write_split_file(path, ds)
        assert path.read_text() == "1 1 2\n0 3 0\n"
        back = ingest.read_split_file(path, 2)
        assert np.array_equal(back.indices, ds.indices)
        assert np.array_equal(back.labels, ds.labels)

    def test_prepared_round_trip(self, tmp_path):
        rows = [["a", "x"], ["b", "y"], ["c", "x"], ["a", "y"], ["b", "x"]]
        vocab = ingest.build_vocabulary(rows, ["f0", "f1"])
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
        vocab = ingest.build_vocabulary(rows, ["u", "i"])
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
                         ["fields.tsv", "vocab.tsv", "train.txt", "valid.txt", "test.txt"])
            )
        assert blobs[0] == blobs[1]

    def test_load_missing_dir(self, tmp_path):
        with pytest.raises(DataError, match="fields.tsv"):
            ingest.load_prepared(tmp_path / "nope")


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

    def test_escapes_written(self, tmp_path):
        vocab = ingest.build_vocabulary([["x\ty"], ["a\\nb"], ["l1\nl2\r"]], ["f"])
        path = tmp_path / "vocab.tsv"
        vocab.save(path)
        assert path.read_text().splitlines() == [
            "f\tx\\ty\t1", "f\ta\\\\nb\t2", "f\tl1\\nl2\\r\t3",
        ]

    def test_unknown_escape_rejected(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text("f\ta\\q\t1\n")
        with pytest.raises(DataError, match=r"vocab.tsv:1: unknown escape"):
            ingest.Vocabulary.load(path, ["f"])

    @pytest.mark.parametrize("lines,bad_line", [
        (["f\ta\t1", "f\tb\t1"], 2),  # repeated index
        (["f\ta\t1", "f\tb\t3"], 2),  # gap
        (["f\ta\t1", "f\ta\t2"], 2),  # repeated value
        (["f\ta\t2", "f\tb\t1"], 1),  # out of order
        (["f\ta\t1", "f\tb\tx"], 2),  # not an integer
    ])
    def test_bad_indices_name_file_and_line(self, tmp_path, lines, bad_line):
        path = tmp_path / "vocab.tsv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=rf"vocab.tsv:{bad_line}: "):
            ingest.Vocabulary.load(path, ["f"])

    def test_save_refuses_indices_load_would_reject(self, tmp_path):
        vocab = ingest.Vocabulary([ingest.FieldSchema("f", 0, 3)], [{"a": 1, "b": 3}])
        with pytest.raises(DataError, match="not 1..2"):
            vocab.save(tmp_path / "vocab.tsv")

    def test_prepared_round_trip_with_tab_and_newline(self, tmp_path):
        rows = [["x\ty", "p"], ["a\nb", "q"], ["x\ty", "q"], ["c", "p"], ["a\nb", "p"]]
        vocab = ingest.build_vocabulary(rows, ["f0", "f1"])
        ds = ingest.EncodedDataset(np.stack([vocab.encode_row(r) for r in rows]), np.array([1, 0, 1, 0, 1]))
        ingest.write_prepared(tmp_path / "out", vocab, ingest.split_dataset(ds, (0.6, 0.2, 0.2), seed=1))
        loaded, _ = ingest.load_prepared(tmp_path / "out")
        assert loaded.maps == vocab.maps


class TestSplitFileValidation:
    @pytest.mark.parametrize("second,message", [
        ("1 x 2", "non-integer token"),
        ("7 1 2", "label 7 is not 0 or 1"),
        ("-1 1 2", "label -1 is not 0 or 1"),
        ("1 -3 2", "negative field index"),
        ("1 1", r"expected 1\+2 integers"),
    ])
    def test_bad_second_line_names_file_and_line(self, tmp_path, second, message):
        path = tmp_path / "train.txt"
        path.write_text("0 1 2\n" + second + "\n")
        with pytest.raises(DataError, match=rf"train.txt:2: {message}"):
            ingest.read_split_file(path, 2)

    def test_load_prepared_rejects_out_of_range_indices(self, tmp_path):
        rows = [["a", "x"], ["b", "y"], ["c", "x"], ["a", "y"], ["b", "x"]]
        vocab = ingest.build_vocabulary(rows, ["f0", "f1"])
        ds = ingest.EncodedDataset(np.stack([vocab.encode_row(r) for r in rows]), np.array([1, 0, 1, 0, 1]))
        ingest.write_prepared(tmp_path, vocab, ingest.split_dataset(ds, (0.6, 0.2, 0.2), seed=5))
        (tmp_path / "test.txt").write_text("1 0 9\n")
        with pytest.raises(DataError, match="index out of range for field 'f1'"):
            ingest.load_prepared(tmp_path)
        (tmp_path / "test.txt").write_text("1 0 0\n0 -1 0\n")
        with pytest.raises(DataError, match="test.txt:2: negative field index"):
            ingest.load_prepared(tmp_path)


class TestFieldsFile:
    @staticmethod
    def prepared(out, field_names=("f0", "f1")):
        rows = [["a", "x"], ["b", "y"], ["c", "x"], ["a", "y"], ["b", "x"]]
        rows = [[row[i % 2] for i in range(len(field_names))] for row in rows]
        vocab = ingest.build_vocabulary(rows, list(field_names))
        ds = ingest.EncodedDataset(np.stack([vocab.encode_row(r) for r in rows]), np.array([1, 0, 1, 0, 1]))
        ingest.write_prepared(out, vocab, ingest.split_dataset(ds, (0.6, 0.2, 0.2), seed=5))
        return vocab

    def test_written_format(self, tmp_path):
        self.prepared(tmp_path)
        assert (tmp_path / "fields.tsv").read_text() == (
            "field_index\tfield_name\tcardinality\n0\tf0\t4\n1\tf1\t3\n"
        )

    @pytest.mark.parametrize("rows,bad_line,message", [
        (["0\tf0", "1\tf1\t3"], 2, "expected 3 tab-separated columns"),
        (["0\tf0\t4", "1\tf\t1\t3"], 3, "expected 3 tab-separated columns"),
        (["x\tf0\t4", "1\tf1\t3"], 2, "field_index 'x' is not an integer"),
        (["0\tf0\t4", "1\tf1\tmany"], 3, "cardinality 'many' is not an integer"),
        (["1\tf0\t4", "0\tf1\t3"], 2, "field_index 1 out of order, expected 0"),
        (["0\tf0\t4", "0\tf1\t3"], 3, "field_index 0 out of order, expected 1"),
        (["0\tf0\t4", "1\tf1\t99"], 3, "field 'f1' has cardinality 99, but vocab.tsv gives 3"),
        (["0\tf\\q0\t4", "1\tf1\t3"], 2, "unknown escape"),
    ])
    def test_bad_rows_name_file_and_line(self, tmp_path, rows, bad_line, message):
        self.prepared(tmp_path)
        (tmp_path / "fields.tsv").write_text(
            "field_index\tfield_name\tcardinality\n" + "\n".join(rows) + "\n"
        )
        with pytest.raises(DataError, match=rf"fields.tsv:{bad_line}: {message}"):
            ingest.load_prepared(tmp_path)

    def test_no_fields(self, tmp_path):
        self.prepared(tmp_path)
        (tmp_path / "fields.tsv").write_text("")
        with pytest.raises(DataError, match="fields.tsv: no fields"):
            ingest.load_prepared(tmp_path)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.text(), min_size=1, max_size=4, unique=True))
    def test_round_trip_any_field_names(self, tmp_path_factory, names):
        out = tmp_path_factory.mktemp("prepared")
        vocab = self.prepared(out, names)
        loaded, _ = ingest.load_prepared(out)
        assert loaded.schemas == vocab.schemas
        assert loaded.maps == vocab.maps
