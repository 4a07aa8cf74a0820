"""Select stage: the channel join of the variants without attention, and
the pooling, bottleneck, two-way softmax and weighted map over the branch
list, and the per-channel attention report.  The joined and the weighted
maps exist only inside the first DNN layer, ``engine.branch_linear``; the
tests read them out through an identity layer."""

import re

import numpy as np
import pytest

from fiinet import engine as eg
from fiinet import sk_attention as sk
from fiinet.crosses import ChannelLayout, build_branch_2, build_branch_3
from fiinet.errors import DataError, ShapeError
from gradcheck import check_parameters


def rand(*shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


def output_map(branches, w=None):
    """The (B,C,k) map that ``engine.branch_linear`` reads from the (B,C_i,k)
    ``branches``, each channel scaled by the (B,C) ``w`` if given: its
    output under an identity weight, whose sums add only exact zeros."""
    batch, k = branches[0].data.shape[0], branches[0].data.shape[2]
    channels = sum(t.data.shape[1] for t in branches)
    out = eg.branch_linear(branches, w, eg.Tensor(np.eye(channels * k)))
    return out.data.reshape(batch, channels, k)


class TestFuse:
    # the join of the variants without attention: pair channels then
    # triple channels, read by branch_linear with no channel weight; its
    # refusals are tested in tests/test_engine.py
    def test_fuse_equals_concat_of_live_channels(self):
        layout = ChannelLayout.build(4)
        E = eg.Tensor(rand(3, 4, 5, seed=1))
        u2 = build_branch_2(E, layout)
        u3 = build_branch_3(E, layout)
        fused = output_map([u2, u3])
        # independent concat oracle
        concat = np.concatenate([u2.data, u3.data], axis=1)
        assert np.array_equal(fused, concat)
        # pair channels come first, unchanged
        assert np.array_equal(fused[:, : layout.num_pairs], u2.data)

    def test_fuse_zero_branches(self):
        fused = output_map([eg.Tensor(np.zeros((2, 1, 3))), eg.Tensor(np.zeros((2, 3, 3)))])
        assert np.array_equal(fused, np.zeros((2, 4, 3)))


def params(w1, branch_a, branch_b):
    return sk.SkParams(eg.Tensor(w1), eg.Tensor(branch_a), eg.Tensor(branch_b))


def with_complement(a):
    """(a, b): the select weight ``select_weights`` returns and the other
    branch's weight b = 1 - a, as the model's attention report makes it."""
    return a, eg.one_minus(a)


def descriptor_of(branches, w1):
    """The descriptor relu(w1 . mean_k(channels)) of the joined branches,
    read back from ``select_weights``: with A = I and B = 0 each channel's
    logit difference is its descriptor entry, so log(a/b) recovers it (0
    past the d-th)."""
    d, C = w1.shape
    tensors = [eg.Tensor(u) for u in branches]
    a, b = with_complement(sk.select_weights(tensors, params(w1, np.eye(C, d), np.zeros((C, d)))))
    return np.log(a.data / b.data)


def split(channels, at):
    """(B,C,k) channels as the two branches [:, :at] and [:, at:]."""
    return [eg.Tensor(channels[:, :at]), eg.Tensor(channels[:, at:])]


def select(descriptor, branch_a, branch_b):
    """``select_weights`` on channels whose pooled statistic is
    ``descriptor``, padded with zero channels to the C rows of the branch
    matrices, as one pair channel and the rest triples.  Each channel is
    constant along k, so its mean is exact, and with w1 the (d,C) identity
    and relu a no-op on a descriptor >= 0, the descriptor reaches the
    branch logits unchanged."""
    assert (descriptor >= 0).all()
    batch, d = descriptor.shape
    C = branch_a.shape[0]
    stats = np.zeros((batch, C))
    stats[:, :d] = descriptor
    channels = np.repeat(stats[:, :, None], 2, axis=2)
    branches = split(channels, 1) if C > 1 else [eg.Tensor(channels)]
    return with_complement(sk.select_weights(branches, params(np.eye(d, C), branch_a, branch_b)))


class TestPooling:
    def test_mean_example(self):
        u = np.array([[[2.0, 4.0, 6.0]]])
        assert descriptor_of([u], np.eye(1))[0, 0] == pytest.approx(4.0)

    def test_zero_and_constant_channels(self):
        # one channel per branch: the means are joined in branch order
        u = np.zeros((1, 2, 3))
        u[0, 1] = 7.5
        z = descriptor_of([u[:, :1], u[:, 1:]], np.eye(2))
        assert z[0, 0] == 0.0
        assert z[0, 1] == pytest.approx(7.5)

    def test_branch_means_join_in_order(self):
        rng = np.random.default_rng(4)
        u2, u3 = rng.standard_normal((3, 2, 4)), rng.standard_normal((3, 5, 4))
        w1 = np.abs(rng.standard_normal((7, 7)))
        joined = descriptor_of([np.concatenate([u2, u3], axis=1)], w1)
        assert descriptor_of([u2, u3], w1).tobytes() == joined.tobytes()

    def test_empty_embedding_axis(self):
        p = params(np.eye(2), np.eye(2), np.zeros((2, 2)))
        with pytest.raises(ShapeError, match="empty axis"):
            sk.select_weights([eg.Tensor(np.zeros((1, 2, 0)))], p)
        with pytest.raises(ShapeError, match=r"branches must be \(B,C_i,k\)"):
            sk.select_weights([eg.Tensor(np.zeros((1, 2)))], p)
        with pytest.raises(ShapeError, match=r"branches must be \(B,C_i,k\)"):
            sk.select_weights([eg.Tensor(np.zeros((1, 1, 3))), eg.Tensor(np.zeros((1, 1, 2)))], p)


class TestReducedDim:
    def test_formula(self):
        assert sk.REDUCTION_RATIO == 3
        assert sk.reduced_dim(20, 8) == 8  # max(ceil(20/3), 8)
        assert sk.reduced_dim(35, 8) == 12
        assert sk.reduced_dim(100, 8) == 34
        assert sk.reduced_dim(100, 40) == 40

    def test_positive_args(self):
        with pytest.raises(ShapeError):
            sk.reduced_dim(0)
        with pytest.raises(ShapeError):
            sk.reduced_dim(20, 0)


class TestReduce:
    def test_zero_matrix_gives_zero(self):
        u = rand(4, 6, 3, seed=2)
        assert np.array_equal(descriptor_of([u[:, :2], u[:, 2:]], np.zeros((3, 6))), np.zeros((4, 6)))

    def test_relu_clamps_negatives(self):
        u = np.ones((1, 2, 3))
        s = descriptor_of([u[:, :1], u[:, 1:]], np.array([[-1.0, -2.0], [1.0, 1.0]]))
        assert s[0, 0] == 0.0
        assert s[0, 1] == pytest.approx(2.0)


class TestSelectSoftmax:
    def test_equal_logits_give_half(self):
        s = np.abs(rand(3, 4, seed=5))
        m = rand(6, 4, seed=6)
        a, b = select(s, m, m)
        assert np.allclose(a.data, 0.5)
        assert np.allclose(b.data, 0.5)

    def test_log2_gap_gives_two_thirds(self):
        # one channel, logit difference ln 2 -> weights (2/3, 1/3)
        a, b = select(np.array([[1.0]]), np.array([[np.log(2.0)]]), np.array([[0.0]]))
        assert a.data[0, 0] == pytest.approx(2.0 / 3.0)
        assert b.data[0, 0] == pytest.approx(1.0 / 3.0)

    def test_sums_to_one_exactly(self):
        s = np.abs(rand(8, 5, seed=7)) * 3
        a, b = select(s, rand(12, 5, seed=8), rand(12, 5, seed=9))
        assert np.abs(a.data + b.data - 1.0).max() == 0.0
        assert ((a.data > 0) & (a.data < 1)).all()

    def test_shift_invariance(self):
        # adding a constant to both logits of a channel leaves weights unchanged
        s = np.array([[1.0, 2.0]])
        a_mat = rand(3, 2, seed=10)
        b_mat = rand(3, 2, seed=11)
        a1, _ = select(s, a_mat, b_mat)
        # shifting a row of A and B by the same vector shifts both logits equally
        shift = np.array([0.7, 0.7])
        a2, _ = select(s, a_mat + shift, b_mat + shift)
        np.testing.assert_allclose(a1.data, a2.data, rtol=1e-12)

    def test_extreme_logits_stay_finite_and_open(self):
        a, b = select(np.array([[100.0]]), np.array([[10.0]]), np.array([[-10.0]]))
        assert 0.0 < a.data[0, 0] < 1.0
        assert 0.0 < b.data[0, 0] < 1.0


def apply_select(branches, a, num_pairs):
    """The attention-weighted map: a_c scales pair channel c, 1 - a_c
    triple channel c, through the one weight the model builds."""
    return output_map(branches, eg.complement_from(a, num_pairs))


class TestApplySelect:
    def test_arithmetic_example(self):
        # channel 0 is a pair channel, channel 1 a triple channel
        channels = np.array([[[4.0, 0.0], [0.0, 4.0]]])
        # b = 1 - a = 0.75 on the triple channel
        a = eg.Tensor(np.array([[0.25, 0.25]]))
        v = apply_select(split(channels, 1), a, num_pairs=1)
        assert np.array_equal(v, [[[1.0, 0.0], [0.0, 3.0]]])
        assert np.array_equal(v.sum(axis=1), [[1.0, 3.0]])

    def test_weight_near_one_limit(self):
        channels = np.array([[[2.0, -3.0], [5.0, 5.0]]])
        # b = 1 - a, about 1e-7, on the triple channel
        a = eg.Tensor(np.array([[1.0 - 1e-7, 1.0 - 1e-7]]))
        v = apply_select(split(channels, 1), a, num_pairs=1)
        np.testing.assert_allclose(v[0, 0], [2.0, -3.0], atol=1e-5)
        np.testing.assert_allclose(v[0, 1], [0.0, 0.0], atol=1e-5)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(20)
        channels = rng.standard_normal((3, 7, 4))
        aw = rng.uniform(0.01, 0.99, (3, 7))
        num_pairs = 3
        v = apply_select(split(channels, num_pairs), eg.Tensor(aw), num_pairs)
        expect = np.empty_like(channels)
        for n in range(3):
            for c in range(7):
                w = aw[n, c] if c < num_pairs else 1 - aw[n, c]
                expect[n, c] = w * channels[n, c]
        np.testing.assert_allclose(v, expect, rtol=1e-12)

    def test_equals_padded_formula(self):
        # a * U2 + b * U3 over zero-padded branches, the formula the live
        # layout replaces, gives the same values
        rng = np.random.default_rng(22)
        layout = ChannelLayout.build(4)
        E = eg.Tensor(rng.standard_normal((3, 4, 5)))
        u2, u3 = build_branch_2(E, layout), build_branch_3(E, layout)
        aw = rng.uniform(0.01, 0.99, (3, layout.num_channels))
        v = apply_select([u2, u3], eg.Tensor(aw), layout.num_pairs)
        pad2 = np.zeros((3, layout.num_channels, 5))
        pad2[:, : layout.num_pairs] = u2.data
        pad3 = np.zeros_like(pad2)
        pad3[:, layout.num_pairs :] = u3.data
        expect = aw[:, :, None] * pad2 + (1.0 - aw)[:, :, None] * pad3
        assert np.array_equal(v, expect)

    def test_convex_combination_bound(self):
        rng = np.random.default_rng(21)
        channels = rng.standard_normal((4, 6, 3))
        aw = rng.uniform(0.0, 1.0, (4, 6))
        v = apply_select(split(channels, 2), eg.Tensor(aw), num_pairs=2)
        bound = np.abs(channels).max(axis=-1)
        assert (np.abs(v).max(axis=-1) <= bound + 1e-12).all()


class TestInitAndEndToEnd:
    def test_identical_branch_matrices_at_init(self):
        store = eg.ParameterStore(np.float64)
        params = sk.init_sk_params(store, num_channels=20, seed=2023)
        assert np.array_equal(params.branch_a.data, params.branch_b.data)
        assert params.w1.data.shape == (sk.reduced_dim(20, 8), 20)
        # fresh init means every channel weight is exactly 0.5
        a, b = with_complement(sk.select_weights(split(rand(5, 20, 4, seed=3), 6), params))
        assert np.all(a.data == 0.5) and np.all(b.data == 0.5)

    def test_full_layer_gradients_pass_fd_check(self):
        layout = ChannelLayout.build(4)
        store = eg.ParameterStore(np.float64)
        sk_params = sk.init_sk_params(store, layout.num_channels, seed=7)
        e = rand(3, 4, 4, seed=8) * 0.5
        E = store.register("E", e.shape, lambda: e)
        dense = rand(6, layout.num_channels * 4, seed=10)
        W = store.register("W", dense.shape, lambda: dense)
        target = rand(3, 6, seed=9)

        def loss_fn():
            branches = [build_branch_2(E, layout), build_branch_3(E, layout)]
            a = sk.select_weights(branches, sk_params)
            v = eg.branch_linear(branches, eg.complement_from(a, layout.num_pairs), W)
            diff = eg.sub(v, eg.Tensor(target))
            return eg.mean_all(eg.mul(diff, diff))

        report = check_parameters(loss_fn, store, eps=1e-5, max_coords=64)
        assert max(report.values()) < 1e-4, report


class TestWeightExport:
    def test_channel_weight_means(self):
        layout = ChannelLayout.build(3)  # 3 pairs + 1 triple
        a = np.array([[0.6, 0.5, 0.4, 0.2], [0.8, 0.5, 0.2, 0.4]])
        b = 1.0 - a
        means = sk.channel_weight_means(a, b, layout)
        np.testing.assert_allclose(means, [0.7, 0.5, 0.3, 0.7])

    def test_empty_sample_rejected(self):
        layout = ChannelLayout.build(3)
        with pytest.raises(DataError):
            sk.channel_weight_means(np.zeros((0, 4)), np.zeros((0, 4)), layout)

    @pytest.mark.parametrize("a,b", [
        (np.zeros((2, 3)), np.zeros((2, 3))),  # one channel short of the layout
        (np.zeros((2, 4)), np.zeros((3, 4))),  # a and b differ
        (np.zeros(4), np.zeros(4)),  # no sample axis
    ])
    def test_channel_weight_means_refuses_arrays_off_the_layout(self, a, b):
        layout = ChannelLayout.build(3)
        with pytest.raises(ShapeError, match=r"^weight arrays must be \(N,C\) on the model layout$"):
            sk.channel_weight_means(a, b, layout)

    def test_report_has_one_row_per_channel(self, tmp_path):
        layout = ChannelLayout.build(4)
        C = layout.num_channels
        path = tmp_path / "attention.tsv"
        sk.write_attention_report(
            path, layout, ["f0", "f1", "f2", "f3"], np.full(C, 0.5), np.linspace(0, 1, C)
        )
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + C
        assert lines[0].split("\t") == ["channel", "order", "fields", "weight_before", "weight_after"]
        assert lines[1].startswith("0\t2\tf0,f1\t0.500000")

    def test_report_escapes_field_names(self, tmp_path):
        # a tab or newline in a name would add a column or split a row
        layout = ChannelLayout.build(3)
        path = tmp_path / "attention.tsv"
        names = ["a\tb", "c\nd", "e\\f"]
        sk.write_attention_report(path, layout, names, np.full(4, 0.5), np.full(4, 0.5))
        rows = [line.split("\t") for line in path.read_text(encoding="utf-8").split("\n")[:-1]]
        assert len(rows) == 1 + layout.num_channels
        assert all(len(row) == 5 for row in rows)
        assert [row[2] for row in rows[1:]] == [
            "a\\tb,c\\nd", "a\\tb,e\\\\f", "c\\nd,e\\\\f", "a\\tb,c\\nd,e\\\\f"
        ]

    @pytest.mark.parametrize("before,after", [
        (np.full((4, 2), 0.5), np.full(4, 0.5)),
        (np.full(4, 0.5), np.full((1, 4), 0.5)),
        (np.full(3, 0.5), np.full(4, 0.5)),
    ])
    def test_report_needs_one_weight_per_channel(self, tmp_path, before, after):
        # a (C, 2) vector has C entries but would fail mid-file
        layout = ChannelLayout.build(3)
        path = tmp_path / "attention.tsv"
        with pytest.raises(ShapeError, match="one entry per channel"):
            sk.write_attention_report(path, layout, ["f0", "f1", "f2"], before, after)
        assert not path.exists()

    @pytest.mark.parametrize("name,problem", [
        ([1, 2, 3], "is not a str"), (None, "is not a str"), (b"f2", "is not a str"),
        ("\udc80", "cannot be encoded as UTF-8"),
    ], ids=["list", "none", "bytes", "lone-surrogate"])
    def test_report_refuses_a_name_before_opening_the_file(self, tmp_path, name, problem):
        # a list raised AttributeError, a lone surrogate left only the header
        layout = ChannelLayout.build(3)
        path = tmp_path / "attention.tsv"
        path.write_text("an earlier report\n")
        with pytest.raises(DataError, match=f"^field name {re.escape(repr(name))} {problem}$"):
            sk.write_attention_report(path, layout, ["f0", "f1", name], np.full(4, 0.5), np.full(4, 0.5))
        assert path.read_text() == "an earlier report\n"
        assert [p.name for p in tmp_path.iterdir()] == ["attention.tsv"]

    @pytest.mark.parametrize("names", [["f0", "f1"], ["f0", "f1", "f2", "f3"]])
    def test_report_needs_one_name_per_field(self, tmp_path, names):
        # too few names would fail mid-file, extra ones would be dropped
        layout = ChannelLayout.build(3)
        path = tmp_path / "attention.tsv"
        with pytest.raises(ShapeError, match=f"^{len(names)} field names for 3 fields$"):
            sk.write_attention_report(path, layout, names, np.full(4, 0.5), np.full(4, 0.5))
        assert not path.exists()

    def test_report_reads_names_from_a_generator_once(self, tmp_path):
        # a generator raised TypeError: it has no len()
        layout = ChannelLayout.build(3)
        weights = np.full(4, 0.5), np.full(4, 0.25)
        sk.write_attention_report(tmp_path / "list.tsv", layout, ["f0", "f1", "f2"], *weights)
        names = (f"f{i}" for i in range(3))
        sk.write_attention_report(tmp_path / "generator.tsv", layout, names, *weights)
        assert (tmp_path / "generator.tsv").read_bytes() == (tmp_path / "list.tsv").read_bytes()

    @pytest.mark.parametrize("names", [["f0", "f1", "f0"], "f0f1f2", b"f0f"])
    def test_report_refuses_names_that_are_not_distinct_field_names(self, tmp_path, names):
        # a repeated name made two fields' crosses read alike
        layout = ChannelLayout.build(3)
        path = tmp_path / "attention.tsv"
        with pytest.raises(DataError, match="^duplicate field name 'f0'$|^field names must be a list"):
            sk.write_attention_report(path, layout, names, np.full(4, 0.5), np.full(4, 0.5))
        assert not path.exists()
