"""Fuse/Select stage: pooling, bottleneck, two-way softmax, weighted map."""

import numpy as np
import pytest

from fiinet import engine as eg
from fiinet import sk_attention as sk
from fiinet.crosses import ChannelLayout, build_branch_2, build_branch_3
from fiinet.errors import DataError, ShapeError


def rand(*shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


class TestFuse:
    def test_fuse_equals_concat_of_live_channels(self):
        layout = ChannelLayout.build(4)
        E = eg.Tensor(rand(3, 4, 5, seed=1))
        u2 = build_branch_2(E, layout)
        u3 = build_branch_3(E, layout)
        fused = sk.fuse(u2, u3).data
        # independent concat oracle
        concat = np.concatenate([u2.data, u3.data], axis=1)
        assert np.array_equal(fused, concat)
        # pair channels come first, unchanged
        assert np.array_equal(fused[:, : layout.num_pairs], u2.data)

    def test_fuse_zero_branches(self):
        fused = sk.fuse(eg.Tensor(np.zeros((2, 1, 3))), eg.Tensor(np.zeros((2, 3, 3))))
        assert np.array_equal(fused.data, np.zeros((2, 4, 3)))

    def test_fuse_layout_mismatch(self):
        with pytest.raises(ShapeError):
            sk.fuse(eg.Tensor(np.zeros((2, 4, 3))), eg.Tensor(np.zeros((2, 5, 4))))
        with pytest.raises(ShapeError):
            sk.fuse(eg.Tensor(np.zeros((2, 4, 3))), eg.Tensor(np.zeros((3, 5, 3))))


class TestPooling:
    def test_mean_example(self):
        u = eg.Tensor(np.array([[[2.0, 4.0, 6.0]]]))
        assert sk.global_pool(u, "mean").data[0, 0] == pytest.approx(4.0)

    def test_zero_and_constant_channels(self):
        u = np.zeros((1, 2, 3))
        u[0, 1] = 7.5
        z = sk.global_pool(eg.Tensor(u), "mean").data
        assert z[0, 0] == 0.0
        assert z[0, 1] == pytest.approx(7.5)

    def test_max_option(self):
        u = eg.Tensor(np.array([[[1.0, 9.0, 2.0]]]))
        assert sk.global_pool(u, "max").data[0, 0] == 9.0
        with pytest.raises(ShapeError):
            sk.global_pool(u, "median")

    def test_empty_embedding_axis(self):
        with pytest.raises(ShapeError):
            sk.global_pool(eg.Tensor(np.zeros((1, 2, 0))), "mean")


class TestReducedDim:
    def test_formula(self):
        assert sk.reduced_dim(20, 3, 8) == 8  # max(ceil(20/3), 8)
        assert sk.reduced_dim(35, 3, 8) == 12
        assert sk.reduced_dim(100, 4, 8) == 25

    def test_positive_args(self):
        with pytest.raises(ShapeError):
            sk.reduced_dim(0, 3)


class TestReduce:
    def test_zero_matrix_gives_zero(self):
        z = eg.Tensor(rand(4, 6, seed=2))
        w1 = eg.Tensor(np.zeros((3, 6)))
        assert np.array_equal(sk.reduce_descriptor(z, w1).data, np.zeros((4, 3)))

    def test_relu_clamps_negatives(self):
        z = eg.Tensor(np.ones((1, 2)))
        w1 = eg.Tensor(np.array([[-1.0, -2.0], [1.0, 1.0]]))
        s = sk.reduce_descriptor(z, w1).data
        assert s[0, 0] == 0.0
        assert s[0, 1] == pytest.approx(2.0)


class TestSelectSoftmax:
    def test_equal_logits_give_half(self):
        s = eg.Tensor(rand(3, 4, seed=5))
        m = eg.Tensor(rand(6, 4, seed=6))
        a, b = sk.select_softmax(s, m, m)
        assert np.allclose(a.data, 0.5)
        assert np.allclose(b.data, 0.5)

    def test_log2_gap_gives_two_thirds(self):
        # one channel, logit difference ln 2 -> weights (2/3, 1/3)
        s = eg.Tensor(np.array([[1.0]]))
        a_mat = eg.Tensor(np.array([[np.log(2.0)]]))
        b_mat = eg.Tensor(np.array([[0.0]]))
        a, b = sk.select_softmax(s, a_mat, b_mat)
        assert a.data[0, 0] == pytest.approx(2.0 / 3.0)
        assert b.data[0, 0] == pytest.approx(1.0 / 3.0)

    def test_sums_to_one_exactly(self):
        s = eg.Tensor(rand(8, 5, seed=7) * 3)
        a_mat = eg.Tensor(rand(12, 5, seed=8))
        b_mat = eg.Tensor(rand(12, 5, seed=9))
        a, b = sk.select_softmax(s, a_mat, b_mat)
        assert np.abs(a.data + b.data - 1.0).max() == 0.0
        assert ((a.data > 0) & (a.data < 1)).all()

    def test_shift_invariance(self):
        # adding a constant to both logits of a channel leaves weights unchanged
        s = eg.Tensor(np.array([[1.0, -2.0]]))
        a_mat = rand(3, 2, seed=10)
        b_mat = rand(3, 2, seed=11)
        a1, _ = sk.select_softmax(s, eg.Tensor(a_mat), eg.Tensor(b_mat))
        # shifting a row of A and B by the same vector shifts both logits equally
        shift = np.array([0.7, 0.7])
        a2, _ = sk.select_softmax(s, eg.Tensor(a_mat + shift), eg.Tensor(b_mat + shift))
        np.testing.assert_allclose(a1.data, a2.data, rtol=1e-12)

    def test_extreme_logits_stay_finite_and_open(self):
        s = eg.Tensor(np.array([[100.0]]))
        a_mat = eg.Tensor(np.array([[10.0]]))
        b_mat = eg.Tensor(np.array([[-10.0]]))
        a, b = sk.select_softmax(s, a_mat, b_mat)
        assert 0.0 < a.data[0, 0] < 1.0
        assert 0.0 < b.data[0, 0] < 1.0


class TestApplySelect:
    def test_arithmetic_example(self):
        # channel 0 is a pair channel, channel 1 a triple channel
        fused = eg.Tensor(np.array([[[4.0, 0.0], [0.0, 4.0]]]))
        a = eg.Tensor(np.array([[0.25, 0.25]]))
        b = eg.Tensor(np.array([[0.75, 0.75]]))
        v = sk.apply_select(fused, a, b, num_pairs=1)
        assert np.array_equal(v.data, [[[1.0, 0.0], [0.0, 3.0]]])
        assert np.array_equal(v.data.sum(axis=1), [[1.0, 3.0]])

    def test_weight_near_one_limit(self):
        fused = eg.Tensor(np.array([[[2.0, -3.0], [5.0, 5.0]]]))
        a = eg.Tensor(np.array([[1.0 - 1e-7, 1.0 - 1e-7]]))
        b = eg.Tensor(np.array([[1e-7, 1e-7]]))
        v = sk.apply_select(fused, a, b, num_pairs=1)
        np.testing.assert_allclose(v.data[0, 0], [2.0, -3.0], atol=1e-5)
        np.testing.assert_allclose(v.data[0, 1], [0.0, 0.0], atol=1e-5)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(20)
        fused = rng.standard_normal((3, 7, 4))
        aw = rng.uniform(0.01, 0.99, (3, 7))
        num_pairs = 3
        v = sk.apply_select(
            eg.Tensor(fused), eg.Tensor(aw), eg.Tensor(1.0 - aw), num_pairs
        ).data
        expect = np.empty_like(fused)
        for n in range(3):
            for c in range(7):
                w = aw[n, c] if c < num_pairs else 1 - aw[n, c]
                expect[n, c] = w * fused[n, c]
        np.testing.assert_allclose(v, expect, rtol=1e-12)

    def test_equals_padded_formula(self):
        # a * U2 + b * U3 over zero-padded branches, the formula the live
        # layout replaces, gives the same values
        rng = np.random.default_rng(22)
        layout = ChannelLayout.build(4)
        E = eg.Tensor(rng.standard_normal((3, 4, 5)))
        u2, u3 = build_branch_2(E, layout), build_branch_3(E, layout)
        aw = rng.uniform(0.01, 0.99, (3, layout.num_channels))
        v = sk.apply_select(
            sk.fuse(u2, u3), eg.Tensor(aw), eg.Tensor(1.0 - aw), layout.num_pairs
        ).data
        pad2 = np.zeros((3, layout.num_channels, 5))
        pad2[:, : layout.num_pairs] = u2.data
        pad3 = np.zeros_like(pad2)
        pad3[:, layout.num_pairs :] = u3.data
        expect = aw[:, :, None] * pad2 + (1.0 - aw)[:, :, None] * pad3
        assert np.array_equal(v, expect)

    def test_convex_combination_bound(self):
        rng = np.random.default_rng(21)
        fused = rng.standard_normal((4, 6, 3))
        aw = rng.uniform(0.0, 1.0, (4, 6))
        v = sk.apply_select(
            eg.Tensor(fused), eg.Tensor(aw), eg.Tensor(1.0 - aw), num_pairs=2
        ).data
        bound = np.abs(fused).max(axis=-1)
        assert (np.abs(v).max(axis=-1) <= bound + 1e-12).all()


class TestInitAndEndToEnd:
    def test_identical_branch_matrices_at_init(self):
        store = eg.ParameterStore(np.float64)
        params = sk.init_sk_params(store, num_channels=20, seed=2023)
        assert np.array_equal(params.branch_a.data, params.branch_b.data)
        assert params.w1.data.shape == (sk.reduced_dim(20, 3, 8), 20)
        # fresh init means every channel weight is exactly 0.5
        s = eg.Tensor(rand(5, 8, seed=3))
        a, b = sk.select_softmax(s, params.branch_a, params.branch_b)
        assert np.all(a.data == 0.5) and np.all(b.data == 0.5)

    def test_full_layer_gradients_pass_fd_check(self):
        layout = ChannelLayout.build(4)
        store = eg.ParameterStore(np.float64)
        sk_params = sk.init_sk_params(store, layout.num_channels, seed=7)
        E = store.register("E", rand(3, 4, 4, seed=8) * 0.5)
        target = rand(3, layout.num_channels, 4, seed=9)

        def loss_fn():
            fused = sk.fuse(build_branch_2(E, layout), build_branch_3(E, layout))
            z = sk.global_pool(fused, "mean")
            s = sk.reduce_descriptor(z, sk_params.w1)
            a, b = sk.select_softmax(s, sk_params.branch_a, sk_params.branch_b)
            v = sk.apply_select(fused, a, b, layout.num_pairs)
            diff = eg.sub(v, eg.Tensor(target))
            return eg.mean_all(eg.mul(diff, diff))

        report = eg.finite_difference_check(loss_fn, store, eps=1e-5)
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
