"""Unit tests for the autodiff engine: every primitive against central
finite differences, plus init, dropout, stores and checkpoint round-trips."""

import math
import re
import struct
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fiinet import engine as eg
from fiinet.errors import CheckpointError, NonFiniteError, ShapeError
from gradcheck import check_parameters, max_relative_error, numeric_gradient, total


class Counted:
    """A zero-argument init that returns ``arr`` and counts its calls."""

    def __init__(self, arr):
        self.arr = np.asarray(arr)
        self.calls = 0

    def __call__(self):
        self.calls += 1
        return self.arr


def literal(store, name, arr):
    """Register an array as it is: its init returns it."""
    init = Counted(arr)
    return store.register(name, init.arr.shape, init)


def check_op(build, arrays, rtol=1e-6):
    """build(tensors) -> output Tensor; checks each input's gradient at
    every coordinate."""
    rng = np.random.default_rng(0)
    tensors = [eg.Tensor(a, requires_grad=True) for a in arrays]
    out = build(tensors)
    weights = rng.standard_normal(out.data.shape)

    def scalar():
        with eg.no_grad():
            val = build(tensors).data
        return float((val * weights).sum())

    loss = total(eg.mul(out, eg.Tensor(weights)))
    for t in tensors:
        t.zero_grad()
    loss.backward()
    for t, arr in zip(tensors, arrays):
        numeric = numeric_gradient(scalar, arr, range(arr.size), eps=1e-6)
        rel = max_relative_error(t.grad.reshape(-1), numeric)
        assert rel < rtol, f"max rel err {rel:.3e}"


RNG = np.random.default_rng(42)


@pytest.fixture(autouse=True)
def fresh_rng():
    """Start every test from the same stream, so its data is the same
    whether it runs alone or after other tests."""
    global RNG
    RNG = np.random.default_rng(42)


def randn(*shape):
    return RNG.standard_normal(shape)


class TestPrimitiveGradients:
    def test_add(self):
        check_op(lambda ts: eg.add(ts[0], ts[1]), [randn(3, 3), randn(3, 3)])

    def test_sub(self):
        check_op(lambda ts: eg.sub(ts[0], ts[1]), [randn(3, 3), randn(3, 3)])

    def test_mul(self):
        check_op(lambda ts: eg.mul(ts[0], ts[1]), [randn(3, 3), randn(3, 3)])

    def test_neg_scale_one_minus(self):
        check_op(lambda ts: eg.neg(ts[0]), [randn(3, 3)])
        check_op(lambda ts: eg.scale(ts[0], -2.5), [randn(3, 3)])
        check_op(lambda ts: eg.one_minus(ts[0]), [randn(3, 3)])

    def test_linear(self):
        check_op(lambda ts: eg.linear(ts[0], ts[1]), [randn(5, 4), randn(3, 4)])

    def test_add_rowvec(self):
        check_op(lambda ts: eg.add_rowvec(ts[0], ts[1]), [randn(5, 3), randn(3)])

    def test_relu(self):
        # keep values away from the kink
        x = randn(3, 3)
        x[np.abs(x) < 0.05] += 0.1
        check_op(lambda ts: eg.relu(ts[0]), [x])

    def test_sigmoid(self):
        check_op(lambda ts: eg.sigmoid(ts[0]), [randn(3, 3) * 2])

    def test_log(self):
        check_op(lambda ts: eg.log(ts[0]), [np.abs(randn(3, 3)) + 0.5])

    def test_clamp(self):
        x = randn(3, 3) * 2
        x[np.abs(np.abs(x) - 1.0) < 0.05] = 0.0  # keep off the clip boundary
        check_op(lambda ts: eg.clamp(ts[0], -1.0, 1.0), [x])

    def test_gather_rows(self):
        idx = np.array([0, 2, 2, 1, 0])
        check_op(lambda ts: eg.gather_rows(ts[0], idx), [randn(3, 4)])

    def test_gather_rows_2d_indices(self):
        idx = np.array([[0, 1], [2, 2], [1, 0]])
        check_op(lambda ts: eg.gather_rows(ts[0], idx), [randn(3, 4)])

    def test_gather_rows_interior_table(self):
        # gathers read leaf tables only; off the tape any table will do
        table = eg.mul(eg.Tensor(randn(3, 4), requires_grad=True), eg.Tensor(randn(3, 4)))
        with pytest.raises(ShapeError, match="gather_rows reads leaf tables only"):
            eg.gather_rows(table, np.array([0, 2]))
        with eg.no_grad():
            assert eg.gather_rows(table, np.array([0, 2])).data.tobytes() == table.data[[0, 2]].tobytes()

    def test_gather_fields(self):
        idx = np.array([[0, 1], [2, 1], [2, 0], [0, 1]])
        check_op(lambda ts: eg.gather_fields(list(ts), idx), [randn(3, 4), randn(2, 4)])

    def test_gather_fields_interior_table(self):
        leaf = eg.Tensor(randn(2, 4), requires_grad=True)
        table = eg.mul(eg.Tensor(randn(3, 4), requires_grad=True), eg.Tensor(randn(3, 4)))
        idx = np.array([[0, 1], [2, 1], [2, 0]])
        with pytest.raises(ShapeError, match="gather_fields reads leaf tables only"):
            eg.gather_fields([table, leaf], idx)
        with eg.no_grad():
            out = eg.gather_fields([table, leaf], idx)
        assert out.data[:, 0].tobytes() == table.data[idx[:, 0]].tobytes()

    def test_stack_fields(self):
        check_op(
            lambda ts: eg.stack_fields(list(ts)), [randn(2, 3), randn(2, 3), randn(2, 3)]
        )

    def test_take_fields(self):
        idx = np.array([0, 2, 1, 0, 2, 2])
        check_op(lambda ts: eg.take_fields(ts[0], idx), [randn(2, 3, 4)])

    def test_pad_channels(self):
        check_op(lambda ts: eg.pad_channels(ts[0], 5, 2), [randn(2, 3, 4)])

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_cross_products(self, order):
        # at order 4 a run's head holds three fields
        check_op(lambda ts: eg.cross_products(ts[0], order), [randn(2, 5, 3)])

    def test_branch_linear(self):
        check_op(
            lambda ts: eg.branch_linear(ts[:3], None, ts[3]),
            [randn(2, 3, 4), randn(2, 1, 4), randn(2, 2, 4), randn(5, 24)],
        )

    def test_branch_linear_with_channel_weights(self):
        check_op(
            lambda ts: eg.branch_linear(ts[:2], ts[2], ts[3]),
            [randn(2, 3, 4), randn(2, 2, 4), randn(2, 5), randn(3, 20)],
        )

    @pytest.mark.parametrize("weighted", [False, True])
    def test_branch_linear_one_branch(self, weighted):
        check_op(
            lambda ts: eg.branch_linear(ts[:1], ts[1] if weighted else None, ts[-1]),
            [randn(2, 3, 4), *([randn(2, 3)] if weighted else []), randn(3, 12)],
        )

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("mean_first", [False, True])
    def test_branches_read_by_branch_linear_and_mean_lastdim(self, weighted, mean_first):
        # each leaf branch receives two gradients, a _Fresh slice and a
        # broadcast mean gradient, in either order
        def build(ts):
            branches, weight, w_mean = ts[:2], ts[-2], ts[-1]
            dense = eg.branch_linear(branches, ts[2] if weighted else None, weight)
            pooled = eg.linear(eg.mean_lastdim(branches), w_mean)
            return eg.add(pooled, dense) if mean_first else eg.add(dense, pooled)

        check_op(build, [randn(2, 3, 4), randn(2, 2, 4), *([randn(2, 5)] if weighted else []),
                         randn(3, 20), randn(3, 5)])

    @pytest.mark.parametrize("split", [0, 2, 5])
    def test_complement_from(self, split):
        check_op(lambda ts: eg.complement_from(ts[0], split), [randn(3, 5)])

    def test_scale_channels(self):
        check_op(
            lambda ts: eg.scale_channels(ts[:2], ts[2]), [randn(2, 3, 4), randn(2, 2, 4), randn(2, 5)]
        )

    def test_scale_channels_one_branch(self):
        check_op(lambda ts: eg.scale_channels(ts[:1], ts[1]), [randn(2, 3, 4), randn(2, 3)])

    def test_mean_lastdim(self):
        check_op(lambda ts: eg.mean_lastdim(list(ts)), [randn(2, 3, 4), randn(2, 2, 4)])

    def test_mean_lastdim_one_branch(self):
        check_op(lambda ts: eg.mean_lastdim(list(ts)), [randn(2, 3, 4)])

    def test_sum_lastdim(self):
        check_op(lambda ts: eg.sum_lastdim(ts[0]), [randn(2, 4)])

    def test_sum_fields(self):
        check_op(lambda ts: eg.sum_fields(ts[0]), [randn(2, 3, 4)])

    def test_reshape(self):
        check_op(lambda ts: eg.reshape(ts[0], (2, 12)), [randn(2, 3, 4)])

    def test_mean_all(self):
        check_op(lambda ts: eg.mean_all(ts[0]), [randn(3, 3)])


class TestOpSemantics:
    def test_linear_identity(self):
        x = eg.Tensor(np.array([[2.0, -1.0, 3.0]]))
        out = eg.linear(x, eg.Tensor(np.eye(3)))
        assert np.array_equal(out.data, x.data)

    def test_linear_example(self):
        w = eg.Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        out = eg.linear(eg.Tensor(np.array([[1.0, 1.0]])), w)
        assert np.array_equal(out.data, [[3.0, 7.0]])

    def test_mul_examples(self):
        a = eg.Tensor(np.array([1.0, 2.0]))
        b = eg.Tensor(np.array([3.0, 4.0]))
        assert np.array_equal(eg.mul(a, b).data, [3.0, 8.0])
        assert np.array_equal(eg.mul(a, eg.Tensor(np.ones(2))).data, a.data)

    def test_sigmoid_relu_values(self):
        assert eg.sigmoid(eg.Tensor(np.array([0.0]))).data[0] == pytest.approx(0.5)
        assert eg.relu(eg.Tensor(np.array([-2.0]))).data[0] == 0.0
        z = eg.Tensor(np.array([0.0]), requires_grad=True)
        p = eg.sigmoid(z)
        total(p).backward()
        assert z.grad[0] == pytest.approx(0.25)

    def test_sigmoid_saturation_clamped(self):
        p = eg.sigmoid(eg.Tensor(np.array([-60.0, 60.0])))
        assert p.data[0] >= eg.SIGMOID_EPS
        assert p.data[1] <= 1.0 - eg.SIGMOID_EPS

    def test_shape_mismatch_errors(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(3, 2\)"):
            eg.add(eg.Tensor(np.zeros((2, 3))), eg.Tensor(np.zeros((3, 2))))
        with pytest.raises(ShapeError):
            eg.linear(eg.Tensor(np.zeros((2, 3))), eg.Tensor(np.zeros((3, 2))))
        with pytest.raises(ShapeError):
            eg.scale_channels([eg.Tensor(np.zeros((2, 3, 4)))], eg.Tensor(np.zeros((2, 4))))

    @pytest.mark.parametrize("call,message", [
        (lambda: eg.add_rowvec(eg.Tensor(np.zeros((2, 3))), eg.Tensor(np.zeros(4))),
         r"^add_rowvec: incompatible shapes \(2, 3\) and \(4,\)$"),
        (lambda: eg.add_rowvec(eg.Tensor(np.zeros(3)), eg.Tensor(np.zeros(3))),
         r"^add_rowvec: incompatible shapes \(3,\) and \(3,\)$"),
        (lambda: eg.sum_fields(eg.Tensor(np.zeros((2, 3)))),
         r"^sum_fields expects \(B,f,k\) with f >= 1, got \(2, 3\)$"),
        (lambda: eg.sum_fields(eg.Tensor(np.zeros((2, 0, 3)))),
         r"^sum_fields expects \(B,f,k\) with f >= 1, got \(2, 0, 3\)$"),
        (lambda: eg.reshape(eg.Tensor(np.zeros((2, 3))), (4, 2)),
         r"^reshape: cannot view \(2, 3\) as \(4, 2\)$"),
        (lambda: eg.mean_all(eg.Tensor(np.zeros((0, 3)))), "^mean_all of an empty tensor$"),
    ], ids=["add_rowvec-width", "add_rowvec-rank", "sum_fields-rank", "sum_fields-no-field",
            "reshape", "mean_all"])
    def test_shape_errors_name_the_op_and_the_shapes(self, call, message):
        with pytest.raises(ShapeError, match=message):
            call()

    @pytest.mark.parametrize("op", ["mean_lastdim", "scale_channels", "branch_linear"])
    def test_branch_ops_refuse_mismatched_branches(self, op):
        def call(arrays):
            branches = [eg.Tensor(a) for a in arrays]
            if op == "mean_lastdim":
                return eg.mean_lastdim(branches)
            width = sum(a.shape[1] for a in arrays)
            if op == "scale_channels":
                return eg.scale_channels(branches, eg.Tensor(np.zeros((2, width))))
            return eg.branch_linear(branches, None, eg.Tensor(np.zeros((1, 3 * width))))

        cases = [
            [np.zeros((2, 4, 3)), np.zeros((3, 5, 3))],  # batch axes differ
            [np.zeros((2, 4, 3)), np.zeros((2, 5, 4))],  # k differs
            [np.zeros((2, 4, 3)), np.zeros((2, 5, 3), np.float32)],
            [np.zeros((2, 4)), np.zeros((2, 5))],  # no k axis
            [np.zeros((2, 4, 3, 1))],
        ]
        for arrays in cases:
            with pytest.raises(ShapeError, match=rf"^{op}: branches must be \(B,C_i,k\)"):
                call(arrays)
        with pytest.raises(ShapeError, match=f"^{op} needs at least one branch$"):
            call([])

    @pytest.mark.parametrize("weight", [
        np.zeros((2, 8)),  # one channel short
        np.zeros((2, 10)),  # one channel over
        np.zeros((3, 9)),  # batch differs
        np.zeros((2, 9, 1)),
        np.zeros((2, 9), np.float32),  # dtype differs
    ])
    def test_scale_channels_refuses_a_weight_that_does_not_fit(self, weight):
        branches = [eg.Tensor(np.zeros((2, 4, 3))), eg.Tensor(np.zeros((2, 5, 3)))]
        message = "^scale_channels: channel weight .* does not fit 2 branches of 9"
        with pytest.raises(ShapeError, match=message):
            eg.scale_channels(branches, eg.Tensor(weight))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("split", [0, 3, 7])
    def test_complement_from_matches_one_minus_then_a_join_bitwise(self, dtype, split):
        # rows 0 and 1 of the incoming gradient are +0.0 and -0.0: both
        # leave [split:] as +0.0, as 0 + (-g) did when a's gradient was the
        # join's zero-filled half plus one_minus's -g
        rng = np.random.default_rng(split)
        a = rng.uniform(0.0, 1.0, (4, 7)).astype(dtype)
        g = rng.standard_normal((4, 7)).astype(dtype)
        g[0], g[1] = 0.0, -0.0
        t = eg.Tensor(a.copy(), requires_grad=True)
        out = eg.complement_from(t, split)
        want = np.concatenate([a[:, :split], dtype(1) - a[:, split:]], axis=1)
        assert out.data.dtype == dtype and out.data.tobytes() == want.tobytes()
        assert t.data.tobytes() == a.tobytes()
        total(eg.mul(out, eg.Tensor(g))).backward()
        left, right = np.zeros_like(g), np.zeros_like(g)
        left[:, :split], right[:, split:] = g[:, :split], g[:, split:]
        want_grad = left + -right
        assert want_grad.tobytes() == np.concatenate([g[:, :split], 0 - g[:, split:]], axis=1).tobytes()
        assert t.grad.tobytes() == want_grad.tobytes()
        assert not np.signbit(t.grad[0, split:]).any()

    @pytest.mark.parametrize("shape,split", [
        ((2, 3, 4), 1), ((6,), 2), ((2, 3), -1), ((2, 3), 4),
    ])
    def test_complement_from_refuses_a_shape_or_split_that_does_not_fit(self, shape, split):
        with pytest.raises(ShapeError, match=f"^complement_from: split {split} does not fit shape"):
            eg.complement_from(eg.Tensor(np.zeros(shape)), split)

    def test_mean_lastdim_refuses_an_empty_axis(self):
        with pytest.raises(ShapeError, match="^mean_lastdim over an empty axis$"):
            eg.mean_lastdim([eg.Tensor(np.zeros((2, 4, 0))), eg.Tensor(np.zeros((2, 1, 0)))])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("widths,k", [((45, 120), 32), ((3, 1), 5), ((1,), 8), ((7, 9, 2), 17)])
    def test_branch_ops_match_the_joined_formula_bitwise(self, dtype, widths, k):
        # the (B,C,k) join the branch ops replace: mean and scale of one
        # concatenated array, and the gradients of that formula
        rng = np.random.default_rng(len(widths) * k)
        arrays = [rng.standard_normal((6, c, k)).astype(dtype) for c in widths]
        joined = np.concatenate(arrays, axis=1)
        w = rng.uniform(0.1, 0.9, (6, joined.shape[1])).astype(dtype)
        g_mean = rng.standard_normal(w.shape).astype(dtype)
        g_scale = rng.standard_normal(joined.shape).astype(dtype)
        branches = [eg.Tensor(a, requires_grad=True) for a in arrays]
        mean = eg.mean_lastdim(branches)
        scaled = eg.scale_channels(branches, eg.Tensor(w, requires_grad=True))
        assert mean.data.tobytes() == joined.mean(axis=-1).tobytes()
        assert scaled.data.tobytes() == (joined * w[:, :, None]).tobytes()
        *scale_grads, weight_grad = scaled._backward(g_scale)
        got = [s + m for s, m in zip(scale_grads, mean._backward(g_mean))]
        want = g_scale * w[:, :, None] + np.broadcast_to((g_mean / k)[..., None], joined.shape)
        assert np.concatenate(got, axis=1).tobytes() == want.tobytes()
        assert weight_grad.tobytes() == np.einsum("bck,bck->bc", g_scale, joined).tobytes()

    @pytest.mark.parametrize("weight", [
        np.zeros((3, 26)),  # one column short
        np.zeros((3, 28)),  # one column over
        np.zeros(27),
        np.zeros((3, 27, 1)),
    ])
    def test_branch_linear_refuses_a_dense_weight_that_does_not_fit(self, weight):
        branches = [eg.Tensor(np.zeros((2, 4, 3))), eg.Tensor(np.zeros((2, 5, 3)))]
        with pytest.raises(ShapeError, match=r"^branch_linear: weight .* does not fit 2 branches "
                                             r"of 9 channels of width 3$"):
            eg.branch_linear(branches, None, eg.Tensor(weight))

    @pytest.mark.parametrize("w", [
        np.zeros((2, 8)),  # one channel short
        np.zeros((2, 10)),  # one channel over
        np.zeros((3, 9)),  # batch differs
        np.zeros((2, 9, 1)),
        np.zeros((2, 9), np.float32),  # dtype differs
    ])
    def test_branch_linear_refuses_a_channel_weight_that_does_not_fit(self, w):
        branches = [eg.Tensor(np.zeros((2, 4, 3))), eg.Tensor(np.zeros((2, 5, 3)))]
        with pytest.raises(ShapeError, match="^branch_linear: channel weight .* does not fit 2 "
                                             "branches of 9 channels"):
            eg.branch_linear(branches, eg.Tensor(w), eg.Tensor(np.zeros((3, 27))))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("widths", [(45, 120), (7,)])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_branch_linear_matches_scale_reshape_linear_bitwise(self, dtype, widths, weighted):
        # the ops branch_linear replaces: the joined branches, scaled, viewed
        # as (B, C*k) and fed to linear; an unweighted join is a scale by 1,
        # which changes no bit of the input or of the branch gradients
        rng = np.random.default_rng(sum(widths))
        batch, k, m = 37, 16, 24
        arrays = [rng.standard_normal((batch, c, k)).astype(dtype) for c in widths]
        channels = sum(widths)
        w = (rng.uniform(0.1, 0.9, (batch, channels)) if weighted
             else np.ones((batch, channels))).astype(dtype)
        weight = rng.standard_normal((m, channels * k)).astype(dtype)
        g = rng.standard_normal((batch, m)).astype(dtype)

        def run(fused):
            leaves = [eg.Tensor(a, requires_grad=True) for a in (*arrays, w, weight)]
            *branches, w_t, weight_t = leaves
            if fused:
                out = eg.branch_linear(branches, w_t if weighted else None, weight_t)
            else:
                scaled = eg.scale_channels(branches, w_t)
                out = eg.linear(eg.reshape(scaled, (batch, channels * k)), weight_t)
            total(eg.mul(out, eg.Tensor(g))).backward()
            grads = [t.grad for t in leaves if weighted or t is not w_t]
            return [out.data.tobytes(), *(a.tobytes() for a in grads)]

        assert run(True) == run(False)

    @pytest.mark.parametrize("dtype,rtol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    @pytest.mark.parametrize("rows", [1, 37])
    def test_branch_linear_with_a_column_major_weight(self, dtype, rtol, rows):
        # the same values to rounding as a row-major weight (BLAS may sum
        # in another order), and a column-major weight gradient
        rng = np.random.default_rng(rows)
        arrays = [rng.standard_normal((rows, c, 16)).astype(dtype) for c in (7, 45)]
        w = rng.uniform(0.1, 0.9, (rows, 52)).astype(dtype)
        weight = rng.standard_normal((24, 52 * 16)).astype(dtype)
        g = rng.standard_normal((rows, 24)).astype(dtype)

        def run(order):
            leaves = [eg.Tensor(a, requires_grad=True)
                      for a in (*arrays, w, np.asarray(weight, order=order))]
            out = eg.branch_linear(leaves[:2], leaves[2], leaves[3])
            g_weight = out._backward(g)[-1]
            total(eg.mul(out, eg.Tensor(g))).backward()
            return g_weight, [out.data, *(t.grad for t in leaves)]

        g_row, row_major = run("C")
        g_col, col_major = run("F")
        assert g_col.flags.f_contiguous and not g_col.flags.c_contiguous
        assert col_major[-1].flags.f_contiguous and row_major[-1].flags.c_contiguous
        for a, b in zip(row_major, col_major):
            np.testing.assert_allclose(b, a, rtol=rtol, atol=rtol)

    @pytest.mark.parametrize("order", [2, 3])
    @pytest.mark.parametrize("tile_bytes", [1, 700, 2**12])
    def test_cross_products_backward_bits_do_not_depend_on_the_tile(self, order, tile_bytes,
                                                                     monkeypatch):
        # 1 byte is one row a tile; 700 and 4 KiB cut the 37 rows unevenly
        rng = np.random.default_rng(order)
        x = rng.standard_normal((37, 6, 8)).astype(np.float32)
        g = rng.standard_normal((37, math.comb(6, order), 8)).astype(np.float32)

        def dx():
            (out,) = eg.cross_products(eg.Tensor(x, requires_grad=True), order)._backward(g)
            return out.array

        whole = dx()
        monkeypatch.setattr(eg, "CROSS_TILE_BYTES", tile_bytes)
        assert dx().tobytes() == whole.tobytes()

    def test_no_silent_broadcast(self):
        with pytest.raises(ShapeError):
            eg.mul(eg.Tensor(np.zeros((2, 3))), eg.Tensor(np.zeros((3,))))

    def test_nonfinite_detection(self):
        # mul hands its overflow on; relu, which would turn -inf into 0,
        # checks its input
        big = eg.Tensor(np.array([1e300]))
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            eg.relu(eg.mul(big, big))

    def test_backward_requires_scalar(self):
        t = eg.Tensor(np.zeros((2, 2)), requires_grad=True)
        with pytest.raises(ShapeError):
            eg.relu(t).backward()

    def test_backward_without_graph_errors(self):
        with pytest.raises(ShapeError):
            eg.Tensor(np.array(1.0)).backward()

    def test_loss_sum_of_parameter_gives_ones(self):
        t = eg.Tensor(np.ones((3, 2)), requires_grad=True)
        t.zero_grad()
        total(t).backward()
        assert np.array_equal(t.grad, np.ones((3, 2)))

    def test_gradient_accumulates_on_shared_node(self):
        t = eg.Tensor(np.array([2.0]), requires_grad=True)
        t.zero_grad()
        out = eg.add(t, t)
        total(out).backward()
        assert t.grad[0] == pytest.approx(2.0)

    def test_shared_gradient_arrays_are_never_written(self):
        # add hands the same gradient array to both parents; the second
        # gradient reaching the interior node must not write into it
        t = eg.Tensor(np.array([1.0, 2.0]), requires_grad=True)
        t.zero_grad()
        u = eg.mul(t, eg.Tensor(np.array([3.0, 5.0])))
        s = eg.add(u, u)
        w = eg.add(s, u)
        returned = []  # every gradient array the two adds hand out, as handed out
        for node in (s, w):
            def spy(grad, backward=node._backward):
                out = backward(grad)
                returned.extend((g, g.copy()) for g in out)
                return out
            node._backward = spy
        total(w).backward()
        assert np.array_equal(t.grad, [9.0, 15.0])
        assert len(returned) == 4
        assert all(np.array_equal(g, [1.0, 1.0]) and np.array_equal(g, before)
                   for g, before in returned)

    def test_interior_gradients_are_dropped_after_backward(self):
        t = eg.Tensor(np.array([1.0, 2.0]), requires_grad=True)
        t.zero_grad()
        u = eg.mul(t, eg.Tensor(np.array([3.0, 5.0])))
        loss = total(eg.add(u, u))
        loss.backward()
        assert u.grad is None and loss.grad is None
        assert np.array_equal(t.grad, [6.0, 10.0])

    def test_leaf_without_grad_gets_an_owned_copy(self):
        t = eg.Tensor(np.ones(3), requires_grad=True)
        total(eg.add(t, t)).backward()
        assert np.array_equal(t.grad, [2.0, 2.0, 2.0])
        assert t.grad.flags.writeable and t.grad.flags.owndata

    def test_cross_products_values_and_errors(self):
        x = eg.Tensor(np.array([[[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]]))
        out = eg.cross_products(x, 2)
        assert np.array_equal(out.data, [[[3.0, 8.0], [5.0, 12.0], [15.0, 24.0]]])
        out = eg.cross_products(x, 3)
        assert np.array_equal(out.data, [[[15.0, 48.0]]])
        for bad in (1, 4):
            with pytest.raises(ShapeError, match=f"order {bad} is not in 2..3 for 3 fields"):
                eg.cross_products(x, bad)
        with pytest.raises(ShapeError, match="expects"):
            eg.cross_products(eg.Tensor(np.ones((2, 3))), 2)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("f,order", [(f, r) for f in range(2, 7) for r in range(2, f + 1)])
    def test_cross_products_follows_combinations_order(self, f, order, dtype):
        # the channel order ChannelLayout, the benchmark's reference model and
        # the attention report all assume; r = f gives one channel
        x = np.random.default_rng(10 * f + order).standard_normal((3, f, 4)).astype(dtype)
        expect = []
        for fields in combinations(range(f), order):
            product = x[:, fields[0]]
            for m in fields[1:]:
                product = product * x[:, m]
            expect.append(product)
        out = eg.cross_products(eg.Tensor(x), order).data
        assert out.dtype == dtype and out.shape == (3, math.comb(f, order), 4)
        assert out.tobytes() == np.stack(expect, axis=1).tobytes()
        for bad in (0, 1, f + 1):
            with pytest.raises(ShapeError, match=f"order {bad} is not in 2..{f}"):
                eg.cross_products(eg.Tensor(x), bad)

    def test_deterministic_backward(self):
        x = np.linspace(-1, 1, 12).reshape(3, 4)

        def run():
            t = eg.Tensor(x.copy(), requires_grad=True)
            t.zero_grad()
            loss = eg.mean_all(eg.sigmoid(eg.linear(eg.relu(t), eg.Tensor(x[:2].copy()))))
            loss.backward()
            return t.grad.copy()

        assert np.array_equal(run(), run())


class TestRowSparseGradients:
    """gather_rows hands a leaf table its gradient as rows plus values."""

    @staticmethod
    def weighted_gather(table, idx, weights):
        return total(eg.mul(eg.gather_rows(table, idx), eg.Tensor(weights)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_dense_scatter_bitwise(self, dtype):
        idx = np.array([[3, 0, 3], [5, 3, 0]])
        w = randn(2, 3, 4).astype(dtype)
        t = eg.Tensor(randn(6, 4).astype(dtype), requires_grad=True)
        t.zero_grad()
        self.weighted_gather(t, idx, w).backward()
        want = np.zeros((6, 4), dtype=dtype)
        np.add.at(want, idx, w)
        assert t.grad.dtype == dtype and t.grad.tobytes() == want.tobytes()

    def test_two_gathers_of_one_table_accumulate(self):
        t = eg.Tensor(np.zeros((4, 2)), requires_grad=True)
        t.zero_grad()
        first = self.weighted_gather(t, np.array([1, 1, 3]), np.full((3, 2), 2.0))
        second = self.weighted_gather(t, np.array([[3, 0]]), np.full((1, 2, 2), 5.0))
        eg.add(first, second).backward()
        assert np.array_equal(t.grad, [[5.0, 5.0], [4.0, 4.0], [0.0, 0.0], [7.0, 7.0]])

    def test_two_backward_calls_accumulate(self):
        t = eg.Tensor(np.zeros((3, 2)), requires_grad=True)
        t.zero_grad()
        for _ in range(2):
            self.weighted_gather(t, np.array([2, 0, 2]), np.ones((3, 2))).backward()
        assert np.array_equal(t.grad, [[2.0, 2.0], [0.0, 0.0], [4.0, 4.0]])

    def test_leaf_without_grad_gets_an_owned_array(self):
        t = eg.Tensor(np.zeros((3, 2), dtype=np.float32), requires_grad=True)
        self.weighted_gather(t, np.array([1, 1]), np.ones((2, 2), dtype=np.float32)).backward()
        assert np.array_equal(t.grad, [[0.0, 0.0], [2.0, 2.0], [0.0, 0.0]])
        assert t.grad.dtype == np.float32
        assert t.grad.flags.writeable and t.grad.flags.owndata

    def test_constant_table_gets_no_gradient(self):
        table = eg.Tensor(np.ones((3, 2)))
        w = eg.Tensor(np.ones((2, 2)), requires_grad=True)
        total(eg.mul(eg.gather_rows(table, np.array([0, 2])), w)).backward()
        assert table.grad is None and np.array_equal(w.grad, np.ones((2, 2)))


class Watched(np.ndarray):
    """An array that logs each in-place add into it."""

    adds: list = []

    def __iadd__(self, other):
        Watched.adds.append(self)
        return super().__iadd__(other)


def watched(*values):
    return np.array(values, dtype=np.float64).view(Watched)


def fan_in(node, grads):
    """A tape node whose backward hands ``node`` each of ``grads``, in
    order, as if ``node`` fed it once per gradient."""
    return eg._make(np.zeros(1), (node,) * len(grads), lambda g: tuple(grads), "fan_in")


def returned_arrays_stay_unchanged(out):
    """Run ``total(out).backward()`` and check that no gradient array a node
    handed to its parents, other than a _Fresh one, was written."""
    loss = total(out)
    nodes, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if node._backward is not None and id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node._parents)
    handed = []

    def spy(backward):
        def run(g):
            grads = backward(g)
            handed.extend((a, a.copy()) for a in grads if type(a) is np.ndarray)
            return grads
        return run

    for node in nodes.values():
        node._backward = spy(node._backward)
    loss.backward()
    assert handed and all(a.tobytes() == copy.tobytes() for a, copy in handed)


class TestInPlaceSums:
    """Tensor.backward adds into a gradient in place only when the node owns
    it: a _Fresh array or a sum the sweep made."""

    @pytest.fixture(autouse=True)
    def clear_log(self):
        Watched.adds.clear()

    def received(self, grads):
        """The gradient an interior node passes to its backward after
        ``grads`` reach it, and the node's input leaf."""
        x = eg.Tensor(np.zeros(2), requires_grad=True)
        node = eg.reshape(x, (2,))
        got = []
        backward = node._backward
        node._backward = lambda g: (got.append(g), backward(g))[1]
        total(fan_in(node, grads)).backward()
        return got[0], x

    def test_shared_gradients_are_summed_once_then_in_place(self):
        a, b, c = watched(1, 2), watched(10, 20), watched(100, 200)
        g, x = self.received([a, b, c])
        assert [id(t) for t in Watched.adds] == [id(g)]
        assert all(g is not t for t in (a, b, c))
        assert np.array_equal(g, [111, 222]) and np.array_equal(x.grad, [111, 222])
        assert [a.tolist(), b.tolist(), c.tolist()] == [[1, 2], [10, 20], [100, 200]]

    def test_later_gradients_add_into_a_fresh_one(self):
        fresh, a = watched(1, 2), watched(10, 20)
        g, x = self.received([eg._Fresh(fresh), a])
        assert g is fresh and [id(t) for t in Watched.adds] == [id(fresh)]
        assert np.array_equal(fresh, [11, 22]) and a.tolist() == [10, 20]

    def test_a_fresh_gradient_after_a_shared_one_is_summed_out_of_place(self):
        a, fresh = watched(1, 2), watched(10, 20)
        g, _ = self.received([a, eg._Fresh(fresh)])
        assert not Watched.adds and g is not a and g is not fresh
        assert np.array_equal(g, [11, 22]) and a.tolist() == [1, 2] and fresh.tolist() == [10, 20]

    @pytest.mark.parametrize("grads", [[1], [1, 2], [2, 1]])
    def test_a_leaf_receives_fresh_gradients(self, grads):
        # grads: 1 is a _Fresh array, 2 a shared one
        arrays = {1: np.array([1.0, 2.0]), 2: np.array([10.0, 20.0])}
        leaf = eg.Tensor(np.zeros(2), requires_grad=True)
        total(fan_in(leaf, [eg._Fresh(arrays[1]) if n == 1 else arrays[2]
                            for n in grads])).backward()
        assert np.array_equal(leaf.grad, sum(arrays[n] for n in grads))

    def test_the_same_array_handed_to_two_parents_is_not_written(self):
        # add hands one array to both its parents, and a gets a second one
        def build(ts):
            a, b = eg.scale(ts[0], 2.0), eg.scale(ts[0], 3.0)
            return eg.add(eg.add(a, b), a)

        check_op(build, [randn(2, 3)])
        returned_arrays_stay_unchanged(build([eg.Tensor(randn(2, 3), requires_grad=True)]))

    def test_a_reshape_view_is_not_written(self):
        def build(ts):
            s = eg.scale(ts[0], 2.0)
            return eg.add(eg.reshape(eg.reshape(s, (6,)), (2, 3)), s)

        check_op(build, [randn(2, 3)])
        returned_arrays_stay_unchanged(build([eg.Tensor(randn(2, 3), requires_grad=True)]))

    def test_slices_are_not_written(self):
        # stack_fields hands s two slices of one array, and s gets a third
        # gradient from the add
        def build(ts):
            s, t = eg.scale(ts[0], 2.0), eg.mul(ts[0], ts[0])
            return eg.add(eg.mean_lastdim([eg.stack_fields([s, t, s])]), s)

        check_op(build, [randn(2, 3)])
        returned_arrays_stay_unchanged(build([eg.Tensor(randn(2, 3), requires_grad=True)]))

    @pytest.mark.parametrize("weighted", [False, True])
    def test_gradients_of_interior_branches_are_not_written(self, weighted):
        # the model's shape: the branches feed the pooled statistic, which
        # gives the channel weights, and branch_linear
        def build(ts):
            branches = [eg.scale(ts[0], 2.0), eg.scale(ts[1], 2.0)]
            mean = eg.mean_lastdim(branches)
            w = eg.sigmoid(mean) if weighted else None
            return eg.add(eg.branch_linear(branches, w, ts[2]), eg.linear(mean, ts[3]))

        arrays = [randn(2, 3, 4), randn(2, 2, 4), randn(5, 20), randn(5, 5)]
        check_op(build, arrays)
        returned_arrays_stay_unchanged(build([eg.Tensor(a, requires_grad=True) for a in arrays]))


class TestGatherFields:
    """gather_fields is stack_fields over one gather_rows per table, as one op."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_stacked_gather_rows_bitwise(self, dtype):
        idx = np.array([[3, 0, 1], [5, 3, 1], [3, 3, 0], [0, 2, 1]])  # every column repeats
        datas = [randn(6, 4).astype(dtype), randn(4, 4).astype(dtype), randn(2, 4).astype(dtype)]
        w = eg.Tensor(randn(4, 3, 4).astype(dtype))

        def run(gather):
            tables = [eg.Tensor(d.copy(), requires_grad=True) for d in datas]
            out = gather(tables)
            total(eg.mul(out, w)).backward()
            return out.data, [t.grad for t in tables]

        fused, fused_grads = run(lambda ts: eg.gather_fields(ts, idx))
        stacked, stacked_grads = run(
            lambda ts: eg.stack_fields([eg.gather_rows(t, idx[:, i]) for i, t in enumerate(ts)])
        )
        assert fused.dtype == dtype and fused.tobytes() == stacked.tobytes()
        for got, want in zip(fused_grads, stacked_grads):
            assert got.dtype == dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("tables,indices,message", [
        ([np.zeros((3, 2)), np.zeros((2, 2))], [[0, -1]], "out of range"),
        ([np.zeros((3, 2)), np.zeros((2, 2))], [[2, 2]], "out of range"),  # 2 fits only table 0
        ([np.zeros((3, 2)), np.zeros((2, 2))], [[0.0, 1.0]], "must be integers"),
        ([np.zeros((3, 2)), np.zeros((2, 3))], [[0, 1]], "share one width and dtype"),
        ([np.zeros((3, 2)), np.zeros((2, 2), np.float32)], [[0, 1]], "share one width and dtype"),
        ([np.zeros((3, 2)), np.zeros((2, 2))], [[0, 1, 1]], "do not fit 2 tables"),
        ([], [[0]], "at least one table"),
    ])
    def test_rejects_bad_input(self, tables, indices, message):
        with pytest.raises(ShapeError, match=message):
            eg.gather_fields([eg.Tensor(t) for t in tables], np.array(indices))


def test_sum_fields_is_a_left_fold():
    # numpy adds (B,f,1) along f pairwise once f >= 8, which rounds differently
    x = randn(1000, 10, 1).astype(np.float32) * 1e3
    want = x[:, 0]
    for i in range(1, 10):
        want = want + x[:, i]
    assert eg.sum_fields(eg.Tensor(x)).data.tobytes() == want.tobytes()


def masked_sigmoid_reference(z):
    """The logistic function split by a sign mask, as the engine once had it."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([32, 64]).flatmap(lambda width: arrays(
    np.float32 if width == 32 else np.float64, st.integers(0, 100),
    elements=st.floats(allow_nan=False, width=width))))
@example(np.array([0.0, -0.0, 1e-310, 36.0, -36.0, 710.0, -750.0, np.inf, -np.inf]))
@example(np.array([0.0, -0.0, 1e-40, 17.0, -17.0, 89.0, -104.0, np.inf, -np.inf], np.float32))
def test_sigmoid_values_match_the_masked_formula_bitwise(z):
    got = eg._sigmoid_values(z)
    assert got.dtype == z.dtype and got.tobytes() == masked_sigmoid_reference(z).tobytes()


class TestXavierInit:
    def test_bound_formula(self):
        w = eg.xavier_init((3, 3), seed=0, dtype=np.float64)
        assert np.abs(w).max() <= 1.0  # sqrt(6/6)

    def test_support_and_mean(self):
        w = eg.xavier_init((1000, 100), seed=1, dtype=np.float64)
        b = math.sqrt(6.0 / 1100)
        assert np.abs(w).max() <= b
        assert abs(w.mean()) < 0.01 * b + 0.01

    def test_deterministic_per_name(self):
        a = eg.xavier_init((4, 4), seed=3, name="w")
        b = eg.xavier_init((4, 4), seed=3, name="w")
        c = eg.xavier_init((4, 4), seed=3, name="other")
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_zero_dim_errors(self):
        with pytest.raises(ShapeError):
            eg.xavier_init((0, 4), seed=0)

    @pytest.mark.parametrize("shape", [(4,), (2, 3, 4)])
    def test_a_shape_that_is_not_2d_errors(self, shape):
        with pytest.raises(ShapeError, match=re.escape(f"xavier_init expects a 2-D shape, got {shape}")):
            eg.xavier_init(shape, seed=0)


class TestDropout:
    def test_identity_paths(self):
        x = eg.Tensor(randn(4, 5))
        assert eg.dropout(x, 0.0, training=True, rng=np.random.default_rng(0)) is x
        assert eg.dropout(x, 0.5, training=False) is x

    def test_rate_one_rejected(self):
        with pytest.raises(ShapeError):
            eg.dropout(eg.Tensor(randn(2, 2)), 1.0, training=True, rng=np.random.default_rng(0))

    def test_training_mode_needs_an_rng(self):
        with pytest.raises(ShapeError, match="^dropout in training mode needs an rng$"):
            eg.dropout(eg.Tensor(randn(2, 2)), 0.5, training=True)

    def test_mean_preserved(self):
        x = np.full((100, 1000), 3.0)
        out = eg.dropout(eg.Tensor(x), 0.2, training=True, rng=np.random.default_rng(123))
        assert out.data.mean() == pytest.approx(3.0, rel=0.01)

    def test_mask_gradient(self):
        x = eg.Tensor(np.ones((4, 4)), requires_grad=True)
        x.zero_grad()
        out = eg.dropout(x, 0.5, training=True, rng=np.random.default_rng(7))
        total(out).backward()
        # gradient equals the applied mask including the 1/(1-rate) scaling
        assert np.array_equal(x.grad, out.data)

    def test_deterministic_mask(self):
        x = eg.Tensor(np.ones((8, 8)))
        a = eg.dropout(x, 0.3, training=True, rng=np.random.default_rng(9)).data
        b = eg.dropout(x, 0.3, training=True, rng=np.random.default_rng(9)).data
        assert np.array_equal(a, b)


class TestStores:
    def test_register_and_zero(self):
        ps = eg.ParameterStore(np.float64)
        t = literal(ps, "w", np.ones((2, 2)))
        assert ps["w"] is t and len(ps) == 1
        assert t.grad is None
        total(eg.mul(t, t)).backward()
        assert not np.array_equal(t.grad, np.zeros((2, 2)))
        ps.zero_grad()
        assert np.array_equal(t.grad, np.zeros((2, 2)))

    def test_duplicate_name_rejected(self):
        ps = eg.ParameterStore()
        literal(ps, "w", np.ones((1, 1)))
        with pytest.raises(ShapeError):
            literal(ps, "w", np.ones((1, 1)))

    def test_gradient_of_unused_parameter_is_zero(self):
        ps = eg.ParameterStore(np.float64)
        used = literal(ps, "used", np.ones((2, 2)))
        unused = literal(ps, "unused", np.ones((3, 3)))
        ps.zero_grad()
        total(used).backward()
        assert np.array_equal(unused.grad, np.zeros((3, 3)))
        assert np.array_equal(used.grad, np.ones((2, 2)))

    def test_load_arrays_congruence(self):
        ps = eg.ParameterStore()
        literal(ps, "a", np.zeros((2, 2)))
        with pytest.raises(CheckpointError):
            ps.load_arrays({"b": np.zeros((2, 2))})
        with pytest.raises(CheckpointError):
            ps.load_arrays({"a": np.zeros((3, 2))})

    @pytest.mark.parametrize("value,message", [
        ([[1.0, 2.0], [3.0, 4.0]], "got list"),
        (np.array([["1", "2"], ["3", "4"]]), "got <U1"),
        (np.array([[1.0, None], [3.0, 4.0]], dtype=object), "got object"),
    ], ids=["list", "str", "object"])
    def test_load_arrays_refuses_a_value_that_is_no_real_array(self, value, message):
        ps = eg.ParameterStore(np.float64)
        inits = {"a": Counted(np.ones((2, 2))), "b": Counted(np.ones((2, 2)))}
        for name, init in inits.items():
            ps.register(name, (2, 2), init)
        ps["a"].data  # drawn: it must keep its value
        # "a" fits and comes first, "b" does not: neither may change
        with pytest.raises(CheckpointError,
                           match=f"^parameter 'b' must be an array of real numbers, {message}$"):
            ps.load_arrays({"a": np.zeros((2, 2)), "b": value})
        assert (ps["a"].data == 1.0).all() and inits["b"].calls == 0


class TestLayout:
    """A parameter declared column-major is held so from its first draw and
    every load on, its gradient follows it, and what leaves the store is
    row-major."""

    @staticmethod
    def store(dtype=np.float64):
        ps = eg.ParameterStore(dtype)
        ps.register("w0", (3, 4), Counted(randn(3, 4)), order="F")
        ps.register("w1", (2, 3), Counted(randn(2, 3)))
        ps.register("b", (3,), Counted(randn(3)))
        return ps

    @staticmethod
    def layouts(arrays):
        return {n: ("F" if a.flags.f_contiguous and not a.flags.c_contiguous else
                    "C" if a.flags.c_contiguous else "-") for n, a in arrays.items()}

    def test_first_draw_holds_the_declared_order(self):
        ps = self.store()
        assert {n: t.order for n, t in ps.items()} == {"w0": "F", "w1": "C", "b": "C"}
        assert self.layouts({n: t.data for n, t in ps.items()}) == {"w0": "F", "w1": "C", "b": "C"}
        init = ps["w0"]._init
        assert ps["w0"].data.tobytes() == init.arr.tobytes()

    def test_an_unknown_order_is_refused(self):
        with pytest.raises(ShapeError, match="parameter 'w': order must be 'C' or 'F', got 'A'"):
            eg.ParameterStore().register("w", (2, 2), Counted(np.zeros((2, 2))), order="A")

    @pytest.mark.parametrize("given", ["C", "F"])
    def test_load_arrays_produces_the_declared_order(self, given):
        ps = self.store(np.float32)
        arrays = {n: np.asarray(randn(*t.shape), order=given) for n, t in ps.items()}
        ps.load_arrays(arrays)
        assert self.layouts({n: t.data for n, t in ps.items()}) == {"w0": "F", "w1": "C", "b": "C"}
        for name, t in ps.items():
            assert t.data.tobytes() == arrays[name].astype(np.float32).tobytes(), name

    def test_state_arrays_and_checkpoints_are_row_major(self, tmp_path):
        ps = self.store(np.float32)
        state = ps.state_arrays()
        assert self.layouts(state) == {"w0": "C", "w1": "C", "b": "C"}
        assert not np.shares_memory(state["w0"], ps["w0"].data)
        path = tmp_path / "w.ckpt"
        eg.save_checkpoint(path, ps)
        want = eg.CHECKPOINT_MAGIC + struct.pack("<III", eg.CHECKPOINT_VERSION, 1, 3)
        for name, arr in state.items():
            want += struct.pack("<I", len(name)) + name.encode() + struct.pack("<I", arr.ndim)
            want += struct.pack(f"<{arr.ndim}Q", *arr.shape) + arr.astype("<f4").tobytes()
        assert path.read_bytes() == want
        other = self.store(np.float32)
        eg.load_checkpoint_into(path, other)
        assert self.layouts({n: t.data for n, t in other.items()}) == {"w0": "F", "w1": "C", "b": "C"}
        assert all(t.data.tobytes() == state[n].tobytes() for n, t in other.items())

    @pytest.mark.parametrize("zeroed", [False, True], ids=["fresh", "zeroed"])
    @pytest.mark.parametrize("grad_order", ["C", "F"])
    def test_a_gradient_takes_its_parameters_layout(self, zeroed, grad_order):
        # branch_linear hands dnn/w0 a column-major gradient, linear a
        # row-major one; either way the leaf's gradient is in its own layout
        ps = self.store()
        x = eg.Tensor(randn(5, 4))
        if zeroed:
            ps.zero_grad()
        h = eg.linear(x, ps["w0"]) if grad_order == "C" else eg.branch_linear(
            [eg.Tensor(x.data.reshape(5, 2, 2))], None, ps["w0"])
        out = eg.add_rowvec(eg.linear(h, ps["w1"]), eg.Tensor(np.zeros(2)))
        total(eg.mul(out, out)).backward()
        assert self.layouts({"w0": ps["w0"].grad, "w1": ps["w1"].grad}) == {"w0": "F", "w1": "C"}
        get = 2 * out.data @ ps["w1"].data  # d/dh of the sum of squares
        assert np.allclose(ps["w0"].grad, get.T @ x.data, rtol=1e-12, atol=0)


class TestParameter:
    def test_drawn_once_on_first_read_and_cast_to_the_store_dtype(self):
        ps = eg.ParameterStore(np.float32)
        init = Counted(randn(3, 2))
        p = ps.register("w", (3, 2), init)
        assert init.calls == 0
        first = p.data
        assert init.calls == 1 and first.dtype == np.float32
        assert first.tobytes() == init.arr.astype(np.float32).tobytes()
        assert p.data is first and init.calls == 1

    def test_shape_dtype_and_repr_do_not_draw(self):
        ps = eg.ParameterStore(np.float64)
        init = Counted(np.ones((4, 5)))
        p = ps.register("w", [4, 5], init)
        assert p.shape == (4, 5) and p.dtype == np.float64
        assert repr(p) == "Parameter(shape=(4, 5), dtype=float64)"
        assert p.grad is None and p.requires_grad
        assert init.calls == 0

    def test_wrong_init_shape_names_the_parameter(self):
        ps = eg.ParameterStore()
        p = ps.register("dnn/w0", (2, 3), lambda: np.zeros((3, 2)))
        with pytest.raises(ShapeError, match=r"parameter 'dnn/w0': init gave shape \(3, 2\)"):
            p.data

    def test_other_missing_attributes_still_raise(self):
        p = eg.ParameterStore().register("w", (1,), Counted(np.zeros(1)))
        with pytest.raises(AttributeError, match="no attribute 'weight'"):
            p.weight

    def test_load_arrays_assigns_without_drawing(self):
        ps = eg.ParameterStore(np.float64)
        init = Counted(np.zeros((2, 2)))
        p = ps.register("w", (2, 2), init)
        ps.load_arrays({"w": np.full((2, 2), 3.0, dtype=np.float32)})
        assert init.calls == 0
        assert p.data.dtype == np.float64 and (p.data == 3.0).all()

    def test_wrong_shape_load_arrays_raises_without_drawing(self):
        ps = eg.ParameterStore(np.float64)
        inits = {"a": Counted(np.ones((2, 2))), "b": Counted(np.ones(3))}
        for name, init in inits.items():
            ps.register(name, init.arr.shape, init)
        # "a" fits and comes first, "b" does not: neither may change
        with pytest.raises(CheckpointError, match=r"parameter 'b' shape mismatch: \(4,\) vs \(3,\)"):
            ps.load_arrays({"a": np.zeros((2, 2)), "b": np.zeros(4)})
        assert [init.calls for init in inits.values()] == [0, 0]
        assert (ps["a"].data == 1.0).all()


class TestCheckpoint:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_round_trip_bit_exact(self, tmp_path, dtype):
        ps = eg.ParameterStore(dtype)
        literal(ps, "embed/user", randn(7, 4))
        literal(ps, "dnn/w0", randn(3, 5))
        literal(ps, "dnn/b0", randn(1, 3))
        path = tmp_path / "model.ckpt"
        eg.save_checkpoint(path, ps)
        arrays, loaded_dtype = eg.load_checkpoint(path)
        assert loaded_dtype == np.dtype(dtype)
        for name, t in ps.items():
            assert arrays[name].tobytes() == t.data.tobytes()

    def test_load_into(self, tmp_path):
        ps = eg.ParameterStore(np.float64)
        literal(ps, "w", randn(4, 4))
        path = tmp_path / "w.ckpt"
        eg.save_checkpoint(path, ps)
        other = eg.ParameterStore(np.float64)
        literal(other, "w", np.zeros((4, 4)))
        eg.load_checkpoint_into(path, other)
        assert np.array_equal(other["w"].data, ps["w"].data)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 16)
        with pytest.raises(CheckpointError):
            eg.load_checkpoint(path)

    @staticmethod
    def saved(tmp_path):
        """A float32 checkpoint.  Its first record spans bytes 20-166: name
        length 20-24, name 24-34, rank 34-38, shape 38-54, values 54-166."""
        ps = eg.ParameterStore(np.float32)
        literal(ps, "embed/user", randn(7, 4))
        literal(ps, "dnn/b0", randn(1, 3))
        path = tmp_path / "model.ckpt"
        eg.save_checkpoint(path, ps)
        return path, ps

    @pytest.mark.parametrize("cut", [10, 22, 30, 36, 44, 60, 131, 170, 190, -1])
    def test_truncated_file_names_the_path(self, tmp_path, cut):
        path, _ = self.saved(tmp_path)
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(CheckpointError, match=f"truncated checkpoint {re.escape(str(path))}"):
            eg.load_checkpoint(path)

    @pytest.mark.parametrize("dims,message", [
        ((2**63, 4), "truncated checkpoint .*: the values of 'embed/user' runs past the end"),
        ((0, 2**63), r"bad shape \(0, 9223372036854775808\) of 'embed/user' in checkpoint"),
    ])
    def test_bad_shape_names_the_path(self, tmp_path, dims, message):
        path, _ = self.saved(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[38:54] = struct.pack("<2Q", *dims)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match=message):
            eg.load_checkpoint(path)

    def test_name_not_utf8_names_the_path(self, tmp_path):
        path, _ = self.saved(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[24] = 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match=f"not UTF-8 in checkpoint {re.escape(str(path))}"):
            eg.load_checkpoint(path)

    def test_repeated_name_names_the_path(self, tmp_path):
        path, _ = self.saved(tmp_path)
        blob = path.read_bytes()
        first = blob[20:166]
        path.write_bytes(blob[:8] + struct.pack("<III", 1, 1, 3) + first + blob[20:])
        message = f"'embed/user' appears twice in checkpoint {re.escape(str(path))}"
        with pytest.raises(CheckpointError, match=message):
            eg.load_checkpoint(path)

    def test_trailing_bytes_name_the_path(self, tmp_path):
        path, _ = self.saved(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CheckpointError, match=f"trailing bytes in checkpoint {re.escape(str(path))}"):
            eg.load_checkpoint(path)

    @pytest.mark.parametrize("version,code,message", [
        (2, 1, "unsupported checkpoint version 2"),
        (1, 3, "unknown checkpoint dtype code 3"),
    ], ids=["version", "dtype-code"])
    def test_unknown_header_values_name_the_path(self, tmp_path, version, code, message):
        path, _ = self.saved(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[8:16] = struct.pack("<II", version, code)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match=f"^{message} in {re.escape(str(path))}$"):
            eg.load_checkpoint(path)

    @pytest.mark.parametrize("load", [
        eg.load_checkpoint,
        lambda path: eg.load_checkpoint_into(path, eg.ParameterStore(np.float32)),
    ], ids=["load_checkpoint", "load_checkpoint_into"])
    @pytest.mark.parametrize("target,reason", [
        ("missing.ckpt", "No such file or directory"),
        ("", "Is a directory"),
    ], ids=["missing", "directory"])
    def test_unopenable_path_is_named(self, tmp_path, load, target, reason):
        path = tmp_path / target
        with pytest.raises(CheckpointError, match=f"^cannot open checkpoint {re.escape(str(path))}: {reason}$"):
            load(path)

    def test_failed_save_keeps_the_old_checkpoint(self, tmp_path):
        path, ps = self.saved(tmp_path)
        good = path.read_bytes()
        bad = eg.ParameterStore(np.float32)
        literal(bad, "\ud800", randn(2))  # a name UTF-8 cannot encode
        with pytest.raises(CheckpointError, match=f"cannot save checkpoint {re.escape(str(path))}"):
            eg.save_checkpoint(path, bad)
        assert path.read_bytes() == good
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        arrays, _ = eg.load_checkpoint(path)
        for name, t in ps.items():
            assert arrays[name].tobytes() == t.data.tobytes()

    def test_failed_load_leaves_the_store_unchanged(self, tmp_path):
        path, ps = self.saved(tmp_path)
        before = ps.state_arrays()
        for _, t in ps.items():
            t.data = t.data + 1
        path.write_bytes(path.read_bytes()[:-1])  # the last record is cut
        changed = ps.state_arrays()
        with pytest.raises(CheckpointError):
            eg.load_checkpoint_into(path, ps)
        for name, t in ps.items():
            assert t.data.tobytes() == changed[name].tobytes() != before[name].tobytes()
        # a store whose parameters were never read stays undrawn
        undrawn = eg.ParameterStore(np.float32)
        inits = {name: Counted(arr) for name, arr in changed.items()}
        for name, init in inits.items():
            undrawn.register(name, init.arr.shape, init)
        with pytest.raises(CheckpointError):
            eg.load_checkpoint_into(path, undrawn)
        assert all(init.calls == 0 for init in inits.values())

    @pytest.mark.parametrize("store,message", [
        ({"embed/user": (7, 4), "dnn/b0": (1, 3)}, "does not match store dtype float64"),
        ({"embed/user": (7, 4)}, r"missing=\[\] unexpected=\['dnn/b0'\]"),
        ({"embed/user": (7, 4), "dnn/b0": (1, 3), "dnn/w0": (3, 2)},
         r"missing=\['dnn/w0'\] unexpected=\[\]"),
        ({"embed/user": (7, 4), "dnn/b0": (3, 1)}, r"'dnn/b0' shape mismatch: \(1, 3\) vs \(3, 1\)"),
    ])
    def test_mismatch_with_the_store_names_the_path(self, tmp_path, store, message):
        path, _ = self.saved(tmp_path)
        dtype = np.float64 if "dtype" in message else np.float32
        ps = eg.ParameterStore(dtype)
        inits = {name: Counted(np.zeros(shape)) for name, shape in store.items()}
        for name, init in inits.items():
            ps.register(name, init.arr.shape, init)
        with pytest.raises(CheckpointError, match=f"{message} in .*{re.escape(str(path))}$"):
            eg.load_checkpoint_into(path, ps)
        assert all(init.calls == 0 for init in inits.values())
        assert all((t.data == 0).all() for _, t in ps.items())


class TestFiniteDifferenceCheck:
    """The oracle the model and attention tests trust."""

    def test_linear_quadratic_is_exact(self):
        ps = eg.ParameterStore(np.float64)
        w = literal(ps, "w", np.array([[0.5, -1.0, 2.0]]))
        x = eg.Tensor(np.array([[1.0, 2.0, -0.5]]))
        target = 0.7

        def loss_fn():
            pred = eg.linear(x, w)
            diff = eg.add(pred, eg.Tensor(np.full((1, 1), -target)))
            return total(eg.mul(diff, diff))

        report = check_parameters(loss_fn, ps, eps=1e-3, max_coords=64)
        assert report["w"] < 1e-9

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_numeric_gradient_writes_the_array_in_any_layout(self, order):
        # the loss reads arr itself; a flat copy of a column-major array
        # would leave it unchanged and give zero differences
        w = randn(3, 4)
        arr = np.asarray(randn(3, 4), order=order)
        before = arr.copy()
        numeric = numeric_gradient(lambda: float((w * arr * arr).sum()), arr, range(12), eps=1e-4)
        assert np.allclose(numeric, (2 * w * arr).reshape(-1), rtol=1e-8, atol=1e-10)
        assert arr.tobytes() == before.tobytes()
