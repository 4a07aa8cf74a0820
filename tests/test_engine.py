"""Unit tests for the autodiff engine: every primitive against central
finite differences, plus init, dropout, stores and checkpoint round-trips."""

import math
from itertools import combinations

import numpy as np
import pytest

from fiinet import engine as eg
from fiinet.errors import CheckpointError, NonFiniteError, ShapeError


def fd_gradient(loss_fn, arr, eps=1e-6):
    """Central-difference gradient of a scalar loss wrt one array."""
    g = np.zeros_like(arr)
    flat = arr.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + eps
        lp = loss_fn()
        flat[i] = old - eps
        lm = loss_fn()
        flat[i] = old
        gf[i] = (lp - lm) / (2 * eps)
    return g


def check_op(build, arrays, rtol=1e-6):
    """build(tensors) -> output Tensor; checks each input's gradient."""
    rng = np.random.default_rng(0)
    tensors = [eg.Tensor(a, requires_grad=True) for a in arrays]
    out = build(tensors)
    weights = rng.standard_normal(out.data.shape)

    def scalar():
        with eg.no_grad():
            val = build(tensors).data
        return float((val * weights).sum())

    loss = eg.sum_all(eg.mul(out, eg.Tensor(weights)))
    for t in tensors:
        t.zero_grad()
    loss.backward()
    for t, arr in zip(tensors, arrays):
        numeric = fd_gradient(lambda: scalar(), arr)
        denom = np.maximum(np.maximum(np.abs(t.grad), np.abs(numeric)), 1e-8)
        rel = np.abs(t.grad - numeric) / denom
        assert rel.max() < rtol, f"max rel err {rel.max():.3e}"


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

    def test_hadamard_three_way(self):
        check_op(
            lambda ts: eg.hadamard(ts[0], ts[1], ts[2]),
            [randn(3, 3), randn(3, 3), randn(3, 3)],
        )

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
        # a table that is itself computed gets the dense (V,k) gradient
        idx = np.array([[0, 2], [2, 2], [1, 0]])
        check_op(lambda ts: eg.gather_rows(eg.mul(ts[0], ts[1]), idx), [randn(3, 4), randn(3, 4)])

    def test_stack_fields(self):
        check_op(
            lambda ts: eg.stack_fields(list(ts)), [randn(2, 3), randn(2, 3), randn(2, 3)]
        )

    def test_take_fields(self):
        idx = np.array([0, 2, 1, 0, 2, 2])
        check_op(lambda ts: eg.take_fields(ts[0], idx), [randn(2, 3, 4)])

    def test_pad_channels(self):
        check_op(lambda ts: eg.pad_channels(ts[0], 5, 2), [randn(2, 3, 4)])

    @pytest.mark.parametrize("order", [2, 3])
    def test_cross_products(self, order):
        index = eg.CrossIndex(list(combinations(range(5), order)))
        check_op(lambda ts: eg.cross_products(ts[0], index), [randn(2, 5, 3)])

    def test_cross_products_gapped_table(self):
        # last fields that are not consecutive, and runs of one row
        index = eg.CrossIndex([(0, 1, 3), (0, 1, 4), (0, 2, 4), (1, 3, 4)])
        check_op(lambda ts: eg.cross_products(ts[0], index), [randn(2, 5, 3)])

    def test_concat_channels(self):
        check_op(
            lambda ts: eg.concat_channels(list(ts)), [randn(2, 3, 4), randn(2, 1, 4), randn(2, 2, 4)]
        )

    def test_join_columns(self):
        check_op(lambda ts: eg.join_columns(ts[0], ts[1], 2), [randn(3, 5), randn(3, 5)])

    def test_scale_channels(self):
        check_op(
            lambda ts: eg.scale_channels(ts[0], ts[1]), [randn(2, 3, 4), randn(2, 3)]
        )

    def test_mean_lastdim(self):
        check_op(lambda ts: eg.mean_lastdim(ts[0]), [randn(2, 3, 4)])

    def test_max_lastdim(self):
        check_op(lambda ts: eg.max_lastdim(ts[0]), [randn(2, 3, 5)])

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

    def test_hadamard_examples(self):
        a = eg.Tensor(np.array([1.0, 2.0]))
        b = eg.Tensor(np.array([3.0, 4.0]))
        c = eg.Tensor(np.array([5.0, 6.0]))
        assert np.array_equal(eg.mul(a, b).data, [3.0, 8.0])
        assert np.array_equal(eg.hadamard(a, b, c).data, [15.0, 48.0])
        assert np.array_equal(eg.mul(a, eg.Tensor(np.ones(2))).data, a.data)

    def test_sigmoid_relu_values(self):
        assert eg.sigmoid(eg.Tensor(np.array([0.0]))).data[0] == pytest.approx(0.5)
        assert eg.relu(eg.Tensor(np.array([-2.0]))).data[0] == 0.0
        z = eg.Tensor(np.array([0.0]), requires_grad=True)
        p = eg.sigmoid(z)
        eg.sum_all(p).backward()
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
            eg.scale_channels(eg.Tensor(np.zeros((2, 3, 4))), eg.Tensor(np.zeros((2, 4))))

    def test_no_silent_broadcast(self):
        with pytest.raises(ShapeError):
            eg.mul(eg.Tensor(np.zeros((2, 3))), eg.Tensor(np.zeros((3,))))

    def test_nonfinite_detection(self):
        big = eg.Tensor(np.array([1e300]))
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            eg.mul(big, big)

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
        eg.sum_all(t).backward()
        assert np.array_equal(t.grad, np.ones((3, 2)))

    def test_gradient_accumulates_on_shared_node(self):
        t = eg.Tensor(np.array([2.0]), requires_grad=True)
        t.zero_grad()
        out = eg.add(t, t)
        eg.sum_all(out).backward()
        assert t.grad[0] == pytest.approx(2.0)

    def test_shared_gradient_arrays_are_never_written(self):
        # add hands the same gradient array to both parents; the second
        # gradient reaching the interior node must not write into it
        t = eg.Tensor(np.array([1.0, 2.0]), requires_grad=True)
        t.zero_grad()
        u = eg.mul(t, eg.Tensor(np.array([3.0, 5.0])))
        s = eg.add(u, u)
        w = eg.add(s, u)
        eg.sum_all(w).backward()
        assert np.array_equal(t.grad, [9.0, 15.0])
        assert np.array_equal(s.grad, [1.0, 1.0]) and np.array_equal(w.grad, [1.0, 1.0])

    def test_leaf_without_grad_gets_an_owned_copy(self):
        t = eg.Tensor(np.ones(3), requires_grad=True)
        eg.sum_all(eg.add(t, t)).backward()
        assert np.array_equal(t.grad, [2.0, 2.0, 2.0])
        assert t.grad.flags.writeable and t.grad.flags.owndata

    def test_cross_products_values_and_errors(self):
        x = eg.Tensor(np.array([[[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]]))
        out = eg.cross_products(x, eg.CrossIndex([(0, 1), (0, 2), (1, 2)]))
        assert np.array_equal(out.data, [[[3.0, 8.0], [5.0, 12.0], [15.0, 24.0]]])
        out = eg.cross_products(x, eg.CrossIndex([(0, 1, 2)]))
        assert np.array_equal(out.data, [[[15.0, 48.0]]])
        for bad in ([(1, 0)], [(0, 2), (0, 1)], [(0, 1), (0, 1)], [(0,)], [(-1, 0)]):
            with pytest.raises(ShapeError):
                eg.CrossIndex(bad)
        with pytest.raises(ShapeError, match="out of range"):
            eg.cross_products(x, eg.CrossIndex([(0, 3)]))

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
        return eg.sum_all(eg.mul(eg.gather_rows(table, idx), eg.Tensor(weights)))

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
        eg.sum_all(eg.mul(eg.gather_rows(table, np.array([0, 2])), w)).backward()
        assert table.grad is None and np.array_equal(w.grad, np.ones((2, 2)))


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


class TestDropout:
    def test_identity_paths(self):
        x = eg.Tensor(randn(4, 5))
        assert eg.dropout(x, 0.0, training=True, rng=0) is x
        assert eg.dropout(x, 0.5, training=False) is x

    def test_rate_one_rejected(self):
        with pytest.raises(ShapeError):
            eg.dropout(eg.Tensor(randn(2, 2)), 1.0, training=True, rng=0)

    def test_mean_preserved(self):
        x = np.full((100, 1000), 3.0)
        out = eg.dropout(eg.Tensor(x), 0.2, training=True, rng=123)
        assert out.data.mean() == pytest.approx(3.0, rel=0.01)

    def test_mask_gradient(self):
        x = eg.Tensor(np.ones((4, 4)), requires_grad=True)
        x.zero_grad()
        out = eg.dropout(x, 0.5, training=True, rng=7)
        eg.sum_all(out).backward()
        # gradient equals the applied mask including the 1/(1-rate) scaling
        assert np.array_equal(x.grad, out.data)

    def test_deterministic_mask(self):
        x = eg.Tensor(np.ones((8, 8)))
        a = eg.dropout(x, 0.3, training=True, rng=9).data
        b = eg.dropout(x, 0.3, training=True, rng=9).data
        assert np.array_equal(a, b)


class TestStores:
    def test_register_and_zero(self):
        ps = eg.ParameterStore(np.float64)
        t = ps.register("w", np.ones((2, 2)))
        assert "w" in ps and len(ps) == 1
        assert np.array_equal(t.grad, np.zeros((2, 2)))
        eg.sum_all(eg.mul(t, t)).backward()
        assert not np.array_equal(t.grad, np.zeros((2, 2)))
        ps.zero_grad()
        assert np.array_equal(t.grad, np.zeros((2, 2)))

    def test_duplicate_name_rejected(self):
        ps = eg.ParameterStore()
        ps.register("w", np.ones((1, 1)))
        with pytest.raises(ShapeError):
            ps.register("w", np.ones((1, 1)))

    def test_gradient_of_unused_parameter_is_zero(self):
        ps = eg.ParameterStore(np.float64)
        used = ps.register("used", np.ones((2, 2)))
        unused = ps.register("unused", np.ones((3, 3)))
        ps.zero_grad()
        eg.sum_all(used).backward()
        assert np.array_equal(unused.grad, np.zeros((3, 3)))
        assert np.array_equal(used.grad, np.ones((2, 2)))

    def test_load_arrays_congruence(self):
        ps = eg.ParameterStore()
        ps.register("a", np.zeros((2, 2)))
        with pytest.raises(CheckpointError):
            ps.load_arrays({"b": np.zeros((2, 2))})
        with pytest.raises(CheckpointError):
            ps.load_arrays({"a": np.zeros((3, 2))})


class TestCheckpoint:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_round_trip_bit_exact(self, tmp_path, dtype):
        ps = eg.ParameterStore(dtype)
        ps.register("embed/user", randn(7, 4))
        ps.register("dnn/w0", randn(3, 5))
        ps.register("dnn/b0", randn(1, 3))
        path = tmp_path / "model.ckpt"
        eg.save_checkpoint(path, ps)
        arrays, loaded_dtype = eg.load_checkpoint(path)
        assert loaded_dtype == np.dtype(dtype)
        for name, t in ps.items():
            assert arrays[name].tobytes() == t.data.tobytes()

    def test_load_into(self, tmp_path):
        ps = eg.ParameterStore(np.float64)
        ps.register("w", randn(4, 4))
        path = tmp_path / "w.ckpt"
        eg.save_checkpoint(path, ps)
        other = eg.ParameterStore(np.float64)
        other.register("w", np.zeros((4, 4)))
        eg.load_checkpoint_into(path, other)
        assert np.array_equal(other["w"].data, ps["w"].data)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 16)
        with pytest.raises(CheckpointError):
            eg.load_checkpoint(path)


class TestFiniteDifferenceCheck:
    def test_linear_quadratic_is_exact(self):
        ps = eg.ParameterStore(np.float64)
        w = ps.register("w", np.array([[0.5, -1.0, 2.0]]))
        x = eg.Tensor(np.array([[1.0, 2.0, -0.5]]))
        target = 0.7

        def loss_fn():
            pred = eg.linear(x, w)
            diff = eg.add(pred, eg.Tensor(np.full((1, 1), -target)))
            return eg.sum_all(eg.mul(diff, diff))

        report = eg.finite_difference_check(loss_fn, ps, eps=1e-3)
        assert report["w"] < 1e-9

    def test_empty_store_gives_empty_report(self):
        assert eg.finite_difference_check(lambda: None, eg.ParameterStore(np.float64)) == {}

    def test_requires_float64(self):
        ps = eg.ParameterStore(np.float32)
        ps.register("w", np.ones((1, 1)))
        with pytest.raises(ShapeError):
            eg.finite_difference_check(lambda: None, ps)
