"""Non-finite values: no engine op hides one, and every model path raises
NonFiniteError for one, naming the op that produced it."""

import inspect

import numpy as np
import pytest

from fiinet import engine as eg
from fiinet.errors import NonFiniteError
from fiinet.ingest import FieldSchema
from fiinet.network import VARIANTS, CtrModel, ModelConfig

BAD_VALUES = (np.inf, -np.inf, np.nan)


def values(shape, seed=0):
    """Finite test values, every third one exactly 0, so that an inf meets
    a zero factor somewhere (inf * 0 must give NaN, not 0)."""
    v = np.random.default_rng(seed).standard_normal(shape)
    v.reshape(-1)[::3] = 0.0
    return v


def zero_column(v, j):
    """``v`` with column j all 0: an inf in row j of the other factor of a
    matmul meets only zeros there, so a kernel that skips zero terms would
    hide it."""
    v[:, j] = 0.0
    return v


def positive(shape):
    return np.abs(values(shape)) + 0.5


def everywhere(shape):
    return list(np.ndindex(*shape))


TAKEN = np.array([2, 0, 2])  # field 1 unread
GATHERED = np.array([[0, 2], [2, 4]])  # rows 1 and 3 unread
FIELD_ROWS = np.array([[0, 1], [3, 1], [0, 4]])

# op name -> (call on the input tensors, input arrays, the positions of
# each input that the op reads)
OP_CASES = {
    "add": (eg.add, [values((3, 4)), values((3, 4), 1)], None),
    "sub": (eg.sub, [values((3, 4)), values((3, 4), 1)], None),
    "neg": (eg.neg, [values((3, 4))], None),
    "mul": (eg.mul, [values((3, 4)), values((3, 4), 1)], None),
    "scale": (lambda a: eg.scale(a, 0.0), [values((3, 4))], None),
    "one_minus": (eg.one_minus, [values((3, 4))], None),
    "linear": (eg.linear, [zero_column(values((3, 4)), 1), values((2, 4), 1)], None),
    "add_rowvec": (eg.add_rowvec, [values((3, 4)), values((4,), 1)], None),
    "relu": (eg.relu, [values((3, 4))], None),
    "sigmoid": (eg.sigmoid, [values((3, 4))], None),
    "log": (eg.log, [positive((3, 4))], None),
    "clamp": (lambda a: eg.clamp(a, -0.5, 0.5), [values((3, 4))], None),
    "gather_rows": (
        lambda t: eg.gather_rows(t, GATHERED), [values((5, 3))],
        [[(r, c) for r in (0, 2, 4) for c in range(3)]],
    ),
    "gather_fields": (
        lambda t0, t1: eg.gather_fields([t0, t1], FIELD_ROWS), [values((4, 3)), values((5, 3), 1)],
        [[(r, c) for r in (0, 3) for c in range(3)], [(r, c) for r in (1, 4) for c in range(3)]],
    ),
    "stack_fields": (lambda *ts: eg.stack_fields(list(ts)), [values((3, 2)), values((3, 2), 1)], None),
    "take_fields": (
        lambda x: eg.take_fields(x, TAKEN), [values((2, 3, 4))],
        [[p for p in everywhere((2, 3, 4)) if p[1] != 1]],
    ),
    "pad_channels": (lambda x: eg.pad_channels(x, 4, 1), [values((2, 2, 3))], None),
    "cross_products": (lambda x: eg.cross_products(x, 2), [values((2, 4, 3))], None),
    "branch_linear": (
        lambda x0, x1, w, weight: eg.branch_linear([x0, x1], w, weight),
        [values((2, 1, 3)), values((2, 2, 3), 1), values((2, 3), 2), values((2, 9), 3)], None,
    ),
    "complement_from": (lambda a: eg.complement_from(a, 2), [values((3, 4))], None),
    "scale_channels": (
        lambda x0, x1, w: eg.scale_channels([x0, x1], w),
        [values((2, 1, 4)), values((2, 2, 4), 1), values((2, 3), 2)], None,
    ),
    "mean_lastdim": (
        lambda *ts: eg.mean_lastdim(list(ts)), [values((2, 1, 4)), values((2, 2, 4), 1)], None,
    ),
    "sum_lastdim": (eg.sum_lastdim, [values((2, 3))], None),
    "sum_fields": (eg.sum_fields, [values((2, 3, 4))], None),
    "reshape": (lambda x: eg.reshape(x, (3, 4)), [values((2, 6))], None),
    "mean_all": (eg.mean_all, [values((2, 3))], None),
    "dropout": (
        lambda x: eg.dropout(x, 0.5, True, np.random.default_rng(0)), [values((4, 5))], None,
    ),
}
# public engine functions that make no tape node
NOT_OPS = {"no_grad", "xavier_init", "save_checkpoint", "load_checkpoint", "load_checkpoint_into"}


def test_every_public_op_has_a_case():
    public = {name for name, fn in vars(eg).items()
              if inspect.isfunction(fn) and fn.__module__ == eg.__name__
              and not name.startswith("_")}
    assert public - NOT_OPS == set(OP_CASES)


@pytest.mark.parametrize("op", sorted(OP_CASES))
def test_no_op_hides_a_nonfinite_input(op):
    call, inputs, read = OP_CASES[op]
    assert np.isfinite(call(*map(eg.Tensor, inputs)).data).all()
    for i, arr in enumerate(inputs):
        for pos in (read[i] if read else everywhere(arr.shape)):
            for bad in BAD_VALUES:
                args = [a.copy() for a in inputs]
                args[i][pos] = bad
                try:
                    with np.errstate(all="ignore"):
                        out = call(*map(eg.Tensor, args))
                except NonFiniteError:
                    continue
                assert not np.isfinite(out.data).all(), (i, pos, bad)


def test_ops_that_could_drop_a_nonfinite_value_check_their_input():
    for op in ("relu", "sigmoid", "clamp", "take_fields"):
        call, inputs, _ = OP_CASES[op]
        args = [a.copy() for a in inputs]
        args[-1][(0,) * args[-1].ndim] = -np.inf
        with pytest.raises(NonFiniteError, match=f"^non-finite input to op '{op}'$"):
            call(*map(eg.Tensor, args))


def test_complement_from_passes_inf_and_nan_on_unchanged():
    # it drops no value, so it checks none: a non-finite a_c stays in
    # column c, negated in the complemented columns
    a = np.array([[np.inf, -np.inf, np.nan, np.inf, -np.inf, np.nan]])
    out = eg.complement_from(eg.Tensor(a), 3).data
    assert out[0, :3].tobytes() == a[0, :3].tobytes()
    assert out[0, 3:].tolist()[:2] == [-np.inf, np.inf] and np.isnan(out[0, 5])


def test_an_op_checks_its_output_only_when_every_op_is_checked():
    big = eg.Tensor(np.array([1e300]))
    with np.errstate(over="ignore"):
        assert eg.mul(big, big).data[0] == np.inf
        with eg._every_op_checked(), pytest.raises(
            NonFiniteError, match="^non-finite values produced by op 'mul'$"
        ):
            eg.mul(big, big)
    assert eg.mul(big, eg.Tensor(np.array([0.5]))).data[0] == 5e299


def test_log_refuses_nan_and_backward_a_nonfinite_scalar():
    with pytest.raises(NonFiniteError, match="log of non-positive value"):
        eg.log(eg.Tensor(np.array([1.0, np.nan])))
    t = eg.Tensor(np.array([np.inf, 1.0]), requires_grad=True)
    with pytest.raises(NonFiniteError, match="backward from a non-finite output"):
        eg.mean_all(t).backward()
    assert t.grad is None


# ---------------------------------------------------------------------------
# model-level sweep: inf, -inf or NaN in one element of one parameter that
# the batch reads, through every path that scores rows

NUM_FIELDS = 4
CARDINALITY = 6


def tiny_model(variant, precision):
    schemas = [FieldSchema(f"f{i}", i, CARDINALITY) for i in range(NUM_FIELDS)]
    return CtrModel(schemas, ModelConfig(
        variant=variant, embedding_dim=4, hidden_sizes=(5,), min_reduced_dim=2,
        precision=precision,
    ))


def rows(n=9):
    rng = np.random.default_rng(5)
    return rng.integers(0, CARDINALITY, size=(n, NUM_FIELDS)), rng.integers(0, 2, size=n)


def paths(model, x, y):
    out = {
        "predict": lambda: model.predict_proba(x),
        "train": lambda: model.loss(x, y, training=True, rng=np.random.default_rng(0)).backward(),
    }
    if model.sk_params is not None:
        out["attention"] = lambda: model.batch_attention(x)
    return out


def read_element(name, param, x):
    """An element of parameter ``name`` that the batch ``x`` reads."""
    if name.startswith(("linear/f", "embed/f")):
        return x[0, int(name.rsplit("/f", 1)[1])], 0
    return (0,) * param.data.ndim


def named_op(name, path):
    """The op that first produces a non-finite value, as the error names it;
    None where the path never reads the parameter."""
    if path == "attention" and name.startswith(("linear/", "dnn/")):
        return None
    if name.startswith(("linear/f", "embed/")):
        return "gather_fields"
    if name in ("linear/bias", "dnn/b0", "dnn/head_b"):
        return "add_rowvec"
    if name == "dnn/w0":
        return "branch_linear"
    return "linear"  # dnn/head_w and the sk/ matrices


def outcome(run):
    try:
        with np.errstate(all="ignore"):
            run()
    except NonFiniteError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("precision", ["float32", "float64"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_every_parameter_sweep_names_the_producing_op(variant, precision):
    model = tiny_model(variant, precision)
    x, y = rows()
    got, want = {}, {}
    for name, param in model.params.items():
        pos = read_element(name, param, x)
        for bad in BAD_VALUES:
            for path, run in paths(model, x, y).items():
                old = param.data[pos]
                param.data[pos] = bad
                try:
                    got[name, bad, path] = outcome(run)
                finally:
                    param.data[pos] = old
                op = named_op(name, path)
                want[name, bad, path] = op and f"non-finite values produced by op '{op}'"
    assert got == want
    # the sweep leaves the model as it found it
    for run in paths(model, x, y).values():
        run()


def test_sweep_size():
    # 69 parameters over the six variants, three values, two precisions and
    # two paths, plus fiinet's 16 parameters through batch_attention
    cases = raising = 0
    for variant in VARIANTS:
        model = tiny_model(variant, "float32")
        for name, _ in model.params.items():
            for path in paths(model, *rows()):
                cases += 6
                raising += 6 * (named_op(name, path) is not None)
    assert (cases, raising) == (924, 870)


def test_float32_overflow_names_cross_products():
    # 1e13 cubed overflows float32 in the triple crosses; the first check on
    # the way, the sk descriptor's relu, catches it, and the replay names
    # the op that produced it
    model = tiny_model("fiinet", "float32")
    x, y = rows()
    for name, param in model.params.items():
        if name.startswith("embed/"):
            param.data[:] = 1e13
    for run in paths(model, x, y).values():
        with np.errstate(all="ignore"), pytest.raises(NonFiniteError) as info:
            run()
        assert str(info.value) == "non-finite values produced by op 'cross_products'"
        assert str(info.value.__context__) == "non-finite input to op 'relu'"


def test_replay_draws_no_dropout_mask():
    # an inf in the output head is caught after dropout has drawn its one
    # mask; the rng ends where a clean step leaves it
    x, y = rows()
    clean, broken = tiny_model("fiinet-sh", "float32"), tiny_model("fiinet-sh", "float32")
    broken.params["dnn/head_w"].data[0, 0] = np.inf
    want, got = np.random.default_rng(1), np.random.default_rng(1)
    clean.loss(x, y, training=True, rng=want)
    with np.errstate(all="ignore"), pytest.raises(NonFiniteError, match="op 'linear'"):
        broken.loss(x, y, training=True, rng=got)
    assert got.bit_generator.state == want.bit_generator.state


def test_a_failure_the_replay_does_not_repeat_is_raised_as_caught():
    # dropout's 1/(1 - 0.9) scale overflows a hidden unit of 1e38; the
    # evaluation-mode replay has no dropout, so it raises nothing and the
    # error of the check that caught the value stands
    schemas = [FieldSchema(f"f{i}", i, CARDINALITY) for i in range(NUM_FIELDS)]
    model = CtrModel(schemas, ModelConfig(
        variant="fiinet-h", embedding_dim=4, hidden_sizes=(5,), dropout=0.9,
    ))
    model.params["dnn/b0"].data[:] = 1e38
    model.params["dnn/head_w"].data[:] = 0.01
    x, y = rows()
    assert np.isfinite(model.predict_proba(x)).all()
    with np.errstate(all="ignore"), pytest.raises(NonFiniteError) as info:
        model.loss(x, y, training=True, rng=np.random.default_rng(0))
    assert str(info.value) == "non-finite input to op 'sigmoid'"
    assert info.value.__context__ is None
