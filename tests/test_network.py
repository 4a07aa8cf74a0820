"""Model variants: gradients of every variant against finite differences,
table gradients against a dense scatter, each deep variant's forward
against a plain-numpy restatement of the padded-branch formula, scoring in
row blocks against one whole-batch pass, parameters drawn on first read
and never when loaded, the loss against the two-log formula bit for bit,
label checks before the forward pass, dnn/w0 held column-major with the
bits of the row-major formula, index dtype checks, and ModelConfig
validation."""

import re
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from fiinet import engine as eg
from fiinet import network
from fiinet.errors import ConfigError, DataError, ShapeError
from fiinet.ingest import FieldSchema
from fiinet.network import VARIANTS, CtrModel, ModelConfig
from gradcheck import check_parameters

NUM_FIELDS = 4
CARDINALITY = 6


def small_model(variant, precision="float64", seed=3):
    schemas = [FieldSchema(f"f{i}", i, CARDINALITY) for i in range(NUM_FIELDS)]
    cfg = ModelConfig(
        variant=variant, embedding_dim=3, hidden_sizes=(5,), min_reduced_dim=2,
        dropout=0.0, precision=precision, seed=seed,
    )
    model = CtrModel(schemas, cfg)
    # move off the initial point, where every select weight is exactly 0.5
    rng = np.random.default_rng(seed)
    for _, t in model.params.items():
        t.data += (0.3 * rng.standard_normal(t.data.shape)).astype(t.data.dtype)
    return model


def batch(n=7, seed=4):
    rng = np.random.default_rng(seed)
    return rng.integers(0, CARDINALITY, size=(n, NUM_FIELDS)), rng.integers(0, 2, size=n)


# the "-mean" in the ids names the pooling of the Fuse stage, a global mean
@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: f"{v}-mean")
def test_variant_gradients_pass_fd_check(variant):
    model = small_model(variant)
    x, y = batch()
    report = check_parameters(lambda: model.loss(x, y), model.params, eps=1e-5, max_coords=24)
    assert max(report.values()) < 1e-4, report


@pytest.mark.parametrize("precision", ["float32", "float64"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_table_gradients_equal_a_dense_scatter(variant, precision, monkeypatch):
    # record the gradient reaching each table of a gather, then redo its
    # scatter-add into a dense zero table with plain numpy
    gathers = []
    real = eg.gather_fields

    def recording(tables, indices):
        out = real(tables, indices)
        backward = out._backward

        def spy(g):
            idx = np.asarray(indices)
            gathers.extend((t, idx[:, i], g[:, i].copy()) for i, t in enumerate(tables))
            return backward(g)

        out._backward = spy
        return out

    monkeypatch.setattr(eg, "gather_fields", recording)
    model = small_model(variant, precision=precision)
    x, y = batch(n=40)  # 40 rows over 6 values: every column repeats
    model.params.zero_grad()
    model.loss(x, y).backward()
    tables = {id(t): name for name, t in model.params.items()
              if name.startswith(("linear/f", "embed/"))}
    assert len(gathers) == len(tables)
    for table, idx, g in gathers:
        want = np.zeros_like(table.data)
        np.add.at(want, idx, g)
        assert len(np.unique(idx)) < len(idx)
        assert table.grad.tobytes() == want.tobytes(), tables[id(table)]


def tape(out):
    """The distinct recorded nodes reachable from ``out``."""
    nodes, stack = {}, [out]
    while stack:
        node = stack.pop()
        if node._backward is not None and id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node._parents)
    return list(nodes.values())


def ten_field_fiinet():
    schemas = [FieldSchema(f"f{i}", i, 5) for i in range(10)]
    return CtrModel(schemas, ModelConfig(embedding_dim=4, hidden_sizes=(8, 4)))


def test_fiinet_forward_records_25_tape_nodes_at_10_fields():
    # two gathers (one per table family), sum_fields and add_rowvec for the
    # linear part, and 21 nodes for the crosses, attention, DNN and output:
    # the select weights reach the first DNN layer through one
    # complement_from, with no (B,C) 1 - a of their own
    out = ten_field_fiinet().forward(np.zeros((3, 10), dtype=np.int64))
    assert len(tape(out)) == 25


def test_fiinet_training_step_records_35_tape_nodes_at_10_fields():
    # the forward's 25, a dropout node per hidden layer, and 8 for the loss:
    # clamp, two mul, one_minus, add, one log, mean_all and neg
    loss = ten_field_fiinet().loss(
        np.zeros((3, 10), dtype=np.int64), [0, 1, 1], training=True, rng=np.random.default_rng(0)
    )
    assert len(tape(loss)) == 35


def test_fiinet_training_step_keeps_two_cross_width_arrays_at_10_fields():
    # the tape holds the pair and the triple branch, C2·k and C3·k wide;
    # the (B,C,k) DNN input, scaled or not, is not kept
    model = ten_field_fiinet()
    loss = model.loss(
        np.zeros((3, 10), dtype=np.int64), [0, 1, 1], training=True, rng=np.random.default_rng(0)
    )
    k, layout = model.config.embedding_dim, model.layout
    cross_widths = [layout.num_pairs * k, len(layout.triples) * k, layout.num_channels * k]
    # a reshape's output is a view: count each buffer once, by its owner
    buffers = {id(b): b for b in (n.data if n.data.base is None else n.data.base for n in tape(loss))}
    widths = sorted(b.size // 3 for b in buffers.values())  # 3 rows
    assert [w for w in widths if w in cross_widths] == cross_widths[:2]


def test_fiinet_training_step_peaks_below_five_cross_arrays():
    # tracemalloc peak of one float32 step (zero_grad, the loss with
    # dropout, backward) after a first one, in (B,C,k) float32 arrays: 4.5
    # with the first DNN layer reading the branches and in-place gradient
    # sums, 5.6 when the tape kept the scaled (B,C,k) DNN input
    schemas = [FieldSchema(f"f{i}", i, 5) for i in range(10)]
    model = CtrModel(schemas, ModelConfig(embedding_dim=16))
    rng = np.random.default_rng(0)
    x, y = rng.integers(0, 5, size=(256, 10)), rng.integers(0, 2, size=256)
    for traced in (False, True):
        if traced:
            tracemalloc.start()
        try:
            model.params.zero_grad()
            model.loss(x, y, training=True, rng=rng).backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    cross_array = 256 * model.layout.num_channels * 16 * 4
    assert peak <= 4.8 * cross_array, peak / cross_array


def test_backward_memory_does_not_grow_with_vocabulary():
    def backward_peak_mb(cardinality):
        schemas = [FieldSchema(f"f{i}", i, cardinality) for i in range(6)]
        model = CtrModel(schemas, ModelConfig(embedding_dim=8, hidden_sizes=(16,), dropout=0.0))
        rng = np.random.default_rng(0)
        x = rng.integers(0, cardinality, size=(256, 6))
        y = rng.integers(0, 2, size=256)
        model.params.zero_grad()
        loss = model.loss(x, y)
        tracemalloc.start()
        try:
            loss.backward()
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    small, large = backward_peak_mb(1000), backward_peak_mb(100_000)
    assert large - small < 0.5, (small, large)


def _sigmoid(z):
    """The engine's logistic function, restated: split by sign, then clipped."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    np.clip(out, eg.SIGMOID_EPS, 1.0 - eg.SIGMOID_EPS, out=out)
    return out


def padded_proba(state, names, idx, orders=(2, 3), attention=True):
    """A deep variant in evaluation mode with both branches zero-padded to
    all C channels.  With attention they are selected as a * U2 + b * U3;
    without it they are summed, U2 + U3.  ``orders`` names the cross orders
    the variant builds; an absent order's branch is all zeros."""
    e = np.stack([state[f"embed/{n}"][idx[:, f]] for f, n in enumerate(names)], axis=1)
    pairs = list(combinations(range(len(names)), 2)) if 2 in orders else []
    triples = list(combinations(range(len(names)), 3)) if 3 in orders else []
    c2, c = len(pairs), len(pairs) + len(triples)
    u2 = np.zeros((idx.shape[0], c, e.shape[2]), dtype=e.dtype)
    u3 = np.zeros_like(u2)
    for ch, (i, j) in enumerate(pairs):
        u2[:, ch] = e[:, i] * e[:, j]
    for ch, (i, j, k) in enumerate(triples):
        u3[:, c2 + ch] = (e[:, i] * e[:, j]) * e[:, k]
    fused = u2 + u3
    if attention:
        s = np.maximum(fused.mean(axis=-1) @ state["sk/w1"].T, 0)
        a = _sigmoid(s @ state["sk/A"].T - s @ state["sk/B"].T)
        b = a.dtype.type(1) - a
        fused = u2 * a[:, :, None] + u3 * b[:, :, None]
    h = fused.reshape(idx.shape[0], -1)
    layer = 0
    while f"dnn/w{layer}" in state:
        h = np.maximum(h @ state[f"dnn/w{layer}"].T + state[f"dnn/b{layer}"], 0)
        layer += 1
    deep = h @ state["dnn/head_w"].T + state["dnn/head_b"]
    z = state[f"linear/{names[0]}"][idx[:, 0]]
    for f in range(1, len(names)):
        z = z + state[f"linear/{names[f]}"][idx[:, f]]
    z = (z + state["linear/bias"]) + deep
    return _sigmoid(z.reshape(-1)).astype(np.float64)


def assert_matches_padded_formula(variant, precision, orders=(2, 3), attention=True):
    model = small_model(variant, precision)
    x, _ = batch(n=33, seed=9)
    names = [s.field_name for s in model.schemas]
    want = padded_proba(model.params.state_arrays(), names, x, orders, attention)
    assert model.predict_proba(x).tobytes() == want.tobytes()


# the "-mean" in the ids names the pooling of the Fuse stage, a global mean
@pytest.mark.parametrize("precision", ["float32", "float64"], ids=lambda p: f"{p}-mean")
def test_fiinet_matches_padded_formula_bitwise(precision):
    assert_matches_padded_formula("fiinet", precision)


@pytest.mark.parametrize("precision", ["float32", "float64"])
@pytest.mark.parametrize("variant,orders", [
    ("fiinet-sh", (2, 3)), ("fiinet-h", (2,)), ("fiinet-s", (3,)),
])
def test_ablation_matches_padded_formula_bitwise(variant, orders, precision):
    assert_matches_padded_formula(variant, precision, orders, attention=False)


def bench_model(seed=5):
    """fiinet at the benchmark's shape: 10 fields, k=32, hidden (128, 64),
    float32; 50 values per field keep the tables small."""
    schemas = [FieldSchema(f"c{i}", i, 50) for i in range(10)]
    return CtrModel(schemas, ModelConfig(embedding_dim=32, seed=seed))


def layouts(arrays):
    """"F" for a column-major array, "C" for a row-major one (a 1-D array
    is both and reads "C")."""
    return {n: "C" if a.flags.c_contiguous else "F" if a.flags.f_contiguous else "-"
            for n, a in arrays.items()}


def only_w0_column_major(params):
    return {n: "F" if n == "dnn/w0" else "C" for n, _ in params.items()}


@pytest.mark.parametrize("rows", [2, 16, 64, 288])
def test_column_major_first_layer_scores_equal_the_row_major_formula_bitwise(rows):
    model = bench_model()
    names = [s.field_name for s in model.schemas]
    state = model.params.state_arrays()
    x = np.random.default_rng(rows).integers(0, 50, size=(2 * rows, 10))
    for req in (x[:rows], x[rows:]):
        assert model.predict_proba(req).tobytes() == padded_proba(state, names, req).tobytes()


def test_one_row_scores_equal_the_row_major_formula_to_rounding():
    # at one row numpy multiplies through BLAS's matrix-vector kernel,
    # which sums a column-major weight's products in another order than a
    # row-major one's: a few scores differ in their last bits
    model = bench_model()
    names = [s.field_name for s in model.schemas]
    state = model.params.state_arrays()
    x = np.random.default_rng(1).integers(0, 50, size=(64, 10))
    got = np.concatenate([model.predict_proba(row) for row in x])
    want = np.concatenate([padded_proba(state, names, row[None]) for row in x])
    np.testing.assert_allclose(got, want, rtol=1e-6, atol=0)


@pytest.mark.parametrize("rows", [16, 256])
def test_column_major_first_layer_gradient_equals_scale_reshape_linear_bitwise(rows, monkeypatch):
    # the same step with branch_linear replaced by the three ops it fuses,
    # reading a row-major copy of dnn/w0
    model = bench_model()
    x = np.random.default_rng(rows).integers(0, 50, size=(rows, 10))
    y = np.random.default_rng(rows + 1).integers(0, 2, size=rows)

    def step():
        model.params.zero_grad()
        model.loss(x, y, training=True, rng=np.random.default_rng(7)).backward()
        return {n: t.grad.copy(order="K") for n, t in model.params.items()}

    fused = step()
    assert layouts(fused) == only_w0_column_major(model.params)
    copies = []

    def unfused(xs, w, weight):
        copies.append(eg.Tensor(weight.data.copy(order="C"), requires_grad=True))
        scaled = eg.scale_channels(xs, w)
        flat = eg.reshape(scaled, (rows, scaled.data.shape[1] * scaled.data.shape[2]))
        return eg.linear(flat, copies[-1])

    monkeypatch.setattr(eg, "branch_linear", unfused)
    spelled_out = step()
    (copy,) = copies
    assert copy.grad.flags.c_contiguous
    assert fused["dnn/w0"].tobytes() == copy.grad.tobytes()
    for name, grad in spelled_out.items():
        if name != "dnn/w0":
            assert grad.tobytes() == fused[name].tobytes(), name


@pytest.mark.parametrize("variant", VARIANTS)
def test_only_dnn_w0_is_held_column_major(variant, tmp_path):
    model = new_model(variant)
    want = only_w0_column_major(model.params)
    assert layouts({n: t.data for n, t in model.params.items()}) == want
    state = model.params.state_arrays()
    assert set(layouts(state).values()) == {"C"}
    x, y = batch()
    for zeroed in (False, True):
        for _, t in model.params.items():
            t.grad = None
        if zeroed:
            model.params.zero_grad()
        model.loss(x, y).backward()
        assert layouts({n: t.grad for n, t in model.params.items()}) == want, zeroed
    other = new_model(variant)
    other.params.load_arrays(state)
    assert layouts({n: t.data for n, t in other.params.items()}) == want
    path = tmp_path / "model.ckpt"
    eg.save_checkpoint(path, model.params)
    loaded = new_model(variant)
    eg.load_checkpoint_into(path, loaded.params)
    assert layouts({n: t.data for n, t in loaded.params.items()}) == want
    assert all(t.data.tobytes() == state[n].tobytes() for n, t in loaded.params.items())


@pytest.mark.parametrize("variant,pairs,triples,attention", [
    ("fiinet", 6, 4, True), ("fiinet-sh", 6, 4, False),
    ("fiinet-h", 6, 0, False), ("fiinet-s", 0, 4, False),
])
def test_deep_variants_cross_orders_and_attention(variant, pairs, triples, attention):
    model = small_model(variant)
    assert (model.layout.num_pairs, len(model.layout.triples)) == (pairs, triples)
    assert (model.sk_params is not None) == attention
    x, _ = batch()
    assert model.forward(x).data.shape == (7,)
    if attention:
        a, b = model.batch_attention(x)
        assert a.shape == b.shape == (7, pairs + triples)
    else:
        for rows in (x, x[:0]):
            with pytest.raises(ShapeError, match="no attention weights"):
                model.batch_attention(rows)


@pytest.mark.parametrize("variant", ["fiinet", "fiinet-sh", "fiinet-s"])
def test_triple_crosses_at_two_fields_raise_the_layout_error(variant):
    schemas = [FieldSchema(f"f{i}", i, CARDINALITY) for i in range(2)]
    with pytest.raises(ShapeError, match="^order-3 crosses need at least 3 fields, got 2$"):
        CtrModel(schemas, ModelConfig(variant=variant))


@pytest.mark.parametrize("variant,message", [
    ("fm", "^fm needs at least 2 fields, got 1$"),
    ("fiinet-h", "^order-2 crosses need at least 2 fields, got 1$"),
])
def test_crosses_at_one_field_raise(variant, message):
    with pytest.raises(ShapeError, match=message):
        CtrModel([FieldSchema("f0", 0, CARDINALITY)], ModelConfig(variant=variant))


@pytest.mark.parametrize("variant", VARIANTS)
def test_zero_fields_are_refused_at_construction(variant):
    with pytest.raises(ShapeError, match=f"^{variant} needs at least 1 field, got 0$"):
        CtrModel([], ModelConfig(variant=variant))


@pytest.mark.parametrize("variant", ["lr", "fiinet"])
@pytest.mark.parametrize("names,message", [
    (["f0", "bias", "f2"], "field name 'bias' is taken by the global bias"),
    (["f0", "f1", "f0"], "duplicate field name 'f0'"),
])
def test_field_names_that_would_share_a_parameter_name(variant, names, message):
    schemas = [FieldSchema(n, i, CARDINALITY) for i, n in enumerate(names)]
    with pytest.raises(DataError, match=message):
        CtrModel(schemas, ModelConfig(variant=variant))


def count_blocks(monkeypatch, model, name, blocks):
    """Record the rows of every block passed to ``model.<name>``, whose
    first argument is the block."""
    real = getattr(model, name)

    def counted(block, *args):
        blocks.append(len(getattr(block, "data", block)))
        return real(block, *args)

    monkeypatch.setattr(model, name, counted)


@pytest.mark.parametrize("n", [1000, 6000])
@pytest.mark.parametrize("precision", ["float32", "float64"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_scoring_in_blocks_equals_one_whole_batch(variant, precision, n, monkeypatch):
    model = small_model(variant, precision)
    x, _ = batch(n=n, seed=5)
    with eg.no_grad():
        whole = model.forward(x).data.astype(np.float64)
    # a budget small enough that every variant's rows span several blocks
    monkeypatch.setattr(network, "SCORE_BLOCK_BYTES", 1024)
    blocks = []
    count_blocks(monkeypatch, model, "_forward", blocks)
    assert model.predict_proba(x).tobytes() == whole.tobytes()
    assert len(blocks) > 1 and sum(blocks) == n
    if model.sk_params is None:
        return
    blocks.clear()
    count_blocks(monkeypatch, model, "attention_weights", blocks)
    a, b = model.batch_attention(x)
    assert len(blocks) > 1
    monkeypatch.setattr(network, "SCORE_BLOCK_BYTES", 2**40)
    blocks.clear()
    whole_a, whole_b = model.batch_attention(x)
    assert blocks == [n]
    assert a.tobytes() == whole_a.tobytes() and b.tobytes() == whole_b.tobytes()


@pytest.mark.parametrize("variant,fields,row_bytes", [
    ("fiinet", 10, 165 * 32 * 4), ("fiinet", 20, 1330 * 32 * 4), ("fm", 10, 10 * 32 * 4),
])
def test_blocks_fit_the_widest_intermediate(variant, fields, row_bytes, monkeypatch):
    schemas = [FieldSchema(f"f{i}", i, 3) for i in range(fields)]
    model = CtrModel(schemas, ModelConfig(variant=variant, embedding_dim=32, hidden_sizes=(2,)))
    blocks = []
    monkeypatch.setattr(
        model, "_forward",
        lambda block, training, rng: blocks.append(len(block)) or eg.Tensor(np.zeros(len(block))),
    )
    n = 30_000
    model.predict_proba(np.zeros((n, fields), dtype=np.int64))
    align = network.SCORE_BLOCK_ALIGN
    most = network.SCORE_BLOCK_BYTES // row_bytes // align * align
    # as few blocks as the budget allows, near-equal, each start aligned
    assert sum(blocks) == n and len(blocks) == -(-n // most)
    assert max(blocks) <= most and max(blocks) - min(blocks) <= align
    assert all(rows % align == 0 for rows in blocks[:-1])


@pytest.mark.parametrize("variant", VARIANTS)
def test_each_row_is_range_checked_once_and_errors_name_the_field(variant, monkeypatch):
    model = small_model(variant)
    monkeypatch.setattr(network, "SCORE_BLOCK_BYTES", 1024)
    checked, blocks = [], []
    real = model._validate_indices
    monkeypatch.setattr(model, "_validate_indices", lambda idx: checked.append(len(idx)) or real(idx))
    count_blocks(monkeypatch, model, "_forward", blocks)
    scorers = [model.predict_proba]
    if model.sk_params is not None:
        count_blocks(monkeypatch, model, "attention_weights", blocks)
        scorers.append(model.batch_attention)
    x, _ = batch(n=500, seed=6)
    for score in scorers:
        checked.clear()
        blocks.clear()
        score(x)
        # one check of the whole array, however many blocks score it
        assert checked == [500] and len(blocks) > 1 and sum(blocks) == 500
    x[-1, 2] = CARDINALITY  # in the last block
    for score in scorers:
        with pytest.raises(DataError, match="field 'f2'"):
            score(x)


def new_model(variant, precision="float32"):
    """A model at its initial values, seed 11."""
    schemas = [FieldSchema(f"f{i}", i, CARDINALITY) for i in range(NUM_FIELDS)]
    return CtrModel(schemas, ModelConfig(
        variant=variant, embedding_dim=3, hidden_sizes=(5, 4), min_reduced_dim=2,
        precision=precision, seed=11,
    ))


@pytest.mark.parametrize("variant", VARIANTS)
def test_a_model_loaded_from_a_checkpoint_draws_nothing(variant, tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    eg.save_checkpoint(path, new_model(variant).params)
    saved, _ = eg.load_checkpoint(path)
    draws = []
    monkeypatch.setattr(eg, "xavier_init", lambda shape, seed, name, dtype: draws.append(name))
    model = new_model(variant)
    eg.load_checkpoint_into(path, model.params)
    x, y = batch()
    model.predict_proba(x)
    model.params.zero_grad()
    model.loss(x, y).backward()
    assert draws == []
    for name, t in model.params.items():
        assert t.data.tobytes() == saved[name].tobytes(), name


@pytest.mark.parametrize("precision", ["float32", "float64"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_first_reads_in_reverse_order_give_each_parameter_its_own_draw(variant, precision):
    model = new_model(variant, precision)
    dtype = model.params.dtype
    for name, t in reversed(list(model.params.items())):
        if len(t.shape) == 1:  # the biases
            want = np.zeros(t.shape, dtype)
        else:
            stream = "sk/branches" if name in ("sk/A", "sk/B") else name
            want = eg.xavier_init(t.shape, 11, stream, dtype)
        assert t.data.dtype == dtype and t.data.tobytes() == want.tobytes(), name
    if variant == "fiinet":
        a, b = model.params["sk/A"].data, model.params["sk/B"].data
        assert a.tobytes() == b.tobytes() and not np.shares_memory(a, b)


@pytest.mark.parametrize("labels", [[0, 1, 7], [0, 1, -1], [0.5, 1, 0]])
def test_loss_rejects_labels_outside_0_1(labels):
    model = small_model("fiinet")
    x, _ = batch(n=3)
    with pytest.raises(DataError, match="is not 0 or 1"):
        model.loss(x, labels)


@pytest.mark.parametrize("labels,error,message", [
    ([0, 1, 2, 0, 1, 0], DataError, "bce_loss: label 2 is not 0 or 1"),
    ([0, 1, 0], ShapeError, r"bce_loss: scores \(6,\) vs labels \(3,\)"),
    (np.array([1, 0, None, 0, 1, 0], dtype=object), DataError, "bce_loss: label None is not 0 or 1"),
    (np.array([1, 0, "x", 0, 1, 0], dtype=object), DataError, "bce_loss: label 'x' is not 0 or 1"),
])
def test_a_refused_loss_runs_no_forward_and_draws_nothing(labels, error, message):
    model = new_model("fiinet", "float32")
    model._forward = lambda *args: pytest.fail("forward ran")
    x, _ = batch(n=6)
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    with pytest.raises(error, match=f"^{message}$"):
        model.loss(x, labels, training=True, rng=rng)
    assert rng.bit_generator.state == state


ENTRY_POINTS = {
    "forward": lambda model, idx: model.forward(idx),
    "predict_proba": lambda model, idx: model.predict_proba(idx),
    "loss": lambda model, idx: model.loss(idx, np.zeros(len(idx), dtype=np.int64)),
    "batch_attention": lambda model, idx: model.batch_attention(idx),
}


@pytest.mark.parametrize("variant,entry", [
    (v, e) for v in VARIANTS for e in ENTRY_POINTS if e != "batch_attention" or v == "fiinet"
])
@pytest.mark.parametrize("indices", [
    np.array([["0", "1", "2", "3"]]),
    np.array([[0, None, 2, 3]], dtype=object),
    np.array([[0, 1, 2, 3]], dtype=object),
    np.array([[0.0, 1.0, 2.0, 3.0]]),
    np.ones((2, 4), dtype=bool),
], ids=["str", "object-None", "object-int", "float", "bool"])
def test_non_integer_indices_raise_shape_error_at_every_entry_point(variant, entry, indices):
    # batch_attention: only fiinet has attention weights
    model = small_model(variant)
    with pytest.raises(ShapeError, match=f"^indices must be integers, got dtype {indices.dtype}$"):
        ENTRY_POINTS[entry](model, indices)


def two_log_loss(probs, labels):
    """The loss and its gradient as -mean(y·log p + (1-y)·log(1-p)) on the
    clamped probabilities, with the backward rules of each op restated."""
    dtype = probs.dtype
    y = labels.astype(dtype)
    eps = eg.SIGMOID_EPS
    p = np.clip(probs, eps, 1.0 - eps)
    inside = (probs >= eps) & (probs <= 1.0 - eps)
    loss = np.asarray(-(y * np.log(p) + (1 - y) * np.log(1 - p)).mean(), dtype=dtype)
    g = -np.ones((), dtype) / len(probs)
    grad = ((g * y) / p - (g * (1 - y)) / (1 - p)) * inside
    return loss, grad


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("label", [0, 1, None], ids=["all-0", "all-1", "mixed"])
def test_loss_and_gradient_equal_the_two_log_formula_bitwise(dtype, label):
    eps = eg.SIGMOID_EPS
    saturated = [0.0, 1e-12, eps / 2, 1 - eps / 2, 1 - 1e-12, 1.0]
    probs = np.concatenate([np.linspace(eps, 1 - eps, 41), saturated, [0.3, 0.5]]).astype(dtype)
    if label is None:
        probs = np.repeat(probs, 2)
        labels = np.tile([0, 1], len(probs) // 2)
    else:
        labels = np.full(len(probs), label)
    p = eg.Tensor(probs, requires_grad=True)
    loss = network._bce_loss(p, labels)
    loss.backward()
    want_loss, want_grad = two_log_loss(probs, labels)
    assert loss.data.dtype == dtype and loss.data.tobytes() == want_loss.tobytes()
    assert p.grad.dtype == dtype and p.grad.tobytes() == want_grad.tobytes()


@pytest.mark.parametrize("field,value", [
    ("variant", "deepfm"), ("dropout", -0.1),
    ("dropout", 1.0), ("precision", "float16"), ("precision", ["float32"]), ("precision", None),
    ("embedding_dim", 2.5), ("embedding_dim", 0), ("min_reduced_dim", 0),
    ("min_reduced_dim", -1), ("hidden_sizes", (0,)), ("hidden_sizes", (8, 2.5)),
    ("hidden_sizes", ()), ("hidden_sizes", 64), ("hidden_sizes", "64"),
    ("dropout", "0.2"), ("dropout", None), ("seed", -1), ("seed", 2.5), ("seed", True),
])
def test_config_rejects_bad_values_when_built(field, value):
    with pytest.raises(ConfigError, match=field):
        ModelConfig(**{field: value})


def test_config_accepts_defaults_and_edges():
    ModelConfig()
    ModelConfig(dropout=0.0, precision="float64", variant="lr", hidden_sizes=())
    ModelConfig(variant="fm", embedding_dim=1, hidden_sizes=())


@pytest.mark.parametrize("indices", [np.zeros((2, 3), np.int64), np.zeros((2, 1, 4), np.int64)],
                         ids=["too-few-fields", "3-d"])
def test_indices_of_the_wrong_shape_raise_shape_error(indices):
    message = rf"^expected indices of shape \(B,4\), got {re.escape(str(indices.shape))}$"
    with pytest.raises(ShapeError, match=message):
        small_model("lr").predict_proba(indices)


@pytest.mark.parametrize("variant", [v for v in VARIANTS if v != "fiinet"])
def test_attention_weights_of_a_variant_without_attention_raise(variant):
    model = small_model(variant)
    emb = eg.Tensor(np.zeros((2, NUM_FIELDS, 3)))
    with pytest.raises(ShapeError, match=f"^variant '{variant}' has no attention weights$"):
        model.attention_weights(emb)


@pytest.mark.parametrize("variant", VARIANTS)
def test_predict_proba_of_no_rows_is_an_empty_float64_array(variant):
    model = small_model(variant, precision="float32")
    probs = model.predict_proba(np.zeros((0, NUM_FIELDS), np.int64))
    assert probs.shape == (0,) and probs.dtype == np.float64


def test_batch_attention_of_no_rows_raises():
    with pytest.raises(DataError, match="^empty sample for attention export$"):
        small_model("fiinet").batch_attention(np.zeros((0, NUM_FIELDS), np.int64))
